package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/cloud"
	"f2c/internal/core"
	"f2c/internal/fognode"
	"f2c/internal/metrics"
	"f2c/internal/protocol"
	"f2c/internal/segment"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/transport/tcpnet"
	"f2c/internal/wal"
)

const cityName = "bench"

// cityTopology lays out two districts of two sections each.
func cityTopology() (*topology.Topology, error) {
	return topology.New(cityName, []topology.District{{Name: "d01", Sections: 2}, {Name: "d02", Sections: 2}})
}

// fogMember is one hosted fog node, its private registry and its
// upward transport.
type fogMember struct {
	id   string
	node *fognode.Node
	reg  *metrics.Registry
	up   *tcpnet.Transport
}

// city is a 2-district x 2-section hierarchy (4 fog1 / 2 fog2 / 1
// cloud) hosted in this process, every node behind its own loopback
// tcpnet server and wired only through public constructors, the way
// citysim -live hosts one.
type city struct {
	topo     *topology.Topology
	cloud    *cloud.Node
	cloudReg *metrics.Registry
	fog1     []fogMember
	fog2     []fogMember
	addrs    map[string]string

	servers []*tcpnet.Server
}

// buildCity hosts the city. dataDir non-empty gives every node a
// write-ahead log and a segment store under dataDir/<id>, at their
// default settings. A non-nil tracer wraps every server's handler and
// every node's upward transport.
func buildCity(dataDir string, tr *tracer) (c *city, err error) {
	topo, err := cityTopology()
	if err != nil {
		return nil, err
	}
	c = &city{topo: topo, addrs: make(map[string]string)}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	member := func(id string, reg *metrics.Registry, up transport.Transport) core.MemberOptions {
		o := core.MemberOptions{
			City: cityName, Clock: sim.WallClock{}, Transport: up, Registry: reg,
			Codec: aggregate.CodecZip, Dedup: true, Quality: true,
		}
		if dataDir != "" {
			o.Durability = &wal.Config{Dir: filepath.Join(dataDir, id)}
			o.Storage = &segment.Options{Dir: filepath.Join(dataDir, id, "store")}
		}
		return o
	}
	serve := func(id string, h transport.Handler, reg *metrics.Registry) error {
		if tr != nil {
			h = tracedHandler{t: tr, node: id, next: h}
		}
		srv, err := tcpnet.NewServer(id, "127.0.0.1:0", h, tcpnet.ServerOptions{Registry: reg})
		if err != nil {
			return err
		}
		c.servers = append(c.servers, srv)
		c.addrs[id] = srv.Addr()
		return nil
	}

	c.cloudReg = metrics.NewRegistry()
	if c.cloud, err = cloud.New(core.CloudConfig(core.CloudID, member(core.CloudID, c.cloudReg, nil))); err != nil {
		return c, err
	}
	if err := serve(core.CloudID, c.cloud, c.cloudReg); err != nil {
		return c, err
	}
	build := func(spec topology.NodeSpec, retention time.Duration, siblings []string) (fogMember, error) {
		m := fogMember{id: spec.ID, reg: metrics.NewRegistry()}
		m.up = tcpnet.New(tcpnet.Options{Registry: m.reg})
		var up transport.Transport = m.up
		if tr != nil {
			up = tracedTransport{t: tr, node: spec.ID, next: m.up}
		}
		o := member(spec.ID, m.reg, up)
		o.Retention, o.Siblings = retention, siblings
		node, err := fognode.New(core.FogConfig(spec, o))
		if err != nil {
			m.up.Close()
			return fogMember{}, err
		}
		m.node = node
		return m, serve(spec.ID, node, m.reg)
	}
	for _, spec := range topo.Fog2Nodes() {
		var sibs []string
		for _, other := range topo.Fog2Nodes() {
			if other.ID != spec.ID {
				sibs = append(sibs, other.ID)
			}
		}
		m, err := build(spec, 24*time.Hour, sibs)
		if m.node != nil {
			c.fog2 = append(c.fog2, m)
		}
		if err != nil {
			return c, err
		}
	}
	for _, spec := range topo.Fog1Nodes() {
		m, err := build(spec, time.Hour, topo.Neighbors(spec.ID))
		if m.node != nil {
			c.fog1 = append(c.fog1, m)
		}
		if err != nil {
			return c, err
		}
	}
	for _, m := range c.fogs() {
		for id, addr := range c.addrs {
			if id != m.id {
				m.up.AddPeer(id, addr)
			}
		}
	}
	return c, nil
}

// fogs lists every fog node, fog1 first.
func (c *city) fogs() []fogMember {
	return append(append([]fogMember(nil), c.fog1...), c.fog2...)
}

func (c *city) fog1IDs() []string { return memberIDs(c.fog1) }
func (c *city) fog2IDs() []string { return memberIDs(c.fog2) }

func memberIDs(ms []fogMember) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.id
	}
	return out
}

// registries maps every node to its private registry.
func (c *city) registries() map[string]*metrics.Registry {
	out := map[string]*metrics.Registry{cloudID: c.cloudReg}
	for _, m := range c.fogs() {
		out[m.id] = m.reg
	}
	return out
}

// allIDs lists every node, cloud last.
func (c *city) allIDs() []string {
	return append(append(c.fog1IDs(), c.fog2IDs()...), core.CloudID)
}

// client returns a transport to every node with one connection per
// traffic class, as the load generator uses.
func (c *city) client() *tcpnet.Transport {
	t := tcpnet.New(tcpnet.Options{Conns: 1})
	for id, addr := range c.addrs {
		t.AddPeer(id, addr)
	}
	return t
}

// statusAll sends a status request to every node and checks each
// answers as itself.
func (c *city) statusAll(ctx context.Context, t transport.Transport) error {
	req, err := protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpStatus})
	if err != nil {
		return err
	}
	for _, id := range c.allIDs() {
		reply, err := t.Send(ctx, transport.Message{From: "bench/ctl", To: id, Kind: transport.KindControl, Payload: req})
		if err != nil {
			return fmt.Errorf("status %s: %w", id, err)
		}
		var st protocol.StatusResponse
		if err := protocol.DecodeJSON(reply, &st); err != nil {
			return fmt.Errorf("status %s: %w", id, err)
		}
		if st.NodeID != id {
			return fmt.Errorf("status %s: answered as %q", id, st.NodeID)
		}
	}
	return nil
}

// close stops the fog nodes (fog1 first, so any final drain reaches
// fog2 before fog2 closes), then the servers, the cloud and the
// transports.
func (c *city) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var errs []error
	for _, m := range c.fogs() {
		errs = append(errs, m.node.Close(ctx))
	}
	for _, s := range c.servers {
		errs = append(errs, s.Close())
	}
	if c.cloud != nil {
		errs = append(errs, c.cloud.Close())
	}
	for _, m := range c.fogs() {
		errs = append(errs, m.up.Close())
	}
	return errors.Join(errs...)
}

// cityFog1 names the fog1 nodes buildCity hosts, so inputs can be
// generated before the timed set-up.
func cityFog1() ([]string, error) {
	topo, err := cityTopology()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, s := range topo.Fog1Nodes() {
		out = append(out, s.ID)
	}
	return out, nil
}
