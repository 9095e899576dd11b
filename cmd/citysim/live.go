package main

import (
	"context"
	"errors"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"f2c/internal/config"
	"f2c/internal/core"
	"f2c/internal/metrics"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport/tcpnet"
)

// liveCity is a whole deployment hosted in this process, every node
// behind its own tcpnet server on a loopback port.
type liveCity struct {
	members []liveMember
	addrs   map[string]string
}

// liveMember is one hosted node with its tcpnet server and, on the fog
// layers, its client transport.
type liveMember struct {
	id   string
	node core.Node
	srv  *tcpnet.Server
	tr   *tcpnet.Transport
}

// startLive hosts the deployment's hierarchy with real sockets and
// real frames. Every node is built the way every other host builds it
// (the deployment's Member options), with a private metrics registry
// and transport exactly as in a multi-process deployment, so per-node
// OpMetrics scrapes are meaningful. Each fog node gets every other
// node as a peer (parent, siblings, cloud — relays and federated
// queries need them all), and fog layer-1 nodes register the
// deployment's standing continuous queries before they serve.
func startLive(dep config.Deployment, host string) (*liveCity, error) {
	opts, err := dep.Options(sim.WallClock{})
	if err != nil {
		return nil, err
	}
	topo := opts.Topology
	c := &liveCity{addrs: make(map[string]string)}
	// The cloud first: the fog layers dial upward.
	specs := append([]topology.NodeSpec{topo.Cloud()}, topo.Fog2Nodes()...)
	for _, spec := range append(specs, topo.Fog1Nodes()...) {
		m := liveMember{id: spec.ID}
		reg := metrics.NewRegistry()
		mo := opts.Member(spec)
		mo.Registry = reg
		if spec.Layer != topology.LayerCloud {
			m.tr = tcpnet.New(tcpnet.Options{Registry: reg})
			mo.Transport = m.tr
		}
		if m.node, err = core.NewNode(spec, mo); err == nil && spec.Layer == topology.LayerFog1 {
			for _, sub := range dep.StandingQueries() {
				if err = m.node.Fog.Subscribe(sub); err != nil {
					break
				}
			}
		}
		if err == nil {
			m.srv, err = tcpnet.NewServer(spec.ID, host+":0", m.node.Handler(), tcpnet.ServerOptions{Registry: reg})
		}
		c.members = append(c.members, m)
		if err != nil {
			c.close()
			return nil, err
		}
		c.addrs[spec.ID] = m.srv.Addr()
	}
	for _, m := range c.members {
		if m.tr == nil {
			continue
		}
		for id, addr := range c.addrs {
			if id != m.id {
				m.tr.AddPeer(id, addr)
			}
		}
		m.node.Fog.Start()
	}
	return c, nil
}

// close shuts the city down in reverse build order: fog layer 1 first
// (it flushes into fog layer 2), the cloud last.
func (c *liveCity) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var errs []error
	for i := len(c.members) - 1; i >= 0; i-- {
		m := c.members[i]
		if m.srv != nil {
			errs = append(errs, m.srv.Close())
		}
		if m.node != (core.Node{}) {
			errs = append(errs, m.node.Close(ctx))
		}
		if m.tr != nil {
			errs = append(errs, m.tr.Close())
		}
	}
	return errors.Join(errs...)
}

// runLive hosts the deployment (startLive), writes the resulting
// cluster document (node id -> tcpnet address) so f2cload
// and f2cctl can drive the city, then serves until SIGINT/SIGTERM.
func runLive(dep config.Deployment, host, clusterOut string) error {
	c, err := startLive(dep, host)
	if err != nil {
		return err
	}
	if clusterOut != "" {
		cluster := config.Cluster{Nodes: c.addrs}
		if err := cluster.Save(clusterOut); err != nil {
			return errors.Join(err, c.close())
		}
		log.Printf("cluster document written to %s", clusterOut)
	}
	log.Printf("live city %s ready: %d nodes over tcpnet, cloud at %s", dep.City, len(c.members), c.addrs[core.CloudID])

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	log.Printf("received %v, shutting down live city", <-sig)
	return c.close()
}
