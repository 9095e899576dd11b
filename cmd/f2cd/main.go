// Command f2cd runs one F2C node as a network daemon, allowing a real
// multi-process hierarchy to be assembled on any set of hosts. Every
// process reads the same deployment document (see internal/config;
// the Barcelona deployment when -config is omitted) and hosts the
// node -id names in it. The document fixes the node's layer, parent,
// siblings, flush period, retention, durability and overload policy;
// the flags say only where the process listens and how it reaches its
// parent:
//
//	# cloud layer (also serves the open-data API)
//	f2cd -config city.json -id cloud -listen :8080
//
//	# a district (fog layer 2) node reporting to the cloud
//	f2cd -config city.json -id fog2/d01 \
//	     -parent-url http://localhost:8080 -listen :8081
//
//	# a section (fog layer 1) node reporting to the district
//	f2cd -config city.json -id fog1/d01-s01 \
//	     -parent-url http://localhost:8081 -listen :8082
//
// Sensors POST batch envelopes to /f2c/v1/message; f2cctl inspects
// and controls running nodes.
//
// With -transport tcp the message plane runs over the persistent-
// connection framed tcpnet transport instead of HTTP — the production
// wire for a multi-process city. Addresses are host:port; a -cluster
// JSON document (see internal/config.Cluster) wires every peer at
// once:
//
//	f2cd -config city.json -id cloud -transport tcp -listen :9000
//	f2cd -config city.json -id fog2/d01 -transport tcp \
//	     -parent-addr localhost:9000 -listen :9001
//	f2cd -config city.json -id fog1/d01-s01 -transport tcp \
//	     -parent-addr localhost:9001 -listen :9002
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"f2c/internal/config"
	"f2c/internal/core"
	"f2c/internal/cq"
	"f2c/internal/metrics"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/transport/tcpnet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "f2cd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("f2cd", flag.ContinueOnError)
	cfgPath := fs.String("config", "", "deployment JSON: the city and every node setting (default: the Barcelona deployment)")
	id := fs.String("id", "", "node id in the deployment's topology (e.g. fog1/d01-s01, fog2/d01 or cloud)")
	listen := fs.String("listen", ":8080", "listen address")
	transportName := fs.String("transport", config.TransportHTTP, "wire protocol: http|tcp (tcp is the persistent-connection framed transport)")
	parentURL := fs.String("parent-url", "", "parent base URL (fog layers, http transport)")
	parentAddr := fs.String("parent-addr", "", "parent host:port (fog layers, tcp transport)")
	clusterPath := fs.String("cluster", "", "cluster JSON mapping node ids to addresses for -transport (fog layers; wires parent and sibling peers)")
	opendataListen := fs.String("opendata-listen", "", "HTTP address for the cloud's open-data API when the message plane runs over tcp (empty = no open-data endpoint)")
	allInOne := fs.Bool("all-in-one", false, "run the whole deployment in this process (demo mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dep := config.Barcelona()
	if *cfgPath != "" {
		var err error
		if dep, err = config.Load(*cfgPath); err != nil {
			return err
		}
	}
	opts, err := dep.Options(sim.WallClock{})
	if err != nil {
		return err
	}
	if *allInOne {
		return runAllInOne(opts, dep.StandingQueries(), *listen)
	}
	if *id == "" {
		return errors.New("-id is required")
	}
	spec, ok := opts.Topology.Node(*id)
	if !ok {
		return fmt.Errorf("node %q is not in the %s deployment", *id, dep.City)
	}
	var tcp bool
	switch *transportName {
	case config.TransportHTTP:
	case config.TransportTCP:
		tcp = true
	default:
		return fmt.Errorf("unknown transport %q (want http|tcp)", *transportName)
	}

	reg := metrics.NewRegistry()
	var up uplink
	if spec.Layer != topology.LayerCloud {
		parent := *parentURL
		if tcp {
			parent = *parentAddr
		}
		if up, err = dialParent(spec, tcp, reg, parent, *clusterPath); err != nil {
			return err
		}
		if c, ok := up.(io.Closer); ok {
			defer c.Close()
		}
	}
	n, err := buildNode(opts, spec, up, reg, dep.StandingQueries())
	if err != nil {
		return err
	}
	if n.Fog != nil {
		n.Fog.Start()
	}
	return serveNode(spec, n, tcp, *listen, *opendataListen, reg)
}

// uplink is a fog daemon's client transport: HTTP or tcpnet.
type uplink interface {
	transport.Transport
	AddPeer(name, addr string)
}

// dialParent builds a fog node's client transport. The parent's
// address comes from the -parent-url/-parent-addr flag or the cluster
// document; with a cluster, every listed node becomes a dialable peer,
// so sibling relays and federated queries work across the deployment.
func dialParent(spec topology.NodeSpec, tcp bool, reg *metrics.Registry, parent, clusterPath string) (uplink, error) {
	want, flagName := config.TransportHTTP, "-parent-url"
	if tcp {
		want, flagName = config.TransportTCP, "-parent-addr"
	}
	var peers map[string]string
	if clusterPath != "" {
		cluster, err := config.LoadCluster(clusterPath)
		if err != nil {
			return nil, err
		}
		if cluster.Transport != want {
			return nil, fmt.Errorf("cluster %s is for transport %s, not %s", clusterPath, cluster.Transport, want)
		}
		peers = cluster.Nodes
	}
	if parent == "" {
		parent = peers[spec.Parent]
	}
	if parent == "" {
		return nil, fmt.Errorf("%s transport needs %s or a -cluster listing parent %s", want, flagName, spec.Parent)
	}
	var up uplink = transport.NewHTTPTransport(30 * time.Second)
	if tcp {
		up = tcpnet.New(tcpnet.Options{Registry: reg})
	}
	for id, addr := range peers {
		up.AddPeer(id, addr)
	}
	up.AddPeer(spec.Parent, parent)
	return up, nil
}

// buildNode builds the daemon's node exactly as every other host
// builds it — the deployment's Member options for spec — with only the
// upward transport and metrics registry supplied here. A fog layer-1
// node registers the deployment's standing continuous queries before
// it serves, so the first ingested batch is already evaluated; on a
// durable node each registration is journaled, and re-registering at
// the next boot is an idempotent no-op.
func buildNode(opts core.Options, spec topology.NodeSpec, up transport.Transport, reg *metrics.Registry, subs []cq.Subscription) (core.Node, error) {
	mo := opts.Member(spec)
	mo.Transport, mo.Registry = up, reg
	n, err := core.NewNode(spec, mo)
	if err != nil || spec.Layer != topology.LayerFog1 {
		return n, err
	}
	for _, sub := range subs {
		if err := n.Fog.Subscribe(sub); err != nil {
			_ = n.Fog.Close(context.Background())
			return core.Node{}, fmt.Errorf("subscribe %s: %w", sub.ID, err)
		}
	}
	if len(subs) > 0 {
		log.Printf("registered %d standing subscription(s)", len(subs))
	}
	return n, nil
}

// serveNode serves the node's message plane over the chosen transport
// until SIGINT/SIGTERM, then shuts it down gracefully (final flush
// included). The cloud's open-data API rides the HTTP message
// listener, or its own -opendata-listen listener under tcp (it is a
// public REST surface, not node-to-node traffic).
func serveNode(spec topology.NodeSpec, n core.Node, tcp bool, listen, opendataListen string, reg *metrics.Registry) error {
	var stops []func(context.Context) error
	mux := http.NewServeMux()
	web := listen
	if tcp {
		srv, err := tcpnet.NewServer(spec.ID, listen, n.Handler(), tcpnet.ServerOptions{Registry: reg})
		if err != nil {
			return errors.Join(err, shutdown(n.Close))
		}
		stops = append(stops, func(context.Context) error { return srv.Close() })
		listen, web = srv.Addr(), ""
		if n.Cloud != nil {
			web = opendataListen
		}
	} else {
		mux.Handle(transport.MessagePath, transport.NewHTTPHandler(spec.ID, n.Handler()))
	}
	if n.Cloud != nil {
		mux.Handle("/opendata/", n.Cloud.OpenDataHandler())
	}
	if web != "" {
		srv, err := listenHTTP(web, mux)
		if err != nil {
			return errors.Join(err, shutdown(append(stops, n.Close)...))
		}
		stops = append(stops, srv.Shutdown)
	}
	log.Printf("%s node %s listening on %s", spec.Layer, spec.ID, listen)
	waitSignal()
	return shutdown(append(stops, n.Close)...)
}

// listenHTTP binds addr and serves h on it in the background.
func listenHTTP(addr string, h http.Handler) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("http listener %s: %v", addr, err)
		}
	}()
	return srv, nil
}

// shutdown runs each stop in order under one 15 s deadline and joins
// their errors.
func shutdown(stops ...func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var errs []error
	for _, stop := range stops {
		errs = append(errs, stop(ctx))
	}
	return errors.Join(errs...)
}

// waitSignal blocks until SIGINT/SIGTERM.
func waitSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("received %v, shutting down", s)
}
