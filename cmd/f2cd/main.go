// Command f2cd runs one F2C node as a network daemon, allowing a real
// multi-process hierarchy to be assembled on any set of hosts. Every
// process reads the same deployment document (see internal/config;
// the Barcelona deployment when -config is omitted) and hosts the
// node -id names in it. The document fixes the node's layer, parent,
// siblings, flush period, retention, durability and overload policy;
// the flags say only where the process listens and how it reaches its
// parent:
//
//	# cloud layer (the open-data API on its own HTTP listener)
//	f2cd -config city.json -id cloud -listen :9000 -opendata-listen :8080
//
//	# a district (fog layer 2) node reporting to the cloud
//	f2cd -config city.json -id fog2/d01 \
//	     -parent-addr localhost:9000 -listen :9001
//
//	# a section (fog layer 1) node reporting to the district
//	f2cd -config city.json -id fog1/d01-s01 \
//	     -parent-addr localhost:9001 -listen :9002
//
// Every node, edge and control message runs over the persistent-
// connection framed tcpnet transport; addresses are host:port. A
// -cluster JSON document (see internal/config.Cluster) wires every
// peer at once. Sensors send batch envelopes to a fog layer-1 node
// with f2cload; f2cctl inspects and controls running nodes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
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
	listen := fs.String("listen", ":8080", "tcpnet listen address (host:port)")
	parentAddr := fs.String("parent-addr", "", "parent host:port (fog layers)")
	clusterPath := fs.String("cluster", "", "cluster JSON mapping node ids to addresses (fog layers; wires parent and sibling peers)")
	opendataListen := fs.String("opendata-listen", "", "HTTP address for the cloud's open-data API (cloud and -all-in-one; empty = no open-data endpoint)")
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
		return runAllInOne(opts, dep.StandingQueries(), *listen, *opendataListen)
	}
	if *id == "" {
		return errors.New("-id is required")
	}
	spec, ok := opts.Topology.Node(*id)
	if !ok {
		return fmt.Errorf("node %q is not in the %s deployment", *id, dep.City)
	}

	reg := metrics.NewRegistry()
	var up transport.Transport
	if spec.Layer != topology.LayerCloud {
		tr, err := dialParent(spec, reg, *parentAddr, *clusterPath)
		if err != nil {
			return err
		}
		defer tr.Close()
		up = tr
	}
	n, err := buildNode(opts, spec, up, reg, dep.StandingQueries())
	if err != nil {
		return err
	}
	if n.Fog != nil {
		n.Fog.Start()
	}
	var openData http.Handler
	if n.Cloud != nil {
		openData = n.Cloud.OpenDataHandler()
	}
	return serve(spec.ID, *listen, n.Handler(), reg, openData, *opendataListen, n.Close)
}

// dialParent builds a fog node's tcpnet client. The parent's address
// comes from -parent-addr or the cluster document; with a cluster,
// every listed node becomes a dialable peer, so sibling relays and
// federated queries work across the deployment.
func dialParent(spec topology.NodeSpec, reg *metrics.Registry, parent, clusterPath string) (*tcpnet.Transport, error) {
	var peers map[string]string
	if clusterPath != "" {
		cluster, err := config.LoadCluster(clusterPath)
		if err != nil {
			return nil, err
		}
		peers = cluster.Nodes
	}
	if parent == "" {
		parent = peers[spec.Parent]
	}
	if parent == "" {
		return nil, fmt.Errorf("a fog node needs -parent-addr or a -cluster listing parent %s", spec.Parent)
	}
	up := tcpnet.New(tcpnet.Options{Registry: reg})
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

// serve hosts h on a tcpnet listener until SIGINT/SIGTERM, then stops
// the listeners and runs closeNodes (final flush included). The
// cloud's open-data API (openData, when non-nil) is a public REST
// surface, not node-to-node traffic: it gets its own -opendata-listen
// HTTP listener.
func serve(name, listen string, h transport.Handler, reg *metrics.Registry, openData http.Handler, opendataListen string, closeNodes func(context.Context) error) error {
	srv, err := tcpnet.NewServer(name, listen, h, tcpnet.ServerOptions{Registry: reg})
	if err != nil {
		return errors.Join(err, shutdown(closeNodes))
	}
	stops := []func(context.Context) error{func(context.Context) error { return srv.Close() }}
	if openData != nil && opendataListen != "" {
		web, err := listenHTTP(opendataListen, openData)
		if err != nil {
			return errors.Join(err, shutdown(append(stops, closeNodes)...))
		}
		stops = append(stops, web.Shutdown)
	}
	log.Printf("%s listening on %s", name, srv.Addr())
	waitSignal()
	return shutdown(append(stops, closeNodes)...)
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
