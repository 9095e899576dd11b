package main

import (
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/fognode"
	"f2c/internal/model"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport/tcpnet"
)

func TestLocalCommands(t *testing.T) {
	if err := run([]string{"dlc"}); err != nil {
		t.Errorf("dlc: %v", err)
	}
	if err := run([]string{"topology"}); err != nil {
		t.Errorf("topology: %v", err)
	}
}

func TestArgErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"status"}, // missing -node
		{"-node", "127.0.0.1:1", "teleport"},
		{"-bogus"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

// testNodeServer serves a fog node over tcpnet and returns it with its
// listen address.
func testNodeServer(t *testing.T) (*fognode.Node, string) {
	t.Helper()
	n, err := fognode.New(fognode.Config{
		Spec: topology.NodeSpec{
			ID: "fog1/test", Layer: topology.LayerFog1, Parent: "fog2/test", Name: "test",
		},
		Clock: sim.NewVirtualClock(time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)),
		Codec: aggregate.CodecNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := tcpnet.NewServer("fog1/test", "127.0.0.1:0", n, tcpnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return n, srv.Addr()
}

func TestRemoteStatusAndQueries(t *testing.T) {
	n, addr := testNodeServer(t)
	at := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)
	if err := n.Ingest(&model.Batch{
		NodeID: "edge", TypeName: "traffic", Category: model.CategoryUrban, Collected: at,
		Readings: []model.Reading{{
			SensorID: "s1", TypeName: "traffic", Category: model.CategoryUrban,
			Time: at, Value: 33, Unit: "km/h",
		}},
	}); err != nil {
		t.Fatal(err)
	}

	if err := run([]string{"-node", addr, "status"}); err != nil {
		t.Errorf("status: %v", err)
	}
	if err := run([]string{"-node", addr, "latest", "s1"}); err != nil {
		t.Errorf("latest: %v", err)
	}
	if err := run([]string{"-node", addr, "latest", "ghost"}); err != nil {
		t.Errorf("latest miss should print 'no data', not error: %v", err)
	}
	if err := run([]string{"-node", addr, "range", "traffic",
		"2017-06-01T00:00:00Z", "2017-06-01T01:00:00Z"}); err != nil {
		t.Errorf("range: %v", err)
	}
	// Paged range: -limit 1 forces the cursor walk over every page.
	if err := run([]string{"-node", addr, "-limit", "1", "range", "traffic",
		"2017-06-01T00:00:00Z", "2017-06-01T01:00:00Z"}); err != nil {
		t.Errorf("paged range: %v", err)
	}
	// Aggregate push-down: only the summary crosses the wire.
	if err := run([]string{"-node", addr, "sum", "traffic",
		"2017-06-01T00:00:00Z", "2017-06-01T01:00:00Z"}); err != nil {
		t.Errorf("sum: %v", err)
	}
	if err := run([]string{"-node", addr, "sum", "ghost",
		"2017-06-01T00:00:00Z", "2017-06-01T01:00:00Z"}); err != nil {
		t.Errorf("sum miss should print 'no data', not error: %v", err)
	}
	// Migration routing view: with no rebalance active the node
	// reports zero counters and no forwarding routes.
	if err := run([]string{"-node", addr, "-node-id", "fog1/test", "routes"}); err != nil {
		t.Errorf("routes: %v", err)
	}
	n.SetRoute("traffic", "fog1/test2")
	if err := run([]string{"-node", addr, "-node-id", "fog1/test", "routes"}); err != nil {
		t.Errorf("routes with forwarding active: %v", err)
	}
	// Usage errors.
	if err := run([]string{"-node", addr, "latest"}); err == nil {
		t.Error("latest without args must fail")
	}
	if err := run([]string{"-node", addr, "range", "traffic", "not-a-time", "also-not"}); err == nil {
		t.Error("bad times must fail")
	}
	if err := run([]string{"-node", addr, "sum", "traffic", "bad", "worse"}); err == nil {
		t.Error("bad sum times must fail")
	}
}

func TestRemoteFlushFailsWithoutReachableParent(t *testing.T) {
	// The node has no transport to its parent: flush must surface
	// the remote error.
	_, addr := testNodeServer(t)
	n2, err := fognode.New(fognode.Config{
		Spec: topology.NodeSpec{
			ID: "fog1/test2", Layer: topology.LayerFog1, Parent: "fog2/test", Name: "t2",
		},
		Clock: sim.WallClock{},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = n2
	// Empty node: flush succeeds trivially (nothing pending).
	if err := run([]string{"-node", addr, "flush"}); err != nil {
		t.Errorf("empty flush: %v", err)
	}
}
