package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/fognode"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/transport/tcpnet"
)

// serve hosts h over tcpnet on a loopback port until test cleanup.
func serve(t *testing.T, name string, h transport.Handler) string {
	t.Helper()
	srv, err := tcpnet.NewServer(name, "127.0.0.1:0", h, tcpnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv.Addr()
}

func TestLoadAgainstFogNode(t *testing.T) {
	n, err := fognode.New(fognode.Config{
		Spec: topology.NodeSpec{
			ID: "fog1/test", Layer: topology.LayerFog1, Parent: "fog2/test", Name: "t",
		},
		Clock: sim.WallClock{}, // f2cload stamps readings with wall time
		Codec: aggregate.CodecNone, Dedup: true, Quality: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := serve(t, "fog1/test", n)

	err = run([]string{
		"-node", addr, "-node-id", "fog1/test",
		"-type", "traffic", "-sensors", "10", "-rounds", "3", "-interval", "1ms",
	}, os.Stdout)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	st := n.Status()
	if st.IngestedBatches != 3 {
		t.Errorf("ingested = %d batches, want 3", st.IngestedBatches)
	}
	if st.StoredReadings == 0 {
		t.Error("no readings stored")
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{}, // missing node
		{"-node", "127.0.0.1:1", "-type", "unobtainium"},
		{"-node", "127.0.0.1:1", "-sensors", "0"},
		{"-bogus"},
	}
	for i, args := range cases {
		if err := run(args, os.Stdout); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestRunUnreachableNode(t *testing.T) {
	err := run([]string{
		"-node", "127.0.0.1:1", "-rounds", "1", "-timeout", "200ms",
	}, os.Stdout)
	if err == nil {
		t.Error("expected transport error")
	}
}

// TestTimeoutBoundsEveryRequest pins that -timeout bounds each request,
// not only the dial: a node that accepts the connection and then never
// answers must fail the run, not hang it.
func TestTimeoutBoundsEveryRequest(t *testing.T) {
	stall := make(chan struct{})
	addr := serve(t, "fog1/stalled", transport.HandlerFunc(func(context.Context, transport.Message) ([]byte, error) {
		<-stall
		return nil, nil
	}))
	// Cleanups run last-in first-out: release the stalled handlers
	// before the server waits for them.
	t.Cleanup(func() { close(stall) })

	// The "transport" key is what cluster documents from before tcpnet
	// became the only node transport carry; it is ignored.
	cluster := filepath.Join(t.TempDir(), "cluster.json")
	doc := fmt.Sprintf(`{"transport": "tcp", "nodes": {"fog1/stalled": %q}}`, addr)
	if err := os.WriteFile(cluster, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-cluster", cluster, "-rounds", "1", "-sensors", "5", "-timeout", "200ms",
		}, os.Stdout)
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("run against a stalled node succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run hung on a stalled node despite -timeout 200ms")
	}
}
