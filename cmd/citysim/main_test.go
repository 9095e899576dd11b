package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"f2c/internal/config"
	"f2c/internal/core"
	"f2c/internal/sim"
)

func TestTinySimulation(t *testing.T) {
	if err := run([]string{"-scale", "4000", "-duration", "20m", "-category", "parking"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestWriteAndUseConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "city.json")
	if err := run([]string{"-write-config", path}); err != nil {
		t.Fatalf("write-config: %v", err)
	}
	if err := run([]string{"-config", path, "-scale", "4000", "-duration", "20m", "-category", "parking"}); err != nil {
		t.Fatalf("run with config: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	lzma := filepath.Join(t.TempDir(), "lzma.json")
	if err := os.WriteFile(lzma, []byte(`{"city":"x","codec":"lzma","districts":[{"name":"a","sections":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-config", lzma},          // unknown codec in the document
		{"-live", "-config", lzma}, // the live city reads the same document
		{"-category", "plasma"},
		{"-config", filepath.Join(t.TempDir(), "missing.json")},
		{"-bogus"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

// TestLiveMatchesSystem pins one derivation for every host: each node
// of the live city is configured exactly like the one core.NewSystem
// builds from the same document — topology, retention by layer,
// segment codec, siblings, durability and overload policy — apart
// from the transport and registry the host supplies.
func TestLiveMatchesSystem(t *testing.T) {
	dep, err := config.Parse([]byte(fmt.Sprintf(`{
		"city": "Live",
		"districts": [{"name": "a", "sections": 2}, {"name": "b", "sections": 1}],
		"codec": "gzip", "dedup": true, "quality": true,
		"fog1FlushSeconds": 7, "fog2FlushSeconds": 11,
		"fog1RetentionSeconds": 600, "fog2RetentionSeconds": 7200,
		"cloudRetentionSeconds": 86400,
		"nodeRetentionSeconds": {"fog1/d01-s02": 60},
		"dataDir": %q, "segmentStorage": true, "memtableBytes": 65536,
		"overload": true, "ingestRateBytes": 100000,
		"maxPendingReadings": 50, "degradeToSummary": true, "degradeWindowSeconds": 30,
		"adaptiveFlush": true
	}`, t.TempDir())))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := dep.Options(sim.WallClock{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{core.CloudID: nodeConfig(core.Node{Cloud: sys.Cloud()})}
	for _, id := range append(sys.Fog1IDs(), sys.Fog2IDs()...) {
		n, ok := sys.Fog1(id)
		if !ok {
			n, _ = sys.Fog2(id)
		}
		want[id] = nodeConfig(core.Node{Fog: n})
	}
	if err := sys.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	c, err := startLive(dep, "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]any)
	for _, m := range c.members {
		got[m.id] = nodeConfig(m.node)
	}
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("live city hosts %d nodes, the system %d", len(got), len(want))
	}
	for id, w := range want {
		if !reflect.DeepEqual(got[id], w) {
			t.Errorf("%s: live city builds\n%+v\ncore.NewSystem builds\n%+v", id, got[id], w)
		}
	}
}

// nodeConfig returns a node's configuration without the host-supplied
// transport and registry.
func nodeConfig(n core.Node) any {
	if n.Cloud != nil {
		c := n.Cloud.Config()
		c.Registry = nil
		return c
	}
	c := n.Fog.Config()
	c.Transport, c.Registry = nil, nil
	return c
}
