package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/config"
	"f2c/internal/core"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/transport/tcpnet"
)

// writeDeployment writes a deployment document to a temp file.
func writeDeployment(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "city.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestArgValidation(t *testing.T) {
	lzma := writeDeployment(t, `{"city":"x","codec":"lzma","districts":[{"name":"a","sections":1}]}`)
	cases := [][]string{
		{},                   // missing id
		{"-id", "fog1/nope"}, // not in the (default Barcelona) topology
		{"-config", filepath.Join(t.TempDir(), "missing.json"), "-id", "cloud"},         // missing document
		{"-config", lzma, "-id", "cloud"},                                               // unknown codec in the document
		{"-id", "fog1/d01-s01"},                                                         // fog node without -parent-addr or -cluster
		{"-id", "fog1/d01-s01", "-cluster", filepath.Join(t.TempDir(), "missing.json")}, // missing cluster document
		{"-bogus"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

// TestParseCodec pins that the document's codec name is what the
// daemon's node seals and stores with, and that an unknown name is
// refused before any node is built.
func TestParseCodec(t *testing.T) {
	for _, name := range []string{"none", "flate", "gzip", "zip"} {
		dep, err := config.Parse([]byte(`{"city":"x","districts":[{"name":"a","sections":1}],"codec":"` + name + `"}`))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opts, err := dep.Options(sim.WallClock{})
		if err != nil {
			t.Fatal(err)
		}
		spec, _ := opts.Topology.Node("fog1/d01-s01")
		n, err := buildNode(opts, spec, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := n.Fog.Config().Codec.String(); got != name {
			t.Errorf("codec %s: node runs %s", name, got)
		}
		_ = n.Close(context.Background())
	}
	if _, err := config.Parse([]byte(`{"city":"x","districts":[{"name":"a","sections":1}],"codec":"brotli"}`)); err == nil {
		t.Error("unknown codec must fail")
	}
}

// hostDeployment sets every per-node knob the document has to a value
// that differs from the defaults, so a host that drops or re-derives
// one shows up in TestNodeMatchesSystem.
const hostDeployment = `{
	"city": "Host",
	"districts": [{"name": "a", "sections": 2}, {"name": "b", "sections": 2}],
	"codec": "gzip",
	"dedup": true,
	"quality": true,
	"fog1FlushSeconds": 7,
	"fog2FlushSeconds": 11,
	"fog1RetentionSeconds": 600,
	"fog2RetentionSeconds": 7200,
	"cloudRetentionSeconds": 86400,
	"nodeRetentionSeconds": {"fog1/d01-s02": 60},
	"dataDir": "%s",
	"segmentStorage": true,
	"memtableBytes": 65536,
	"overload": true,
	"ingestRateBytes": 100000,
	"maxPendingReadings": 50,
	"degradeToSummary": true,
	"degradeWindowSeconds": 30,
	"adaptiveFlush": true
}`

// TestNodeMatchesSystem pins one derivation for every host: the node
// a single f2cd process builds for an id is configured exactly like
// the one core.NewSystem builds for the same document — retention by
// layer, segment codec, siblings, durability and overload policy —
// apart from the transport and registry the host supplies.
func TestNodeMatchesSystem(t *testing.T) {
	dep, err := config.Parse([]byte(fmt.Sprintf(hostDeployment, t.TempDir())))
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
	ids := []string{"cloud", "fog2/d01", "fog1/d01-s01", "fog1/d01-s02"}
	want := make(map[string]any)
	for _, id := range ids {
		want[id] = systemConfig(t, sys, id)
	}
	if err := sys.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		spec, _ := opts.Topology.Node(id)
		n, err := buildNode(opts, spec, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := nodeConfig(n)
		if err := n.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[id]) {
			t.Errorf("%s: f2cd builds\n%+v\ncore.NewSystem builds\n%+v", id, got, want[id])
		}
	}
}

// systemConfig returns the configuration core.NewSystem gave a node.
func systemConfig(t *testing.T, sys *core.System, id string) any {
	t.Helper()
	if id == core.CloudID {
		return nodeConfig(core.Node{Cloud: sys.Cloud()})
	}
	n, ok := sys.Fog1(id)
	if !ok {
		n, ok = sys.Fog2(id)
	}
	if !ok {
		t.Fatalf("system has no node %s", id)
	}
	return nodeConfig(core.Node{Fog: n})
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

func TestAllInOneRouter(t *testing.T) {
	topo, err := topology.New("Mini", []topology.District{{Name: "A", Sections: 2}})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Options{
		Topology: topo, Clock: sim.WallClock{}, Dedup: true, Quality: true,
		Codec: aggregate.CodecNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := tcpnet.NewServer("all-in-one", "127.0.0.1:0", allInOneRouter{sys: sys}, tcpnet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tr := tcpnet.New(tcpnet.Options{})
	defer tr.Close()
	f1 := sys.Fog1IDs()[0]
	for _, node := range []string{f1, "cloud", "fog1/nope"} {
		tr.AddPeer(node, srv.Addr())
	}

	// Ingest a batch at a fog1 node through the gateway.
	at := time.Now()
	batch := &model.Batch{
		NodeID: "edge", TypeName: "traffic", Category: model.CategoryUrban, Collected: at,
		Readings: []model.Reading{{
			SensorID: "loop-1", TypeName: "traffic", Category: model.CategoryUrban,
			Time: at, Value: 44, Unit: "km/h",
		}},
	}
	payload, err := protocol.EncodeBatchPayload(batch, aggregate.CodecNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Send(context.Background(), transport.Message{
		From: "edge", To: f1, Kind: transport.KindBatch, Class: "urban", Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}

	// Query the same node through the gateway.
	q, _ := protocol.EncodeJSON(protocol.QueryRequest{SensorID: "loop-1"})
	reply, err := tr.Send(context.Background(), transport.Message{
		From: "app", To: f1, Kind: transport.KindQuery, Payload: q,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := protocol.DecodeQueryPage(reply)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Found || resp.Readings[0].Value != 44 {
		t.Errorf("gateway query = %+v", resp)
	}

	// Cloud status through the gateway.
	st, _ := protocol.EncodeJSON(protocol.ControlRequest{Op: protocol.OpStatus})
	reply, err = tr.Send(context.Background(), transport.Message{
		From: "ctl", To: "cloud", Kind: transport.KindControl, Payload: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	var status protocol.StatusResponse
	if err := protocol.DecodeJSON(reply, &status); err != nil {
		t.Fatal(err)
	}
	if status.NodeID != "cloud" {
		t.Errorf("status = %+v", status)
	}

	// An unknown node surfaces as the gateway's error reply.
	_, err = tr.Send(context.Background(), transport.Message{
		From: "x", To: "fog1/nope", Kind: transport.KindQuery, Payload: q,
	})
	var remote *transport.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "unknown node") {
		t.Errorf("unknown node: err = %v, want a *transport.RemoteError naming it", err)
	}

	if err := sys.Close(context.Background()); err != nil {
		t.Errorf("Close: %v", err)
	}
}
