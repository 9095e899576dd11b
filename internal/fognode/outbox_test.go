package fognode

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/cq"
	"f2c/internal/protocol"
	"f2c/internal/sim"
	"f2c/internal/topology"
	"f2c/internal/transport"
	"f2c/internal/wal"
)

// kindParent is an upstream endpoint that records the kind of every
// accepted delivery and tallies raw versus degraded readings, with
// real per-origin replay dedup. failBatches makes it refuse batches.
type kindParent struct {
	mu          sync.Mutex
	failBatches bool
	filter      *protocol.ReplayFilter
	kinds       []transport.Kind
	raw         int
	degraded    int64
}

func newKindParent() *kindParent { return &kindParent{filter: protocol.NewReplayFilter(0)} }

func (p *kindParent) Send(_ context.Context, msg transport.Message) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failBatches && msg.Kind == transport.KindBatch {
		return nil, errors.New("parent refuses batches")
	}
	var origin string
	var seq uint64
	count := func() {}
	switch msg.Kind {
	case transport.KindBatch:
		b, _, s, err := protocol.DecodeBatchPayloadSeq(msg.Payload)
		if err != nil {
			return nil, err
		}
		origin, seq, count = b.NodeID, s, func() { p.raw += len(b.Readings) }
	case transport.KindSummaryPush:
		push, err := protocol.DecodeSummaryPush(msg.Payload)
		if err != nil {
			return nil, err
		}
		origin, seq, count = push.Origin, push.Seq, func() { p.degraded += push.Readings() }
	case transport.KindAlertPush:
		push, err := protocol.DecodeAlertPush(msg.Payload)
		if err != nil {
			return nil, err
		}
		origin, seq = push.Origin, push.Seq
	default:
		return nil, fmt.Errorf("kindParent: unexpected kind %q", msg.Kind)
	}
	if !p.filter.Seen(origin, seq) {
		p.filter.Mark(origin, seq)
		p.kinds = append(p.kinds, msg.Kind)
		count()
	}
	return []byte("ok"), nil
}

func (p *kindParent) tally() (kinds []transport.Kind, raw int, degraded int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]transport.Kind(nil), p.kinds...), p.raw, p.degraded
}

// eightTemps is one batch's worth of distinct temperature values,
// 20 through 27.
func eightTemps() map[string]float64 {
	vals := make(map[string]float64, 8)
	for i, id := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		vals[id] = float64(20 + i)
	}
	return vals
}

// TestDurableDegradeSurvivesReboot: a degrading durable node that
// crashes between the bound's trim and the summary push must still
// push the degraded counts after recovery — from the log tail alone,
// and from a checkpoint.
func TestDurableDegradeSurvivesReboot(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpoint), func(t *testing.T) {
			dir := t.TempDir()
			parent := newKindParent()
			open := func() *Node {
				n, err := New(Config{
					Spec: fog1Spec(), Clock: sim.NewVirtualClock(t0), Transport: parent, Codec: aggregate.CodecNone,
					MaxPendingReadings: 4, DegradeToSummary: true,
					Durability: &wal.Config{Dir: dir, SnapshotEvery: -1},
				})
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
			n := open()
			if err := n.Ingest(batchOf(eightTemps(), t0)); err != nil {
				t.Fatal(err)
			}
			if got := n.DegradedReadings(); got != 4 {
				t.Fatalf("DegradedReadings = %d, want 4 (bound 4, ingested 8)", got)
			}
			if checkpoint {
				if err := n.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			n.Discard() // crash: no flush, no checkpoint

			re := open()
			defer re.Close(context.Background())
			if err := re.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
			_, raw, degraded := parent.tally()
			if raw != 4 || degraded != 4 {
				t.Fatalf("parent received %d raw + %d degraded readings, want 4 + 4", raw, degraded)
			}
		})
	}
}

// TestDurableSummaryAbsorbSurvivesReboot: a durable layer-2 node that
// absorbed a child's summary push and crashed before re-emitting it
// must re-emit the counts after recovery, and still dedupe the child's
// retry of the push it acknowledged.
func TestDurableSummaryAbsorbSurvivesReboot(t *testing.T) {
	dir := t.TempDir()
	parent := newKindParent()
	open := func() *Node {
		n, err := New(Config{
			Spec:  topology.NodeSpec{ID: "fog2/d01", Layer: topology.LayerFog2, Parent: "cloud", Name: "Ciutat Vella"},
			Clock: sim.NewVirtualClock(t0), Transport: parent, Codec: aggregate.CodecNone,
			DegradeToSummary: true,
			Durability:       &wal.Config{Dir: dir, SnapshotEvery: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	payload, err := protocol.EncodeJSON(protocol.SummaryPush{
		Origin: "fog1/d01-s01", Seq: 7, TypeName: "temperature", Category: "energy",
		Windows: []protocol.SummaryWindow{{
			StartUnix: t0.UnixNano(), EndUnix: t0.Add(time.Minute).UnixNano(),
			Summary: aggregate.Summary{Count: 4, Sum: 80, Min: 18, Max: 22},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	msg := transport.Message{From: "fog1/d01-s01", To: "fog2/d01", Kind: transport.KindSummaryPush, Payload: payload}
	n := open()
	if _, err := n.Handle(context.Background(), msg); err != nil {
		t.Fatal(err)
	}
	n.Discard()

	re := open()
	defer re.Close(context.Background())
	if _, err := re.Handle(context.Background(), msg); err != nil { // the child's retry
		t.Fatal(err)
	}
	if got := re.DuplicateBatches(); got != 1 {
		t.Errorf("retry after reboot suppressed %d duplicates, want 1", got)
	}
	if err := re.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, degraded := parent.tally(); degraded != 4 {
		t.Fatalf("parent received %d degraded readings, want 4", degraded)
	}
}

// TestFlushSendsKindsInOrder pins the per-type delivery order: with a
// queued batch, a sealed summary and a queued alert on one type, the
// parent sees the batch, then the summary push, then the alert push;
// and a failed batch send leaves the summary and the alert unsent and
// queued behind it.
func TestFlushSendsKindsInOrder(t *testing.T) {
	parent := newKindParent()
	n, err := New(Config{
		Spec: fog1Spec(), Clock: sim.NewVirtualClock(t0), Transport: parent, Codec: aggregate.CodecNone,
		MaxPendingReadings: 4, DegradeToSummary: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Subscribe(cq.Subscription{
		ID: "hot", TypeName: "temperature", Kind: cq.KindThreshold, Window: time.Minute,
		Predicate: cq.PredAbove, Threshold: 26,
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Ingest(batchOf(eightTemps(), t0)); err != nil {
		t.Fatal(err)
	}
	if n.AlertsFired() == 0 || n.DegradedReadings() != 4 {
		t.Fatalf("setup: alerts fired %d, degraded %d; want an alert and 4 degraded", n.AlertsFired(), n.DegradedReadings())
	}

	parent.mu.Lock()
	parent.failBatches = true
	parent.mu.Unlock()
	if err := n.Flush(context.Background()); err == nil {
		t.Fatal("flush with a refusing parent reported success")
	}
	if kinds, _, _ := parent.tally(); len(kinds) != 0 {
		t.Fatalf("a failed batch send let %v through: the summary and the alert must wait behind it", kinds)
	}
	if got := n.PendingBatches(); got != 3 {
		t.Fatalf("PendingBatches = %d, want 3 queued items (batch, summary, alert)", got)
	}

	parent.mu.Lock()
	parent.failBatches = false
	parent.mu.Unlock()
	if err := n.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	kinds, raw, degraded := parent.tally()
	want := []transport.Kind{transport.KindBatch, transport.KindSummaryPush, transport.KindAlertPush}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("parent saw kinds %v, want %v", kinds, want)
	}
	if raw != 4 || degraded != 4 {
		t.Fatalf("parent received %d raw + %d degraded readings, want 4 + 4", raw, degraded)
	}
	if got := n.PendingBatches(); got != 0 {
		t.Fatalf("PendingBatches after drain = %d, want 0", got)
	}
}

// TestClosedNodeRefusesAcceptance: once Close began, a node must refuse
// every acceptance — an edge ingest, a child's push, a migration chunk —
// so the sender retries elsewhere: nothing accepted after the final
// flush would ever leave the node.
func TestClosedNodeRefusesAcceptance(t *testing.T) {
	n, err := New(Config{Spec: fog1Spec(), Clock: sim.NewVirtualClock(t0), Transport: newKindParent(), Codec: aggregate.CodecNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := n.Ingest(batchOf(eightTemps(), t0)); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("ingest after Close: err = %v, want a closed-node refusal", err)
	}
	payload, err := protocol.EncodeJSON(protocol.SummaryPush{
		Origin: "fog1/d01-s02", Seq: 3, TypeName: "temperature", Category: "energy",
		Windows: []protocol.SummaryWindow{{StartUnix: t0.UnixNano(), Summary: aggregate.Summary{Count: 1, Sum: 1, Min: 1, Max: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Handle(context.Background(), transport.Message{Kind: transport.KindSummaryPush, Payload: payload}); err == nil {
		t.Fatal("summary push accepted after Close")
	}
	if got := n.PendingBatches(); got != 0 {
		t.Fatalf("closed node holds %d pending units", got)
	}
}
