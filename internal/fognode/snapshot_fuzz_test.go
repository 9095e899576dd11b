package fognode

import (
	"math/rand"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/cq"
	"f2c/internal/model"
	"f2c/internal/protocol"
)

// genShardState derives a random-but-valid delivery state from a seed:
// per-type outbox queues of sealed batches plus pending buffers, with
// field values chosen to round-trip the sensor wire text exactly
// (bounded strings without delimiter bytes, 5-decimal coordinates,
// integral values).
func genShardState(seed int64) (shards []pendingShard, seqCounter uint64, marks map[string][]uint64, subs []cq.SubSnapshot) {
	rng := rand.New(rand.NewSource(seed))
	shards = newPendingShards(4)
	seqCounter = uint64(rng.Int63())
	types := []string{"traffic", "noise_level", "air_quality", "parking"}

	genBatch := func(typ string, n int) *model.Batch {
		b := &model.Batch{
			NodeID:    "fog1/fuzz",
			TypeName:  typ,
			Category:  model.CategoryUrban,
			Collected: time.Unix(0, rng.Int63()),
		}
		for i := 0; i < n; i++ {
			b.Readings = append(b.Readings, model.Reading{
				SensorID: typ + "/" + string(rune('a'+rng.Intn(26))),
				TypeName: typ,
				Category: model.CategoryUrban,
				Time:     time.Unix(0, rng.Int63()),
				Value:    float64(rng.Intn(1 << 20)),
				Unit:     "u",
				Location: model.GeoPoint{
					Lat: float64(rng.Intn(9_000_000)) / 1e5,
					Lon: float64(rng.Intn(18_000_000)) / 1e5,
				},
			})
		}
		return b
	}
	for _, typ := range types[:1+rng.Intn(len(types))] {
		// Route types to shards exactly like the node would.
		target := &shards[shardIndex(typ, len(shards))]
		for g := 0; g < rng.Intn(4); g++ {
			target.queue[typ] = append(target.queue[typ], batchItem(genBatch(typ, 1+rng.Intn(5)), uint64(rng.Int63())|1))
		}
		if rng.Intn(2) == 0 {
			target.pending[typ] = genBatch(typ, 1+rng.Intn(5))
		}
	}
	marks = make(map[string][]uint64)
	for o := 0; o < rng.Intn(4); o++ {
		origin := "origin-" + string(rune('a'+o))
		for m := 0; m < 1+rng.Intn(6); m++ {
			marks[origin] = append(marks[origin], uint64(rng.Int63())|1)
		}
	}
	// Queued continuous-query alert pushes (valid per the wire codec)
	// and subscription snapshots.
	for _, typ := range types[:rng.Intn(len(types))] {
		target := &shards[shardIndex(typ, len(shards))]
		for p := 0; p < 1+rng.Intn(3); p++ {
			push := protocol.AlertPush{
				Origin:   "fog1/fuzz",
				Seq:      uint64(rng.Int63()) | 1,
				TypeName: typ,
				Category: model.CategoryUrban.String(),
			}
			for a := 0; a < 1+rng.Intn(3); a++ {
				start := rng.Int63n(1 << 40)
				push.Alerts = append(push.Alerts, protocol.Alert{
					SubID:     "sub-" + string(rune('a'+a)),
					FiredBy:   "fog1/fuzz",
					Kind:      protocol.AlertKindWindow,
					StartUnix: start,
					EndUnix:   start + 1 + rng.Int63n(1<<20),
					Summary:   aggregate.Summary{Count: 1 + int64(rng.Intn(100)), Sum: float64(rng.Intn(1000)), Min: 1, Max: 2},
					Value:     float64(rng.Intn(100)),
				})
			}
			payload, err := protocol.EncodeAlertPush(&push)
			if err != nil {
				panic(err)
			}
			target.queue[typ] = append(target.queue[typ], alertItem(&push, payload))
		}
	}
	for s := 0; s < rng.Intn(3); s++ {
		subs = append(subs, cq.SubSnapshot{
			Sub: cq.Subscription{
				ID:       "sub-" + string(rune('a'+s)),
				TypeName: types[rng.Intn(len(types))],
				Kind:     cq.KindWindow,
				Window:   time.Duration(1+rng.Intn(60)) * time.Minute,
			},
			Category:  model.CategoryUrban.String(),
			Panes:     []cq.Pane{{Start: rng.Int63n(1 << 40), Summary: aggregate.Summary{Count: 3, Sum: 6, Min: 1, Max: 3}}},
			Emitted:   []int64{rng.Int63n(1 << 40)},
			Watermark: rng.Int63n(1 << 40),
		})
	}
	return shards, seqCounter, marks, subs
}

// shardIndex mirrors Node.shardFor without a node.
func shardIndex(typ string, n int) int {
	var h uint32 = 2166136261
	for i := 0; i < len(typ); i++ {
		h ^= uint32(typ[i])
		h *= 16777619
	}
	return int(h) & (n - 1)
}

// FuzzSnapshotRoundTrip proves the snapshot codec is lossless over the
// delivery state and size-bounded, and that decoding arbitrary bytes
// never panics.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(42), []byte{journalVersion})
	f.Add(int64(7), []byte{journalVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x80})
	f.Add(int64(1234567), []byte("garbage snapshot bytes"))

	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		// Arbitrary bytes: must error or succeed, never panic.
		if err := decodeNodeSnapshot(raw, newRecoveryState()); err != nil {
			_ = err
		}

		shards, seqCounter, marks, subs := genShardState(seed)
		data, err := encodeNodeSnapshot(nil, seqCounter, marks, shards, subs)
		if err != nil {
			t.Fatalf("encode of a well-formed state failed: %v", err)
		}

		// Size bound: header + marks + per-entry overhead + readings +
		// cq sections.
		readings, entries, markCount, pushes, instances := 0, 0, 0, 0, 0
		for i := range shards {
			for _, q := range shards[i].queue {
				for _, sb := range q {
					if sb.kind == protocol.ItemBatch {
						entries++
						readings += len(sb.b.Readings)
						continue
					}
					pushes++
					instances += len(queuedAlerts(t, sb).Alerts)
				}
			}
			for _, b := range shards[i].pending {
				entries++
				readings += len(b.Readings)
			}
		}
		for _, seqs := range marks {
			markCount += len(seqs)
		}
		bound := 64 + 64*len(marks) + 16*markCount + 128*entries + 160*readings +
			128*pushes + 160*instances + 1024*len(subs)
		if len(data) > bound {
			t.Fatalf("snapshot size %d exceeds bound %d (%d entries, %d readings, %d marks)",
				len(data), bound, entries, readings, markCount)
		}

		rs := newRecoveryState()
		if err := decodeNodeSnapshot(data, rs); err != nil {
			t.Fatalf("decode of a well-formed snapshot failed: %v", err)
		}
		if !rs.sawSeq || rs.seqCounter < seqCounter {
			t.Fatalf("seq counter = %d (saw=%v), want >= %d", rs.seqCounter, rs.sawSeq, seqCounter)
		}

		// Marks: same multiset per origin, in order.
		got := make(map[string][]uint64)
		for _, m := range rs.marks {
			got[m.origin] = append(got[m.origin], m.seq)
		}
		for origin, want := range marks {
			if len(got[origin]) != len(want) {
				t.Fatalf("origin %s: %d marks, want %d", origin, len(got[origin]), len(want))
			}
			for i := range want {
				if got[origin][i] != want[i] {
					t.Fatalf("origin %s mark %d = %d, want %d", origin, i, got[origin][i], want[i])
				}
			}
		}

		// Delivery state: per type, group sequences + readings and the
		// pending buffer must round-trip exactly.
		for i := range shards {
			sh := &shards[i]
			for typ, q := range sh.queue {
				q = q[:countBatches(q)]
				tr := rs.types[typ]
				if tr == nil || countBatches(tr.queue) != len(q) {
					t.Fatalf("type %s: recovered %v groups, want %d", typ, tr, len(q))
				}
				for gi := range q {
					if tr.queue[gi].seq != q[gi].seq {
						t.Fatalf("type %s group %d seq = %d, want %d", typ, gi, tr.queue[gi].seq, q[gi].seq)
					}
					assertSameReadings(t, typ, tr.queue[gi].b.Readings, q[gi].b.Readings)
				}
			}
			for typ, p := range sh.pending {
				tr := rs.types[typ]
				if tr == nil || tr.pending == nil {
					t.Fatalf("type %s: pending buffer lost", typ)
				}
				assertSameReadings(t, typ, tr.pending.Readings, p.Readings)
			}
			// Alert queues: every queued push must recover keyed by its
			// (origin, seq) with its instances intact.
			for typ, q := range sh.queue {
				for _, sa := range q[countBatches(q):] {
					var got *sealed
					if tr := rs.types[typ]; tr != nil {
						for k := range tr.queue {
							if sameItem(&tr.queue[k], &sa) {
								got = &tr.queue[k]
							}
						}
					}
					if got == nil {
						t.Fatalf("type %s: queued push (%s, %d) lost", typ, sa.origin, sa.seq)
					}
					if g, w := len(queuedAlerts(t, *got).Alerts), len(queuedAlerts(t, sa).Alerts); g != w {
						t.Fatalf("type %s push %d: %d alerts, want %d", typ, sa.seq, g, w)
					}
				}
			}
		}
		if len(rs.snapSubs) != len(subs) {
			t.Fatalf("recovered %d subscriptions, want %d", len(rs.snapSubs), len(subs))
		}
		for i := range subs {
			if rs.snapSubs[i].Sub != subs[i].Sub {
				t.Fatalf("subscription %d = %+v, want %+v", i, rs.snapSubs[i].Sub, subs[i].Sub)
			}
			if rs.snapSubs[i].Watermark != subs[i].Watermark || len(rs.snapSubs[i].Panes) != len(subs[i].Panes) {
				t.Fatalf("subscription %d state mismatch: %+v vs %+v", i, rs.snapSubs[i], subs[i])
			}
		}
	})
}

// countBatches returns the length of a kind-ordered queue's batch
// prefix.
func countBatches(q []sealed) int {
	_, hi := kindSpan(q, protocol.ItemBatch)
	return hi
}

// queuedAlerts decodes a queued alert item's push.
func queuedAlerts(t *testing.T, it sealed) *protocol.AlertPush {
	t.Helper()
	p, err := protocol.DecodeAlertPush(it.payload)
	if err != nil {
		t.Fatalf("queued alert push (%s, %d): %v", it.origin, it.seq, err)
	}
	return p
}

func assertSameReadings(t *testing.T, typ string, got, want []model.Reading) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("type %s: %d readings, want %d", typ, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.SensorID != w.SensorID || !g.Time.Equal(w.Time) || g.Value != w.Value ||
			g.Unit != w.Unit || g.Location != w.Location {
			t.Fatalf("type %s reading %d = %+v, want %+v", typ, i, g, w)
		}
	}
}
