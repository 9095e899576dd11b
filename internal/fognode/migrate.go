package fognode

// Live shard migration: the data-movement half of the elastic
// rebalance plane.
//
// When the elastic topology reassigns a sensor type from this node to
// a sibling (a node joined or is leaving the district), the old owner
// hands the type's buffered delivery state — its outbox queue, with
// the pending and degrade buffers sealed onto it, the standing
// continuous-query subscriptions with their live window state, and
// the replay-filter marks — to the new owner over
// transport.KindMigrate, then forwards any still-arriving edge ingest
// of the type until the routing tier catches up. The handoff is
// exactly-once without a two-phase commit because everything moves as
// SEALED state verbatim:
//
//   - the moved items keep their origin identity and delivery
//     sequences (the same wire payloads the upward path sends), so the
//     shared parent's per-origin replay filter keeps deduping them no
//     matter which sibling finally delivers;
//   - the target marks each chunk's (From, TransferSeq) in its replay
//     filter and journals the raw chunk before acknowledging, so a
//     retried chunk is acknowledged without re-absorbing and a target
//     crash recovers the absorbed state;
//   - the source journals the handoff (recMigrateStart before the
//     sends, a recCommit of the moved items after the last
//     acknowledgement), so a
//     source crash at any boundary recovers to a state where at worst
//     BOTH siblings hold a copy — and both drain to the same deduping
//     parent, which keeps delivery exactly-once.
//
// State machine of one type's handoff, source side:
//
//	OWNED ──MigrateOut──▶ FROZEN   pending sealed, state out of maps,
//	                               recMigrateStart journaled
//	FROZEN ──chunks acked──▶ MOVED recCommit journaled; the caller
//	                               flips routing to the target
//	FROZEN ──send fails──▶ OWNED   unsent tail requeued, sequences
//	                               kept
//
// and target side:
//
//	chunk ──dedup (From,TransferSeq)──▶ ack (already absorbed)
//	chunk ──recMigrateIn──▶ outbox queue (items verbatim) ──▶ next
//	        flush delivers under the ORIGINAL origins and sequences

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"f2c/internal/cq"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/transport"
)

// SetRoute redirects future edge ingest of a sensor type to its new
// owner: the type was migrated away and this node no longer delivers
// it upward. An empty or self target clears the route.
func (n *Node) SetRoute(typ, target string) {
	n.routeMu.Lock()
	defer n.routeMu.Unlock()
	if target == "" || target == n.cfg.Spec.ID {
		delete(n.routes, typ)
		return
	}
	n.routes[typ] = target
}

// ClearRoute restores local ownership of a sensor type's ingest.
func (n *Node) ClearRoute(typ string) { n.SetRoute(typ, "") }

// Route returns the node a type's edge ingest is being forwarded to,
// or "" when this node owns the type locally.
func (n *Node) Route(typ string) string {
	n.routeMu.RLock()
	defer n.routeMu.RUnlock()
	return n.routes[typ]
}

// Routes returns a copy of the active forwarding table.
func (n *Node) Routes() map[string]string {
	n.routeMu.RLock()
	defer n.routeMu.RUnlock()
	out := make(map[string]string, len(n.routes))
	for typ, target := range n.routes {
		out[typ] = target
	}
	return out
}

// sortBatchReadings restores time order (ties broken by sensor then
// value) so sealed payloads — and their compressed sizes — are
// deterministic for a given set of readings regardless of arrival
// interleaving. The sort is stable: readings equal in all three keep
// their arrival order, so the sealed bytes are the same too.
func sortBatchReadings(b *model.Batch) {
	slices.SortStableFunc(b.Readings, compareReadings)
}

func compareReadings(a, b model.Reading) int {
	if c := a.Time.Compare(b.Time); c != 0 {
		return c
	}
	if c := strings.Compare(a.SensorID, b.SensorID); c != 0 {
		return c
	}
	switch {
	case a.Value < b.Value:
		return -1
	case a.Value > b.Value:
		return 1
	}
	return 0
}

// MigrateOut moves one sensor type's buffered delivery state to a new
// owner. The pending and degrade buffers are sealed onto the type's
// outbox queue under fresh delivery sequences (journaled like any
// seal), then the whole queue leaves the shard and travels to the
// target in bounded KindMigrate chunks, along with a snapshot of this
// node's replay-filter marks so the target inherits the dedup horizon.
// On a send failure the unsent tail is requeued with its sequences
// intact and the error is returned; the caller may retry — a chunk the
// target already absorbed is deduped there, and even a chunk absorbed
// under a lost acknowledgement only yields a second copy that the
// shared parent dedupes by its frozen (origin, seq).
//
// MigrateOut does not flip routing: the caller (the elastic topology
// layer) sets the route on this node and its ring before or after the
// handoff. In-flight flushes of the type may hold items outside the
// shard maps; on failure those requeue here and drain upward under
// this node's identity, which the parent-side dedup absorbs.
func (n *Node) MigrateOut(ctx context.Context, typ, target string) error {
	me := n.cfg.Spec.ID
	if typ == "" || target == "" || target == me {
		return fmt.Errorf("fognode %s: migrate %q to %q: invalid handoff", me, typ, target)
	}
	if n.cfg.Transport == nil {
		return fmt.Errorf("fognode %s: migrate: no transport configured", me)
	}
	n.flightMu.RLock()
	defer n.flightMu.RUnlock()

	sh := n.shardFor(typ)
	sh.mu.Lock()
	items := sh.queue[typ]
	delete(sh.queue, typ)
	if p, ok := sh.pending[typ]; ok {
		if len(p.Readings) > 0 {
			items = append(items, n.sealBatchLocked(p, 0)...)
		}
		delete(sh.pending, typ)
	}
	if buf, ok := sh.degraded[typ]; ok {
		if it, ok := n.sealSummaryLocked(typ, buf); ok {
			items = append(items, it)
		}
		delete(sh.degraded, typ)
	}
	sh.mu.Unlock()
	// Standing subscriptions leave with the type, live window state
	// included, so a half-built window keeps accumulating on the new
	// owner instead of silently losing its partial aggregate.
	subs := n.cqe.Extract(typ)

	if err := n.sendTransfers(ctx, typ, target, byKind(items), subs); err != nil {
		return fmt.Errorf("fognode %s: migrate %s to %s: %w", me, typ, target, err)
	}
	return nil
}

// sendTransfers ships one type's extracted items in chunks bounded by
// protocol.MaxMigrateWireSize. At least one chunk is always sent — an
// empty handoff still carries the replay-mark snapshot and acts as the
// ownership handshake that clears the target's stale route. On failure
// the unsent tail (the failed chunk included) is requeued; the
// subscription snapshots, which ride only the first chunk, are
// reinstalled unless that chunk was already acknowledged.
func (n *Node) sendTransfers(ctx context.Context, typ, target string, items []sealed, subs []cq.SubSnapshot) error {
	me := n.cfg.Spec.ID
	fail := func(from int, subsMoved bool, err error) error {
		n.requeue(typ, items[from:])
		if !subsMoved {
			for i := range subs {
				_ = n.cqe.Install(subs[i])
			}
		}
		return err
	}

	// Seal every batch up front; the encoded sizes drive the chunking.
	now := n.cfg.Clock.Now()
	var sealer protocol.Sealer
	wires := make([]protocol.MigrateItem, len(items))
	for i := range items {
		payload, err := n.wire(&items[i], now, &sealer, nil)
		if err != nil {
			return fail(0, false, fmt.Errorf("seal entry: %w", err))
		}
		wires[i] = protocol.MigrateItem{Kind: items[i].kind, Seq: items[i].seq, Payload: payload}
	}
	subDocs := make([][]byte, len(subs))
	for i := range subs {
		doc, err := cq.EncodeSubSnapshot(&subs[i])
		if err != nil {
			return fail(0, false, fmt.Errorf("encode cq state: %w", err))
		}
		subDocs[i] = doc
	}

	// Greedy chunk assignment by encoded size: chunk c covers
	// items[ends[c-1]:ends[c]]. The first chunk additionally carries
	// the replay-mark snapshot and the subscriptions.
	marks := n.replay.Dump()
	size := 16
	for origin, seqs := range marks {
		size += len(origin) + 10 + 9*len(seqs)
	}
	for _, doc := range subDocs {
		size += len(doc) + 10
	}
	budget := protocol.MaxMigrateWireSize() - 512
	var ends []int
	for i := range wires {
		// Rotate a non-empty chunk when the next item would overflow it;
		// an item that overflows an empty chunk is taken anyway
		// (progress) and left for the encoder's size check to reject.
		cost := len(wires[i].Payload) + 17
		if size+cost > budget && size > 0 {
			ends = append(ends, i)
			size = 0
		}
		size += cost
	}
	ends = append(ends, len(items))

	// Reserve every chunk's transfer sequence up front and journal the
	// advanced counter (recMigrateStart) before the first send. The
	// target marks each absorbed (From, TransferSeq) in its replay
	// filter, so a source crash must never recover to a counter that
	// mints those sequences again: a reused sequence would be silently
	// deduped at the target and its readings lost.
	seqHigh := n.seq.Add(uint64(len(ends)))
	seqLow := seqHigh - uint64(len(ends)) + 1
	if n.journal != nil {
		_ = n.journal.appendMigrateStart(typ, target, seqHigh)
	}

	prev := 0
	for ci, end := range ends {
		t := &protocol.MigrateTransfer{TypeName: typ, From: me, To: target, TransferSeq: seqLow + uint64(ci), Items: wires[prev:end]}
		if ci == 0 {
			t.Marks = marks
			t.Subs = subDocs
		}
		readings := 0
		for _, it := range items[prev:end] {
			if it.b != nil {
				readings += len(it.b.Readings)
			}
		}
		if err := n.sendMigrate(ctx, t, readings); err != nil {
			// Requeue everything from the failed chunk on, sequences
			// frozen; a retried MigrateOut re-chunks under fresh transfer
			// sequences, and any chunk the target absorbed under a lost
			// acknowledgement is deduped downstream by its frozen origins.
			n.journalCommit(typ, items[:prev])
			return fail(prev, ci > 0, err)
		}
		if ci == 0 && n.journal != nil {
			// The subscriptions rode this chunk and now belong to the
			// target: a recovered source must not re-evaluate them.
			for i := range subs {
				_ = n.journal.appendUnsubscribe(subs[i].Sub.ID)
			}
		}
		prev = end
	}
	// Acknowledged by the new owner: the moved items are no longer this
	// node's responsibility and recovery must not resurrect them here.
	n.journalCommit(typ, items)
	return nil
}

// sendMigrate encodes and ships one transfer chunk to its target.
func (n *Node) sendMigrate(ctx context.Context, t *protocol.MigrateTransfer, readings int) error {
	payload, err := protocol.EncodeMigrateTransfer(t)
	if err != nil {
		return err
	}
	msg := transport.Message{
		From:    t.From,
		To:      t.To,
		Kind:    transport.KindMigrate,
		Class:   transport.ClassMigrate,
		Payload: payload,
	}
	if _, err := n.cfg.Transport.Send(ctx, msg); err != nil {
		return err
	}
	n.migOutTransfers.Inc()
	n.migOutReads.Add(int64(readings))
	n.migOutBytes.Add(msg.WireSize())
	return nil
}

// absorbMigrate absorbs one handoff chunk behind the receive gate: the
// items enter the outbox queue VERBATIM — origin identities and frozen
// sequences preserved, no re-ingest — so this node's next flush
// delivers them exactly as the old owner would have, and every replay
// filter downstream keeps working. The raw chunk is journaled
// (recMigrateIn) before any state change, and the moved replay marks
// merge into this node's filter so it inherits the source's dedup
// horizon. A malformed chunk is rejected whole.
func (n *Node) absorbMigrate(t *protocol.MigrateTransfer, payload []byte) error {
	me := n.cfg.Spec.ID
	items := make([]sealed, 0, len(t.Items))
	readings := 0
	for i, mi := range t.Items {
		it, err := decodeItem(mi.Kind, mi.Seq, mi.Payload)
		if err != nil {
			return fmt.Errorf("fognode %s: migrate item %d: %w", me, i, err)
		}
		if it.typ != t.TypeName {
			return fmt.Errorf("fognode %s: migrate item %d: type %q in a %q transfer", me, i, it.typ, t.TypeName)
		}
		if it.b != nil {
			readings += len(it.b.Readings)
		}
		items = append(items, it)
	}
	subs := make([]*cq.SubSnapshot, 0, len(t.Subs))
	for i := range t.Subs {
		snap, err := cq.DecodeSubSnapshot(t.Subs[i])
		if err != nil {
			return fmt.Errorf("fognode %s: migrate subscription %d: %w", me, i, err)
		}
		subs = append(subs, snap)
	}

	sh, err := n.acceptLocked(t.TypeName)
	if err != nil {
		return err
	}
	if n.journal != nil {
		// The journal append is the acceptance gate, exactly like a
		// batch ingest: if the chunk cannot be made durable it is
		// rejected and the source keeps (or reinstalls) the state.
		if err := n.journal.appendMigrateIn(payload); err != nil {
			sh.mu.Unlock()
			return fmt.Errorf("fognode %s: migrate: %w", me, err)
		}
	}
	n.queueLocked(sh, t.TypeName, items...)
	sh.mu.Unlock()

	// Moved subscriptions install with their live window state; Install
	// merges if this node already watches the type with the same
	// definition (its own partial windows survive the merge).
	for _, snap := range subs {
		_ = n.cqe.Install(*snap)
	}
	for origin, seqs := range t.Marks {
		for _, seq := range seqs {
			n.replay.Mark(origin, seq)
		}
	}
	// Receiving a chunk is the ownership handshake: this node owns the
	// type now, so a stale forwarding route must not bounce it back.
	n.ClearRoute(t.TypeName)
	n.migInTransfers.Inc()
	n.migInReads.Add(int64(readings))
	return nil
}

// ingestRouted handles an edge ingest of a type whose ownership
// migrated away: the batch is journaled and merged into the pending
// buffer like any acceptance, immediately frozen under a fresh
// sequence (the same transitions recovery replays), and forwarded to
// the new owner as a single-item transfer whose TransferSeq is the
// batch's own sequence. If the forward fails the sealed batch parks
// on the local queue under that same frozen sequence — whether it
// later drains upward from here, is re-forwarded by a MigrateOut, or
// was absorbed by the target under a lost acknowledgement, the shared
// parent sees one (origin, seq) and keeps it exactly once.
func (n *Node) ingestRouted(b *model.Batch, target string) error {
	me := n.cfg.Spec.ID
	sh, err := n.acceptLocked(b.TypeName)
	if err != nil {
		return err
	}
	if n.journal != nil {
		if err := n.journal.appendBatch(me, b, "", 0); err != nil {
			sh.mu.Unlock()
			return fmt.Errorf("fognode %s: ingest: %w", me, err)
		}
	}
	cur, ok := sh.pending[b.TypeName]
	if !ok {
		cur = b.Clone()
		cur.NodeID = me
	} else {
		cur.Readings = append(cur.Readings, b.Readings...)
		delete(sh.pending, b.TypeName)
	}
	// The seal covers the whole (merged) buffer, so replay's freeze
	// matches this transition exactly.
	sb := n.sealBatchLocked(cur, 0)
	sh.mu.Unlock()

	if n.cfg.Transport != nil && n.forwardSealed(&sb[0], target) == nil {
		n.journalCommit(b.TypeName, sb)
		return nil
	}
	// Forward failed: keep the frozen batch; it drains upward from
	// here or moves with the next MigrateOut.
	n.requeue(b.TypeName, sb)
	return nil
}

// forwardSealed ships one sealed batch to a type's new owner as a
// single-item migration transfer.
func (n *Node) forwardSealed(it *sealed, target string) error {
	sc := n.getScratch()
	defer n.putScratch(sc)
	payload, err := n.wire(it, n.cfg.Clock.Now(), &sc.sealer, sc.payload[:0])
	if err != nil {
		return err
	}
	sc.payload = payload
	return n.sendMigrate(context.Background(), &protocol.MigrateTransfer{
		TypeName:    it.typ,
		From:        n.cfg.Spec.ID,
		To:          target,
		TransferSeq: it.seq,
		Items:       []protocol.MigrateItem{{Kind: protocol.ItemBatch, Seq: it.seq, Payload: payload}},
	}, len(it.b.Readings))
}

// MigratedOutTransfers reports how many handoff chunks this node
// shipped to new owners (forwarded edge ingests included).
func (n *Node) MigratedOutTransfers() int64 { return n.migOutTransfers.Value() }

// MigratedOutReadings reports how many readings left this node inside
// migration transfers.
func (n *Node) MigratedOutReadings() int64 { return n.migOutReads.Value() }

// MigratedOutBytes reports the wire bytes of every migration transfer
// this node shipped — the quantity the rebalance-traffic bound is
// asserted against.
func (n *Node) MigratedOutBytes() int64 { return n.migOutBytes.Value() }

// MigratedInTransfers reports how many handoff chunks this node
// absorbed as a new owner.
func (n *Node) MigratedInTransfers() int64 { return n.migInTransfers.Value() }

// MigratedInReadings reports how many readings arrived in absorbed
// migration transfers.
func (n *Node) MigratedInReadings() int64 { return n.migInReads.Value() }
