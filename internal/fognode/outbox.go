package fognode

// The outbox: every upward delivery unit — a batch, a degrade summary
// push, a continuous-query alert push — is one kind-tagged item on its
// type's queue, sharing the node's delivery-sequence space, so one
// pipeline moves them all: seal, queue, deliver, then commit or
// requeue under the kind's bound policy. A queue is kept in kind order
// (batches, summaries, alerts, each oldest first) and a flush stops a
// type at its first failure, so an alert never overtakes the readings
// that explain it.

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/transport"
)

const (
	// maxSummaryRetry bounds a type's queued summary pushes; beyond it
	// the oldest push is dropped and its readings finally counted as
	// shed — the degrade tier is exhausted and raw shed is the last
	// resort left.
	maxSummaryRetry = 64
	// maxAlertRetry bounds a type's queued alert pushes; beyond it the
	// oldest push's instances fold into its successor — re-batched, not
	// dropped, until maxAlertsPerPush is also exceeded.
	maxAlertRetry = 64
	// maxAlertsPerPush bounds how many alert instances folding may
	// accumulate into one push; beyond it the oldest instances are
	// dropped and counted shed.
	maxAlertsPerPush = 4096
)

// itemMsgKinds maps an item kind to the transport kind it travels as.
var itemMsgKinds = [...]transport.Kind{
	protocol.ItemBatch:   transport.KindBatch,
	protocol.ItemSummary: transport.KindSummaryPush,
	protocol.ItemAlert:   transport.KindAlertPush,
}

// sealed is one queued upward delivery unit, frozen under its delivery
// sequence: a retry after a lost acknowledgement presents the same
// (origin, seq) identity, so the receiver's replay filter drops the
// duplicate.
type sealed struct {
	kind   protocol.ItemKind
	seq    uint64
	origin string
	typ    string
	cat    model.Category
	// b holds a batch item's readings, unsealed until send: the
	// MaxPendingReadings trim and the send-time sort mutate it.
	b *model.Batch
	// payload is a summary or alert item's wire payload, frozen at
	// seal time.
	payload []byte
}

func batchItem(b *model.Batch, seq uint64) sealed {
	return sealed{kind: protocol.ItemBatch, seq: seq, origin: b.NodeID, typ: b.TypeName, cat: b.Category, b: b}
}

func summaryItem(p *protocol.SummaryPush, payload []byte) sealed {
	cat, _ := model.ParseCategory(p.Category)
	return sealed{kind: protocol.ItemSummary, seq: p.Seq, origin: p.Origin, typ: p.TypeName, cat: cat, payload: payload}
}

func alertItem(p *protocol.AlertPush, payload []byte) sealed {
	cat, _ := model.ParseCategory(p.Category)
	return sealed{kind: protocol.ItemAlert, seq: p.Seq, origin: p.Origin, typ: p.TypeName, cat: cat, payload: payload}
}

// decodeItem rebuilds a queued item from its upward wire payload (a
// migration item, or a journaled seal), checking that the payload
// carries the sequence it was filed under.
func decodeItem(kind protocol.ItemKind, seq uint64, payload []byte) (sealed, error) {
	var it sealed
	switch kind {
	case protocol.ItemBatch:
		b, _, s, err := protocol.DecodeBatchPayloadSeq(payload)
		if err != nil {
			return it, err
		}
		it = batchItem(b, s)
	case protocol.ItemSummary:
		p, err := protocol.DecodeSummaryPush(payload)
		if err != nil {
			return it, err
		}
		it = summaryItem(p, bytes.Clone(payload))
	case protocol.ItemAlert:
		p, err := protocol.DecodeAlertPush(payload)
		if err != nil {
			return it, err
		}
		it = alertItem(p, bytes.Clone(payload))
	default:
		return it, fmt.Errorf("unknown item kind %d", kind)
	}
	if it.seq != seq {
		return it, fmt.Errorf("envelope seq %d != entry seq %d", it.seq, seq)
	}
	return it, nil
}

// byKind restores a queue's kind order, each kind oldest first.
func byKind(q []sealed) []sealed {
	slices.SortStableFunc(q, func(a, b sealed) int { return cmp.Compare(a.kind, b.kind) })
	return q
}

// kindSpan returns the index range a kind occupies in a kind-ordered
// queue.
func kindSpan(q []sealed, k protocol.ItemKind) (lo, hi int) {
	for lo < len(q) && q[lo].kind < k {
		lo++
	}
	for hi = lo; hi < len(q) && q[hi].kind == k; hi++ {
	}
	return lo, hi
}

// sameItem reports whether two items share a delivery identity.
func sameItem(a, b *sealed) bool {
	return a.kind == b.kind && a.seq == b.seq && a.origin == b.origin
}

// journalSeal records a seal, best effort: a lost seal record degrades
// toward re-delivery under a fresh sequence (or an alert window
// refiring after a crash), which the receiver's replay filter (or the
// cloud's per-instance alert dedup) absorbs — never toward loss.
func (n *Node) journalSeal(it *sealed) {
	if n.journal != nil {
		_ = n.journal.appendSeal(it)
	}
}

// queueLocked files items on their type's queue, restores the queue's
// kind order and applies every kind's bound policy. The caller holds
// the shard lock.
func (n *Node) queueLocked(sh *pendingShard, typ string, items ...sealed) {
	sh.queue[typ] = byKind(append(sh.queue[typ], items...))
	n.trimLocked(sh, typ)
	q := sh.queue[typ]
	lo, hi := kindSpan(q, protocol.ItemSummary)
	for ; hi-lo > maxSummaryRetry; hi-- {
		if p, err := protocol.DecodeSummaryPush(q[lo].payload); err == nil {
			n.shedReads.Add(p.Readings())
		}
		n.journalCommit(typ, q[lo:lo+1])
		q = slices.Delete(q, lo, lo+1)
	}
	lo, hi = kindSpan(q, protocol.ItemAlert)
	for ; hi-lo > maxAlertRetry; hi-- {
		n.foldAlertLocked(&q[lo], &q[lo+1])
		q = slices.Delete(q, lo, lo+1)
	}
	if len(q) == 0 {
		delete(sh.queue, typ)
	} else {
		sh.queue[typ] = q
	}
}

// trimLocked enforces MaxPendingReadings across a type's queued and
// pending batches, oldest first. Trimmed readings fold into the
// degrade buffer under DegradeToSummary and are shed otherwise; those
// shed off the queue also count as DroppedDuringOutage, the signal
// operators alarm on. The trim is journaled and replay repeats it, so
// recovery neither resurrects trimmed readings nor loses their
// degraded counts. The caller holds the shard lock.
func (n *Node) trimLocked(sh *pendingShard, typ string) {
	max := n.cfg.MaxPendingReadings
	if max <= 0 {
		return
	}
	q, p := sh.queue[typ], sh.pending[typ]
	total := 0
	for i := 0; i < len(q) && q[i].kind == protocol.ItemBatch; i++ {
		total += len(q[i].b.Readings)
	}
	if p != nil {
		total += len(p.Readings)
	}
	drop := total - max
	if drop <= 0 {
		return
	}
	if n.journal != nil {
		_ = n.journal.appendShed(typ, drop)
	}
	q = trimOldest(q, p, drop, func(cat model.Category, readings []model.Reading, queued bool) {
		k := int64(len(readings))
		switch {
		case n.cfg.DegradeToSummary:
			n.degradeLocked(sh, typ, cat, readings)
		case queued:
			n.shedReads.Add(k)
			n.outageDrops.Add(k)
		default:
			n.shedReads.Add(k)
		}
	})
	if len(q) == 0 {
		delete(sh.queue, typ)
	} else {
		sh.queue[typ] = q
	}
}

// trimOldest removes drop readings oldest first — the queue's batch
// heads, then the pending buffer's — handing each run to take (queued:
// it came off the queue). Live bounding and journal replay share it.
func trimOldest(q []sealed, p *model.Batch, drop int, take func(cat model.Category, readings []model.Reading, queued bool)) []sealed {
	for drop > 0 && len(q) > 0 && q[0].kind == protocol.ItemBatch {
		head := q[0].b
		k := min(len(head.Readings), drop)
		take(head.Category, head.Readings[:k], true)
		head.Readings = head.Readings[k:]
		drop -= k
		if len(head.Readings) == 0 {
			q[0] = sealed{} // release the emptied batch
			q = q[1:]
		}
	}
	if drop > 0 && p != nil {
		k := min(len(p.Readings), drop)
		take(p.Category, p.Readings[:k], false)
		p.Readings = append([]model.Reading(nil), p.Readings[k:]...)
	}
	return q
}

// foldAlertLocked folds an overflowing queue's oldest alert push into
// its successor; each alert keeps its own instance identity, so the
// cloud's dedup stays exactly-once. The fold is journaled as a re-seal
// of the successor (replay replaces its earlier seal) plus a commit of
// the folded push. The caller holds the shard lock.
func (n *Node) foldAlertLocked(old, next *sealed) {
	a, err := protocol.DecodeAlertPush(old.payload)
	if err != nil {
		return
	}
	b, err := protocol.DecodeAlertPush(next.payload)
	if err != nil {
		return
	}
	merged := append(append(make([]protocol.Alert, 0, len(a.Alerts)+len(b.Alerts)), a.Alerts...), b.Alerts...)
	if over := len(merged) - maxAlertsPerPush; over > 0 {
		n.alertsShed.Add(int64(over))
		merged = merged[over:]
	}
	b.Alerts = merged
	payload, err := protocol.EncodeAlertPush(b)
	if err != nil {
		n.alertsShed.Add(int64(len(a.Alerts)))
		return
	}
	next.payload = payload
	n.journalSeal(next)
	n.journalCommit(next.typ, []sealed{*old})
	n.alertFolds.Inc()
}

// journalCommit records items that are no longer this node's
// responsibility — acknowledged upward, handed off by a migration, or
// dropped by a bound — so recovery does not resurrect them. Best
// effort: a lost commit degrades toward re-delivery.
func (n *Node) journalCommit(typ string, items []sealed) {
	if n.journal != nil && len(items) > 0 {
		_ = n.journal.appendCommit(typ, items)
	}
}

// requeue parks unsent items back on their type's queue, sequences
// frozen, re-applying every kind's bound policy so the buffers stay
// bounded across a long parent outage.
func (n *Node) requeue(typ string, items []sealed) {
	if len(items) == 0 {
		return
	}
	sh := n.shardFor(typ)
	sh.mu.Lock()
	n.queueLocked(sh, typ, items...)
	sh.mu.Unlock()
}

// errDeferred marks a delivery skipped because the parent link is
// inside its backoff window (or saturated) and no sibling relay is
// available. The item stays queued; the flush reports success
// (nothing was lost, nothing was attempted).
var errDeferred = errors.New("fognode: delivery deferred by backoff")

// sendItems delivers one type's kind-ordered items, committing each
// acknowledged one and stopping at the first failure with the unsent
// tail requeued. A deferral is not an error: the tail stays queued for
// a later flush.
func (n *Node) sendItems(ctx context.Context, typ string, items []sealed, now time.Time, sc *flushScratch) error {
	for i := range items {
		if err := n.deliver(ctx, &items[i], now, sc); err != nil {
			n.requeue(typ, items[i:])
			if errors.Is(err, errDeferred) {
				return nil
			}
			n.flushErrors.Inc()
			return fmt.Errorf("fognode %s: flush %s: %w", n.cfg.Spec.ID, typ, err)
		}
		n.journalCommit(typ, items[i:i+1])
	}
	return nil
}

// wire returns an item's upward payload. A push's payload was frozen
// at seal time; a batch is sealed now, into dst: concurrent child
// flushes interleave arrival order at a combining layer-2 node, and
// sealing restores time order so payloads — and their compressed
// sizes — are deterministic for a given set of readings.
func (n *Node) wire(it *sealed, now time.Time, sealer *protocol.Sealer, dst []byte) ([]byte, error) {
	if it.kind != protocol.ItemBatch {
		return it.payload, nil
	}
	sortBatchReadings(it.b)
	it.b.Collected = now
	return sealer.SealSeq(dst, it.b, n.cfg.Codec, it.seq)
}

// deliver runs the failover policy for one item: probe the parent
// when the backoff window allows, fall over to sibling relays once the
// failure threshold is crossed, and defer when neither is available. A
// parent success heals the state machine; backpressure and overload
// defer. Only batches ride sibling relays: summaries exist to relieve
// an overload, and shifting them sideways would spread it, while
// alerts must not arrive ahead of the readings that explain them.
func (n *Node) deliver(ctx context.Context, it *sealed, now time.Time, sc *flushScratch) error {
	payload, err := n.wire(it, now, &sc.sealer, sc.payload[:0])
	if err != nil {
		return err
	}
	if it.kind == protocol.ItemBatch {
		sc.payload = payload // keep the grown buffer; never alias a push's payload
	}
	class := it.cat.String()
	now = n.cfg.Clock.Now()
	var parentErr error
	if n.up.parentDue(now) {
		msg := transport.Message{
			From:    n.cfg.Spec.ID,
			To:      n.cfg.Spec.Parent,
			Kind:    itemMsgKinds[it.kind],
			Class:   class,
			Payload: payload,
		}
		start := time.Now()
		_, err := n.cfg.Transport.Send(ctx, msg)
		switch {
		case err == nil:
			n.up.onParentSuccess()
			if n.ctl != nil {
				n.ctl.observeRTT(time.Since(start))
			}
			n.sent[it.kind].Inc()
			n.flushedBytes.Add(msg.WireSize())
			return nil
		case errors.Is(err, transport.ErrBackpressure) || transport.IsOverload(err):
			// Backpressure (window full) and overload (parent's admission
			// queue full) are not failure: the parent is alive but
			// saturated. Keep the item queued and defer to the next flush
			// — escalating to sibling relays would only shift the overload
			// sideways. The adaptive controller backs the batch size off.
			if n.ctl != nil {
				n.ctl.onBackpressure()
			}
			n.deferredFlushes.Inc()
			return errDeferred
		default:
			parentErr = err
			n.up.onParentFailure(now)
		}
	}
	var targets []string
	if it.kind == protocol.ItemBatch {
		targets = n.up.relayTargets()
	}
	if len(targets) == 0 {
		if parentErr != nil {
			return parentErr
		}
		return errDeferred
	}
	var relayErrs []error
	for _, sibling := range targets {
		msg := transport.Message{
			From:    n.cfg.Spec.ID,
			To:      sibling,
			Kind:    transport.KindRelay,
			Class:   class,
			Payload: payload,
		}
		if _, err := n.cfg.Transport.Send(ctx, msg); err != nil {
			relayErrs = append(relayErrs, err)
			continue
		}
		n.relayedBatches.Inc()
		n.sent[protocol.ItemBatch].Inc()
		n.flushedBytes.Add(msg.WireSize())
		return nil
	}
	if parentErr != nil {
		relayErrs = append([]error{parentErr}, relayErrs...)
	}
	return fmt.Errorf("parent and %d sibling relays failed: %w", len(targets), errors.Join(relayErrs...))
}

// acceptLocked locks the shard owning typ for an acceptance, refusing
// once the node began closing so the sender retries elsewhere.
func (n *Node) acceptLocked(typ string) (*pendingShard, error) {
	sh := n.shardFor(typ)
	sh.mu.Lock()
	if n.closed.Load() {
		sh.mu.Unlock()
		return nil, fmt.Errorf("fognode %s: node closed", n.cfg.Spec.ID)
	}
	return sh, nil
}

// receive is the node's one receive gate, for every upward kind and
// migration chunks: an (origin, seq) already marked is acknowledged
// without re-absorbing — keyed by origin, not msg.From, so a relayed
// copy and a direct retry dedupe against each other; otherwise absorb
// journals and applies it, and only then is it marked: marking earlier
// would blackhole the sender's retry of a failed absorb.
func (n *Node) receive(origin string, seq uint64, absorb func() error) ([]byte, error) {
	if n.replay.Seen(origin, seq) {
		n.dupBatches.Inc()
		return []byte("ok"), nil
	}
	if err := absorb(); err != nil {
		return nil, err
	}
	n.replay.Mark(origin, seq)
	return []byte("ok"), nil
}
