package fognode

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"f2c/internal/cq"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sensor"
	"f2c/internal/wal"
)

// The fog-node journal persists exactly the state the upward-delivery
// guarantee depends on, as one record per state transition. Four
// records carry the outbox (see outbox.go); the first three are tagged
// with the item kind they concern (batch, summary or alert):
//
//	recBatch   an item accepted into a type's unsealed accumulator —
//	           readings into the pending buffer, or a child's summary
//	           push into the degrade buffer — together with the
//	           delivering hop's (origin, seq) replay-filter mark, so
//	           acceptance and dedup state commit atomically: a
//	           recovered receiver either has both or neither, and a
//	           sender's retry is either recognized or re-accepted
//	           exactly once
//	recSeal    an item frozen onto a type's queue under its delivery
//	           sequence. A batch seal freezes the pending buffer's
//	           first count readings; a summary or alert seal carries
//	           the push's wire payload — an own summary seal empties
//	           the degrade buffer, a child's alert push is queued
//	           verbatim (and its receive mark restored), and a fold's
//	           re-seal replaces the earlier seal of the same identity
//	           in place
//	recCommit  items no longer this node's responsibility — delivered
//	           upward, handed off by a migration, or dropped by a
//	           bound — each named by (kind, seq, origin)
//	recShed    readings trimmed oldest-first by MaxPendingReadings;
//	           with DegradeToSummary, replay folds them into the
//	           degrade buffer exactly as the live trim did
//
// plus live shard migration (see migrate.go):
//
//	recMigrateStart  a type's handoff began, with the counter after its
//	                 transfer sequences were reserved — an uncommitted
//	                 handoff keeps the moved items queued (recovery
//	                 lands on local ownership) but the counter must stay
//	                 past the reserved sequences the target may have
//	                 marked
//	recMigrateIn     one absorbed handoff chunk, raw transfer payload;
//	                 replay re-absorbs its items and marks verbatim
//
// and the standing continuous queries (see alerts.go):
//
//	recSubscribe    a subscription registered (JSON definition)
//	recUnsubscribe  a subscription cancelled (or handed off by a
//	                completed shard migration)
//
// Record appends happen under the same locks as the state changes
// they describe (the pending-shard mutex), so replaying the log
// reproduces the per-type state machine transition by transition.
// recBatch, recMigrateIn, recSubscribe and the seal of a child's alert
// push are acceptance gates: if the record cannot be appended the
// operation fails and the sender retries. The other records are best
// effort — losing one degrades toward re-delivery (which the
// receiver-side replay filter or the cloud's per-instance alert dedup
// absorbs) rather than loss. Recovery ordering is snapshot first, then
// the log tail, then installation into the shards.
const (
	// journalVersion is the snapshot layout version written by
	// checkpoints, and the only one recovery reads.
	journalVersion = 3

	recBatch        = 1
	recSeal         = 2
	recCommit       = 3
	recShed         = 4
	recMigrateStart = 5
	recMigrateIn    = 6
	recSubscribe    = 7
	recUnsubscribe  = 8
)

// errJournalClosed rejects appends after close: acceptance gates
// surface it, best-effort appends drop it.
var errJournalClosed = errors.New("fognode: journal closed")

// journal wraps the node's wal.Store with the record codec. Its mutex
// serializes appends and excludes them during checkpoints.
type journal struct {
	mu     sync.Mutex
	store  *wal.Store
	buf    []byte // record-encode scratch, reused under mu
	closed bool
}

func openJournal(cfg wal.Config) (*journal, error) {
	st, err := wal.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &journal{store: st}, nil
}

// write appends one record, built into the journal's scratch buffer.
func (j *journal) write(build func(dst []byte) []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errJournalClosed
	}
	j.buf = build(j.buf[:0])
	return j.store.Append(j.buf)
}

// acceptRecord starts a recBatch record for an item of the given kind
// carrying the delivery mark (origin, seq) of the transport hop that
// brought it — zero when it arrived unsequenced (a local edge ingest,
// a v1 envelope, a snapshot entry). The caller appends the body: the
// sensor wire of a batch, the payload of a summary push.
func acceptRecord(dst []byte, kind protocol.ItemKind, origin string, seq uint64) []byte {
	dst = append(dst, recBatch, byte(kind))
	dst = wal.AppendUint64(dst, seq)
	return wal.AppendString(dst, origin)
}

// sealRecord encodes the recSeal of one queued item.
func sealRecord(dst []byte, it *sealed) []byte {
	dst = append(dst, recSeal, byte(it.kind))
	dst = wal.AppendUint64(dst, it.seq)
	dst = wal.AppendString(dst, it.typ)
	if it.kind == protocol.ItemBatch {
		return wal.AppendUvarint(dst, uint64(len(it.b.Readings)))
	}
	return append(dst, it.payload...)
}

// appendBatch journals readings accepted into the pending buffer. The
// batch is logged with the node's own identity — the shape the pending
// buffer holds and a recovered flush would send.
func (j *journal) appendBatch(nodeID string, b *model.Batch, origin string, seq uint64) error {
	up := model.Batch{
		NodeID:    nodeID,
		TypeName:  b.TypeName,
		Category:  b.Category,
		Collected: b.Collected,
		Readings:  b.Readings,
	}
	return j.write(func(dst []byte) []byte {
		return sensor.AppendBatch(acceptRecord(dst, protocol.ItemBatch, origin, seq), &up)
	})
}

// appendSummary journals a child's summary push, raw payload,
// accepted into the degrade buffer.
func (j *journal) appendSummary(origin string, seq uint64, payload []byte) error {
	return j.write(func(dst []byte) []byte {
		return append(acceptRecord(dst, protocol.ItemSummary, origin, seq), payload...)
	})
}

func (j *journal) appendSeal(it *sealed) error {
	return j.write(func(dst []byte) []byte { return sealRecord(dst, it) })
}

func (j *journal) appendCommit(typ string, items []sealed) error {
	return j.write(func(dst []byte) []byte {
		dst = append(dst, recCommit)
		dst = wal.AppendString(dst, typ)
		dst = wal.AppendUvarint(dst, uint64(len(items)))
		for i := range items {
			dst = append(dst, byte(items[i].kind))
			dst = wal.AppendUint64(dst, items[i].seq)
			dst = wal.AppendString(dst, items[i].origin)
		}
		return dst
	})
}

func (j *journal) appendShed(typ string, count int) error {
	return j.write(func(dst []byte) []byte {
		dst = wal.AppendUvarint(append(dst, recShed), uint64(count))
		return wal.AppendString(dst, typ)
	})
}

// appendMigrateStart journals a type's handoff beginning, carrying the
// sequence counter after the handoff's transfer sequences were
// reserved. Best-effort, like seals: the moved items are covered
// either way (replay keeps uncommitted items queued), but the
// watermark keeps a recovered counter past the reserved transfer
// sequences — the target may have marked them, and a reused sequence
// would be deduped there silently.
func (j *journal) appendMigrateStart(typ, target string, seqHigh uint64) error {
	return j.write(func(dst []byte) []byte {
		dst = wal.AppendString(append(dst, recMigrateStart), typ)
		dst = wal.AppendString(dst, target)
		return wal.AppendUint64(dst, seqHigh)
	})
}

// appendMigrateIn journals one absorbed handoff chunk, raw transfer
// payload. Like appendBatch it is the acceptance gate: a failure
// rejects the chunk and the source keeps the state.
func (j *journal) appendMigrateIn(payload []byte) error {
	return j.write(func(dst []byte) []byte { return wal.AppendBytes(append(dst, recMigrateIn), payload) })
}

// appendSubscribe journals a standing subscription's registration —
// the Subscribe acceptance gate: a failure rejects the registration.
func (j *journal) appendSubscribe(sub cq.Subscription) error {
	doc, err := json.Marshal(sub)
	if err != nil {
		return err
	}
	return j.write(func(dst []byte) []byte { return wal.AppendBytes(append(dst, recSubscribe), doc) })
}

func (j *journal) appendUnsubscribe(id string) error {
	return j.write(func(dst []byte) []byte { return wal.AppendString(append(dst, recUnsubscribe), id) })
}

// checkpointDue reports whether the log has grown past the automatic
// snapshot threshold.
func (j *journal) checkpointDue() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return false
	}
	t := j.store.SnapshotThreshold()
	return t > 0 && j.store.AppendsSinceSnapshot() >= t
}

// checkpoint folds the node's current delivery state into a snapshot
// and rotates the log. The caller holds every pending-shard mutex and
// the flush-exclusion lock, so the encoded state is consistent and no
// record can race the rotation.
func (j *journal) checkpoint(seqCounter uint64, filter *protocol.ReplayFilter, shards []pendingShard, subs []cq.SubSnapshot) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	data, err := encodeNodeSnapshot(nil, seqCounter, filter.Dump(), shards, subs)
	if err != nil {
		return err
	}
	return j.store.WriteSnapshot(data)
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.store.Close()
}

// Snapshot layout (version 3):
//
//	[version u8]
//	[seq counter u64]
//	[origins uvarint] { [origin string] [n uvarint] { [seq u64] }* }*
//	[entries uvarint] { [journal record, uvarint-framed] }*
//	[subs uvarint]    { [cq.SubSnapshot JSON, uvarint-framed] }*
//
// The delivery state is one kind-tagged entry list, written as the
// journal records that rebuild it so recovery replays snapshot and log
// tail through the same applyRecord: per type, each queued item (a
// batch as its unsequenced acceptance plus its seal, a summary or
// alert push as its seal), then the pending buffer and the degrade
// buffer as unsequenced acceptances.
func encodeNodeSnapshot(dst []byte, seqCounter uint64, marks map[string][]uint64, shards []pendingShard, subs []cq.SubSnapshot) ([]byte, error) {
	entries := 0
	for i := range shards {
		sh := &shards[i]
		for _, q := range sh.queue {
			for k := range q {
				entries++
				if q[k].kind == protocol.ItemBatch {
					entries++
				}
			}
		}
		entries += len(sh.pending) + len(sh.degraded)
	}
	dst = append(dst, journalVersion)
	dst = wal.AppendUint64(dst, seqCounter)
	dst = wal.AppendMarkSet(dst, marks)
	dst = wal.AppendUvarint(dst, uint64(entries))
	var rec []byte
	for i := range shards {
		sh := &shards[i]
		for _, q := range sh.queue {
			for k := range q {
				if q[k].kind == protocol.ItemBatch {
					rec = sensor.AppendBatch(acceptRecord(rec[:0], protocol.ItemBatch, "", 0), q[k].b)
					dst = wal.AppendBytes(dst, rec)
				}
				rec = sealRecord(rec[:0], &q[k])
				dst = wal.AppendBytes(dst, rec)
			}
		}
		for _, p := range sh.pending {
			rec = sensor.AppendBatch(acceptRecord(rec[:0], protocol.ItemBatch, "", 0), p)
			dst = wal.AppendBytes(dst, rec)
		}
		for typ, d := range sh.degraded {
			payload, err := protocol.EncodeJSON(d.push("", 0, typ, 0))
			if err != nil {
				return nil, err
			}
			rec = append(acceptRecord(rec[:0], protocol.ItemSummary, "", 0), payload...)
			dst = wal.AppendBytes(dst, rec)
		}
	}
	dst = wal.AppendUvarint(dst, uint64(len(subs)))
	for i := range subs {
		doc, err := cq.EncodeSubSnapshot(&subs[i])
		if err != nil {
			return nil, err
		}
		dst = wal.AppendBytes(dst, doc)
	}
	return dst, nil
}

// recoveryState accumulates the replayed delivery state before it is
// installed into a node.
type recoveryState struct {
	// self is the recovering node's ID: its own sequences advance the
	// counter and its own fires re-mark the engine's emitted sets.
	self string
	// degradeWindow is the DegradeToSummary window (zero when the node
	// does not degrade): replayed trims fold into degraded with it.
	degradeWindow time.Duration
	seqCounter    uint64
	sawSeq        bool
	marks         []markEntry
	types         map[string]*typeRecovery
	degraded      map[string]*degradeBuf
	// stored collects every replayed batch for the local time-series
	// store: recovery restores real-time reads over the checkpoint
	// window, not just the undelivered buffers.
	stored []*model.Batch
	// Continuous-query state. snapSubs are the checkpoint's engine
	// snapshots; subEvents the tail's subscribe/unsubscribe/handoff
	// ops in log order. observed holds only the tail's accepted
	// batches: the engine snapshot already folded everything up to
	// the checkpoint (batches still pending included), so re-observing
	// snapshot entries would double-count their readings. alertMarks
	// carries the (sub, window-start) of every alert this node's own
	// subscriptions fired, from all seal records — applied before the
	// re-observation so a sealed window cannot refire.
	snapSubs   []cq.SubSnapshot
	subEvents  []subOp
	observed   []*model.Batch
	alertMarks []alertMark
}

type markEntry struct {
	origin string
	seq    uint64
}

type subOp struct {
	remove bool
	id     string
	sub    cq.Subscription
	// snap is set for a migration-absorbed subscription (definition
	// plus live window state, installed via Engine.Install).
	snap *cq.SubSnapshot
}

type alertMark struct {
	subID string
	start int64
}

// typeRecovery is one type's replayed outbox queue (kind-ordered, like
// the live one) and pending buffer.
type typeRecovery struct {
	queue   []sealed
	pending *model.Batch
}

func newRecoveryState() *recoveryState {
	return &recoveryState{
		types:    make(map[string]*typeRecovery),
		degraded: make(map[string]*degradeBuf),
	}
}

func (rs *recoveryState) typeState(typ string) *typeRecovery {
	tr, ok := rs.types[typ]
	if !ok {
		tr = &typeRecovery{}
		rs.types[typ] = tr
	}
	return tr
}

func (rs *recoveryState) noteSeq(seq uint64) {
	if !rs.sawSeq || seq > rs.seqCounter {
		rs.seqCounter = seq
	}
	rs.sawSeq = true
}

// add files a recovered item on its type's queue — a fold's re-seal
// replaces the earlier seal of the same identity in place — keeping
// the counter past this node's own sequences. An alert push also
// restores the emitted marks of this node's own fires and, when a
// child's push was absorbed, its receive mark.
func (rs *recoveryState) add(it sealed) error {
	if it.origin == rs.self {
		rs.noteSeq(it.seq)
	}
	if it.kind == protocol.ItemAlert {
		p, err := protocol.DecodeAlertPush(it.payload)
		if err != nil {
			return err
		}
		for i := range p.Alerts {
			if p.Alerts[i].FiredBy == rs.self {
				rs.alertMarks = append(rs.alertMarks, alertMark{subID: p.Alerts[i].SubID, start: p.Alerts[i].StartUnix})
			}
		}
		if it.origin != rs.self {
			rs.marks = append(rs.marks, markEntry{origin: it.origin, seq: it.seq})
		}
	}
	tr := rs.typeState(it.typ)
	if i := slices.IndexFunc(tr.queue, func(q sealed) bool { return sameItem(&q, &it) }); i >= 0 {
		tr.queue[i] = it
	} else {
		tr.queue = byKind(append(tr.queue, it))
	}
	return nil
}

// freeze peels the pending buffer's first count readings off as one
// sealed batch (the whole buffer when count covers it).
func (tr *typeRecovery) freeze(count uint64) *model.Batch {
	b := tr.pending
	if count >= uint64(len(b.Readings)) {
		tr.pending = nil
		return b
	}
	head, rest := *b, *b
	head.Readings = b.Readings[:count:count]
	rest.Readings = b.Readings[count:]
	tr.pending = &rest
	return &head
}

func decodeNodeSnapshot(data []byte, rs *recoveryState) error {
	if len(data) == 0 {
		return nil
	}
	if data[0] != journalVersion {
		return fmt.Errorf("fognode: unsupported snapshot version %d", data[0])
	}
	seqCounter, rest, err := wal.ReadUint64(data[1:])
	if err != nil {
		return err
	}
	rs.noteSeq(seqCounter)
	rest, err = wal.ReadMarkSet(rest, func(origin string, seq uint64) {
		rs.marks = append(rs.marks, markEntry{origin: origin, seq: seq})
	})
	if err != nil {
		return err
	}
	entries, rest, err := wal.ReadUvarint(rest)
	if err != nil {
		return err
	}
	for i := uint64(0); i < entries; i++ {
		var rec []byte
		if rec, rest, err = wal.ReadBytes(rest); err != nil {
			return err
		}
		if err := rs.applyRecord(rec); err != nil {
			return fmt.Errorf("fognode: snapshot entry %d: %w", i, err)
		}
	}
	// The engine snapshot already folded every batch the checkpoint
	// holds: only the log tail's batches are re-observed.
	rs.observed = nil
	nSubs, rest, err := wal.ReadUvarint(rest)
	if err != nil {
		return err
	}
	for i := uint64(0); i < nSubs; i++ {
		var doc []byte
		if doc, rest, err = wal.ReadBytes(rest); err != nil {
			return err
		}
		snap, err := cq.DecodeSubSnapshot(doc)
		if err != nil {
			return fmt.Errorf("fognode: snapshot subscription: %w", err)
		}
		rs.snapSubs = append(rs.snapSubs, *snap)
	}
	return nil
}

// applyRecord replays one log record onto the recovery state, the same
// transition the live path journaled.
func (rs *recoveryState) applyRecord(rec []byte) error {
	if len(rec) < 2 {
		return fmt.Errorf("fognode: truncated journal record")
	}
	body := rec[1:]
	switch rec[0] {
	case recBatch:
		kind := protocol.ItemKind(body[0])
		seq, rest, err := wal.ReadUint64(body[1:])
		if err != nil {
			return err
		}
		origin, rest, err := wal.ReadString(rest)
		if err != nil {
			return err
		}
		switch kind {
		case protocol.ItemBatch:
			b, err := sensor.DecodeBatch(rest)
			if err != nil {
				return fmt.Errorf("fognode: journal batch: %w", err)
			}
			tr := rs.typeState(b.TypeName)
			// Clone: the merge below and later trims must not touch the
			// stored batch.
			if tr.pending == nil {
				tr.pending = b.Clone()
			} else {
				tr.pending.Readings = append(tr.pending.Readings, b.Readings...)
			}
			rs.stored = append(rs.stored, b)
			rs.observed = append(rs.observed, b)
		case protocol.ItemSummary:
			var p protocol.SummaryPush
			if err := protocol.DecodeJSON(rest, &p); err != nil {
				return fmt.Errorf("fognode: journal summary: %w", err)
			}
			cat, _ := model.ParseCategory(p.Category)
			degradeBufFor(rs.degraded, p.TypeName, cat).merge(&p)
		default:
			return fmt.Errorf("fognode: journal acceptance of unknown kind %d", kind)
		}
		if seq != 0 {
			// The acceptance carried a delivery mark: restore it with the
			// state so a recovered receiver still dedupes the sender's
			// retry.
			rs.marks = append(rs.marks, markEntry{origin: origin, seq: seq})
		}
	case recSeal:
		kind := protocol.ItemKind(body[0])
		seq, rest, err := wal.ReadUint64(body[1:])
		if err != nil {
			return err
		}
		typ, rest, err := wal.ReadString(rest)
		if err != nil {
			return err
		}
		var it sealed
		if kind == protocol.ItemBatch {
			count, _, err := wal.ReadUvarint(rest)
			if err != nil {
				return err
			}
			tr := rs.typeState(typ)
			if tr.pending == nil {
				rs.noteSeq(seq) // an own seal of an empty buffer: nothing to freeze
				return nil
			}
			it = batchItem(tr.freeze(count), seq)
		} else {
			if it, err = decodeItem(kind, seq, rest); err != nil {
				return fmt.Errorf("fognode: journal seal: %w", err)
			}
			if kind == protocol.ItemSummary && it.origin == rs.self {
				delete(rs.degraded, it.typ) // the seal emptied the buffer
			}
		}
		return rs.add(it)
	case recCommit:
		typ, rest, err := wal.ReadString(body)
		if err != nil {
			return err
		}
		count, rest, err := wal.ReadUvarint(rest)
		if err != nil {
			return err
		}
		tr := rs.typeState(typ)
		for i := uint64(0); i < count; i++ {
			if len(rest) == 0 {
				return fmt.Errorf("fognode: truncated journal commit")
			}
			c := sealed{kind: protocol.ItemKind(rest[0])}
			if c.seq, rest, err = wal.ReadUint64(rest[1:]); err != nil {
				return err
			}
			if c.origin, rest, err = wal.ReadString(rest); err != nil {
				return err
			}
			if c.origin == rs.self {
				// The committed sequence was used even if its seal record
				// was lost: keep the recovered counter past it so a fresh
				// item can never reuse a sequence the parent already
				// marked (silently deduped — loss, not re-delivery).
				rs.noteSeq(c.seq)
			}
			tr.queue = slices.DeleteFunc(tr.queue, func(q sealed) bool { return sameItem(&q, &c) })
		}
	case recShed:
		count, rest, err := wal.ReadUvarint(body)
		if err != nil {
			return err
		}
		typ, _, err := wal.ReadString(rest)
		if err != nil {
			return err
		}
		tr := rs.typeState(typ)
		tr.queue = trimOldest(tr.queue, tr.pending, int(min(count, 1<<31)), func(cat model.Category, readings []model.Reading, _ bool) {
			if rs.degradeWindow > 0 {
				buf := degradeBufFor(rs.degraded, typ, cat)
				for _, r := range readings {
					buf.fold(r, rs.degradeWindow, maxDegradedWindows)
				}
			}
		})
	case recMigrateStart:
		// An uncommitted handoff keeps its items queued, so the
		// recovered source still owns them and drains upward — the
		// shared parent dedupes if the target also absorbed a copy. The
		// watermark advances the counter past the handoff's reserved
		// transfer sequences: the target may hold replay marks for them,
		// and minting one again would get a fresh forward silently
		// deduped there.
		_, rest, err := wal.ReadString(body)
		if err != nil {
			return err
		}
		_, rest, err = wal.ReadString(rest)
		if err != nil {
			return err
		}
		seqHigh, _, err := wal.ReadUint64(rest)
		if err != nil {
			return err
		}
		rs.noteSeq(seqHigh)
	case recMigrateIn:
		payload, _, err := wal.ReadBytes(body)
		if err != nil {
			return err
		}
		t, err := protocol.DecodeMigrateTransfer(payload)
		if err != nil {
			return fmt.Errorf("fognode: journal migrate chunk: %w", err)
		}
		// Absorbed verbatim, foreign identities preserved; the moved
		// sequences belong to the source's space, so they do not advance
		// this node's counter.
		for i, mi := range t.Items {
			it, err := decodeItem(mi.Kind, mi.Seq, mi.Payload)
			if err != nil {
				return fmt.Errorf("fognode: journal migrate item %d: %w", i, err)
			}
			if err := rs.add(it); err != nil {
				return err
			}
		}
		for origin, seqs := range t.Marks {
			for _, seq := range seqs {
				rs.marks = append(rs.marks, markEntry{origin: origin, seq: seq})
			}
		}
		rs.marks = append(rs.marks, markEntry{origin: t.From, seq: t.TransferSeq})
		for i := range t.Subs {
			snap, err := cq.DecodeSubSnapshot(t.Subs[i])
			if err != nil {
				return fmt.Errorf("fognode: journal migrate subscription %d: %w", i, err)
			}
			rs.subEvents = append(rs.subEvents, subOp{snap: snap})
		}
	case recSubscribe:
		doc, _, err := wal.ReadBytes(body)
		if err != nil {
			return err
		}
		var sub cq.Subscription
		if err := json.Unmarshal(doc, &sub); err != nil {
			return fmt.Errorf("fognode: journal subscription: %w", err)
		}
		rs.subEvents = append(rs.subEvents, subOp{sub: sub})
	case recUnsubscribe:
		id, _, err := wal.ReadString(body)
		if err != nil {
			return err
		}
		rs.subEvents = append(rs.subEvents, subOp{remove: true, id: id})
	default:
		return fmt.Errorf("fognode: unknown journal record type %d", rec[0])
	}
	return nil
}

// recover rebuilds the node's delivery state from the journal opened
// at construction: snapshot, then the log tail, then installation into
// the pending and degrade buffers, outbox queues, sequence counter,
// replay filter and the local time-series store. Metrics are not
// re-counted — recovered state was already accounted by its first
// life.
func (n *Node) recover(j *journal) error {
	rs := newRecoveryState()
	rs.self = n.cfg.Spec.ID
	if n.cfg.DegradeToSummary {
		rs.degradeWindow = n.cfg.DegradeWindow
	}
	if err := decodeNodeSnapshot(j.store.Snapshot(), rs); err != nil {
		return err
	}
	for _, rec := range j.store.Records() {
		if err := rs.applyRecord(rec); err != nil {
			return err
		}
	}
	// Continuous-query plane: checkpointed engine state first, then
	// the tail's subscription ops, then the emitted marks of every
	// window this node is known to have fired — only then are the
	// tail's accepted batches re-observed, so a sealed window cannot
	// refire while an unsealed one (its fire lost with the crash)
	// legitimately does. Refired alerts are sealed by New once the
	// journal is attached.
	for i := range rs.snapSubs {
		if err := n.cqe.Install(rs.snapSubs[i]); err != nil {
			return err
		}
	}
	for _, op := range rs.subEvents {
		switch {
		case op.remove:
			n.cqe.Unsubscribe(op.id)
		case op.snap != nil:
			if err := n.cqe.Install(*op.snap); err != nil {
				return err
			}
		default:
			if err := n.cqe.Subscribe(op.sub); err != nil {
				return err
			}
		}
	}
	for _, m := range rs.alertMarks {
		n.cqe.MarkEmitted(m.subID, m.start)
	}
	for _, b := range rs.observed {
		if len(b.Readings) == 0 {
			continue
		}
		n.recoveredAlerts = append(n.recoveredAlerts, n.cqe.Observe(b)...)
	}
	for typ, tr := range rs.types {
		sh := n.shardFor(typ)
		if len(tr.queue) > 0 {
			sh.queue[typ] = tr.queue
		}
		if tr.pending != nil && len(tr.pending.Readings) > 0 {
			sh.pending[typ] = tr.pending
		}
	}
	for typ, d := range rs.degraded {
		if len(d.windows) > 0 {
			n.shardFor(typ).degraded[typ] = d
		}
	}
	if rs.sawSeq {
		n.seq.Store(rs.seqCounter)
	}
	for _, m := range rs.marks {
		n.replay.Mark(m.origin, m.seq)
	}
	// A segment-backed store is self-durable: it already recovered its
	// own WAL and segments at Open, so replaying the delivery
	// journal's accepted batches into it would duplicate readings.
	if n.segStore == nil {
		for _, b := range rs.stored {
			if len(b.Readings) == 0 {
				continue
			}
			if err := n.store.Append(b); err != nil {
				return fmt.Errorf("fognode %s: recover store: %w", n.cfg.Spec.ID, err)
			}
		}
	}
	return nil
}
