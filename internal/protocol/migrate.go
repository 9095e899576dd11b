package protocol

import (
	"fmt"

	"f2c/internal/wal"
)

// Migration wire format (transport.KindMigrate payloads).
//
// A migration moves one sensor type's delivery state from its old
// fog owner to its new one. Every queued upward delivery unit — a
// sealed batch, a degrade summary push, a continuous-query alert
// push — travels as one kind-tagged item carrying the SAME wire
// payload the upward path sends (Sealer.SealSeq envelope, SummaryPush
// JSON, AlertPush wire), opaque to this codec, so the sequence space
// is preserved end to end: the target's flushes present the original
// (origin, seq) identities and every replay filter downstream keeps
// deduping exactly as before the handoff. The source's replay-filter
// marks ride along so the target inherits its dedup horizon, and the
// moved type's standing subscriptions travel with their live window
// state, so an open window keeps accumulating on the new owner.
//
// Layout (all integers via the wal binary helpers):
//
//	0xF3 version=3
//	typeName from to             (uvarint-prefixed strings)
//	transferSeq                  (8 bytes)
//	nItems { kind, seq, payload } (kind u8: ItemBatch/ItemSummary/ItemAlert)
//	markSet                      (origin -> seqs)
//	nSubs { json }               (cq subscription-state documents)
//
// A transfer is bounded by MaxMigrateWireSize; one transfer carries a
// chunk of a shard, never the whole node state, which is what keeps
// rebalance traffic proportional to the moved shards.
const (
	migrateMagic   = 0xF3
	migrateVersion = 3
)

// migrateHeadroom is the room a transfer header, summaries, and marks
// get on top of the batch-envelope bound: a transfer carrying a
// single maximum-size sealed batch must still encode.
const migrateHeadroom = 4 << 10

// MaxMigrateWireSize bounds an encoded migration transfer. It tracks
// the batch wire-size bound so a transfer always has room for one
// maximum-size sealed envelope plus headroom, and never exceeds what
// the socket transport's frame limit accepts.
func MaxMigrateWireSize() int {
	max := MaxBatchWireSize()
	if max <= 0 {
		max = DefaultMaxBatchWireSize
	}
	return max + migrateHeadroom
}

// MigrateSizeError reports a transfer rejected for exceeding
// MaxMigrateWireSize. Sources split shard state into bounded chunks;
// an oversized transfer is a bug or a hostile payload, never retried.
type MigrateSizeError struct {
	// Size is the offending transfer's encoded size.
	Size int
	// Limit is the enforced bound.
	Limit int
}

// Error implements error.
func (e *MigrateSizeError) Error() string {
	return fmt.Sprintf("protocol: migration transfer of %d bytes exceeds limit %d", e.Size, e.Limit)
}

// ItemKind tags one upward delivery unit: the three kinds a fog
// tier forwards share one sequence space, one queue and one wire slot
// in a migration transfer.
type ItemKind uint8

const (
	// ItemBatch is a sealed batch envelope (Sealer.SealSeq output).
	ItemBatch ItemKind = iota
	// ItemSummary is a degrade SummaryPush, JSON-encoded.
	ItemSummary
	// ItemAlert is a continuous-query AlertPush, binary-encoded.
	ItemAlert
)

// MigrateItem is one queued delivery unit moving to the new owner.
type MigrateItem struct {
	Kind ItemKind
	// Seq is the frozen delivery sequence (the same value carried
	// inside the payload).
	Seq uint64
	// Payload is the item's upward wire payload.
	Payload []byte
}

// MigrateTransfer is one chunk of a live shard handoff.
type MigrateTransfer struct {
	// TypeName is the sensor type whose ownership moves.
	TypeName string
	// From and To are the old and new owner node IDs.
	From string
	To   string
	// TransferSeq identifies this chunk in the source's sequence
	// space; the target marks it in its replay filter so a retried
	// transfer is absorbed exactly once.
	TransferSeq uint64
	// Items are the moved type's queued delivery units, batches first,
	// then summary pushes, then alert pushes, each oldest first.
	Items []MigrateItem
	// Marks is the slice of the source's replay-filter state moving
	// with the shard.
	Marks map[string][]uint64
	// Subs are the moved type's standing subscriptions with their live
	// window state, as opaque cq snapshot JSON documents.
	Subs [][]byte
}

// Validate checks semantic invariants after a decode. Summary items
// are decoded and validated too; batch and alert payloads stay opaque
// until the receiving node opens them.
func (t *MigrateTransfer) Validate() error {
	switch {
	case t.TypeName == "":
		return fmt.Errorf("protocol: migration transfer without a type")
	case t.From == "":
		return fmt.Errorf("protocol: migration transfer without a source")
	case t.To == "":
		return fmt.Errorf("protocol: migration transfer without a target")
	case t.From == t.To:
		return fmt.Errorf("protocol: migration transfer from %q to itself", t.From)
	case t.TransferSeq == 0:
		return fmt.Errorf("protocol: migration transfer without a sequence")
	}
	for i := range t.Items {
		it := &t.Items[i]
		switch {
		case it.Kind > ItemAlert:
			return fmt.Errorf("protocol: migration item %d of unknown kind %d", i, it.Kind)
		case it.Seq == 0:
			return fmt.Errorf("protocol: migration item %d without a sequence", i)
		case len(it.Payload) == 0:
			return fmt.Errorf("protocol: migration item %d without a payload", i)
		}
		if it.Kind == ItemSummary {
			if _, err := DecodeSummaryPush(it.Payload); err != nil {
				return fmt.Errorf("protocol: migration item %d: %w", i, err)
			}
		}
	}
	for i := range t.Subs {
		if len(t.Subs[i]) == 0 {
			return fmt.Errorf("protocol: migration subscription %d without a document", i)
		}
	}
	return nil
}

// AppendMigrateTransfer appends the encoded transfer to dst. The
// encoded chunk must fit MaxMigrateWireSize or a *MigrateSizeError is
// returned.
func AppendMigrateTransfer(dst []byte, t *MigrateTransfer) ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	start := len(dst)
	dst = append(dst, migrateMagic, migrateVersion)
	dst = wal.AppendString(dst, t.TypeName)
	dst = wal.AppendString(dst, t.From)
	dst = wal.AppendString(dst, t.To)
	dst = wal.AppendUint64(dst, t.TransferSeq)
	dst = wal.AppendUvarint(dst, uint64(len(t.Items)))
	for i := range t.Items {
		dst = append(dst, byte(t.Items[i].Kind))
		dst = wal.AppendUint64(dst, t.Items[i].Seq)
		dst = wal.AppendBytes(dst, t.Items[i].Payload)
	}
	dst = wal.AppendMarkSet(dst, t.Marks)
	dst = wal.AppendUvarint(dst, uint64(len(t.Subs)))
	for i := range t.Subs {
		dst = wal.AppendBytes(dst, t.Subs[i])
	}
	if size := len(dst) - start; size > MaxMigrateWireSize() {
		return nil, &MigrateSizeError{Size: size, Limit: MaxMigrateWireSize()}
	}
	return dst, nil
}

// EncodeMigrateTransfer encodes a transfer into a fresh buffer.
func EncodeMigrateTransfer(t *MigrateTransfer) ([]byte, error) {
	return AppendMigrateTransfer(make([]byte, 0, 256), t)
}

// DecodeMigrateTransfer decodes a transfer payload. Arbitrary bytes
// fail with an error, never a panic; payloads beyond
// MaxMigrateWireSize fail with *MigrateSizeError before any decoding.
func DecodeMigrateTransfer(data []byte) (*MigrateTransfer, error) {
	if len(data) > MaxMigrateWireSize() {
		return nil, &MigrateSizeError{Size: len(data), Limit: MaxMigrateWireSize()}
	}
	if len(data) < 2 {
		return nil, fmt.Errorf("protocol: migration transfer too short (%d bytes)", len(data))
	}
	if data[0] != migrateMagic {
		return nil, fmt.Errorf("protocol: bad migration magic 0x%02x", data[0])
	}
	if data[1] != migrateVersion {
		return nil, fmt.Errorf("protocol: unsupported migration version %d", data[1])
	}
	rest := data[2:]
	t := &MigrateTransfer{}
	var err error
	if t.TypeName, rest, err = wal.ReadString(rest); err != nil {
		return nil, fmt.Errorf("protocol: migration type: %w", err)
	}
	if t.From, rest, err = wal.ReadString(rest); err != nil {
		return nil, fmt.Errorf("protocol: migration source: %w", err)
	}
	if t.To, rest, err = wal.ReadString(rest); err != nil {
		return nil, fmt.Errorf("protocol: migration target: %w", err)
	}
	if t.TransferSeq, rest, err = wal.ReadUint64(rest); err != nil {
		return nil, fmt.Errorf("protocol: migration sequence: %w", err)
	}
	nItems, rest, err := wal.ReadUvarint(rest)
	if err != nil {
		return nil, fmt.Errorf("protocol: migration item count: %w", err)
	}
	// Each item consumes at least 10 bytes; a count beyond the
	// remaining payload is hostile.
	if nItems > uint64(len(rest)) {
		return nil, fmt.Errorf("protocol: migration claims %d items in %d bytes", nItems, len(rest))
	}
	if nItems > 0 {
		t.Items = make([]MigrateItem, 0, nItems)
	}
	for i := uint64(0); i < nItems; i++ {
		if len(rest) == 0 {
			return nil, fmt.Errorf("protocol: migration item %d truncated", i)
		}
		it := MigrateItem{Kind: ItemKind(rest[0])}
		if it.Seq, rest, err = wal.ReadUint64(rest[1:]); err != nil {
			return nil, fmt.Errorf("protocol: migration item %d seq: %w", i, err)
		}
		var payload []byte
		if payload, rest, err = wal.ReadBytes(rest); err != nil {
			return nil, fmt.Errorf("protocol: migration item %d payload: %w", i, err)
		}
		it.Payload = append([]byte(nil), payload...)
		t.Items = append(t.Items, it)
	}
	rest, err = wal.ReadMarkSet(rest, func(origin string, seq uint64) {
		if t.Marks == nil {
			t.Marks = make(map[string][]uint64)
		}
		t.Marks[origin] = append(t.Marks[origin], seq)
	})
	if err != nil {
		return nil, fmt.Errorf("protocol: migration marks: %w", err)
	}
	nSubs, rest, err := wal.ReadUvarint(rest)
	if err != nil {
		return nil, fmt.Errorf("protocol: migration subscription count: %w", err)
	}
	if nSubs > uint64(len(rest)) {
		return nil, fmt.Errorf("protocol: migration claims %d subscriptions in %d bytes", nSubs, len(rest))
	}
	if nSubs > 0 {
		t.Subs = make([][]byte, 0, nSubs)
	}
	for i := uint64(0); i < nSubs; i++ {
		var doc []byte
		if doc, rest, err = wal.ReadBytes(rest); err != nil {
			return nil, fmt.Errorf("protocol: migration subscription %d doc: %w", i, err)
		}
		t.Subs = append(t.Subs, append([]byte(nil), doc...))
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes after migration transfer", len(rest))
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
