package store

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"f2c/internal/model"
)

// Record is one archived batch with its preservation metadata.
type Record struct {
	// Batch is the preserved data.
	Batch *model.Batch
	// Provenance lists the node path the data travelled
	// (fog1 -> fog2 -> cloud), implementing the paper's data-lineage
	// mention in the classification phase.
	Provenance []string
	// StoredAt is the archive ingestion instant.
	StoredAt time.Time
	// Version increments when the same (node, type, collected)
	// batch is re-archived.
	Version int
}

func (rec Record) key() recordKey {
	return recordKey{
		node:      rec.Batch.NodeID,
		typ:       rec.Batch.TypeName,
		collected: rec.Batch.Collected.UnixNano(),
	}
}

type recordKey struct {
	node      string
	typ       string
	collected int64
}

// Archive is the cloud layer's permanent, classified batch store. The
// classification phase organizes records by category, type and day so
// that dissemination and historical processing can retrieve them
// efficiently. Safe for concurrent use.
type Archive struct {
	mu       sync.RWMutex
	records  []Record
	byCat    map[model.Category][]int
	byType   map[string][]int
	byDay    map[string][]int // "2017-06-01"
	versions map[recordKey]int
	readings int64
	// scan caches each type's readings in time order for the
	// historical scan paths. Put appends the new batch to the cache
	// and only marks it dirty when the append breaks time order, so
	// in-order archival (the steady state) never re-sorts and an
	// out-of-order Put costs one copy-and-stable-sort on the next
	// read instead of a full re-collect per read.
	scan map[string]*typeScan
	// src, when set, serves the reading-range scan paths (Readings,
	// ReadingsPage) instead of the in-RAM cache — a durable cloud
	// points it at its segment store so historical scans stream from
	// mmap'd segments rather than a second RAM copy. Classification
	// reads (ByCategory, ByType, ByDay) stay on the archive's own
	// records.
	src PageScanner
}

// PageScanner serves time-range reads under the store cursor
// contract. segment.Store implements it.
type PageScanner interface {
	QueryRange(typeName string, from, to time.Time) []model.Reading
	QueryRangePage(typeName string, from, to time.Time, limit int, cursor string) ([]model.Reading, string, error)
}

// SetScanSource redirects the archive's reading-range scans to an
// external store holding the same preserved readings. Call before
// serving queries (not synchronized with readers).
func (a *Archive) SetScanSource(src PageScanner) { a.src = src }

// typeScan is one type's incrementally maintained sorted cache.
type typeScan struct {
	readings []model.Reading
	dirty    bool // an out-of-order Put landed; stable-sort on next read
}

// NewArchive creates an empty archive.
func NewArchive() *Archive {
	return &Archive{
		byCat:    make(map[model.Category][]int),
		byType:   make(map[string][]int),
		byDay:    make(map[string][]int),
		versions: make(map[recordKey]int),
		scan:     make(map[string]*typeScan),
	}
}

// Put classifies and stores a batch permanently.
func (a *Archive) Put(b *model.Batch, provenance []string, storedAt time.Time) (Record, error) {
	if err := b.Validate(); err != nil {
		return Record{}, fmt.Errorf("archive put: %w", err)
	}
	prov := make([]string, len(provenance))
	copy(prov, provenance)
	rec := Record{Batch: b.Clone(), Provenance: prov, StoredAt: storedAt}

	a.mu.Lock()
	defer a.mu.Unlock()
	key := rec.key()
	a.versions[key]++
	rec.Version = a.versions[key]

	idx := len(a.records)
	a.records = append(a.records, rec)
	a.byCat[b.Category] = append(a.byCat[b.Category], idx)
	a.byType[b.TypeName] = append(a.byType[b.TypeName], idx)
	day := b.Collected.UTC().Format("2006-01-02")
	a.byDay[day] = append(a.byDay[day], idx)
	a.readings += int64(len(b.Readings))
	a.extendScan(rec.Batch)
	return rec, nil
}

// ByCategory returns archived records of a category, in arrival order.
func (a *Archive) ByCategory(c model.Category) []Record {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.collect(a.byCat[c])
}

// ByType returns archived records of a sensor type, in arrival order.
func (a *Archive) ByType(typeName string) []Record {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.collect(a.byType[typeName])
}

// ByDay returns records collected on the given UTC day ("2006-01-02").
func (a *Archive) ByDay(day string) []Record {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.collect(a.byDay[day])
}

// Days returns the sorted set of days with archived data.
func (a *Archive) Days() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, 0, len(a.byDay))
	for d := range a.byDay {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// extendScan appends a newly archived batch to its type's scan cache,
// flagging the cache dirty only when the new readings break time
// order. Absent entries stay absent — sortedScan builds them from the
// classified records on first read. Called with a.mu held for write.
func (a *Archive) extendScan(b *model.Batch) {
	ts, ok := a.scan[b.TypeName]
	if !ok {
		return
	}
	for i := range b.Readings {
		if !ts.dirty {
			if n := len(ts.readings); n > 0 && b.Readings[i].Time.Before(ts.readings[n-1].Time) {
				ts.dirty = true
			}
		}
		ts.readings = append(ts.readings, b.Readings[i])
	}
}

// sortedScan returns the time-sorted readings of a type. Clean-cache
// readers (the steady state of a page walk, and — because Put keeps
// the cache appended in place — also the steady state under in-order
// archival) are served entirely under the read lock; the write lock
// is taken only to build a missing entry or to re-sort after an
// out-of-order Put. A dirty re-sort copies before sorting and is
// stable, so the result is bit-identical to a full rebuild from the
// records in arrival order and any previously returned slice stays
// frozen. The returned slice is the immutable cache — callers must
// copy what they keep.
func (a *Archive) sortedScan(typeName string) []model.Reading {
	a.mu.RLock()
	if ts, ok := a.scan[typeName]; ok && !ts.dirty {
		s := ts.readings
		a.mu.RUnlock()
		return s
	}
	a.mu.RUnlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	ts, ok := a.scan[typeName]
	if !ok {
		ts = &typeScan{dirty: true}
		for _, idx := range a.byType[typeName] {
			ts.readings = append(ts.readings, a.records[idx].Batch.Readings...)
		}
		a.scan[typeName] = ts
	}
	if ts.dirty {
		s := make([]model.Reading, len(ts.readings))
		copy(s, ts.readings)
		sortByTime(s)
		ts.readings = s
		ts.dirty = false
	}
	return ts.readings
}

// windowBounds returns the [from, to] bounds within a sorted slice.
func windowBounds(s []model.Reading, from, to time.Time) (lo, hi int) {
	lo = sort.Search(len(s), func(i int) bool { return !s[i].Time.Before(from) })
	hi = sort.Search(len(s), func(i int) bool { return s[i].Time.After(to) })
	return lo, hi
}

// Readings returns historical readings of a type within [from, to],
// time-sorted — the cloud's historical query path. The returned
// slice is a copy.
func (a *Archive) Readings(typeName string, from, to time.Time) []model.Reading {
	if a.src != nil {
		return a.src.QueryRange(typeName, from, to)
	}
	s := a.sortedScan(typeName)
	lo, hi := windowBounds(s, from, to)
	if lo >= hi {
		return nil
	}
	out := make([]model.Reading, hi-lo)
	copy(out, s[lo:hi])
	return out
}

// ReadingsPage returns one bounded page of historical readings of a
// type within [from, to], plus the cursor resuming the scan (""
// when complete) — the limit/cursor-aware form of Readings used by
// the dissemination interfaces. The archive keeps records in arrival
// order; the scan pages over the incrementally maintained per-type
// sorted cache, so each page binary-searches the prebuilt slice and
// copies only the page out. The cursor is stable across calls because
// archived data is immutable (Expire only removes records older than
// any live cursor's window, and an out-of-order Put's re-sort is
// stable, reproducing the same time order).
func (a *Archive) ReadingsPage(typeName string, from, to time.Time, limit int, cursor string) ([]model.Reading, string, error) {
	if a.src != nil {
		return a.src.QueryRangePage(typeName, from, to, limit, cursor)
	}
	var cur Cursor
	haveCur := cursor != ""
	if haveCur {
		var err error
		if cur, err = ParseCursor(cursor); err != nil {
			return nil, "", err
		}
	}
	s := a.sortedScan(typeName)
	lo, hi := windowBounds(s, from, to)
	if lo >= hi {
		return nil, "", nil
	}
	start, end, next := pageWindow(s[lo:hi], limit, cur, haveCur)
	if start >= end {
		return nil, next, nil
	}
	out := make([]model.Reading, end-start)
	copy(out, s[lo+start:lo+end])
	return out, next, nil
}

// Stats reports archive volume.
func (a *Archive) Stats() Stats {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return Stats{
		Readings:    a.readings,
		Series:      len(a.byType),
		ApproxBytes: a.readings * approxReadingBytes,
	}
}

// Records returns a copy of every archived record in arrival order —
// the snapshot surface a durable cloud node folds into its checkpoint.
func (a *Archive) Records() []Record {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]Record, len(a.records))
	copy(out, a.records)
	return out
}

// Len returns the number of archived records.
func (a *Archive) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.records)
}

func (a *Archive) collect(idxs []int) []Record {
	out := make([]Record, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, a.records[i])
	}
	return out
}

// Expire implements the data-destruction phase of the life cycle:
// it permanently removes records whose batches were collected before
// the cutoff ("data will be permanently preserved at cloud layer,
// unless any expiry time is defined", paper §IV.B). Returns the
// number of records destroyed.
func (a *Archive) Expire(before time.Time) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	kept := a.records[:0]
	destroyed := 0
	for _, rec := range a.records {
		if rec.Batch.Collected.Before(before) {
			destroyed++
			a.readings -= int64(len(rec.Batch.Readings))
			continue
		}
		kept = append(kept, rec)
	}
	if destroyed == 0 {
		return 0
	}
	a.records = kept
	// Rebuild the classification indexes over the surviving records;
	// drop every scan cache (record indexes changed).
	a.byCat = make(map[model.Category][]int)
	a.byType = make(map[string][]int)
	a.byDay = make(map[string][]int)
	a.scan = make(map[string]*typeScan)
	for idx, rec := range a.records {
		b := rec.Batch
		a.byCat[b.Category] = append(a.byCat[b.Category], idx)
		a.byType[b.TypeName] = append(a.byType[b.TypeName], idx)
		day := b.Collected.UTC().Format("2006-01-02")
		a.byDay[day] = append(a.byDay[day], idx)
	}
	return destroyed
}
