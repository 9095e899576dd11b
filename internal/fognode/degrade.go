package fognode

import (
	"fmt"
	"sort"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/protocol"
)

// Graceful degradation: when MaxPendingReadings trims a type's upward
// buffer, a degrading node folds the trimmed readings into
// per-time-window decomposable summaries (the PR 3 push-down type)
// instead of dropping them, and forwards the summaries upward under
// transport.KindSummaryPush at the next flush. An overloaded fog node
// then loses resolution, not information; the raw-shed path remains
// only as the last resort when the degrade tier itself overflows.
//
// A degrade buffer is a type's second unsealed accumulator beside the
// pending buffer, and a sealed summary push is an outbox item like any
// other (see outbox.go); a journaled node keeps both across a crash.

// maxDegradedWindows bounds how many distinct windows one type's
// degrade buffer may hold; beyond it new readings fold into the
// nearest existing window — coarser, still counted.
const maxDegradedWindows = 64

// degradeBuf accumulates one type's degraded readings as per-window
// decomposable summaries, keyed by the window's start instant
// (UnixNano).
type degradeBuf struct {
	category model.Category
	windows  map[int64]aggregate.Summary
}

// degradeBufFor returns a type's degrade buffer, creating it on first
// use.
func degradeBufFor(bufs map[string]*degradeBuf, typ string, cat model.Category) *degradeBuf {
	buf, ok := bufs[typ]
	if !ok {
		buf = &degradeBuf{category: cat, windows: make(map[int64]aggregate.Summary)}
		bufs[typ] = buf
	}
	return buf
}

// fold merges one reading into its time window. When the buffer is at
// its window cap and the reading opens a new window, it folds into the
// nearest existing window instead — coarser, still lossless in count.
func (d *degradeBuf) fold(r model.Reading, window time.Duration, maxWindows int) {
	w := int64(window)
	ws := r.Time.UnixNano()
	ws -= ((ws % w) + w) % w // floor for pre-epoch instants too
	if _, ok := d.windows[ws]; !ok && maxWindows > 0 && len(d.windows) >= maxWindows {
		nearest, found := int64(0), false
		for k := range d.windows {
			if !found || abs64(k-ws) < abs64(nearest-ws) {
				nearest, found = k, true
			}
		}
		ws = nearest
	}
	d.windows[ws] = d.windows[ws].Observe(r.Value)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// merge folds a summary push's windows into the buffer. The windows
// merge decomposably, so multi-hop re-emission converges to the same
// totals.
func (d *degradeBuf) merge(p *protocol.SummaryPush) {
	for _, w := range p.Windows {
		d.windows[w.StartUnix] = d.windows[w.StartUnix].Merge(w.Summary)
	}
}

// push renders the buffer as a summary push, windows in time order.
func (d *degradeBuf) push(origin string, seq uint64, typ string, window time.Duration) *protocol.SummaryPush {
	p := &protocol.SummaryPush{
		Origin:   origin,
		Seq:      seq,
		TypeName: typ,
		Category: d.category.String(),
		Windows:  make([]protocol.SummaryWindow, 0, len(d.windows)),
	}
	for ws, s := range d.windows {
		p.Windows = append(p.Windows, protocol.SummaryWindow{StartUnix: ws, EndUnix: ws + int64(window), Summary: s})
	}
	sort.Slice(p.Windows, func(i, j int) bool { return p.Windows[i].StartUnix < p.Windows[j].StartUnix })
	return p
}

// degradeLocked folds readings being trimmed from a type's buffer into
// the shard's degrade buffer. Caller holds the shard lock.
func (n *Node) degradeLocked(sh *pendingShard, typ string, cat model.Category, readings []model.Reading) {
	buf := degradeBufFor(sh.degraded, typ, cat)
	for _, r := range readings {
		buf.fold(r, n.cfg.DegradeWindow, maxDegradedWindows)
	}
	n.degradedReads.Add(int64(len(readings)))
}

// sealSummaryLocked freezes a type's non-empty degrade buffer into a
// summary push under a fresh delivery sequence and journals the seal.
// A buffer whose aggregate cannot be encoded (non-finite values) is
// counted shed instead. Caller holds the shard lock.
func (n *Node) sealSummaryLocked(typ string, buf *degradeBuf) (sealed, bool) {
	if len(buf.windows) == 0 {
		return sealed{}, false
	}
	p := buf.push(n.cfg.Spec.ID, n.seq.Add(1), typ, n.cfg.DegradeWindow)
	payload, err := protocol.EncodeJSON(p)
	if err != nil {
		n.shedReads.Add(p.Readings())
		return sealed{}, false
	}
	it := summaryItem(p, payload)
	n.journalSeal(&it)
	return it, true
}

// absorbSummary is the receiving half of degradation: a child pushed
// degraded windows upward. They fold into this node's own degrade
// buffer, to be re-emitted upward under this node's identity at its
// next flush — the same combine-and-forward shape the batch path has.
// On a durable node the acceptance is journaled first.
func (n *Node) absorbSummary(p *protocol.SummaryPush, payload []byte) error {
	sh, err := n.acceptLocked(p.TypeName)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	if n.journal != nil {
		if err := n.journal.appendSummary(p.Origin, p.Seq, payload); err != nil {
			return fmt.Errorf("fognode %s: summary push: %w", n.cfg.Spec.ID, err)
		}
	}
	cat, _ := model.ParseCategory(p.Category)
	degradeBufFor(sh.degraded, p.TypeName, cat).merge(p)
	n.degradedIn.Add(p.Readings())
	return nil
}

// DegradedReadings reports how many buffered readings this node folded
// into summaries instead of shedding them raw.
func (n *Node) DegradedReadings() int64 { return n.degradedReads.Value() }

// SummariesEmitted reports how many degraded summary pushes this node
// delivered upward.
func (n *Node) SummariesEmitted() int64 { return n.sent[protocol.ItemSummary].Value() }

// DegradedInbound reports how many degraded readings arrived from
// below as summary pushes.
func (n *Node) DegradedInbound() int64 { return n.degradedIn.Value() }
