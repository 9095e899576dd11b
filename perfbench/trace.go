package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"f2c/internal/transport"
)

// Span names. Handler spans are "<layer>.handle_<kind>"; send spans
// are "send.<hop>".
const (
	spanRound = "round"
	spanFlush = ".flush" // prefixed by the node's layer
)

// Hops of the write and read paths, named after the sending and
// receiving tier.
const (
	hopEdgeFog1    = "edge_fog1"
	hopFog1Fog2    = "fog1_fog2"
	hopFog2Cloud   = "fog2_cloud"
	hopClientQuery = "client_query"
)

var hops = []string{hopEdgeFog1, hopFog1Fog2, hopFog2Cloud, hopClientQuery}

// span is one timed call into a layer, recorded from outside it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Node   string `json:"node"`
	Hop    string `json:"hop,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Err    bool   `json:"err,omitempty"`
	// key identifies the payload a send span carried, so the remote
	// handler span can name it as its parent.
	key uint64
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span of a traced run in memory; the benchmark
// writes them out when it ends.
type tracer struct {
	epoch time.Time
	seed  maphash.Seed

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), seed: maphash.MakeSeed()}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	s.ID = uint64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a span for a call that ran from start until now.
func (t *tracer) record(name, node string, start time.Time) {
	t.add(span{Name: name, Node: node, Start: t.since(start), End: t.since(time.Now())})
}

// layerOf maps a node or client name onto its tier.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, "/")
	return layer
}

// hopOf names the hop a message from one endpoint to another crosses
// ("" for control traffic the benchmark sends itself).
func hopOf(from, to string) string {
	switch layerOf(from) + ">" + layerOf(to) {
	case "edge>fog1":
		return hopEdgeFog1
	case "fog1>fog2":
		return hopFog1Fog2
	case "fog2>cloud":
		return hopFog2Cloud
	}
	if layerOf(from) == "client" {
		return hopClientQuery
	}
	return ""
}

// tracedHandler times every Handle call of one node's server.
type tracedHandler struct {
	t    *tracer
	node string
	next transport.Handler
}

func (h tracedHandler) Handle(ctx context.Context, msg transport.Message) ([]byte, error) {
	start := time.Now()
	reply, err := h.next.Handle(ctx, msg)
	end := time.Now()
	h.t.add(span{
		Name: layerOf(h.node) + ".handle_" + string(msg.Kind), Node: h.node,
		Hop: hopOf(msg.From, h.node), Start: h.t.since(start), End: h.t.since(end),
		Err: err != nil, key: maphash.Bytes(h.t.seed, msg.Payload),
	})
	return reply, err
}

// tracedTransport times every Send of one node's (or client's)
// transport.
type tracedTransport struct {
	t    *tracer
	node string
	next transport.Transport
}

func (tr tracedTransport) Send(ctx context.Context, msg transport.Message) ([]byte, error) {
	key := maphash.Bytes(tr.t.seed, msg.Payload)
	start := time.Now()
	reply, err := tr.next.Send(ctx, msg)
	end := time.Now()
	hop := hopOf(msg.From, msg.To)
	tr.t.add(span{
		Name: "send." + hop, Node: tr.node, Hop: hop,
		Start: tr.t.since(start), End: tr.t.since(end),
		Bytes: transport.WireSizeOf(len(msg.Payload)) + transport.WireSizeOf(len(reply)),
		Err:   err != nil, key: key,
	})
	return reply, err
}

// link sets each span's parent: a handler span's parent is the send
// span that carried the same payload; a send span's parent is the
// flush or query span of the same node that encloses it; a flush
// span's parent is the round that encloses it.
func (t *tracer) link() {
	sends := make(map[uint64]uint64)
	encl := make(map[string][]*span) // node -> enclosing spans
	var rounds []*span
	for i := range t.spans {
		s := &t.spans[i]
		switch {
		case strings.HasPrefix(s.Name, "send."):
			sends[s.key] = s.ID
		case s.Name == spanRound:
			rounds = append(rounds, s)
		case strings.HasSuffix(s.Name, spanFlush), strings.HasPrefix(s.Name, "query."):
			encl[s.Node] = append(encl[s.Node], s)
		}
	}
	within := func(outer []*span, s *span) uint64 {
		for _, o := range outer {
			if o.Start <= s.Start && s.End <= o.End {
				return o.ID
			}
		}
		return 0
	}
	for i := range t.spans {
		s := &t.spans[i]
		switch {
		case strings.Contains(s.Name, ".handle_"):
			s.Parent = sends[s.key]
		case strings.HasPrefix(s.Name, "send."):
			s.Parent = within(encl[s.Node], s)
		case strings.HasSuffix(s.Name, spanFlush):
			s.Parent = within(rounds, s)
		}
	}
}

// write links the spans and writes them as JSON lines.
func (t *tracer) write(path string) error {
	t.link()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inWindow returns the spans that started inside [from, to).
func (t *tracer) inWindow(from, to time.Time) []span {
	lo, hi := t.since(from), t.since(to)
	var out []span
	for _, s := range t.spans {
		if s.Start >= lo && s.Start < hi {
			out = append(out, s)
		}
	}
	return out
}

// selfTime sums, over the spans named name, each span's duration minus
// the part of it covered by the same node's send spans (its children:
// a fog flush sends over several workers in parallel, so the children
// overlap and only their union is subtracted).
func selfTime(spans []span, name string) time.Duration {
	children := make(map[string][]span)
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "send.") {
			children[s.Node] = append(children[s.Node], s)
		}
	}
	for _, c := range children {
		sort.Slice(c, func(i, j int) bool { return c[i].Start < c[j].Start })
	}
	var total time.Duration
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		covered, reach := int64(0), s.Start
		for _, c := range children[s.Node] {
			if c.Start >= s.End {
				break
			}
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		total += s.dur() - time.Duration(covered)
	}
	return total
}

// layerStats are the busy time, count and exact quantiles of the spans
// with one name.
type layerStats struct {
	busy time.Duration
	lat  dist
}

func statsOf(spans []span, name string) layerStats {
	var st layerStats
	var ms []float64
	for _, s := range spans {
		if s.Name == name {
			st.busy += s.dur()
			ms = append(ms, s.dur().Seconds()*1e3)
		}
	}
	st.lat = summarize(ms)
	return st
}

// hopStats sums one hop's send spans and the remote handler spans they
// caused: wire time is the send time the handlers do not account for.
func hopStats(spans []span, hop string) (send, wire time.Duration, bytes, requests int64) {
	var handle time.Duration
	for _, s := range spans {
		if s.Hop != hop {
			continue
		}
		if strings.HasPrefix(s.Name, "send.") {
			send += s.dur()
			bytes += s.Bytes
			requests++
		} else {
			handle += s.dur()
		}
	}
	return send, send - handle, bytes, requests
}

func (s layerStats) String() string {
	return fmt.Sprintf("busy %.3fs %v", s.busy.Seconds(), s.lat)
}
