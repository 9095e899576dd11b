package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// inWindow reports whether t falls in the measured window.
func (p *pass) inWindow(t time.Time) bool { return !t.Before(p.t0) && t.Before(p.tend) }

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// noAnswer is the latency a failed request counts as: it misses any
// limit.
var noAnswer = math.Inf(1)

// ingestStats are the window's edge-to-cloud measurements.
type ingestStats struct {
	ack, fresh, lag []float64
	// archived counts the readings archived by the rounds that ended
	// inside the window, span is the time from the end of the round
	// before them to the end of the last of them, and wanBytes is what
	// those rounds sent from fog2 to the cloud.
	archived, wanBytes int64
	span               time.Duration
}

// ingest attributes every acked edge batch to the first round that
// started after its ack (that round's fog1 flushes collected it) and
// returns the window's ack, freshness and lag samples and what the
// window's rounds archived.
func (p *pass) ingest() ingestStats {
	var st ingestStats
	byRound := make([]int64, len(p.rounds))
	for _, s := range p.ss {
		for _, r := range s.recs {
			i := sort.Search(len(p.rounds), func(i int) bool { return !p.rounds[i].start.Before(r.done) })
			if !r.failed && i < len(p.rounds) {
				byRound[i] += int64(r.readings)
			}
			if !p.inWindow(r.due) {
				continue
			}
			st.lag = append(st.lag, ms(r.sent.Sub(r.due)))
			if r.failed || i == len(p.rounds) {
				st.ack, st.fresh = append(st.ack, noAnswer), append(st.fresh, noAnswer)
				continue
			}
			from := r.due
			if p.w.inflight > 0 {
				from = r.sent // closed loop: no schedule to fall behind
			}
			st.ack = append(st.ack, ms(r.done.Sub(from)))
			st.fresh = append(st.fresh, ms(p.rounds[i].end.Sub(r.due)))
		}
	}
	first, last := -1, -1
	for i, r := range p.rounds {
		if !r.end.Before(p.t0) && !r.end.After(p.tend) {
			if first < 0 {
				first = i
			}
			last = i
			st.archived += byRound[i]
		}
	}
	if first > 0 {
		prev := p.rounds[first-1]
		st.wanBytes = p.rounds[last].wanBytes - prev.wanBytes
		st.span = p.rounds[last].end.Sub(prev.end)
	}
	return st
}

// queries returns the window's query latencies and the rate at which
// they completed, measured from the first completion to the last.
func (p *pass) queries() (lat []float64, perSec float64) {
	var first, last time.Time
	n := 0
	for _, rd := range p.readers {
		for _, q := range rd.records {
			if !p.inWindow(q.due) {
				continue
			}
			if q.failed {
				lat = append(lat, noAnswer)
				continue
			}
			lat = append(lat, ms(q.done.Sub(q.due)))
			if n == 0 || q.done.Before(first) {
				first = q.done
			}
			if n == 0 || q.done.After(last) {
				last = q.done
			}
			n++
		}
	}
	if n > 1 {
		perSec = float64(n-1) / last.Sub(first).Seconds()
	}
	return lat, perSec
}

// windowSeconds is the measured length of the window, between the two
// runtime samples taken at its ends.
func (p *pass) windowSeconds() float64 { return p.rt1.at.Sub(p.rt0.at).Seconds() }

// figures computes every number of the pass a user of the city sees.
// endToEndNames picks the ones BENCHMARK.json bounds; the others are
// printed with the per-layer metrics.
func (p *pass) figures() map[string]metric {
	in := p.ingest()
	qlat, qrate := p.queries()
	a, f, q := summarize(in.ack), summarize(in.fresh), summarize(qlat)
	archived := float64(max(in.archived, 1))
	sort.Float64s(p.setup)
	return map[string]metric{
		"setup_s":               {p.setup[(len(p.setup)-1)/2], "s"},
		"ingest_readings_per_s": {float64(in.archived) / in.span.Seconds(), "readings/s"},
		"ingest_ack_p50_ms":     {a.p50, "ms"},
		"ingest_ack_p99_ms":     {a.p99, "ms"},
		"fresh_p50_ms":          {f.p50, "ms"},
		"fresh_p99_ms":          {f.p99, "ms"},
		"wan_bytes_per_reading": {float64(in.wanBytes) / archived, "B"},
		"query_per_s":           {qrate, "ops/s"},
		"query_p50_ms":          {q.p50, "ms"},
		"query_p99_ms":          {q.p99, "ms"},
		"heap_peak_mb":          {float64(p.heapPeak) / (1 << 20), "MB"},
		"cpu_us_per_reading":    {float64((p.rt1.cpu - p.rt0.cpu).Microseconds()) / archived, "us"},
	}
}

// report prints the pass's end-to-end timings with their sample
// counts and supported tails.
func (p *pass) report() {
	in := p.ingest()
	qlat, _ := p.queries()
	fmt.Fprintf(logw, "%s seed %d (traced %v): setup %v s, %d readings archived in %.1fs window\n",
		p.w.name, p.seed, p.tr != nil, p.setup, in.archived, p.windowSeconds())
	fmt.Fprintf(logw, "  ingest ack ms: %v\n  fresh ms:      %v\n  query ms:      %v\n  loadgen lag ms: %v\n",
		summarize(in.ack), summarize(in.fresh), summarize(qlat), summarize(in.lag))
}

// untracedLayers are the per-layer numbers that need no spans: registry
// scrapes, the runtime and the load generator, from the untraced pass.
func (p *pass) untracedLayers() map[string]metric {
	in := p.ingest()
	d0, d1 := p.sc0, p.sc1
	cpu := (p.rt1.cpu - p.rt0.cpu).Seconds() / p.windowSeconds() / float64(runtime.GOMAXPROCS(0))
	return map[string]metric{
		"fog1.dedup.kept_ratio":   {float64(d1.dedupKept-d0.dedupKept) / float64(max(d1.dedupIn-d0.dedupIn, 1)), "ratio"},
		"fog2.ingest.duplicates":  {float64(d1.fog2Dups - d0.fog2Dups), "count"},
		"cloud.ingest.duplicates": {float64(d1.cloudDups - d0.cloudDups), "count"},
		"fog1.flush.deferred":     {float64(d1.deferred - d0.deferred), "count"},
		"segment.segments":        {float64(d1.segments), "count"},
		"segment.segment_bytes":   {float64(d1.segmentBytes), "B"},
		"segment.compactions":     {float64(d1.compactions - d0.compactions), "count"},
		"wal.dir_bytes":           {float64(p.walBytes), "B"},
		"runtime.cpu_busy_share":  {cpu, "ratio"},
		"runtime.gc_cycles":       {float64(p.rt1.gc - p.rt0.gc), "count"},
		"runtime.gc_pause_ms":     {ms(time.Duration(p.rt1.pauseNs - p.rt0.pauseNs)), "ms"},
		"runtime.alloc_mb_per_s":  {float64(p.rt1.alloc-p.rt0.alloc) / (1 << 20) / p.windowSeconds(), "MB/s"},
		"loadgen.lag_p99_ms":      {summarize(in.lag).p99, "ms"},
		"failed_share":            {float64(p.failed) / float64(max(p.attempted, 1)), "ratio"},
	}
}

// tracedLayers are the per-layer numbers computed from the traced
// pass's spans inside its window.
func (p *pass) tracedLayers() map[string]metric {
	spans := p.tr.inWindow(p.t0, p.tend)
	out := map[string]metric{
		"fog1.flush.self_s": {selfTime(spans, "fog1"+spanFlush).Seconds(), "s"},
		"fog2.flush.self_s": {selfTime(spans, "fog2"+spanFlush).Seconds(), "s"},
	}
	rounds := statsOf(spans, spanRound)
	out["round.p50_ms"] = metric{rounds.lat.p50, "ms"}
	out["round.p99_ms"] = metric{rounds.lat.p99, "ms"}
	out["round.count"] = metric{float64(rounds.lat.n), "count"}
	for _, name := range []string{"fog1.handle_batch", "fog2.handle_batch", "cloud.handle_batch"} {
		st := statsOf(spans, name)
		out[name+".busy_s"] = metric{st.busy.Seconds(), "s"}
		out[name+".count"] = metric{float64(st.lat.n), "count"}
		out[name+".p50_ms"] = metric{st.lat.p50, "ms"}
		out[name+".p99_ms"] = metric{st.lat.p99, "ms"}
		fmt.Fprintf(logw, "  %-22s %v\n", name, st)
	}
	for _, name := range []string{"fog1.handle_query", "fog2.handle_summary", "cloud.handle_query"} {
		out[name+".busy_s"] = metric{statsOf(spans, name).busy.Seconds(), "s"}
	}
	for _, hop := range hops {
		send, wire, bytes, reqs := hopStats(spans, hop)
		out["tcpnet."+hop+".send_s"] = metric{send.Seconds(), "s"}
		out["tcpnet."+hop+".wire_s"] = metric{wire.Seconds(), "s"}
		out["tcpnet."+hop+".bytes"] = metric{float64(bytes), "B"}
		out["tcpnet."+hop+".requests"] = metric{float64(reqs), "count"}
	}
	for _, op := range queryOps {
		st := statsOf(spans, "query."+op)
		out["query."+op+".p50_ms"] = metric{st.lat.p50, "ms"}
		out["query."+op+".p99_ms"] = metric{st.lat.p99, "ms"}
		out["query."+op+".count"] = metric{float64(st.lat.n), "count"}
	}
	return out
}

// scrape is a snapshot of the counters the per-layer metrics read from
// the nodes' public registries and accessors.
type scrape struct {
	dedupIn, dedupKept  int64
	fog2Dups, cloudDups int64
	deferred            int64
	segments            int64
	segmentBytes        int64
	compactions         int64
}

func (p *pass) scrape() scrape {
	var s scrape
	for _, m := range p.c.fog1 {
		in, kept := m.node.DedupStats()
		s.dedupIn += in
		s.dedupKept += kept
		s.deferred += m.node.DeferredFlushes()
	}
	for _, m := range p.c.fog2 {
		s.fog2Dups += m.reg.Counter(m.id + ".ingest.duplicates").Value()
	}
	s.cloudDups = p.c.cloudReg.Counter(cloudID + ".ingest.duplicates").Value()
	for id, reg := range p.c.registries() {
		s.segments += reg.Gauge(id + ".storage.segments").Value()
		s.segmentBytes += reg.Gauge(id + ".storage.segment_bytes").Value()
		s.compactions += reg.Counter(id + ".storage.compactions").Value()
	}
	return s
}

// walBytes sums the nodes' journal files under dir, leaving out their
// segment stores.
func walBytes(dir string) int64 {
	if dir == "" {
		return 0
	}
	var n int64
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil // a file removed mid-walk (rotated log) is skipped
		}
		if d.IsDir() && d.Name() == "store" {
			return filepath.SkipDir
		}
		if info, err := d.Info(); err == nil && !d.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}

type runtimeSample struct {
	at      time.Time
	cpu     time.Duration
	gc      uint32
	pauseNs uint64
	alloc   uint64
}

func sampleRuntime() runtimeSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeSample{at: time.Now(), cpu: cpu, gc: m.NumGC, pauseNs: m.PauseTotalNs, alloc: m.TotalAlloc}
}

// heapPeak samples the live heap-object bytes every few milliseconds
// until the deadline and returns the largest sample.
func heapPeak(until time.Time) uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	for time.Now().Before(until) {
		metrics.Read(sample)
		peak = max(peak, sample[0].Value.Uint64())
		time.Sleep(5 * time.Millisecond)
	}
	return peak
}
