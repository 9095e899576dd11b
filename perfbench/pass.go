package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"f2c/internal/query"
	"f2c/internal/transport"
)

// roundRecord is one flush round: every fog1 Flush, a barrier, every
// fog2 Flush.
type roundRecord struct {
	start, end time.Time
	failed     int
	// wanBytes is the fog2 registries' flush.bytes after the round.
	wanBytes int64
}

// pass is one hosted city driven through one workload.
type pass struct {
	w       workload
	seed    int64
	tr      *tracer
	c       *city
	f       *fleets
	ss      []*edgeSender
	readers []*reader
	win     *window
	dataDir string

	setup           []float64
	start, t0, tend time.Time

	mu     sync.Mutex
	rounds []roundRecord

	heapPeak  uint64
	rt0, rt1  runtimeSample
	sc0, sc1  scrape
	walBytes  int64
	attempted int
	failed    int
}

// runPass sets the city up setups times (keeping the last), drives the
// workload for the window, drains, checks the outputs and tears the
// city down.
func runPass(w workload, seed int64, window time.Duration, tr *tracer, setups int, workdir string) (*pass, error) {
	p := &pass{w: w, seed: seed, tr: tr}
	fog1, err := cityFog1()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for i := 0; i < setups; i++ {
		if err := p.setUp(ctx, fog1, workdir); err != nil {
			p.tearDown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i < setups-1 {
			if err := p.tearDown(); err != nil {
				return nil, err
			}
		}
	}
	defer p.tearDown()
	if err := p.drive(ctx, window); err != nil {
		return nil, err
	}
	if err := p.check(ctx); err != nil {
		return nil, err
	}
	p.count()
	p.report()
	return p, nil
}

// setUp builds the inputs (untimed), then times hosting the city until
// every node answers a status round trip and any preload is archived.
func (p *pass) setUp(ctx context.Context, fog1 []string, workdir string) error {
	f, err := newFleets(p.seed, fog1)
	if err != nil {
		return err
	}
	p.f = f
	if p.w.durable {
		if p.dataDir, err = os.MkdirTemp(workdir, "city-"); err != nil {
			return err
		}
	}
	p.rounds, p.ss, p.readers = nil, nil, nil
	runtime.GC()

	start := time.Now()
	if p.c, err = buildCity(p.dataDir, p.tr); err != nil {
		return err
	}
	for j := 0; j < senders; j++ {
		t := p.c.client()
		p.ss = append(p.ss, &edgeSender{tr: p.traced("edge", t), closer: t, last: make(map[string]float64)})
	}
	if err := p.c.statusAll(ctx, p.ss[0].tr); err != nil {
		return err
	}
	err = p.f.preload(ctx, p.ss, p.w.preload, start.Add(-30*time.Minute), func() error {
		if r := p.round(ctx); r.failed > 0 {
			return fmt.Errorf("preload round: %d flushes failed", r.failed)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.setup = append(p.setup, time.Since(start).Seconds())
	return nil
}

// traced wraps a client transport in a span recorder on traced passes.
func (p *pass) traced(name string, t transport.Transport) transport.Transport {
	if p.tr == nil {
		return t
	}
	return tracedTransport{t: p.tr, node: name, next: t}
}

func (p *pass) tearDown() error {
	var errs []error
	if p.c != nil {
		errs = append(errs, p.c.close())
		p.c = nil
	}
	for _, s := range p.ss {
		errs = append(errs, s.closer.Close())
	}
	for _, r := range p.readers {
		errs = append(errs, r.close())
	}
	if p.dataDir != "" {
		errs = append(errs, os.RemoveAll(p.dataDir))
		p.dataDir = ""
	}
	return errors.Join(errs...)
}

// drive runs the edge load, the flush rounds and the reads from start
// through the warm-up and the measured window, then drains every acked
// reading to the cloud.
func (p *pass) drive(ctx context.Context, window time.Duration) error {
	typs := typeNames()
	for i := 0; i < p.w.readers; i++ {
		name := fmt.Sprintf("client/q%d", i)
		tt := p.c.client()
		eng, err := query.New(query.Config{
			Self: name, Transport: p.traced(name, tt), Districts: p.c.fog2IDs(), CloudID: cloudID,
		})
		if err != nil {
			tt.Close()
			return err
		}
		p.readers = append(p.readers, &reader{
			eng: eng, closer: tt, rng: randFor(p.seed, i), fog1: p.f.fog1, types: typs,
			watch: p.f.watch, tracer: p.tr, name: name,
		})
	}
	if p.w.inflight > 0 {
		p.win = newWindow(p.w.inflight)
	}

	p.start = time.Now()
	p.t0 = p.start.Add(p.w.warmup)
	p.tend = p.t0.Add(window)
	stopRounds, roundsDone := make(chan struct{}), make(chan struct{})
	go p.roundLoop(ctx, stopRounds, roundsDone)

	var wg sync.WaitGroup
	errs := make([]error, senders)
	for j, s := range p.ss {
		wg.Add(1)
		go func(j int, s *edgeSender) {
			defer wg.Done()
			errs[j] = p.f.drive(ctx, s, j, p.start, p.tend, p.w.rate, p.win)
		}(j, s)
	}
	if p.win != nil {
		stopWin := time.AfterFunc(time.Until(p.tend), p.win.stop)
		defer stopWin.Stop()
	}
	for i, r := range p.readers {
		wg.Add(1)
		go func(i int, r *reader) {
			defer wg.Done()
			// Reads start once every watched sensor has reported.
			start := p.start.Add(p.w.warmup / 2)
			time.Sleep(time.Until(start))
			r.paced(ctx, p.w.readRate, p.w.readCycle, i*len(p.w.readCycle)/p.w.readers, start, p.tend)
		}(i, r)
	}

	time.Sleep(time.Until(p.t0))
	p.sc0, p.rt0 = p.scrape(), sampleRuntime()
	p.heapPeak = heapPeak(p.tend)
	p.sc1, p.rt1 = p.scrape(), sampleRuntime()
	p.walBytes = walBytes(p.dataDir)

	wg.Wait()
	finished := time.Now()
	deadline := finished.Add(30 * time.Second)
	for !p.roundAfter(finished) {
		if time.Now().After(deadline) {
			close(stopRounds)
			<-roundsDone
			return errors.New("drain: no flush round completed within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stopRounds)
	<-roundsDone
	return errors.Join(errs...)
}

// roundAfter reports whether a round that started after t has ended.
func (p *pass) roundAfter(t time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.rounds)
	return n > 0 && p.rounds[n-1].start.After(t)
}

// roundLoop runs flush rounds at the workload's cadence (skipping
// missed ticks, as a ticker does) or back to back, until stop.
func (p *pass) roundLoop(ctx context.Context, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	next := p.start
	for {
		select {
		case <-stop:
			return
		default:
		}
		if p.w.cadence > 0 {
			time.Sleep(time.Until(next))
			next = next.Add(p.w.cadence)
			if now := time.Now(); next.Before(now) {
				next = now
			}
		}
		r := p.round(ctx)
		p.mu.Lock()
		p.rounds = append(p.rounds, r)
		p.mu.Unlock()
		if p.win != nil {
			p.win.archived(r.start)
		}
	}
}

// round flushes every fog1 node in parallel, then every fog2 node, as
// core.FlushAll does.
func (p *pass) round(ctx context.Context) roundRecord {
	r := roundRecord{start: time.Now()}
	r.failed = p.flushLayer(ctx, p.c.fog1) + p.flushLayer(ctx, p.c.fog2)
	r.end = time.Now()
	for _, m := range p.c.fog2 {
		r.wanBytes += m.reg.Counter(m.id + ".flush.bytes").Value()
	}
	if p.tr != nil {
		p.tr.record(spanRound, "bench", r.start)
	}
	return r
}

func (p *pass) flushLayer(ctx context.Context, ms []fogMember) int {
	var wg sync.WaitGroup
	var failed atomic.Int32
	for _, m := range ms {
		wg.Add(1)
		go func(m fogMember) {
			defer wg.Done()
			start := time.Now()
			if err := m.node.Flush(ctx); err != nil {
				failed.Add(1)
				fmt.Fprintf(logw, "flush %s: %v\n", m.id, err)
			}
			if p.tr != nil {
				p.tr.record(layerOf(m.id)+spanFlush, m.id, start)
			}
		}(m)
	}
	wg.Wait()
	return int(failed.Load())
}

// check verifies the pipeline's outputs once quiescent: conservation
// across tiers, the edge ledger, the watched sensors' last values at
// the cloud, and push-down aggregates against the cloud archive.
func (p *pass) check(ctx context.Context) error {
	var fails []string
	failf := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }

	var fog1Stored, fog2Stored, dedupIn int64
	for _, m := range p.c.fog1 {
		fog1Stored += m.node.Status().StoredReadings
		in, _ := m.node.DedupStats()
		dedupIn += in
	}
	for _, m := range p.c.fog2 {
		fog2Stored += m.node.Status().StoredReadings
	}
	cloudStored := p.c.cloud.Status().StoredReadings
	if fog1Stored != cloudStored || fog2Stored != cloudStored {
		failf("stored readings: fog1 %d, fog2 %d, cloud %d", fog1Stored, fog2Stored, cloudStored)
	}
	var acked int64
	last := make(map[string]float64)
	for _, s := range p.ss {
		for _, r := range s.recs {
			if !r.failed {
				acked += int64(r.readings)
			}
		}
		for k, v := range s.last {
			last[k] = v
		}
	}
	if acked != dedupIn {
		failf("edge readings acked %d, fog1 dedup saw %d", acked, dedupIn)
	}

	eng := p.readers[0].eng
	for _, w := range p.f.watch {
		want, sent := last[w.sensor]
		got, found, err := eng.LatestFrom(ctx, cloudID, w.sensor)
		switch {
		case err != nil:
			failf("cloud latest %s: %v", w.sensor, err)
		case !sent || !found || got.Value != want:
			failf("cloud latest %s: found %v value %v, edge last sent %v (sent %v)", w.sensor, found, got.Value, want, sent)
		}
	}

	from, to := p.start.Add(-time.Hour), time.Now().Add(time.Minute)
	rng := randFor(p.seed, 99)
	typs := typeNames()
	for i := 0; i < 2; i++ {
		typ := typs[rng.Intn(len(typs))]
		sum, src, err := eng.Aggregate(ctx, typ, from, to)
		if err != nil {
			failf("aggregate %s: %v", typ, err)
			continue
		}
		got, err := eng.RangeFrom(ctx, cloudID, typ, from, to)
		if err != nil {
			failf("cloud range %s: %v", typ, err)
			continue
		}
		if src != query.SourceParent || sum.Count != int64(len(got)) {
			failf("aggregate %s from %s counts %d, cloud range holds %d", typ, src, sum.Count, len(got))
		}
	}
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(logw, "check failed:", f)
		}
		return fmt.Errorf("output check failed: %d problems", len(fails))
	}
	return nil
}

// count tallies the window's attempted and failed operations: edge
// sends, flush calls and queries.
func (p *pass) count() {
	for _, s := range p.ss {
		for _, r := range s.recs {
			if p.inWindow(r.due) {
				p.attempted++
				if r.failed {
					p.failed++
				}
			}
		}
	}
	for _, r := range p.rounds {
		if p.inWindow(r.start) {
			p.attempted += len(p.c.fog1) + len(p.c.fog2)
			p.failed += r.failed
		}
	}
	for _, rd := range p.readers {
		for _, q := range rd.records {
			if p.inWindow(q.due) {
				p.attempted++
				if q.failed {
					p.failed++
				}
			}
		}
	}
}
