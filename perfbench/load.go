package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/model"
	"f2c/internal/protocol"
	"f2c/internal/sensor"
	"f2c/internal/transport"
)

// senders is how many goroutines issue edge requests (the machine's
// core count the benchmark was sized on); each owns the fog1 nodes
// whose index is congruent to its own, so one node's batches are
// sent in order.
const senders = 2

// lookahead bounds how many open-loop batches a sender's producer
// builds ahead of their send time (about 100 ms at 40k readings/s).
const lookahead = 32

// fleets are the edge sensors of every fog1 node: one generator per
// catalog type, as sensor.NewFleet builds them for Barcelona at scale
// 10 (73 nodes share the city's 1,005,019 sensors).
type fleets struct {
	fog1    []string
	gens    [][]*sensor.Generator // [fog1][type]
	watched map[string]bool       // sensors whose last value the checks compare
	watch   []watchedSensor
}

type watchedSensor struct {
	fog1, sensor string
}

func newFleets(seed int64, fog1 []string) (*fleets, error) {
	rng := rand.New(rand.NewSource(seed))
	f := &fleets{fog1: fog1, watched: make(map[string]bool)}
	for i, id := range fog1 {
		fl, err := sensor.NewFleet(sensor.FleetConfig{NodeID: id, NodeCount: 73, Scale: 10, Seed: seed*1000 + int64(i)})
		if err != nil {
			return nil, err
		}
		gens := fl.Generators()
		f.gens = append(f.gens, gens)
		for _, g := range gens {
			// Sensor ids follow the generator's naming: <node>/<type>/<i>.
			s := fmt.Sprintf("%s/%s/%d", id, g.Type().Name, rng.Intn(g.Sensors()))
			f.watched[s] = true
			f.watch = append(f.watch, watchedSensor{fog1: id, sensor: s})
		}
	}
	return f, nil
}

// edgeBatch is one edge request, built before it is due.
type edgeBatch struct {
	to       string
	class    string
	payload  []byte
	readings int
	// due is when the batch's readings were created: its scheduled send
	// time in an open loop, its admission into the in-flight window in
	// a closed one.
	due     time.Time
	samples []watchedValue
}

type watchedValue struct {
	sensor string
	value  float64
}

// build generates the next batch of one fog1 node's type stamped at
// due and seals it the way an edge device would send it.
func (f *fleets) build(node, typ int, due time.Time) (edgeBatch, error) {
	b := f.gens[node][typ].Next(due)
	payload, err := protocol.EncodeBatchPayload(b, aggregate.CodecNone)
	if err != nil {
		return edgeBatch{}, err
	}
	eb := edgeBatch{to: f.fog1[node], class: b.Category.String(), payload: payload, readings: len(b.Readings), due: due}
	for _, r := range b.Readings {
		if f.watched[r.SensorID] {
			eb.samples = append(eb.samples, watchedValue{r.SensorID, r.Value})
		}
	}
	return eb, nil
}

// sendRecord is the outcome of one edge request.
type sendRecord struct {
	due, sent, done time.Time
	readings        int
	failed          bool
}

// edgeSender issues edge requests and remembers the last acked value of
// every watched sensor.
type edgeSender struct {
	tr     transport.Transport
	closer io.Closer // the transport under any tracing wrapper
	recs   []sendRecord
	last   map[string]float64
}

// send delivers one batch and records its outcome.
func (s *edgeSender) send(ctx context.Context, b edgeBatch) sendRecord {
	rec := sendRecord{due: b.due, sent: time.Now(), readings: b.readings}
	_, err := s.tr.Send(ctx, transport.Message{
		From: "edge/" + b.to, To: b.to, Kind: transport.KindBatch, Class: b.class, Payload: b.payload,
	})
	rec.done, rec.failed = time.Now(), err != nil
	if err == nil {
		for _, v := range b.samples {
			s.last[v.sensor] = v.value
		}
	}
	s.recs = append(s.recs, rec)
	return rec
}

// window is a closed loop's budget of readings in flight from edge
// send until the round that archives them at the cloud ends.
type window struct {
	mu      sync.Mutex
	cond    *sync.Cond
	used    int
	limit   int
	acked   []sendRecord
	stopped bool
}

func newWindow(limit int) *window {
	w := &window{limit: limit}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// acquire admits n readings, waiting for room; false once stopped.
func (w *window) acquire(n int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.stopped && w.used > 0 && w.used+n > w.limit {
		w.cond.Wait()
	}
	if w.stopped {
		return false
	}
	w.used += n
	return true
}

// settle takes a finished request: acked readings stay in flight until
// archived, failed ones leave at once.
func (w *window) settle(rec sendRecord) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if rec.failed {
		w.used -= rec.readings
		w.cond.Broadcast()
		return
	}
	w.acked = append(w.acked, rec)
}

// archived releases every reading acked before a round started: that
// round's fog1 flushes collected it and its fog2 flushes archived it.
func (w *window) archived(roundStart time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	kept := w.acked[:0]
	for _, r := range w.acked {
		if r.done.Before(roundStart) {
			w.used -= r.readings
		} else {
			kept = append(kept, r)
		}
	}
	w.acked = kept
	w.cond.Broadcast()
}

func (w *window) stop() {
	w.mu.Lock()
	w.stopped = true
	w.mu.Unlock()
	w.cond.Broadcast()
}

// produce builds sender j's batches in schedule order until stop: every
// catalog type, then every fog1 node, tick after tick. In an open loop
// (win nil) batch k is due when the readings before it, city-wide,
// have been sent at rate; in a closed loop it is due when the window
// admits it.
func (f *fleets) produce(j int, start, stop time.Time, rate float64, win *window, out chan<- edgeBatch) error {
	defer close(out)
	sent := 0.0
	for {
		for typ := range f.gens[0] {
			for node := range f.fog1 {
				n := f.gens[node][typ].Sensors()
				due := start.Add(time.Duration(sent / rate * float64(time.Second)))
				sent += float64(n)
				if node%senders != j {
					continue
				}
				if win != nil {
					if !time.Now().Before(stop) || !win.acquire(n) {
						return nil
					}
					due = time.Now()
				} else if !due.Before(stop) {
					return nil
				}
				b, err := f.build(node, typ, due)
				if err != nil {
					return err
				}
				out <- b
			}
		}
	}
}

// drive runs one sender's producer and request loop from start until
// stop and returns when both are done.
func (f *fleets) drive(ctx context.Context, s *edgeSender, j int, start, stop time.Time, rate float64, win *window) error {
	ch := make(chan edgeBatch, lookahead)
	if win != nil {
		ch = make(chan edgeBatch, 1)
	}
	errc := make(chan error, 1)
	go func() { errc <- f.produce(j, start, stop, rate, win, ch) }()
	for b := range ch {
		if win == nil {
			time.Sleep(time.Until(b.due))
		}
		rec := s.send(ctx, b)
		if win != nil {
			win.settle(rec)
		}
	}
	return <-errc
}

// preload pushes ticks collection rounds of every sensor, stamped one
// second apart from base, through the normal ingest path and flushes a
// round after each, so the cloud archive starts at a fixed size.
func (f *fleets) preload(ctx context.Context, ss []*edgeSender, ticks int, base time.Time, flush func() error) error {
	for tick := 0; tick < ticks; tick++ {
		due := base.Add(time.Duration(tick) * time.Second)
		var wg sync.WaitGroup
		errs := make([]error, senders)
		for j := 0; j < senders; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				for typ := range f.gens[0] {
					for node := j; node < len(f.fog1); node += senders {
						b, err := f.build(node, typ, due)
						if err != nil {
							errs[j] = err
							return
						}
						if ss[j].send(ctx, b).failed {
							errs[j] = fmt.Errorf("preload send to %s failed", b.to)
							return
						}
					}
				}
			}(j)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if err := flush(); err != nil {
			return err
		}
	}
	return nil
}

// typeNames lists the catalog's sensor types in catalog order.
func typeNames() []string {
	var out []string
	for _, st := range model.Catalog() {
		out = append(out, st.Name)
	}
	return out
}
