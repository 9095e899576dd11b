package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"f2c/internal/model"
	"f2c/internal/query"
)

// Query operations of the read mix.
const (
	opLatest     = "latest"
	opRangeFog1  = "range_fog1"
	opRangeCloud = "range_cloud"
	opAggregate  = "aggregate"
)

var queryOps = []string{opLatest, opRangeFog1, opRangeCloud, opAggregate}

// probeCycle is the light read load of the ingest workloads: mostly
// latest reads, with one each of the other operations every 20 reads,
// so every read layer is measured on every workload.
var probeCycle = func() []string {
	c := make([]string, 20)
	for i := range c {
		c[i] = opLatest
	}
	c[5], c[10], c[15] = opRangeFog1, opRangeCloud, opAggregate
	return c
}()

// queryRecord is the outcome of one query.
type queryRecord struct {
	op        string
	due, done time.Time
	failed    bool
}

// reader issues queries through one query.Engine acting as an outside
// client, and checks each answer is well formed.
type reader struct {
	eng     *query.Engine
	closer  io.Closer // the engine's transport
	rng     *rand.Rand
	fog1    []string
	types   []string
	watch   []watchedSensor
	tracer  *tracer // non-nil times each Engine call as a span
	name    string
	records []queryRecord
}

func (r *reader) close() error { return r.closer.Close() }

// randFor derives the seeded generator of one of a run's actors.
func randFor(seed int64, actor int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(actor)))
}

// do runs one operation due at due and records it.
func (r *reader) do(ctx context.Context, op string, due time.Time) {
	start := time.Now()
	err := r.query(ctx, op, start)
	done := time.Now()
	if r.tracer != nil {
		r.tracer.record("query."+op, r.name, start)
	}
	if err != nil {
		fmt.Fprintf(logw, "query %s: %v\n", op, err)
	}
	r.records = append(r.records, queryRecord{op: op, due: due, done: done, failed: err != nil})
}

func (r *reader) query(ctx context.Context, op string, now time.Time) error {
	typ := r.types[r.rng.Intn(len(r.types))]
	switch op {
	case opLatest:
		w := r.watch[r.rng.Intn(len(r.watch))]
		got, ok, err := r.eng.LatestFrom(ctx, w.fog1, w.sensor)
		if err != nil {
			return err
		}
		if !ok || got.SensorID != w.sensor {
			return fmt.Errorf("latest %s from %s: found %v, sensor %q", w.sensor, w.fog1, ok, got.SensorID)
		}
		return nil
	case opRangeFog1:
		from := now.Add(-2 * time.Second)
		got, err := r.eng.RangeFrom(ctx, r.fog1[r.rng.Intn(len(r.fog1))], typ, from, now)
		return checkRange(got, err, typ, from, now)
	case opRangeCloud:
		from := now.Add(-5 * time.Second)
		got, err := r.eng.RangeFrom(ctx, cloudID, typ, from, now)
		return checkRange(got, err, typ, from, now)
	case opAggregate:
		sum, src, err := r.eng.Aggregate(ctx, typ, now.Add(-10*time.Second), now)
		if err != nil {
			return err
		}
		if src != query.SourceParent {
			return fmt.Errorf("aggregate %s: source %s, count %d", typ, src, sum.Count)
		}
		return nil
	}
	return fmt.Errorf("unknown query op %q", op)
}

// checkRange verifies a range answer holds only readings of the asked
// type inside the asked interval.
func checkRange(got []model.Reading, err error, typ string, from, to time.Time) error {
	if err != nil {
		return err
	}
	for _, rd := range got {
		if rd.TypeName != typ || rd.Time.Before(from) || rd.Time.After(to) {
			return fmt.Errorf("range %s [%v, %v] returned %s at %v", typ, from, to, rd.TypeName, rd.Time)
		}
	}
	return nil
}

// paced is a closed loop with a schedule: the client waits for each
// answer and starts its next read at the next tick of a fixed-rate
// schedule, or at once when it is already late. It issues cycle's
// operations in turn, from offset, between start and stop; each read
// is timed from when it was sent.
func (r *reader) paced(ctx context.Context, rate float64, cycle []string, offset int, start, stop time.Time) {
	for k := 0; ; k++ {
		next := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if !next.Before(stop) {
			return
		}
		time.Sleep(time.Until(next))
		r.do(ctx, cycle[(k+offset)%len(cycle)], time.Now())
	}
}
