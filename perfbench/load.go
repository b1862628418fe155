package main

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"asr/internal/server/client"
	"asr/internal/telemetry"
)

// tally counts operations and their outcomes. wrong covers answers
// that differ from the oracle and plans that bypass the ASR; errors
// covers operations that returned an error. Both count as failed.
type tally struct {
	attempted, errors, wrong int
	firstErr                 error
}

func (t *tally) fail(err error, wrong bool) {
	if wrong {
		t.wrong++
	} else {
		t.errors++
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// phase is what one timed closed-loop run measured.
type phase struct {
	elapsed   time.Duration
	queryLat  []time.Duration
	queries   tally
	pages     uint64 // the pool's logical page accesses
	mallocs   uint64
	allocB    uint64
	gcCycles  uint32
	updateOps int
}

// runPhase drives the stack for d: one wire connection sends the
// workload's query with seeded uniform keys in a closed loop, and, for
// a writer workload, wr applies updates at the same time. With an
// oracle every answer is compared with it; without one (concurrent
// writes) answers are checked for errors and ASR routing only. With tr
// non-nil every request is traced.
func runPhase(st *stack, or oracle, wr *writer, d time.Duration, seed int64, tr *telemetry.Tracer) (phase, error) {
	c, err := client.Dial(st.srv.Addr())
	if err != nil {
		return phase{}, err
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(seed * 7919))

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pages0 := st.pool.Stats().LogicalAccesses
	updates0 := 0
	if wr != nil {
		updates0 = len(wr.lat)
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	if wr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				_, done := traceRequest(tr, "bench.update", "")
				wr.step()
				done()
			}
		}()
	}
	var p phase
	for time.Now().Before(deadline) {
		k := rng.Intn(len(st.sqls))
		ctx, done := traceRequest(tr, "bench.query", st.keys[k])
		t := time.Now()
		res, err := c.Query(ctx, st.sqls[k])
		p.queryLat = append(p.queryLat, time.Since(t))
		done()
		p.queries.attempted++
		if err == nil && st.corruptNext.CompareAndSwap(true, false) {
			res.Values = append(res.Values, `"corrupted"`)
		}
		switch {
		case err != nil:
			p.queries.fail(err, false)
		case or != nil:
			if cerr := or.check(st.keys[k], res.Values, res.Plan); cerr != nil {
				p.queries.fail(cerr, true)
			}
		default:
			if cerr := checkRouted(st.keys[k], res.Plan); cerr != nil {
				p.queries.fail(cerr, true)
			}
		}
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	p.pages = st.pool.Stats().LogicalAccesses - pages0
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcCycles = ms1.NumGC - ms0.NumGC
	if wr != nil {
		p.updateOps = len(wr.lat) - updates0
	}
	return p, nil
}

// traceRequest opens a root span for one benchmark request on tr, with
// a fresh trace ID the wire request carries too, so client and server
// spans of one request share it. With tr nil it returns a plain
// context and a no-op.
func traceRequest(tr *telemetry.Tracer, name, key string) (context.Context, func()) {
	if tr == nil {
		return context.Background(), func() {}
	}
	ctx := telemetry.WithTraceID(context.Background(), telemetry.NewTraceID())
	_, sp := tr.StartSpan(ctx, name)
	if key != "" {
		sp.SetAttr("key", key)
	}
	return ctx, sp.End
}

// percentile is the nearest-rank q-quantile of the durations, in µs.
func percentile(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := min(max(int(math.Ceil(q*float64(len(s))))-1, 0), len(s)-1)
	return float64(s[i].Nanoseconds()) / 1e3
}

// The end-to-end p50s and rates are medians over windows of
// consecutive operations that took busyWindow between them, and the
// p99s medians over windows of tailWindow consecutive operations: a
// stall or a stretch of host contention that covers less than half the
// windows then moves them little, where it moves a pooled percentile or
// a mean over the whole phase in proportion to its length.
const (
	busyWindow = 500 * time.Millisecond
	// tailWindow is the fewest samples that leave ten beyond the p99.
	tailWindow = 1000
)

// busyWindows splits a closed loop's latencies, in order, into runs
// that each took busyWindow; a shorter remainder is left out unless it
// is all there is.
func busyWindows(lat []time.Duration) [][]time.Duration {
	var ws [][]time.Duration
	lo := 0
	var sum time.Duration
	for i, d := range lat {
		if sum += d; sum >= busyWindow {
			ws = append(ws, lat[lo:i+1])
			lo, sum = i+1, 0
		}
	}
	if len(ws) == 0 {
		ws = [][]time.Duration{lat}
	}
	return ws
}

// windowedP50 is the median over busyWindows of each window's p50, in µs.
func windowedP50(lat []time.Duration) float64 {
	var p50s []float64
	for _, w := range busyWindows(lat) {
		p50s = append(p50s, percentile(w, 0.5))
	}
	return median(p50s)
}

// windowedRate is the median over busyWindows of each window's
// operations per second of the loop's time in them.
func windowedRate(lat []time.Duration) float64 {
	var rates []float64
	for _, w := range busyWindows(lat) {
		rates = append(rates, float64(len(w))/sumDur(w).Seconds())
	}
	return median(rates)
}

// median is the nearest-rank median of xs, 0 when there are none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// windowedP99 is the median of the p99s of consecutive tailWindow-sample
// windows, in µs; with fewer than two windows it is the pooled p99.
func windowedP99(lat []time.Duration) float64 {
	if len(lat) < 2*tailWindow {
		return percentile(lat, 0.99)
	}
	var tails []time.Duration
	for k := 0; k+tailWindow <= len(lat); k += tailWindow {
		tails = append(tails, time.Duration(percentile(lat[k:k+tailWindow], 0.99)*1e3))
	}
	return percentile(tails, 0.5)
}
