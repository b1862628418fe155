// Command perfbench is the repository's end-to-end benchmark. It drives
// the whole stack in one process: the Go client over loopback TCP, the
// gomd server (wire, session, admission), the query engine (parse,
// resolve, anchor loop), the access support relation (backward probe,
// synchronous maintenance), the B⁺-tree, and storage (buffer pool,
// checksummed FileDisk, WAL with an fsync per commit). Every answer is
// checked against an oracle the benchmark builds by walking the object
// base itself, and every run ends with a crash-recovery check.
//
//	perfbench --workload hot_small --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is nonzero when
// any answer, routing or durability check failed. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones and writes the span
// records to .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"asr/internal/telemetry"
)

// workload is one traffic mix over one seeded object base. All three
// use the DemoDatabase chain (fan 1/2/1, unique Payloads "L<level>-<k>")
// with a full/binary ASR on T0.Next.Next.Next.Payload on a FileDisk
// with a WAL, and send
//
//	select x.Payload from x in <collection> where x.Next.Next.Next.Payload = "L3-<k>"
//
// with keys drawn uniformly over all T3 Payloads, in a closed loop.
type workload struct {
	name       string
	scale      int    // DemoDatabase scale (extents 8/12/16/10 × scale)
	poolFrames int    // buffer pool capacity; 0 = unbounded
	collection string // All (the T0 extent) or Sample
	sample     int    // size of Sample, when bound
	writer     bool   // a writer updates the base during the timed phase
}

// Every workload drives a single wire connection: on a two-vCPU host
// two closed-loop connections and their server sessions keep both CPUs
// busy, so their latencies follow the host's scheduler and any
// neighbour's load more than the program.
var workloads = []workload{
	// Small base, unbounded pool, no writes while timed: wire, session,
	// parse and allocation costs dominate.
	{name: "hot_small", scale: 25, collection: "All"},
	// The index is about 14 times the pool, and the 256-object Sample
	// keeps the anchor loop small: ASR probes, the B⁺-tree, pool
	// replacement, disk reads and the GC set the cost.
	{name: "cold_large", scale: 1000, poolFrames: 64, collection: "Sample", sample: 256},
	// One writer with synchronous maintenance and an fsync per commit
	// beside one reader over All: update cost and lock interference.
	{name: "update_mix", scale: 200, collection: "All", writer: true},
}

const (
	// A run sets the stack up at least setUps times and, set-ups being
	// quick, more until setUpBudget has passed (at most maxSetUps);
	// setup_s is the median, and the last stack is the one measured.
	setUps      = 3
	maxSetUps   = 31
	setUpBudget = 2 * time.Second
	// The read-only workloads apply updates after their timed phase,
	// with the readers stopped, so every workload reports update cost:
	// for as long as the timed phase, and at least minPostUpdates times,
	// which gives the p99 ten samples beyond it.
	minPostUpdates = 1000
	// updateSample is how many updates the traced run of a writer
	// workload times with the reader paused.
	updateSample = 256
	// deviceSample is how many fsyncs and page reads the device
	// micro-timers take.
	deviceSample = 64
)

// config is one run of the benchmark.
type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	setUps  int // minimum set-ups; 1 means exactly one
	// minUpdates is the least number of updates a read-only workload's
	// update phase makes.
	minUpdates int
	dir        string
	// Deliberate faults, for the self-test: corrupt one wire answer
	// before it is checked, or cut the last acknowledged commit off the
	// WAL before crash recovery.
	wrongAnswer, dropUpdate bool
	log                     io.Writer
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// outcome is a run's verdict and numbers.
type outcome struct {
	correct           bool
	attempted, failed int
	problems          []string
	metrics           []metric
}

func main() { os.Exit(benchMain()) }

func benchMain() int {
	wname := flag.String("workload", "", "workload name: hot_small, cold_large or update_mix")
	seed := flag.Int64("seed", 1, "seed for the generated base, the keys and the updates")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *wname {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *wname, *seconds, *trace)
		return 2
	}
	dir := filepath.Join(".bench_build", "run-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)

	out, err := selfTest(filepath.Join(dir, "selftest"), *seed)
	if err == nil && out.correct {
		out, err = run(config{w: *w, seed: *seed, seconds: *seconds, trace: *trace == 1,
			setUps: setUps, minUpdates: minPostUpdates, dir: filepath.Join(dir, "run"), log: os.Stdout})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Println("FAILED CHECK:", p)
	}
	ms := map[string]any{}
	for _, m := range out.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": out.correct, "attempted": out.attempted, "failed": out.failed, "metrics": ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.correct {
		return 1
	}
	return 0
}

// selfTest proves the checkers fire: a tiny read run fed one wrong
// answer and a tiny update run whose last acknowledged commit is cut
// off the WAL must both fail, and the same runs without the faults
// must pass. A checker that never fires would otherwise pass silently.
func selfTest(dir string, seed int64) (outcome, error) {
	tiny := func(w workload) workload {
		w.scale = 2
		return w
	}
	cases := []struct {
		name              string
		w                 workload
		wrong, drop, pass bool
	}{
		{"wrong answer", tiny(workloads[0]), true, false, false},
		{"dropped update", tiny(workloads[2]), false, true, false},
		{"clean read run", tiny(workloads[0]), false, false, true},
		{"clean update run", tiny(workloads[2]), false, false, true},
	}
	for i, c := range cases {
		out, err := run(config{w: c.w, seed: seed, seconds: 0.2, setUps: 1,
			dir: filepath.Join(dir, strconv.Itoa(i)), wrongAnswer: c.wrong, dropUpdate: c.drop, log: io.Discard})
		if err != nil {
			return outcome{}, fmt.Errorf("self-test %s: %w", c.name, err)
		}
		if out.correct != c.pass {
			return outcome{problems: []string{fmt.Sprintf("self-test %s: run reported correct=%v, want %v %v",
				c.name, out.correct, c.pass, out.problems)}, attempted: 1, failed: 1}, nil
		}
		verdict := "passed"
		if !c.pass {
			verdict = "failed as it must: " + out.problems[0]
		}
		fmt.Printf("self-test %s: %s\n", c.name, verdict)
	}
	return outcome{correct: true}, nil
}

// run sets the stack up, runs the timed phase and the checks, and
// reports the end-to-end metrics, or with cfg.trace the per-layer ones.
func run(cfg config) (outcome, error) {
	w := cfg.w
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.log, format+"\n", args...) }
	var out outcome
	record := func(t tally) {
		out.attempted += t.attempted
		out.failed += t.errors + t.wrong
		if t.wrong > 0 {
			out.problems = append(out.problems, fmt.Sprintf("%d wrong: %v", t.wrong, t.firstErr))
		}
		if t.errors > 0 {
			logf("errors: %d, first: %v", t.errors, t.firstErr)
		}
	}

	// Set-up, several times; the last stack is the one measured.
	var st *stack
	var setupTimes []time.Duration
	for i := 0; i < cfg.setUps || (cfg.setUps > 1 && sumDur(setupTimes) < setUpBudget && i < maxSetUps); i++ {
		if st != nil {
			if err := st.tearDown(); err != nil {
				return out, err
			}
		}
		start := time.Now()
		var err error
		st, err = setUp(filepath.Join(cfg.dir, strconv.Itoa(i)), w, cfg.seed)
		setupTimes = append(setupTimes, time.Since(start))
		if err != nil {
			return out, fmt.Errorf("set-up: %w", err)
		}
	}
	defer func() {
		if st != nil {
			st.tearDown()
		}
	}()
	if err := st.describe(w); err != nil {
		return out, err
	}
	fi, err := os.Stat(filepath.Join(st.dir, "base.pages"))
	if err != nil {
		return out, err
	}
	rows := st.rows
	diskBytesPerRow := float64(fi.Size()) / float64(rows)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6
	logf("workload %s, seed %d: %s", w.name, cfg.seed, st.summary(w))

	or, err := buildOracle(st.db.Base, st.anchors)
	if err != nil {
		return out, err
	}
	st.corruptNext.Store(cfg.wrongAnswer)
	var wr *writer
	readOracle := or
	if w.writer {
		wr = newWriter(st, cfg.seed)
		readOracle = nil // answers read during writes: errors and routing only
	}
	var tr *telemetry.Tracer
	if cfg.trace {
		tr = telemetry.NewTracer(1 << 13)
	}

	// Timed phase. The traced run splits it: an untraced half, then a
	// half with every request traced, for the tracing overhead.
	timed := time.Duration(cfg.seconds * float64(time.Second))
	c0 := st.counters()
	first := timed
	if cfg.trace {
		first = timed / 2
	}
	a, err := runPhase(st, readOracle, wr, first, cfg.seed, nil)
	if err != nil {
		return out, err
	}
	var traced phase
	if cfg.trace {
		if traced, err = runPhase(st, readOracle, wr, timed-first, cfg.seed+1, tr); err != nil {
			return out, err
		}
	}
	c1 := st.counters()
	record(a.queries)
	record(traced.queries)
	checked := "answers checked against the oracle"
	if w.writer {
		checked = "answers read during writes checked for errors and ASR routing only"
	}
	logf("timed phase: %d queries, %d updates over %.2f s; %s",
		a.queries.attempted+traced.queries.attempted, a.updateOps+traced.updateOps, (a.elapsed + traced.elapsed).Seconds(), checked)

	// Per-layer replay, with every load generator stopped.
	var lay *layers
	var fsyncLat, readLat []time.Duration
	if cfg.trace {
		if w.writer {
			if or, err = buildOracle(st.db.Base, st.anchors); err != nil {
				return out, err
			}
		}
		if lay, err = replayLayers(st, or, tr, cfg.seed); err != nil {
			return out, err
		}
		if fsyncLat, err = fsyncTimes(st.dir, deviceSample); err != nil {
			return out, err
		}
		if readLat, err = diskReadTimes(st.fd, deviceSample, cfg.seed); err != nil {
			return out, err
		}
	}

	// Updates timed with no reader running: the traced sample of a
	// writer workload, or the read-only workloads' update phase. That
	// runs on a fresh stack of the same base with an unbounded pool:
	// maintenance is no-steal, so every page a transaction touches stays
	// resident until it commits, and under cold_large's 64-frame pool an
	// update whose rows span more pages than a pool shard holds fails
	// with the shard exhausted and quarantines the index.
	ust, uwr, uc0 := st, wr, c0
	if !w.writer {
		// Drop the read stack first, so the update phase's collector
		// does not mark a second base.
		if err := st.tearDown(); err != nil {
			return out, err
		}
		st = nil
		runtime.GC()
		uw := w
		uw.poolFrames = 0
		if ust, err = setUp(filepath.Join(cfg.dir, "updates"), uw, cfg.seed); err != nil {
			return out, fmt.Errorf("set-up for updates: %w", err)
		}
		defer ust.tearDown()
		if err := ust.describe(uw); err != nil {
			return out, err
		}
		uwr = newWriter(ust, cfg.seed)
		logf("update phase on a fresh stack: %s", ust.summary(uw))
		uc0 = ust.counters()
	}
	from := len(uwr.lat)
	start := time.Now()
	done := func(i int) bool {
		switch {
		case ust.updates%checkpointEvery == 0 && uwr.failed == 0:
			return false // the crash check needs committed work in the log
		case w.writer:
			return !cfg.trace || i >= updateSample
		default:
			return i >= cfg.minUpdates && time.Since(start) >= timed
		}
	}
	for i := 0; !done(i); i++ {
		_, end := traceRequest(tr, "bench.update", "")
		uwr.step()
		end()
	}
	quiet := uwr.mutLat[from:]
	uc1 := ust.counters()
	if w.writer {
		uc1 = c1 // the update phase is the timed mix
	}
	walBytes, err := uwr.walBytesLogged()
	if err != nil {
		return out, err
	}
	out.attempted += len(uwr.lat)
	out.failed += uwr.failed
	if uwr.failed > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d updates not acknowledged: %v", uwr.failed, uwr.firstErr))
	}

	// Final checks on the stack that took the updates: live answers
	// against a rebuilt oracle, then a crash.
	truncateTo := int64(-1)
	if cfg.dropUpdate {
		if truncateTo, err = dropLastUpdate(ust); err != nil {
			return out, err
		}
	}
	keys := verifyKeys(len(ust.keys), cfg.seed)
	or, vt, verifyPages, err := verifyLive(ust, keys)
	if err != nil {
		return out, err
	}
	record(vt)
	if err := ust.stopServer(); err != nil {
		return out, err
	}
	ct, info, err := crashCheck(ust, or, keys, truncateTo)
	if err != nil {
		return out, err
	}
	record(ct)
	out.correct = len(out.problems) == 0
	logf("final checks: %d wire answers against an oracle rebuilt from the base after %d updates; "+
		"crash recovery redid %d pages of %d committed transactions, %d answers checked after recovery",
		vt.attempted, ust.updates, info.RedonePages, info.CommittedTxns, ct.attempted)

	if cfg.trace {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
		nspans, err := writeSpans(path, tr.Spans(), lay.programSpans)
		if err != nil {
			return out, err
		}
		logf("spans: %d records in %s", nspans, path)
		updates := len(quiet)
		if w.writer {
			updates = a.updateOps + traced.updateOps
		}
		out.metrics = layerMetrics(a, traced, lay, uc0, uc1, updates, uwr, quiet, fsyncLat, readLat)
	} else {
		pages := float64(a.pages) / float64(len(a.queryLat))
		pagesNote := fmt.Sprintf("pool logical accesses over %d timed queries", len(a.queryLat))
		updNote := fmt.Sprintf("n=%d on a fresh unbounded-pool stack after the timed phase, checkpoints included", len(uwr.lat))
		if w.writer {
			pages = verifyPages
			pagesNote = fmt.Sprintf("over %d final-check queries with the writer stopped", len(keys))
			updNote = fmt.Sprintf("n=%d beside the reader, checkpoints included", len(uwr.lat))
		}
		ops := len(a.queryLat) + a.updateOps
		p50Note := fmt.Sprintf("median p50 of %v windows", busyWindow)
		rateNote := fmt.Sprintf("per second of the loop's own time, median over %v windows", busyWindow)
		p99Note := fmt.Sprintf("median p99 of %d-sample windows (pooled below two)", tailWindow)
		out.metrics = []metric{
			{"setup_s", "s", percentile(setupTimes, 0.5) / 1e6, fmt.Sprintf("median of %d set-ups", len(setupTimes))},
			{"query_p50_us", "us", windowedP50(a.queryLat), fmt.Sprintf("n=%d, %s", len(a.queryLat), p50Note)},
			{"query_p99_us", "us", windowedP99(a.queryLat), fmt.Sprintf("n=%d, %s", len(a.queryLat), p99Note)},
			{"query_per_s", "1/s", windowedRate(a.queryLat), fmt.Sprintf("n=%d on one connection, %s", len(a.queryLat), rateNote)},
			{"update_p50_us", "us", windowedP50(uwr.lat), updNote + ", " + p50Note},
			{"update_p99_us", "us", windowedP99(uwr.lat), updNote + ", " + p99Note},
			{"update_per_s", "1/s", windowedRate(uwr.lat), updNote + ", " + rateNote},
			{"pages_per_query", "count", pages, pagesNote},
			{"wal_bytes_per_update", "B", float64(walBytes) / float64(len(uwr.lat)), fmt.Sprintf("%d B logged, checkpoint every %d commits", walBytes, checkpointEvery)},
			{"disk_bytes_per_row", "B", diskBytesPerRow, fmt.Sprintf("%d B page file, %d rows", fi.Size(), rows)},
			{"heap_mb", "MB", heapMB, "heap after set-up and a forced GC"},
			{"allocs_per_op", "count", float64(a.mallocs) / float64(ops), fmt.Sprintf("over %d timed operations", ops)},
		}
	}
	for _, m := range out.metrics {
		logf("%-34s %14.4f %-6s %s", m.name, m.value, m.unit, m.note)
	}
	return out, nil
}

// layerMetrics derives the per-layer metrics of a traced run. uc0 and
// uc1 bracket the update phase, which applied the given number of
// updates.
func layerMetrics(a, traced phase, l *layers, uc0, uc1 counters, updates int, wr *writer,
	quiet, fsyncLat, readLat []time.Duration) []metric {
	s := float64(layerSample)
	d := func(name string) float64 { return l.after.tel(l.before, name) / s }
	perUpdate := func(v float64) float64 { return v / float64(updates) }
	pool, pool0 := l.after.pool, l.before.pool
	ops := float64(len(a.queryLat) + a.updateOps)
	var ckpt float64
	if len(wr.checkpoints) > 0 {
		ckpt = percentile(wr.checkpoints, 0.5) / 1e3
	}
	overhead := 100 * (percentile(traced.queryLat, 0.5)/percentile(a.queryLat, 0.5) - 1)
	sample := fmt.Sprintf("n=%d replayed requests", layerSample)
	return []metric{
		{"server.self_us", "us", medianGap(l.wire, l.run), fmt.Sprintf("wire round trip (median %.1f us) minus in-process RunCtx of the same query, median over %s", percentile(l.wire, 0.5), sample)},
		{"server.queue_us", "us", float64(sumDur(l.queue).Microseconds()) / s, "trailer queue wait (whole microseconds), mean, " + sample},
		{"server.bytes_per_query", "B", d("server_bytes_read_total") + d("server_bytes_written_total"), sample},
		{"server.allocs_per_query", "count", l.allocs["server.wire"] - l.allocs["query.run"], "wire minus RunCtx mallocs, client included, " + sample},
		{"query.parse_us", "us", percentile(l.parse, 0.5), sample},
		{"query.self_us", "us", medianGap(l.run, l.probe), "RunCtx minus QueryBackwardCtx of the same key, median over " + sample},
		{"query.allocs_per_query", "count", l.allocs["query.run"] - l.allocs["asr.probe"], "RunCtx minus QueryBackwardCtx mallocs, " + sample},
		{"gom.object_reads_per_query", "count", d("query_object_reads_total"), sample},
		{"asr.probe_us", "us", percentile(l.probe, 0.5), "Manager.QueryBackwardCtx, median, " + sample},
		{"asr.rows_scanned_per_query", "count", float64(l.after.ix.RowsScanned-l.before.ix.RowsScanned) / s, sample},
		{"asr.update_us", "us", percentile(quiet, 0.5), fmt.Sprintf("mutation plus synchronous maintenance, median, n=%d with no reader", len(quiet))},
		{"asr.retries", "count", float64(uc1.ix.Retries), "maintenance retries over the run"},
		{"asr.rollbacks", "count", float64(uc1.ix.Rollbacks), "maintenance rollbacks over the run"},
		{"btree.lookup_us", "us", percentile(l.lookup, 0.5), "Partition.LookupBackward over the probe's partitions, median, " + sample},
		{"btree.node_reads_per_query", "count", d("btree_node_reads_total"), sample},
		{"btree.node_writes_per_update", "count", perUpdate(uc1.tel(uc0, "btree_node_writes_total")), fmt.Sprintf("n=%d updates", updates)},
		{"btree.splits_per_update", "count", perUpdate(uc1.tel(uc0, "btree_splits_total")), fmt.Sprintf("n=%d updates", updates)},
		{"storage.pool_hit_ratio", "ratio", float64(pool.Hits-pool0.Hits) / float64(pool.LogicalAccesses-pool0.LogicalAccesses), sample},
		{"storage.pool_misses_per_query", "count", float64(pool.Misses-pool0.Misses) / s, sample},
		{"storage.pool_evictions_per_query", "count", float64(pool.Evictions-pool0.Evictions) / s, sample},
		{"storage.disk_read_us", "us", percentile(readLat, 0.5), fmt.Sprintf("FileDisk.Read of seeded page IDs, median, n=%d", len(readLat))},
		{"storage.wal_records_per_update", "count", perUpdate(float64(uc1.wal.Records - uc0.wal.Records)), fmt.Sprintf("n=%d updates", updates)},
		{"storage.wal_syncs_per_update", "count", perUpdate(float64(uc1.wal.Syncs - uc0.wal.Syncs)), fmt.Sprintf("n=%d updates", updates)},
		{"storage.fsync_us", "us", percentile(fsyncLat, 0.5), fmt.Sprintf("empty WAL commit on a scratch log, median, n=%d", len(fsyncLat))},
		{"storage.checkpoint_ms", "ms", ckpt, fmt.Sprintf("median of %d checkpoints", len(wr.checkpoints))},
		{"storage.writebacks_per_checkpoint", "count", float64(wr.pageWrites) / float64(max(len(wr.checkpoints), 1)), "page-file writes (FileDisk.Stats) per checkpoint"},
		{"runtime.gc_cycles_per_kop", "count", 1000 * float64(a.gcCycles) / ops, "untraced half of the timed phase"},
		{"runtime.alloc_bytes_per_op", "B", float64(a.allocB) / ops, "untraced half of the timed phase"},
		{"bench.trace_overhead_pct", "%", overhead, "traced against untraced query p50"},
	}
}

// medianGap is the median over paired calls of a[i] − b[i], in µs:
// pairing the same request's two timings cancels the spread between
// cheap and costly keys, which dominates a difference of medians.
func medianGap(a, b []time.Duration) float64 {
	gap := make([]time.Duration, len(a))
	for i := range a {
		gap[i] = a[i] - b[i]
	}
	return percentile(gap, 0.5)
}

func sumDur(lat []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range lat {
		t += d
	}
	return t
}
