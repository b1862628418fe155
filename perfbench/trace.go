package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"asr/internal/asr"
	"asr/internal/gom"
	"asr/internal/query"
	"asr/internal/server/client"
	"asr/internal/storage"
	"asr/internal/telemetry"
)

// layerSample is how many of the workload's requests the traced run
// replays against each layer's public entry point.
const layerSample = 256

// counters is one reading of the program's public counters.
type counters struct {
	reg  map[string]float64
	pool storage.BufferStats
	wal  storage.WALStats
	ix   asr.ManagedIndexStats
}

func (st *stack) counters() counters {
	c := counters{
		reg:  telemetry.Default().Snapshot(),
		pool: st.pool.Stats(),
		wal:  st.wal.Stats(),
	}
	if ms := st.db.Manager.Stats(); len(ms.Indexes) > 0 {
		c.ix = ms.Indexes[0]
	}
	return c
}

// tel is the growth of a registry series from o to c.
func (c counters) tel(o counters, name string) float64 { return c.reg[name] - o.reg[name] }

// layers is what the per-layer replay measured, per sampled request.
type layers struct {
	wire, parse, run, probe, lookup []time.Duration
	allocs                          map[string]float64 // mallocs per call, by layer
	queue                           []time.Duration    // the trailers' queue waits
	before, after                   counters           // around the wire replay
	// programSpans is the program's own span ring right after the wire
	// replay: the server and query spans of the last replayed requests,
	// under the same trace IDs as the benchmark's spans.
	programSpans []telemetry.SpanRecord
}

// replayLayers times each layer by calling its public entry point
// directly for a seeded sample of the workload's requests: the wire
// round trip, query.Parse, query.Engine.RunCtx, Manager.QueryBackwardCtx
// and Partition.LookupBackward over the probe's partitions. Each layer
// is replayed over the whole sample in turn, so every call finds the
// pool in the state the other sampled requests left. Every call gets a
// span under its request's root span on tr; all spans of one request
// share its trace ID, which the wire request carries to the server.
func replayLayers(st *stack, or oracle, tr *telemetry.Tracer, seed int64) (*layers, error) {
	c, err := client.Dial(st.srv.Addr())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(seed ^ 0x1a7e))
	keys := make([]int, layerSample)
	reqCtx := make([]context.Context, layerSample)  // carries the trace ID only
	spanCtx := make([]context.Context, layerSample) // parent for layer spans
	roots := make([]*telemetry.Span, layerSample)
	parsed := make([]*query.Query, layerSample)
	for i := range keys {
		keys[i] = rng.Intn(len(st.keys))
		reqCtx[i] = telemetry.WithTraceID(context.Background(), telemetry.NewTraceID())
		spanCtx[i], roots[i] = tr.StartSpan(reqCtx[i], "bench.request")
		roots[i].SetAttr("key", st.keys[keys[i]])
		if parsed[i], err = query.Parse(st.sqls[keys[i]]); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, sp := range roots {
			sp.End()
		}
	}()

	l := &layers{allocs: map[string]float64{}}
	replay := func(name string, call func(i int) error) ([]time.Duration, error) {
		lat := make([]time.Duration, len(keys))
		// Every layer starts from the same heap state, so no replay
		// pays for garbage another one left.
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := range keys {
			_, sp := tr.StartSpan(spanCtx[i], name)
			t := time.Now()
			err := call(i)
			lat[i] = time.Since(t)
			sp.End()
			if err != nil {
				return nil, fmt.Errorf("%s replay, key %s: %w", name, st.keys[keys[i]], err)
			}
		}
		runtime.ReadMemStats(&ms1)
		l.allocs[name] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(keys))
		return lat, nil
	}

	answers := make([]*client.Result, len(keys))
	l.before = st.counters()
	l.wire, err = replay("server.wire", func(i int) (err error) {
		answers[i], err = c.Query(reqCtx[i], st.sqls[keys[i]])
		return err
	})
	l.after = st.counters()
	l.programSpans = telemetry.DefaultTracer().Spans()
	if err != nil {
		return nil, err
	}
	for i, res := range answers {
		if err := or.check(st.keys[keys[i]], res.Values, res.Plan); err != nil {
			return nil, fmt.Errorf("wire replay: %w", err)
		}
		l.queue = append(l.queue, time.Duration(res.Trailer.QueueUS)*time.Microsecond)
	}

	if l.parse, err = replay("query.parse", func(i int) error {
		_, err := query.Parse(st.sqls[keys[i]])
		return err
	}); err != nil {
		return nil, err
	}

	results := make([]*query.Result, len(keys))
	if l.run, err = replay("query.run", func(i int) (err error) {
		results[i], err = st.db.Engine.RunCtx(reqCtx[i], parsed[i], 1)
		return err
	}); err != nil {
		return nil, err
	}
	for i, res := range results {
		vals := make([]string, len(res.Values))
		for j, v := range res.Values {
			vals[j] = gom.ValueString(v)
		}
		if err := or.check(st.keys[keys[i]], vals, res.Plan); err != nil {
			return nil, fmt.Errorf("in-process replay: %w", err)
		}
	}

	path := st.ix.Path()
	probed := make([][]gom.Value, len(keys))
	if l.probe, err = replay("asr.probe", func(i int) (err error) {
		probed[i], err = st.db.Manager.QueryBackwardCtx(reqCtx[i], path, 0, path.Len(), 1, gom.String(st.keys[keys[i]]))
		return err
	}); err != nil {
		return nil, err
	}

	parts := st.ix.Partitions()
	sort.Slice(parts, func(a, b int) bool { return parts[a].Lo > parts[b].Lo })
	looked := make([][]gom.Value, len(keys))
	if l.lookup, err = replay("btree.lookup", func(i int) (err error) {
		looked[i], err = lookupChain(parts, gom.String(st.keys[keys[i]]))
		return err
	}); err != nil {
		return nil, err
	}
	for i := range keys {
		if !sameValues(probed[i], looked[i]) {
			return nil, fmt.Errorf("key %s: partition lookups reach %d anchors, the ASR probe %d",
				st.keys[keys[i]], len(looked[i]), len(probed[i]))
		}
	}
	return l, nil
}

// lookupChain walks the partitions right to left with
// Partition.LookupBackward, the per-value B⁺-tree probe the ASR's
// backward query is made of, and returns the anchors reached.
func lookupChain(parts []asr.PlacedPartition, end gom.Value) ([]gom.Value, error) {
	frontier := []gom.Value{end}
	for _, pp := range parts {
		next := map[string]gom.Value{}
		for _, v := range frontier {
			rows, err := pp.Part.LookupBackward(v)
			if err != nil {
				return nil, err
			}
			for _, r := range rows {
				if r[0] != nil { // full extension: a path that starts mid-chain
					next[gom.ValueString(r[0])] = r[0]
				}
			}
		}
		frontier = frontier[:0]
		for _, v := range next {
			frontier = append(frontier, v)
		}
	}
	return frontier, nil
}

// sameValues compares two value sets.
func sameValues(a, b []gom.Value) bool {
	if len(a) != len(b) {
		return false
	}
	in := map[string]bool{}
	for _, v := range a {
		in[gom.ValueString(v)] = true
	}
	for _, v := range b {
		if !in[gom.ValueString(v)] {
			return false
		}
	}
	return true
}

// fsyncTimes commits n empty transactions to a scratch WAL next to the
// page file: the device's fsync cost with no page images to write.
func fsyncTimes(dir string, n int) ([]time.Duration, error) {
	path := filepath.Join(dir, "fsync-probe.wal")
	w, err := storage.OpenWAL(path)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	defer w.Close()
	lat := make([]time.Duration, n)
	for i := range lat {
		txn := w.Begin()
		t := time.Now()
		if err := w.Commit(txn); err != nil {
			return nil, err
		}
		lat[i] = time.Since(t)
	}
	return lat, nil
}

// diskReadTimes reads n seeded page IDs of the index's page file with
// FileDisk.Read: checksum verification plus the (cached) device read.
func diskReadTimes(fd *storage.FileDisk, n int, seed int64) ([]time.Duration, error) {
	rng := rand.New(rand.NewSource(seed ^ 0xd15c))
	buf := make([]byte, fd.PageSize())
	pages := int(fd.MaxPageID())
	lat := make([]time.Duration, n)
	for i := range lat {
		id := storage.PageID(1 + rng.Intn(pages))
		t := time.Now()
		if err := fd.Read(id, buf); err != nil {
			return nil, fmt.Errorf("read %v: %w", id, err)
		}
		lat[i] = time.Since(t)
	}
	return lat, nil
}

// spanRecord is one line of the span file.
type spanRecord struct {
	Source  string            `json:"source"` // "bench" or "program"
	Trace   string            `json:"trace"`
	ID      uint64            `json:"id"`
	Parent  uint64            `json:"parent"`
	Name    string            `json:"name"`
	StartNS int64             `json:"start_unix_ns"`
	DurNS   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// writeSpans writes the benchmark's spans and the program's own as
// JSON lines. The two sources number spans independently; the trace ID
// joins them.
func writeSpans(path string, bench, program []telemetry.SpanRecord) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	n := 0
	for _, src := range []struct {
		name  string
		spans []telemetry.SpanRecord
	}{{"bench", bench}, {"program", program}} {
		for _, s := range src.spans {
			rec := spanRecord{Source: src.name, ID: s.ID, Parent: s.ParentID, Name: s.Name,
				StartNS: s.Start.UnixNano(), DurNS: s.Duration.Nanoseconds()}
			if !s.Trace.IsZero() {
				rec.Trace = s.Trace.String()
			}
			if len(s.Attrs) > 0 {
				rec.Attrs = map[string]string{}
				for _, a := range s.Attrs {
					rec.Attrs[a.Key] = a.Value
				}
			}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
