package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"asr/internal/asr"
	"asr/internal/gom"
	"asr/internal/server"
	"asr/internal/storage"
)

// stack is one durable object base served over loopback: the seeded
// DemoDatabase chain T0→T1→T2→T3 with its full/binary ASR on
// T0.Next.Next.Next.Payload, stored in a checksummed FileDisk behind a
// WAL, answered by an in-process gomd server.
type stack struct {
	dir      string
	fd       *storage.FileDisk
	wal      *storage.WAL
	pool     *storage.BufferPool
	db       *server.Database
	srv      *server.Server
	ix       *asr.Index
	manifest string

	levels  [4][]gom.OID // T0…T3 extents
	anchors []gom.OID    // members of the queried collection
	keys    []string     // the T3 Payload value space, "L3-0"…
	sqls    []string     // the workload's query for each key
	rows    int          // stored ASR rows over all partitions

	updates int // acknowledged updates applied so far

	// corruptNext makes the next wire answer wrong before it is
	// checked: the self-test's proof that the answer check fires.
	corruptNext atomic.Bool
}

// setUp generates the base, builds the index into a fresh page file,
// saves the manifest, checkpoints and starts the server. Everything it
// does is what setup_s times.
func setUp(dir string, w workload, seed int64) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	pages := filepath.Join(dir, "base.pages")
	fd, err := storage.OpenFileDisk(pages, 0)
	if err != nil {
		return nil, err
	}
	wal, err := storage.OpenWAL(pages + ".wal")
	if err != nil {
		fd.Close()
		return nil, err
	}
	st := &stack{dir: dir, fd: fd, wal: wal, manifest: filepath.Join(dir, "base.manifest")}
	st.pool = storage.NewBufferPool(fd, w.poolFrames, storage.LRU)
	st.pool.AttachWAL(wal)
	fail := func(err error) (*stack, error) {
		st.closeFiles()
		return nil, err
	}
	st.db, err = server.DemoDatabaseWith(w.scale, seed, st.pool)
	if err != nil {
		return fail(err)
	}
	if w.sample > 0 {
		if err := bindSample(st.db.Base, w.sample, seed); err != nil {
			return fail(err)
		}
	}
	if err := st.db.Manager.SaveTo(st.manifest); err != nil {
		return fail(err)
	}
	if err := st.pool.Checkpoint(); err != nil {
		return fail(err)
	}
	st.srv = server.New(st.db.Engine, st.db.Manager, server.Config{})
	if err := st.srv.Start(); err != nil {
		return fail(err)
	}
	return st, nil
}

// bindSample binds Sample, a seeded collection of n distinct T0
// objects, so the query's cost is set by the ASR probe rather than by
// the anchor loop over the whole extent.
func bindSample(ob *gom.ObjectBase, n int, seed int64) error {
	setT, ok := ob.Schema().Lookup("ALL_T0")
	t0, ok0 := ob.Schema().Lookup("T0")
	if !ok || !ok0 {
		return fmt.Errorf("schema lacks the ALL_T0 or T0 type")
	}
	ext := ob.Extent(t0, false)
	if n > len(ext) {
		return fmt.Errorf("sample of %d exceeds the %d T0 objects", n, len(ext))
	}
	set, err := ob.New(setT)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5a17))
	for _, i := range rng.Perm(len(ext))[:n] {
		if err := ob.InsertIntoSet(set.ID(), gom.Ref(ext[i])); err != nil {
			return err
		}
	}
	return ob.BindVar("Sample", set.ID())
}

// describe fills in the bookkeeping the load generator and the oracle
// need: extents, collection members, the key space and query texts.
func (st *stack) describe(w workload) error {
	ob := st.db.Base
	for l := range st.levels {
		t, ok := ob.Schema().Lookup("T" + strconv.Itoa(l))
		if !ok {
			return fmt.Errorf("schema has no type T%d", l)
		}
		st.levels[l] = ob.Extent(t, false)
	}
	id, ok := ob.Var(w.collection)
	if !ok {
		return fmt.Errorf("collection %s is not bound", w.collection)
	}
	coll, ok := ob.Get(id)
	if !ok {
		return fmt.Errorf("collection %s refers to a deleted object", w.collection)
	}
	st.anchors = coll.ElementOIDs()
	st.keys = make([]string, len(st.levels[3]))
	st.sqls = make([]string, len(st.keys))
	for k := range st.keys {
		st.keys[k] = "L3-" + strconv.Itoa(k)
		st.sqls[k] = fmt.Sprintf("select x.Payload from x in %s where x.Next.Next.Next.Payload = %q", w.collection, st.keys[k])
	}
	ixs := st.db.Manager.Indexes()
	if len(ixs) != 1 {
		return fmt.Errorf("want one managed index, have %d", len(ixs))
	}
	st.ix = ixs[0]
	st.rows = 0
	for _, n := range st.ix.TotalRows() {
		st.rows += n
	}
	return nil
}

// summary describes the stack's size.
func (st *stack) summary(w workload) string {
	pool := "unbounded"
	if w.poolFrames > 0 {
		pool = fmt.Sprintf("%d frames", w.poolFrames)
	}
	return fmt.Sprintf("scale %d, %d objects, %d ASR rows on %d pages of %d B, pool %s, %s of %d, %d keys",
		w.scale, st.db.Base.Count(), st.rows, st.fd.NumPages(), st.fd.PageSize(), pool, w.collection, len(st.anchors), len(st.keys))
}

// stopServer drains the server; every admitted query has answered when
// it returns.
func (st *stack) stopServer() error {
	if st.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	st.srv = nil
	return err
}

// closeFiles closes the page file and WAL without flushing the pool —
// what a crash leaves behind.
func (st *stack) closeFiles() {
	if st.wal != nil {
		st.wal.Close()
		st.wal = nil
	}
	if st.fd != nil {
		st.fd.Close()
		st.fd = nil
	}
}

// tearDown stops the server, drops the files and removes the directory.
func (st *stack) tearDown() error {
	err := st.stopServer()
	st.closeFiles()
	if rerr := os.RemoveAll(st.dir); err == nil {
		err = rerr
	}
	return err
}

// walSize is the WAL file's length in bytes: every commit syncs, so
// this is everything logged since the last checkpoint.
func (st *stack) walSize() (int64, error) {
	fi, err := os.Stat(st.wal.Path())
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// oracle maps an end value (a T3 Payload) to the rendered Payloads of
// the collection members whose T0.Next.Next.Next path reaches it,
// sorted — the exact Values a correct answer carries.
type oracle map[string][]string

// buildOracle walks the object base with gom's public accessors only,
// independently of the query engine and the ASR.
func buildOracle(ob *gom.ObjectBase, anchors []gom.OID) (oracle, error) {
	sets := map[string]map[string]bool{}
	for _, a := range anchors {
		o, ok := ob.Get(a)
		if !ok {
			return nil, fmt.Errorf("oracle: anchor %v missing", a)
		}
		pv, _ := o.Attr("Payload")
		name := gom.ValueString(pv)
		for _, t2 := range elements(ob, target(ob, target(ob, a))) {
			t3 := target(ob, t2)
			if t3 == gom.NilOID {
				continue
			}
			o3, ok := ob.Get(t3)
			if !ok {
				continue
			}
			end, ok := o3.Attr("Payload")
			s, isStr := end.(gom.String)
			if !ok || !isStr {
				continue
			}
			if sets[string(s)] == nil {
				sets[string(s)] = map[string]bool{}
			}
			sets[string(s)][name] = true
		}
	}
	out := oracle{}
	for end, names := range sets {
		vals := make([]string, 0, len(names))
		for n := range names {
			vals = append(vals, n)
		}
		sort.Strings(vals)
		out[end] = vals
	}
	return out, nil
}

// target follows id's Next reference; NilOID when unset or dangling.
func target(ob *gom.ObjectBase, id gom.OID) gom.OID {
	if id == gom.NilOID {
		return gom.NilOID
	}
	o, ok := ob.Get(id)
	if !ok {
		return gom.NilOID
	}
	v, _ := o.Attr("Next")
	ref, ok := v.(gom.Ref)
	if !ok {
		return gom.NilOID
	}
	if _, live := ob.Get(ref.OID()); !live {
		return gom.NilOID
	}
	return ref.OID()
}

// elements lists the live members of a set object.
func elements(ob *gom.ObjectBase, set gom.OID) []gom.OID {
	if set == gom.NilOID {
		return nil
	}
	o, ok := ob.Get(set)
	if !ok {
		return nil
	}
	var out []gom.OID
	for _, id := range o.ElementOIDs() {
		if _, live := ob.Get(id); live {
			out = append(out, id)
		}
	}
	return out
}

// check compares one answer with the oracle byte for byte and requires
// the plan to route the predicate through the ASR.
func (o oracle) check(key string, values []string, plan string) error {
	if err := checkRouted(key, plan); err != nil {
		return err
	}
	want := o[key]
	if len(values) != len(want) {
		return fmt.Errorf("key %s: %d values, oracle has %d", key, len(values), len(want))
	}
	for i := range want {
		if values[i] != want[i] {
			return fmt.Errorf("key %s: value %d is %s, oracle has %s", key, i, values[i], want[i])
		}
	}
	return nil
}

// checkRouted requires the plan line to report the predicate routed
// through the ASR.
func checkRouted(key, plan string) error {
	if !strings.Contains(plan, "via ASR") {
		return fmt.Errorf("key %s: plan does not use the ASR: %q", key, plan)
	}
	return nil
}
