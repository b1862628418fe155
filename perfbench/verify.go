package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"asr/internal/asr"
	"asr/internal/gom"
	"asr/internal/query"
	"asr/internal/server/client"
	"asr/internal/storage"
)

// maxVerifyKeys caps how many keys the final checks query; a larger
// key space is sampled with the run's seed.
const maxVerifyKeys = 2000

// verifyKeys picks the keys the final checks query: all of them when
// there are at most maxVerifyKeys, else a seeded sample.
func verifyKeys(n int, seed int64) []int {
	if n <= maxVerifyKeys {
		keys := make([]int, n)
		for i := range keys {
			keys[i] = i
		}
		return keys
	}
	return rand.New(rand.NewSource(seed ^ 0xc0de)).Perm(n)[:maxVerifyKeys]
}

// verifyLive checks the serving stack after all updates: the manager
// is healthy, the index is consistent, and the wire answer for every
// key equals an oracle rebuilt from the mutated base. It returns that
// oracle and the pool's logical page accesses per query.
func verifyLive(st *stack, keys []int) (oracle, tally, float64, error) {
	var t tally
	if err := st.db.Manager.Healthy(); err != nil {
		t.fail(err, true)
	}
	if err := st.ix.CheckConsistent(); err != nil {
		t.fail(fmt.Errorf("index inconsistent: %w", err), true)
	}
	or, err := buildOracle(st.db.Base, st.anchors)
	if err != nil {
		return nil, t, 0, err
	}
	c, err := client.Dial(st.srv.Addr())
	if err != nil {
		return nil, t, 0, err
	}
	defer c.Close()
	pages := st.pool.Stats().LogicalAccesses
	for _, k := range keys {
		t.attempted++
		res, err := c.Query(context.Background(), st.sqls[k])
		if err != nil {
			t.fail(err, false)
			continue
		}
		if err := or.check(st.keys[k], res.Values, res.Plan); err != nil {
			t.fail(err, true)
		}
	}
	perQuery := float64(st.pool.Stats().LogicalAccesses-pages) / float64(len(keys))
	return or, t, perQuery, nil
}

// dropLastUpdate applies one more acknowledged update — a T0 Next
// retarget, which always changes stored rows — and returns the WAL's
// length before it, so the crash check can cut the update's commit off
// the log. It exists only for the benchmark's self-test.
func dropLastUpdate(st *stack) (int64, error) {
	before, err := st.walSize()
	if err != nil {
		return 0, err
	}
	w := newWriter(st, 1)
	if err := w.retarget(st.levels[0], st.levels[1]); err != nil {
		return 0, err
	}
	return before, st.db.Manager.Healthy()
}

// crashCheck abandons the buffer pool without flushing, closes the WAL
// and the page file, and reopens the index the way a restart would:
// storage.Recover, then asr.OpenFrom with the manifest saved at set-up
// over the post-run object base. Every acknowledged update must be
// visible: the recovered index must verify clean against the base and
// answer every key as the post-run oracle does. truncateTo ≥ 0 cuts the
// WAL to that length first (the self-test's lost commit).
func crashCheck(st *stack, or oracle, keys []int, truncateTo int64) (tally, *storage.RecoveryInfo, error) {
	var t tally
	pages := filepath.Join(st.dir, "base.pages")
	st.closeFiles()
	if truncateTo >= 0 {
		if err := os.Truncate(pages+".wal", truncateTo); err != nil {
			return t, nil, err
		}
	}
	fd, wal, info, err := storage.Recover(pages)
	if err != nil {
		return t, nil, fmt.Errorf("recover: %w", err)
	}
	defer fd.Close()
	defer wal.Close()
	pool := storage.NewBufferPool(fd, 0, storage.LRU)
	pool.AttachWAL(wal)
	mgr, err := asr.OpenFrom(st.db.Base, pool, st.manifest)
	if err != nil {
		return t, info, fmt.Errorf("reopen index: %w", err)
	}
	if len(info.QuarantinedPages) > 0 {
		t.fail(fmt.Errorf("recovery quarantined pages %v", info.QuarantinedPages), true)
	}
	for _, ix := range mgr.Indexes() {
		rep, err := ix.Verify()
		if err != nil {
			t.fail(fmt.Errorf("recovered index: %w", err), true)
		} else if !rep.Clean() {
			t.fail(fmt.Errorf("recovered index lost acknowledged updates: %s", rep), true)
		}
	}
	eng := query.New(st.db.Base, mgr)
	for _, k := range keys {
		t.attempted++
		q, err := query.Parse(st.sqls[k])
		if err != nil {
			return t, info, err
		}
		res, err := eng.RunCtx(context.Background(), q, 1)
		if err != nil {
			t.fail(err, false)
			continue
		}
		vals := make([]string, len(res.Values))
		for i, v := range res.Values {
			vals[i] = gom.ValueString(v)
		}
		if err := or.check(st.keys[k], vals, res.Plan); err != nil {
			t.fail(fmt.Errorf("after recovery: %w", err), true)
		}
	}
	return t, info, nil
}
