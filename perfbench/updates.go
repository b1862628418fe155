package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"asr/internal/gom"
)

// checkpointEvery is the number of commits between the writer's
// checkpoints; the checkpoint's time is charged to the update that
// triggers it, so checkpoint cost shows in the update latency tail.
const checkpointEvery = 50

// writer applies seeded object updates in-process. The Manager's
// maintainers propagate each one synchronously into the ASR, and every
// maintenance transaction commits with a WAL fsync; an update is
// acknowledged once the mutation returned and the manager is healthy.
type writer struct {
	st  *stack
	rng *rand.Rand

	lat         []time.Duration // per update, checkpoint included
	mutLat      []time.Duration // the mutation call alone, maintenance included
	failed      int
	firstErr    error
	walBytes    int64           // WAL bytes logged, summed over checkpoints
	checkpoints []time.Duration // checkpoint durations
	pageWrites  uint64          // page-file writes done by checkpoints
}

func newWriter(st *stack, seed int64) *writer {
	return &writer{st: st, rng: rand.New(rand.NewSource(seed ^ 0x77a1))}
}

// step applies and times one update, checkpointing every
// checkpointEvery acknowledged updates.
func (w *writer) step() {
	start := time.Now()
	err := w.mutate()
	w.mutLat = append(w.mutLat, time.Since(start))
	if err == nil {
		err = w.st.db.Manager.Healthy()
	}
	if err == nil {
		w.st.updates++
		if w.st.updates%checkpointEvery == 0 {
			err = w.checkpoint()
		}
	}
	w.lat = append(w.lat, time.Since(start))
	if err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = err
		}
	}
}

// checkpoint records the WAL's size, then flushes and truncates it.
func (w *writer) checkpoint() error {
	n, err := w.st.walSize()
	if err != nil {
		return err
	}
	w.walBytes += n
	writes := w.st.fd.Stats().Writes
	start := time.Now()
	if err := w.st.pool.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	w.checkpoints = append(w.checkpoints, time.Since(start))
	w.pageWrites += w.st.fd.Stats().Writes - writes
	return nil
}

// walBytesLogged is walBytes plus what the log holds now.
func (w *writer) walBytesLogged() (int64, error) {
	n, err := w.st.walSize()
	return w.walBytes + n, err
}

// mutate draws one of the four update kinds uniformly: a Next retarget
// at T0 or at T2, an insert into or removal from a T1 object's Next
// set, or a rewrite of a T3 Payload within the existing value space.
// Every kind changes the object base, so each one reaches the index.
func (w *writer) mutate() error {
	ob := w.st.db.Base
	lv := &w.st.levels
	switch w.rng.Intn(4) {
	case 0:
		return w.retarget(lv[0], lv[1])
	case 1:
		return w.retarget(lv[2], lv[3])
	case 2:
		set := target(ob, lv[1][w.rng.Intn(len(lv[1]))])
		if set == gom.NilOID {
			return fmt.Errorf("T1 object without a Next set")
		}
		members := elements(ob, set)
		if len(members) >= 3 || (len(members) == 2 && w.rng.Intn(2) == 0) {
			return ob.RemoveFromSet(set, gom.Ref(members[w.rng.Intn(len(members))]))
		}
		in := map[gom.OID]bool{}
		for _, m := range members {
			in[m] = true
		}
		for {
			c := lv[2][w.rng.Intn(len(lv[2]))]
			if !in[c] {
				return ob.InsertIntoSet(set, gom.Ref(c))
			}
		}
	default:
		id := lv[3][w.rng.Intn(len(lv[3]))]
		o, _ := ob.Get(id)
		cur, _ := o.Attr("Payload")
		for {
			v := gom.String("L3-" + strconv.Itoa(w.rng.Intn(len(w.st.keys))))
			if !gom.ValuesEqual(v, cur) {
				return ob.SetAttr(id, "Payload", v)
			}
		}
	}
}

// retarget points a random source's Next at a different random target.
func (w *writer) retarget(src, dst []gom.OID) error {
	id := src[w.rng.Intn(len(src))]
	cur := target(w.st.db.Base, id)
	for {
		t := dst[w.rng.Intn(len(dst))]
		if t != cur {
			return w.st.db.Base.SetAttr(id, "Next", gom.Ref(t))
		}
	}
}
