package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
)

// run is one trajectory of a workload, built from the seed and driven
// through the public RunState API.
type run struct {
	w   workload
	in  inputs
	rs  *core.RunState
	res *core.Result

	setup      time.Duration   // data + partition + NewRunState
	busy       time.Duration   // Step and Finish wall time, checkpoint excluded
	cum        []time.Duration // cum[i]: Step wall time through the i-th Step
	checkpoint []time.Duration // each mid-run Snapshot
	snapshot   *bytes.Buffer   // the last checkpoint, kept only when asked for
	snapBytes  int             // the last checkpoint's size
	updates    int64           // merged client updates (OnUpdates)
	staleness  int64           // summed staleness of those updates
	digest     string
}

// build synthesises the inputs and the run at round 0. With a tracer,
// the three set-up phases become spans and the hooks are instrumented.
func build(w workload, seed int64, tr *tracer) (*run, error) {
	r := &run{w: w}
	phase := func(start time.Time) {
		if tr != nil {
			tr.add(spanSetup, start.Sub(tr.t0), tr.now())
		}
	}
	start := time.Now()
	var err error
	if r.in.train, r.in.test, err = w.data(w.clients); err != nil {
		return nil, fmt.Errorf("%s data: %w", w.name, err)
	}
	phase(start)
	t := time.Now()
	if r.in.parts, err = w.partition(r.in.train, w.clients, seed); err != nil {
		return nil, fmt.Errorf("%s partition: %w", w.name, err)
	}
	phase(t)
	t = time.Now()
	spec, err := r.spec(tr)
	if err != nil {
		return nil, err
	}
	if r.rs, err = core.NewRunState(spec); err != nil {
		return nil, fmt.Errorf("%s build: %w", w.name, err)
	}
	phase(t)
	r.setup = time.Since(start)
	return r, nil
}

// spec configures a run over r's inputs with the update counter
// installed, instrumented when tr is non-nil.
func (r *run) spec(tr *tracer) (core.RunSpec, error) {
	spec, err := r.w.spec(r.in, r.w)
	if err != nil {
		return spec, fmt.Errorf("%s spec: %w", r.w.name, err)
	}
	spec.OnUpdates = func(_ int, _ []float64, updates []core.Update) {
		r.updates += int64(len(updates))
		for _, u := range updates {
			r.staleness += int64(u.Staleness)
		}
	}
	if tr != nil {
		if err := instrument(&spec, tr); err != nil {
			return spec, err
		}
	}
	return spec, nil
}

// drive steps the run to completion, checkpointing into memory after
// the workload's snapAt rounds (a run resumed from the last checkpoint is
// past them all). snapHint is the expected snapshot size in bytes (0 if
// unknown).
func (r *run) drive(tr *tracer, keepSnapshot bool, snapHint int) error {
	var stepWall time.Duration
	for {
		start := time.Now()
		done, err := r.rs.Step()
		d := time.Since(start)
		if tr != nil {
			tr.add(spanStep, start.Sub(tr.t0), tr.now())
		}
		if err != nil {
			return fmt.Errorf("%s round %d: %w", r.w.name, r.rs.Round(), err)
		}
		stepWall += d
		r.cum = append(r.cum, stepWall)
		if slices.Contains(r.w.snapAt, r.rs.Round()) && !done {
			if err := r.checkpointOnce(tr, keepSnapshot, snapHint); err != nil {
				return err
			}
		}
		if done {
			break
		}
	}
	start := time.Now()
	r.res = r.rs.Finish()
	fin := time.Since(start)
	if tr != nil {
		tr.add(spanFinish, start.Sub(tr.t0), tr.now())
	}
	r.busy = stepWall + fin
	r.digest = r.res.Digest()
	return nil
}

// checkpointOnce snapshots the run into memory and times it. The buffer
// is sized and paged in, and the heap collected, beforehand and outside
// the timer, so the figure is the runtime's own stall (quiescing plus
// serializing) rather than buffer growth, page faults or a collection
// the previous rounds left due.
func (r *run) checkpointOnce(tr *tracer, keep bool, hint int) error {
	pause := time.Now()
	// A quarter's slack: snapshots of one workload differ a little in size.
	mem := make([]byte, hint+hint/4)
	for i := 0; i < len(mem); i += 4096 {
		mem[i] = 1
	}
	buf := bytes.NewBuffer(mem[:0])
	runtime.GC()
	var alloc0 []uint64
	if tr != nil {
		tr.add(spanPause, pause.Sub(tr.t0), tr.now())
		alloc0 = readMetrics(metricAllocB, metricAllocObj)
	}
	start := time.Now()
	if err := r.rs.Snapshot(buf); err != nil {
		return fmt.Errorf("%s snapshot: %w", r.w.name, err)
	}
	r.checkpoint = append(r.checkpoint, time.Since(start))
	r.snapBytes = buf.Len()
	if tr != nil {
		tr.add(spanSnapshot, start.Sub(tr.t0), tr.now())
		alloc1 := readMetrics(metricAllocB, metricAllocObj)
		tr.snapAlloc[0] += alloc1[0] - alloc0[0]
		tr.snapAlloc[1] += alloc1[1] - alloc0[1]
	}
	if keep {
		r.snapshot = buf
	}
	return nil
}

// check reports whether the run's outputs are correct: final accuracy
// clears the floor, and the digest matches the reference when one is
// given.
func (r *run) check(ref string) error {
	switch {
	case r.res.FinalAccuracy <= r.w.floor:
		return fmt.Errorf("%s: final accuracy %.4f not above floor %g", r.w.name, r.res.FinalAccuracy, r.w.floor)
	case ref != "" && r.digest != ref:
		return fmt.Errorf("%s: digest %s, want %s", r.w.name, r.digest, ref)
	}
	return nil
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	return readMetrics(metricLive)[0]
}
