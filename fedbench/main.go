// Command fedbench is the repository's benchmark. It runs one workload
// through the public core.RunState API (NewRunState, Step, Snapshot,
// Finish, Resume) in a single process at GOMAXPROCS=2 with two training
// shards, checks the outputs, and prints the metrics as the last line of
// standard output:
//
//	bash fedbench/run.sh --workload paper-cnn --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it runs the seed's cohort of trajectories, repeats them
// until about --seconds are spent, and reports the end-to-end metrics.
// With --trace 1 it makes one untraced run, one traced run with a
// mid-run checkpoint and a core.Resume from that checkpoint, reports the
// per-layer metrics of the traced run, and requires all three to end on
// the same Result.Digest. See README.md for what each metric measures and
// which end-to-end metric it should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer give each metric's unit; BENCHMARK.json lists
// the same names (the package test checks it).
var endToEnd = map[string]string{
	"setup_s":          "s",
	"updates_per_s":    "1/s",
	"wall_to_target_s": "s",
	"checkpoint_s":     "s",
	"heap_live_mb":     "MB",
	"final_accuracy":   "frac",
	"rounds_to_target": "rounds",
}

var perLayer = map[string]string{
	"tensor.matmul_gflops":     "GFLOP/s",
	"nn.forward_ms":            "ms",
	"nn.backward_ms":           "ms",
	"optim.step_ms":            "ms",
	"client.train_s":           "s",
	"client.calls":             "count",
	"client.steps":             "count",
	"client.step_ms":           "ms",
	"shard.idle_frac":          "frac",
	"fedtrip.transform_s":      "s",
	"fedtrip.transform_share":  "frac",
	"comm.down_share":          "frac",
	"comm.up_share":            "frac",
	"comm.calls":               "count",
	"comm.wire_mb":             "MB",
	"merge.s":                  "s",
	"merge.ms_per_update":      "ms",
	"merge.rejected":           "count",
	"loop.self_s":              "s",
	"loop.dispatches":          "count",
	"loop.dropped":             "count",
	"loop.mean_staleness":      "rounds",
	"eval.call_ms":             "ms",
	"eval.calls":               "count",
	"snapshot.mb":              "MB",
	"snapshot.restore_s":       "s",
	"setup.data_s":             "s",
	"setup.partition_s":        "s",
	"setup.build_s":            "s",
	"gc.cpu_frac":              "frac",
	"alloc.mb_per_update":      "MB",
	"alloc.objects_per_update": "count",
	"heap.live_b_per_client":   "B",
	"trace.coverage":           "frac",
	"trace.overhead_frac":      "frac",
}

func main() {
	name := flag.String("workload", "", "workload: paper-cnn, fleet-1m or wire-robust")
	seed := flag.Int64("seed", 1, "seed the clients' partitions are drawn from")
	seconds := flag.Float64("seconds", 30, "how long to repeat the cohort (--trace 0)")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.Parse()
	w, err := lookup(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "fedbench: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *trace, *seconds)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(shards)
	fmt.Printf("fedbench: workload=%s seed=%d GOMAXPROCS=%d shards=%d trace=%d\n", w.name, *seed, runtime.GOMAXPROCS(0), shards, *trace)

	rep := report{Metrics: map[string]metric{}}
	values := map[string]float64{}
	var failures []error
	if *trace == 1 {
		rep.Attempted, failures = traced(w, *seed, values)
	} else {
		budget := time.Duration(*seconds * float64(time.Second))
		rep.Attempted, failures = untraced(w, *seed, budget, values)
	}
	for _, err := range failures {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
	}
	rep.Failed = len(failures)
	units := endToEnd
	if *trace == 1 {
		units = perLayer
	}
	for n, u := range units {
		// A metric that could not be measured is left out, which makes
		// the report incorrect.
		if v, ok := values[n]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			rep.Metrics[n] = metric{v, u}
		}
	}
	rep.Correct = rep.Failed == 0 && len(rep.Metrics) == len(units)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// untraced runs the seed's cohort of trajectories, then repeats its
// members, in order, until the budget is spent, and reports the
// end-to-end metrics. The accuracy of short federated runs is chaotic in
// their inputs, so one trajectory's rounds_to_target would say more
// about the seed than about the program: rounds_to_target is read off
// the cohort's mean accuracy curve, as curves over seeds are averaged in
// federated-learning papers, and final_accuracy is the members' mean.
// Timings are medians over every run. A repeat must end on its member's
// digest.
func untraced(w workload, seed int64, budget time.Duration, out map[string]float64) (int, []error) {
	const minSetups = 5
	start := time.Now()
	var setup, rate, checkpoint, heap, final []float64
	var curves [][]float64
	var cums [][]time.Duration
	digests := make([]string, w.cohort)
	var failures []error
	attempted := 0
	var last time.Duration
	hint := 0
	for attempted < w.cohort || time.Since(start)+last <= budget {
		j := attempted % w.cohort
		t := time.Now()
		r, heapB, err := measured(w, member(seed, j), digests[j], hint)
		attempted++
		last = time.Since(t)
		if r != nil {
			setup = append(setup, r.setup.Seconds())
		}
		if err != nil {
			failures = append(failures, err)
			if r == nil {
				break // the inputs cannot be built; every run would fail
			}
			continue
		}
		hint = r.snapBytes
		rate = append(rate, float64(r.updates)/r.busy.Seconds())
		for _, d := range r.checkpoint {
			checkpoint = append(checkpoint, d.Seconds())
		}
		heap = append(heap, float64(heapB)/1e6)
		cums = append(cums, r.cum)
		if digests[j] == "" {
			digests[j] = r.digest
			final = append(final, r.res.FinalAccuracy)
			curves = append(curves, r.res.Accuracy)
		}
	}
	// Set-up is short next to a run: time a few more so its median is
	// steady.
	for j := attempted; len(setup) > 0 && len(setup) < minSetups; j++ {
		runtime.GC()
		r, err := build(w, member(seed, j%w.cohort), nil)
		if err != nil {
			failures = append(failures, err)
			break
		}
		setup = append(setup, r.setup.Seconds())
		r.rs.Close()
	}
	if len(rate) == 0 {
		return attempted, failures
	}
	out["setup_s"] = median(setup)
	out["updates_per_s"] = median(rate)
	out["checkpoint_s"] = median(checkpoint)
	out["heap_live_mb"] = median(heap)
	out["final_accuracy"] = mean(final)
	round := reached(curves, w.target)
	if round == 0 {
		return attempted, append(failures, fmt.Errorf("%s: the cohort's mean accuracy never reached %g", w.name, w.target))
	}
	out["rounds_to_target"] = float64(round)
	var toTarget []float64
	for _, c := range cums {
		toTarget = append(toTarget, c[round-1].Seconds())
	}
	out["wall_to_target_s"] = median(toTarget)
	return attempted, failures
}

// reached returns the first round at which the mean of the accuracy
// curves reaches target, or 0 if it never does.
func reached(curves [][]float64, target float64) int {
	for i := range curves[0] {
		var sum float64
		for _, c := range curves {
			sum += c[i]
		}
		if sum/float64(len(curves)) >= target {
			return i + 1
		}
	}
	return 0
}

// member is the partition seed of the cohort's j-th trajectory; cohorts
// of different seeds do not overlap.
func member(seed int64, j int) int64 { return seed*1000 + int64(j) }

// measured builds and drives one untraced run, checks it (against the
// digest want, when given) and closes it, returning it with its live
// heap at the end of the run. The run is nil only when it could not be
// built.
func measured(w workload, seed int64, want string, snapHint int) (*run, uint64, error) {
	runtime.GC()
	r, err := build(w, seed, nil)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		r.rs.Close()
		r.rs, r.in = nil, inputs{}
	}()
	if err := r.drive(nil, false, snapHint); err != nil {
		return r, 0, err
	}
	heap := liveHeap()
	return r, heap, r.check(want)
}

// traced makes an untraced run, the traced run, a second untraced run
// and the resume from the traced run's checkpoint, and computes the
// per-layer metrics. The untraced runs bracket the traced one so that
// warming up does not read as tracing overhead.
func traced(w workload, seed int64, out map[string]float64) (int, []error) {
	const attempted = 4
	seed = member(seed, 0)
	ref, _, err := measured(w, seed, "", 0)
	if err != nil {
		return attempted, []error{err}
	}

	live0 := liveHeap()
	tr := newTracer()
	t, err := build(w, seed, tr)
	if err != nil {
		return attempted, []error{err}
	}
	m0 := readMetrics(metricAllocB, metricAllocObj, metricGCCPU, metricCPU)
	err = t.drive(tr, true, ref.snapBytes)
	m1 := readMetrics(metricAllocB, metricAllocObj, metricGCCPU, metricCPU)
	if err == nil {
		err = t.check(ref.digest)
	}
	if err != nil {
		t.rs.Close()
		return attempted, []error{err}
	}
	live1 := liveHeap()
	var failures []error
	layers(tr, t, out)
	// The kept checkpoint is the benchmark's, not the run's.
	out["heap.live_b_per_client"] = (float64(live1) - float64(live0) - float64(t.snapshot.Cap())) / float64(w.clients)
	updates := float64(t.updates)
	out["alloc.mb_per_update"] = float64(m1[0]-m0[0]-tr.snapAlloc[0]) / 1e6 / updates
	out["alloc.objects_per_update"] = float64(m1[1]-m0[1]-tr.snapAlloc[1]) / updates
	out["gc.cpu_frac"] = float64(m1[2]-m0[2]) / float64(m1[3]-m0[3])
	srv := t.rs.Server()
	out["eval.call_ms"] = 1e3 * timeMedian(300*time.Millisecond, func() { srv.EvaluateGlobal() })
	if err := kernels(t, out); err != nil {
		failures = append(failures, err)
	}
	t.rs.Close()
	snap := t.snapshot.Bytes()
	out["snapshot.mb"] = float64(len(snap)) / 1e6
	in := t.in
	tracedWall := t.setup + t.busy
	t = nil

	ref2, _, err := measured(w, seed, ref.digest, ref.snapBytes)
	if err != nil {
		return attempted, append(failures, err)
	}
	plain := (ref.setup + ref.busy + ref2.setup + ref2.busy) / 2
	out["trace.overhead_frac"] = tracedWall.Seconds()/plain.Seconds() - 1

	// Resume from the traced run's checkpoint into a fresh, untraced run
	// over the same inputs.
	res := &run{w: w, in: in}
	runtime.GC()
	spec, err := res.spec(nil)
	if err != nil {
		return attempted, append(failures, err)
	}
	start := time.Now()
	if res.rs, err = core.Resume(bytes.NewReader(snap), core.ResumeSpec{Spec: spec}); err != nil {
		return attempted, append(failures, fmt.Errorf("%s resume: %w", w.name, err))
	}
	out["snapshot.restore_s"] = time.Since(start).Seconds()
	defer res.rs.Close()
	if err := res.drive(nil, false, 0); err != nil {
		return attempted, append(failures, err)
	}
	if err := res.check(ref.digest); err != nil {
		failures = append(failures, fmt.Errorf("resumed: %w", err))
	}
	return attempted, failures
}

// layers computes the span- and counter-based per-layer metrics of the
// traced run r.
func layers(tr *tracer, r *run, out map[string]float64) {
	steps := tr.byKind(spanStep)
	stepTotal := length(steps)
	train := tr.byKind(spanTrain)
	down, up := length(tr.byKind(spanDown)), length(tr.byKind(spanUp))
	trainBusy := length(train)
	// Shard time is the drive window (first Step to the end of Finish)
	// on every shard; training and transfers run on the shard workers.
	finish := tr.byKind(spanFinish)
	shardTime := float64(shards) * (finish[len(finish)-1].end - steps[0].start).Seconds()

	out["client.train_s"] = trainBusy.Seconds()
	out["client.calls"] = float64(len(train))
	out["client.steps"] = float64(tr.steps.Load())
	out["client.step_ms"] = 1e3 * trainBusy.Seconds() / float64(tr.steps.Load())
	out["shard.idle_frac"] = max(0, 1-(trainBusy+down+up).Seconds()/shardTime)
	transform := time.Duration(tr.transformNs.Load())
	out["fedtrip.transform_s"] = transform.Seconds()
	out["fedtrip.transform_share"] = transform.Seconds() / trainBusy.Seconds()

	out["comm.down_share"] = down.Seconds() / shardTime
	out["comm.up_share"] = up.Seconds() / shardTime
	out["comm.calls"] = float64(tr.commCalls.Load())
	out["comm.wire_mb"] = float64(tr.wireBytes.Load()) / 1e6

	merge := tr.byKind(spanMerge)
	out["merge.s"] = length(merge).Seconds()
	out["merge.ms_per_update"] = 1e3 * length(merge).Seconds() / float64(r.updates)
	out["merge.rejected"] = float64(r.res.RejectedUpdates)

	children := union(tr.byKind(spanTrain, spanDown, spanUp, spanMerge))
	out["loop.self_s"] = (stepTotal - covered(steps, children)).Seconds()
	out["loop.dispatches"] = float64(tr.calls.Load())
	out["loop.dropped"] = float64(r.res.DroppedUpdates)
	out["loop.mean_staleness"] = float64(r.staleness) / float64(r.updates)

	evals := 0
	for t := 1; t <= r.res.Rounds; t++ {
		if t%r.rs.Spec().EvalEvery == 0 || t == r.res.Rounds {
			evals++
		}
	}
	out["eval.calls"] = float64(evals)

	setup := tr.byKind(spanSetup)
	for i, n := range []string{"setup.data_s", "setup.partition_s", "setup.build_s"} {
		out[n] = (setup[i].end - setup[i].start).Seconds()
	}
	// The benchmark's own pauses are neither the program's time nor
	// unattributed time.
	pause := length(tr.byKind(spanPause))
	wall := finish[len(finish)-1].end - setup[0].start - pause
	spans := tr.byKind(spanSetup, spanStep, spanSnapshot, spanFinish, spanTrain, spanDown, spanUp, spanMerge)
	out["trace.coverage"] = length(union(spans)).Seconds() / wall.Seconds()
}
