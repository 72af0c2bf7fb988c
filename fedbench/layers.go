package main

import (
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

const (
	metricLive     = "/gc/heap/live:bytes"
	metricAllocB   = "/gc/heap/allocs:bytes"
	metricAllocObj = "/gc/heap/allocs:objects"
	metricGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	metricCPU      = "/cpu/classes/total:cpu-seconds"
)

// readMetrics samples runtime/metrics, returning each value as a
// uint64 (cpu-seconds are scaled to nanoseconds).
func readMetrics(names ...string) []uint64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]uint64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = x.Value.Uint64()
		case metrics.KindFloat64:
			out[i] = uint64(x.Value.Float64() * 1e9)
		}
	}
	return out
}

// median of the samples (the slice is sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// timeMedian runs f in batches until budget is spent and returns the
// median wall time of one call, in seconds.
func timeMedian(budget time.Duration, f func()) float64 {
	f() // warm caches, lazily sized buffers and scratch pools
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) < 5 || time.Now().Before(deadline) {
		const batch = 4
		start := time.Now()
		for range batch {
			f()
		}
		per = append(per, time.Since(start).Seconds()/batch)
	}
	return median(per)
}

// kernels measures the compute layers on the workload's own model and
// mini-batch: GEMM throughput at its largest matmul shape, and one
// training step split into forward, backward and optimizer.
func kernels(r *run, out map[string]float64) error {
	spec := r.rs.Spec()
	g := r.w.gemm
	a, b, c := tensor.New(g[0], g[1]), tensor.New(g[1], g[2]), tensor.New(g[0], g[2])
	for i := range a.Data {
		a.Data[i] = float64(i%7) - 3
	}
	for i := range b.Data {
		b.Data[i] = float64(i%5) - 2
	}
	sec := timeMedian(200*time.Millisecond, func() { tensor.MatMul(c, a, b) })
	out["tensor.matmul_gflops"] = 2 * float64(g[0]*g[1]*g[2]) / sec / 1e9

	model, err := spec.Model.Build(spec.Seed)
	if err != nil {
		return err
	}
	batch := min(spec.BatchSize, len(r.in.parts[0]))
	x := tensor.New(append([]int{batch}, model.InShape()...)...)
	labels := make([]int, batch)
	r.in.train.FillBatch(x, labels, r.in.parts[0][:batch])
	dLogits := tensor.New(batch, spec.Model.Classes)
	opt := optim.NewSGDMomentum(spec.LR, spec.Momentum)
	forward := func() { nn.SoftmaxCrossEntropy(model.Forward(x, true), labels, dLogits) }
	forward()
	out["nn.forward_ms"] = 1e3 * timeMedian(200*time.Millisecond, forward)
	out["nn.backward_ms"] = 1e3 * timeMedian(200*time.Millisecond, func() {
		model.ZeroGrad()
		model.Backward(dLogits, nil)
	})
	out["optim.step_ms"] = 1e3 * timeMedian(200*time.Millisecond, func() {
		opt.Step(model.Params(), model.Grads())
	})
	return nil
}
