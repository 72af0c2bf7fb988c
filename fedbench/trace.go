package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// The traced run measures layers from the outside: it wraps the hooks
// the runtime already calls (the Algorithm, the Transport, OnUpdates and
// OnRound) and records a span around each call. Nothing inside the
// program is instrumented, so the untraced and traced runs execute the
// same code and must end on the same digest.

type spanKind uint8

const (
	spanSetup spanKind = iota
	spanStep
	spanSnapshot
	spanFinish
	spanTrain // Algorithm BeginRound -> EndRound, on a shard worker
	spanDown  // Transport DownSized
	spanUp    // Transport UpSized
	spanMerge // OnUpdates -> OnRound, on the loop goroutine
	spanPause // the benchmark's own forced collection before a checkpoint
)

type span struct {
	kind       spanKind
	start, end time.Duration // since tracer.t0
}

// tracer collects spans and counters in memory; the per-layer metrics
// are computed from them after the run.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	begun map[int]time.Duration // client ID -> BeginRound time

	transformNs atomic.Int64 // TransformGrad self time
	steps       atomic.Int64 // TransformGrad calls = mini-batch steps
	calls       atomic.Int64 // BeginRound calls = dispatches trained
	commCalls   atomic.Int64
	wireBytes   atomic.Int64

	// Written only on the loop goroutine.
	mergeStart time.Duration
	snapAlloc  [2]uint64 // heap bytes and objects the checkpoints allocated
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), begun: make(map[int]time.Duration)}
}

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

func (t *tracer) add(k spanKind, start, end time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, span{k, start, end})
	t.mu.Unlock()
}

// tracedAlgo times one client's local training (BeginRound to EndRound)
// and FedTrip's gradient transform. It embeds the Algorithm interface,
// so it keeps Name() and exposes no optional capability; wrapAlgo
// refuses methods that have one, since hiding it would change the run.
type tracedAlgo struct {
	core.Algorithm
	tr *tracer
}

func wrapAlgo(a core.Algorithm, tr *tracer) (core.Algorithm, error) {
	switch a.(type) {
	case core.FeatureGradder, core.LogitGradder, core.Aggregator, core.PreRounder,
		core.OptimizerChooser, core.CommCoster, core.StalenessWeighter:
		return nil, fmt.Errorf("trace: %s has an optional capability the wrapper would hide", a.Name())
	}
	return &tracedAlgo{Algorithm: a, tr: tr}, nil
}

func (a *tracedAlgo) BeginRound(c *core.Client, round int, global []float64) {
	start := a.tr.now()
	a.tr.mu.Lock()
	a.tr.begun[c.ID] = start
	a.tr.mu.Unlock()
	a.tr.calls.Add(1)
	a.Algorithm.BeginRound(c, round, global)
}

func (a *tracedAlgo) TransformGrad(c *core.Client, round int, w, g []float64) {
	start := time.Now()
	a.Algorithm.TransformGrad(c, round, w, g)
	a.tr.transformNs.Add(int64(time.Since(start)))
	a.tr.steps.Add(1)
}

func (a *tracedAlgo) EndRound(c *core.Client, round int) {
	a.Algorithm.EndRound(c, round)
	end := a.tr.now()
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, span{spanTrain, a.tr.begun[c.ID], end})
	delete(a.tr.begun, c.ID)
	a.tr.mu.Unlock()
}

// wireTransport is what the traced transport forwards: per-transfer
// sizes (network pricing and byte accounting read them), run-long state
// (snapshots carry it) and the spec string (the resume fingerprint
// names it).
type wireTransport interface {
	core.SizedTransport
	core.StatefulTransport
	fmt.Stringer
}

type tracedTransport struct {
	inner wireTransport
	tr    *tracer
}

func wrapTransport(t core.Transport, tr *tracer) (core.Transport, error) {
	if t == nil {
		return nil, nil
	}
	w, ok := t.(wireTransport)
	if !ok {
		return nil, fmt.Errorf("trace: transport %T is not sized, stateful and named", t)
	}
	return &tracedTransport{inner: w, tr: tr}, nil
}

func (t *tracedTransport) Down(clientID, round int, global []float64) []float64 {
	enc, _ := t.DownSized(clientID, round, global)
	return enc
}

func (t *tracedTransport) Up(clientID, round int, params []float64) []float64 {
	enc, _ := t.UpSized(clientID, round, params)
	return enc
}

func (t *tracedTransport) DownSized(clientID, round int, global []float64) ([]float64, int64) {
	start := t.tr.now()
	enc, wire := t.inner.DownSized(clientID, round, global)
	t.done(spanDown, start, wire)
	return enc, wire
}

func (t *tracedTransport) UpSized(clientID, round int, params []float64) ([]float64, int64) {
	start := t.tr.now()
	enc, wire := t.inner.UpSized(clientID, round, params)
	t.done(spanUp, start, wire)
	return enc, wire
}

func (t *tracedTransport) done(k spanKind, start time.Duration, wire int64) {
	t.tr.add(k, start, t.tr.now())
	t.tr.commCalls.Add(1)
	t.tr.wireBytes.Add(wire)
}

func (t *tracedTransport) SnapshotState(w io.Writer) error { return t.inner.SnapshotState(w) }
func (t *tracedTransport) RestoreState(r io.Reader) error  { return t.inner.RestoreState(r) }
func (t *tracedTransport) String() string                  { return t.inner.String() }

// instrument routes spec's algorithm, transport and merge hooks through
// tr. OnUpdates must already be installed (the update counter); the
// merge span runs from it to OnRound.
func instrument(spec *core.RunSpec, tr *tracer) error {
	algo, err := wrapAlgo(spec.Algo, tr)
	if err != nil {
		return err
	}
	transport, err := wrapTransport(spec.Transport, tr)
	if err != nil {
		return err
	}
	spec.Algo, spec.Transport = algo, transport
	count := spec.OnUpdates
	spec.OnUpdates = func(round int, global []float64, updates []core.Update) {
		tr.mergeStart = tr.now()
		count(round, global, updates)
	}
	spec.OnRound = func(int, *core.Server) { tr.add(spanMerge, tr.mergeStart, tr.now()) }
	return nil
}

// union merges intervals into disjoint sorted ones.
func union(spans []span) []span {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var out []span
	for _, x := range s {
		if n := len(out); n > 0 && x.start <= out[n-1].end {
			if x.end > out[n-1].end {
				out[n-1].end = x.end
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// covered returns how much of each window the disjoint sorted intervals
// cover, summed over the windows (themselves sorted and disjoint).
func covered(windows, disjoint []span) time.Duration {
	var total time.Duration
	j := 0
	for _, w := range windows {
		for j < len(disjoint) && disjoint[j].end <= w.start {
			j++
		}
		for k := j; k < len(disjoint) && disjoint[k].start < w.end; k++ {
			lo, hi := max(w.start, disjoint[k].start), min(w.end, disjoint[k].end)
			total += hi - lo
		}
	}
	return total
}

func length(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.end - s.start
	}
	return d
}

func (t *tracer) byKind(kinds ...spanKind) []span {
	var out []span
	for _, s := range t.spans {
		for _, k := range kinds {
			if s.kind == k {
				out = append(out, s)
				break
			}
		}
	}
	return out
}
