// RunState: the steppable form of a federated run.
//
// Checkpoint/resume and the run-server need finer control than a
// start-to-finish loop: advance exactly one round, observe the live
// metrics at the boundary, serialize the whole run, stop, and later
// continue bit-for-bit in a fresh process. RunState is that control
// surface. Each runtime is a runner — a struct holding the loop's state
// (round counter, event heap, merge buffer, virtual clock) with a step()
// method that executes exactly one round/aggregation — and RunState
// fronts the two runners with one facade:
//
//	rs, _ := core.NewRunState(spec)
//	for {
//		done, err := rs.Step()       // one round
//		...
//		rs.Snapshot(w)               // serializable at every boundary
//		if done { break }
//	}
//	res := rs.Finish()
//
// The lock-step runner serves the sync and barrier runtimes (the barrier
// is the sync loop on a simulated clock); the buffered runner serves the
// async runtime. Start(spec) is NewRunState + Run, the one entrypoint.
package core

import (
	"fmt"

	"repro/internal/tensor"
)

// runner is one runtime's stepping engine. step executes exactly one
// round (sync/barrier) or one buffered aggregation (async) and reports
// whether the run is complete. Between step calls the run is at a round
// boundary: no merge in progress, metrics recorded through the last
// completed round. quiesce additionally joins any in-flight local
// training so the entire state is serializable; snapshotBody and
// restoreBody handle the runtime-specific live state (the common state —
// global model, clients, recorder — is handled by RunState).
type runner interface {
	step() (done bool, err error)
	quiesce()
	snapshotBody(w *snapWriter)
	restoreBody(r *snapReader) error
	server() *Server
	recorder() *recorder
	close()
}

// RunState is a federated run that can be advanced one round at a time,
// serialized at any round boundary (Snapshot), and reconstructed in a
// fresh process (Resume). It is not safe for concurrent use: Step,
// Snapshot, and the accessors must all be called from one goroutine
// (the run-server serializes HTTP access onto the step loop).
type RunState struct {
	spec   RunSpec
	run    runner
	done   bool
	closed bool
}

// NewRunState validates the spec and builds the run at round 0, training
// nothing yet. The caller must eventually call Close (Run does so
// itself).
func NewRunState(spec RunSpec) (*RunState, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return newRunState(spec)
}

// newRunState builds the runtime from a validated spec.
func newRunState(spec RunSpec) (*RunState, error) {
	s, err := NewServer(spec.Config)
	if err != nil {
		return nil, err
	}
	s.installPolicy(spec.Policy)
	s.installFaults(spec.Faults)
	var r runner
	switch spec.Runtime {
	case RuntimeSync:
		r, err = newBarrierRunner(s, nil)
	case RuntimeBarrier:
		r, err = newBarrierRunner(s, newAsyncServer(s, spec))
	default:
		r, err = newBufferedRunner(newAsyncServer(s, spec))
	}
	if err != nil {
		return nil, err
	}
	return &RunState{spec: spec, run: r}, nil
}

// Spec returns the resolved run specification (defaults filled, policy
// resolved).
func (rs *RunState) Spec() *RunSpec { return &rs.spec }

// Server exposes the underlying server (global model, clients,
// evaluation) for hooks and status reporting. Only touch it at round
// boundaries.
func (rs *RunState) Server() *Server { return rs.run.server() }

// Result returns the live, partially-filled Result. It is owned by the
// run: read it only at round boundaries, and treat it as read-only.
// Finish returns the completed version.
func (rs *RunState) Result() *Result { return rs.run.recorder().res }

// Round returns the number of completed rounds (buffered aggregations in
// the async runtime).
func (rs *RunState) Round() int { return rs.run.recorder().res.Rounds }

// Done reports whether the run has completed (or errored).
func (rs *RunState) Done() bool { return rs.done }

// LastAccuracy returns the latest known test accuracy (0 until the first
// evaluation completes). Unlike Result().Accuracy, which is assembled at
// Finish, it is live during the run — the run-server's /status reads it.
func (rs *RunState) LastAccuracy() float64 { return rs.run.recorder().lastAcc }

// Async returns the simulated-clock runtime behind the barrier and async
// runtimes — fleet statistics (Participation, DeviceSpeeds,
// PerClientStateBytes) live there — or nil for the sync runtime.
func (rs *RunState) Async() *AsyncServer {
	switch r := rs.run.(type) {
	case *barrierRunner:
		return r.a
	case *bufferedRunner:
		return r.a
	}
	return nil
}

// Now returns the virtual clock in simulated seconds (0 for the sync
// runtime, which has none).
func (rs *RunState) Now() float64 {
	if a := rs.Async(); a != nil {
		return a.Now()
	}
	return 0
}

// Offline reports how many clients are currently offline or permanently
// dropped (0 without a churn process).
func (rs *RunState) Offline() int {
	if a := rs.Async(); a != nil {
		return a.Offline()
	}
	return 0
}

// Step advances the run by one round (one buffered aggregation in the
// async runtime) and reports whether the run is complete. Calling Step
// on a completed run is a no-op returning true.
func (rs *RunState) Step() (bool, error) {
	if rs.done {
		return true, nil
	}
	done, err := rs.run.step()
	if done || err != nil {
		rs.done = true
	}
	return done, err
}

// Run drives the remaining rounds to completion and closes the run. On a
// divergence error the partially-filled Result is returned alongside the
// error. Close is deferred so the evaluator goroutine and the shard pool
// are released even when a user callback or algorithm panics.
func (rs *RunState) Run() (*Result, error) {
	defer rs.Close()
	for {
		done, err := rs.Step()
		if err != nil {
			return rs.run.recorder().res, err
		}
		if done {
			return rs.Finish(), nil
		}
	}
}

// Finish completes the run's bookkeeping (joining every pending
// evaluation) and returns the Result. Idempotent.
func (rs *RunState) Finish() *Result {
	rs.done = true
	return rs.run.recorder().finish()
}

// Close releases the run's resources: the shard pool's workers and the
// evaluator goroutine. Idempotent; safe to call on a half-finished run
// (the Result stays readable, Snapshot stays possible — worker tokens
// for joined jobs survive the pool).
func (rs *RunState) Close() {
	if rs.closed {
		return
	}
	rs.closed = true
	rs.run.close()
}

// barrierRunner is the paper's lock-step loop in stepper form: one step =
// select K clients, train them in parallel, wait for all of them,
// aggregate, record. With a clock (the barrier runtime) each dispatch is
// also priced in simulated time and the round ends with its slowest
// client; without one (the sync runtime) there is no population registry
// and no simulated time. A zero-latency clock leaves the trajectory
// bit-for-bit that of the sync runtime.
type barrierRunner struct {
	s          *Server
	a          *AsyncServer // simulated clock; nil for RuntimeSync
	rec        *recorder
	sp         *shardPool
	t          int // completed rounds
	flopsTotal int64
}

func newBarrierRunner(s *Server, a *AsyncServer) (*barrierRunner, error) {
	rec, err := newRecorder(s)
	if err != nil {
		return nil, err
	}
	return &barrierRunner{
		s:   s,
		a:   a,
		rec: rec,
		sp:  newShardPool(s, s.cfg.Shards, s.cfg.ClientsPerRound),
	}, nil
}

func (r *barrierRunner) server() *Server     { return r.s }
func (r *barrierRunner) recorder() *recorder { return r.rec }

// quiesce is a no-op: the barrier joins every client inside step, so a
// round boundary has nothing in flight.
func (r *barrierRunner) quiesce() {}

func (r *barrierRunner) close() {
	r.sp.close()
	r.rec.finalize()
}

// countedFlops sums the FLOP counters of the given clients.
func countedFlops(cs []*Client) int64 {
	var fl int64
	for _, c := range cs {
		fl += c.Counter.Total()
	}
	return fl
}

func (r *barrierRunner) step() (bool, error) {
	s, a := r.s, r.a
	cfg := &s.cfg
	res := r.rec.res
	if r.t >= cfg.Rounds {
		return true, nil
	}
	t := r.t + 1
	selected := s.selectClients()
	if pr, ok := cfg.Algo.(PreRounder); ok {
		// A pre-round phase (FedDANE's and MimeLite's gradient exchange)
		// is client work too: meter it with the round's training.
		before := countedFlops(selected)
		pr.PreRound(t, selected, s.global)
		r.flopsTotal += countedFlops(selected) - before
	}
	jobs := s.growJobs(len(selected))
	for i, c := range selected {
		j := jobs[i]
		j.c, j.round, j.seq, j.global = c, t, i, s.global
		j.steps, j.speed = 0, 0
		if a != nil {
			a.armJob(j, c.ID)
			if a.spec.Devices == nil {
				j.finish = a.now + a.pop.sampleLatency(a.spec.Latency, c.ID, a.latRng)
			}
			a.pop.dispatched(c.ID)
		}
		// All jobs read the same pre-aggregation global; no writer until
		// every one of them has joined below.
		r.sp.submit(j)
	}
	var roundEnd float64
	if a != nil {
		roundEnd = a.now
	}
	updates := s.growUpdates(len(jobs))
	weights := s.growWeights(len(jobs))
	for i, j := range jobs {
		<-j.done
		if a != nil {
			if a.spec.Devices != nil {
				// Device-profiled fleet: the round time is the metered
				// compute itself, not an independent latency draw.
				j.finish = a.now + a.deviceDuration(j)
			}
			// Network-priced fleet: the transfers' time stacks on top of
			// the compute (or latency-model) duration.
			j.finish += a.netDuration(j)
			a.pop.arrived(j.c.ID, true)
			if j.finish > roundEnd {
				roundEnd = j.finish
			}
		}
		updates[i] = j.update // staleness 0 by construction
		j.update = Update{}
		weights[i] = s.policy.Weight(updates[i])
		r.flopsTotal += j.flops
		r.rec.addWire(j.downBytes + j.upBytes)
	}
	if a != nil {
		a.now = roundEnd
	}
	if cfg.OnUpdates != nil {
		cfg.OnUpdates(t, s.global, updates)
	}
	s.merge(t, weights, updates, s.policy.MergeRate(t, updates))
	if !tensor.AllFinite(s.global) {
		return true, fmt.Errorf("core: %s diverged at round %d (non-finite global model)", cfg.Algo.Name(), t)
	}
	acc := r.rec.record(t, cfg.Rounds, updates, r.flopsTotal)
	// The merge and metrics have consumed this round's uploads; their
	// buffers go back to the pool for the next round's checkouts.
	recycleUpdates(updates)
	if a != nil {
		res.SimTimeByRound = append(res.SimTimeByRound, a.now)
		res.MeanStalenessByRound = append(res.MeanStalenessByRound, 0)
	}
	if cfg.Logf != nil {
		cfg.Logf("round %3d/%d algo=%s acc=%.4f loss=%.4f gflops=%.2f t=%.1fs", t, cfg.Rounds, cfg.Algo.Name(), acc, res.TrainLoss[t-1], res.GFLOPsByRound[t-1], roundEnd)
	}
	if cfg.OnRound != nil {
		cfg.OnRound(t, s)
	}
	r.t = t
	if cfg.StopAtTarget && res.RoundsToTarget > 0 {
		return true, nil
	}
	return t >= cfg.Rounds, nil
}
