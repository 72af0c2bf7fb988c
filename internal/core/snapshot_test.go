package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/prng"
)

// snapTestConfig builds a small run for snapshot tests: MNIST-like data,
// MLP, 6 clients.
func snapTestConfig(t *testing.T, rounds int) Config {
	t.Helper()
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: 400, Test: 150, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 6, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Model:           nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10},
		Train:           train,
		Test:            test,
		Parts:           parts,
		Rounds:          rounds,
		ClientsPerRound: 3,
		BatchSize:       20,
		LocalEpochs:     1,
		LR:              0.01,
		Momentum:        0.9,
		Algo:            NewFedTrip(0.4),
		Seed:            1,
	}
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// requireSameResult asserts bit-for-bit identical metric trajectories.
func requireSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Rounds != want.Rounds {
		t.Fatalf("%s: rounds %d, want %d", label, got.Rounds, want.Rounds)
	}
	if got.DroppedUpdates != want.DroppedUpdates {
		t.Fatalf("%s: dropped updates %d, want %d", label, got.DroppedUpdates, want.DroppedUpdates)
	}
	if got.RejectedUpdates != want.RejectedUpdates {
		t.Fatalf("%s: rejected updates %d, want %d", label, got.RejectedUpdates, want.RejectedUpdates)
	}
	if got.RoundsToTarget != want.RoundsToTarget {
		t.Fatalf("%s: rounds-to-target %d, want %d", label, got.RoundsToTarget, want.RoundsToTarget)
	}
	series := []struct {
		name      string
		want, got []float64
	}{
		{"Accuracy", want.Accuracy, got.Accuracy},
		{"TrainLoss", want.TrainLoss, got.TrainLoss},
		{"GFLOPsByRound", want.GFLOPsByRound, got.GFLOPsByRound},
		{"SimTimeByRound", want.SimTimeByRound, got.SimTimeByRound},
		{"MeanStalenessByRound", want.MeanStalenessByRound, got.MeanStalenessByRound},
	}
	for _, s := range series {
		if !sameFloats(s.want, s.got) {
			t.Fatalf("%s: %s diverged\n want %v\n  got %v", label, s.name, s.want, s.got)
		}
	}
	if !sameInt64s(want.CommBytesByRound, got.CommBytesByRound) {
		t.Fatalf("%s: CommBytesByRound diverged\n want %v\n  got %v", label, want.CommBytesByRound, got.CommBytesByRound)
	}
	if math.Float64bits(want.BestAccuracy) != math.Float64bits(got.BestAccuracy) ||
		math.Float64bits(want.FinalAccuracy) != math.Float64bits(got.FinalAccuracy) {
		t.Fatalf("%s: summary accuracy diverged: best %v/%v final %v/%v",
			label, want.BestAccuracy, got.BestAccuracy, want.FinalAccuracy, got.FinalAccuracy)
	}
}

// runResumeScenario pins the tentpole guarantee both ways: a run that
// snapshots at round k and keeps going matches the uninterrupted run,
// and a fresh process resumed from that snapshot matches it too —
// bit-for-bit across every metric series.
func runResumeScenario(t *testing.T, spec RunSpec, snapAt int) {
	t.Helper()
	full, err := Start(spec)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}

	rs, err := NewRunState(spec)
	if err != nil {
		t.Fatalf("NewRunState: %v", err)
	}
	for i := 0; i < snapAt; i++ {
		done, err := rs.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
		if done {
			t.Fatalf("run completed at step %d, before the snapshot round %d", i+1, snapAt)
		}
	}
	if rs.Round() != snapAt {
		t.Fatalf("after %d steps Round() = %d", snapAt, rs.Round())
	}
	var buf bytes.Buffer
	if err := rs.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	// Snapshot-and-continue: the quiesce must not perturb the trajectory.
	cont, err := rs.Run()
	if err != nil {
		t.Fatalf("continue after snapshot: %v", err)
	}
	requireSameResult(t, "snapshot-and-continue", full, cont)

	// Resume in a "fresh process": a brand-new RunState from the same
	// spec, state loaded from the snapshot bytes.
	rs2, err := Resume(bytes.NewReader(buf.Bytes()), ResumeSpec{Spec: spec})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rs2.Round() != snapAt {
		t.Fatalf("resumed Round() = %d, want %d", rs2.Round(), snapAt)
	}
	resumed, err := rs2.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	requireSameResult(t, "snapshot-and-resume", full, resumed)
}

func TestResumeEquivalenceSync(t *testing.T) {
	cfg := snapTestConfig(t, 6)
	runResumeScenario(t, RunSpec{Config: cfg}, 3)
}

// TestResumeEquivalenceDropout: dropout masks draw from the client's
// stream, which the snapshot carries, so a dropout model resumes exactly.
func TestResumeEquivalenceDropout(t *testing.T) {
	runResumeScenario(t, RunSpec{Config: alexNetConfig(t, 4, 2)}, 2)
}

// TestResumeEquivalenceBarrier: the lock-step runner on the simulated
// clock must resume bit for bit, both under a latency model (the latency
// stream's position) and under device plus network pricing.
func TestResumeEquivalenceBarrier(t *testing.T) {
	t.Run("latency", func(t *testing.T) {
		runResumeScenario(t, RunSpec{
			Config:  snapTestConfig(t, 6),
			Runtime: RuntimeBarrier,
			Latency: ExponentialLatency{Mean: 2},
		}, 3)
	})
	t.Run("devices+network", func(t *testing.T) {
		runResumeScenario(t, RunSpec{
			Config:  snapTestConfig(t, 6),
			Runtime: RuntimeBarrier,
			Devices: DefaultTiers(),
			Network: DefaultNetTiers(),
		}, 3)
	})
}

func TestResumeEquivalenceAsyncFedBuff(t *testing.T) {
	cfg := snapTestConfig(t, 8)
	runResumeScenario(t, RunSpec{
		Config:      cfg,
		Runtime:     RuntimeAsync,
		Concurrency: 4,
		BufferSize:  2,
		Latency:     ExponentialLatency{Mean: 2},
	}, 4)
}

func TestResumeEquivalenceAsyncChurn(t *testing.T) {
	cfg := snapTestConfig(t, 8)
	runResumeScenario(t, RunSpec{
		Config:      cfg,
		Runtime:     RuntimeAsync,
		Concurrency: 4,
		BufferSize:  2,
		Latency:     ExponentialLatency{Mean: 2},
		Churn: &ChurnModel{
			MeanUp:   30,
			MeanDown: 8,
			Drops:    []MassDrop{{At: 4, Fraction: 0.5, Duration: 6}},
		},
	}, 4)
}

func TestResumeEquivalenceAsyncDevices(t *testing.T) {
	cfg := snapTestConfig(t, 6)
	runResumeScenario(t, RunSpec{
		Config:             cfg,
		Runtime:            RuntimeAsync,
		Concurrency:        4,
		BufferSize:         2,
		Devices:            DefaultTiers(),
		AdaptiveLocalSteps: true,
	}, 3)
}

// TestSnapshotPolicyRoundTrip: for every aggregation policy the CLI can
// spell, a snapshot restored into a fresh run and immediately
// re-snapshotted must reproduce the original stream byte-for-byte —
// pending in-flight updates, scheduler order, RNG positions, and the
// recorder all survive serialization exactly.
func TestSnapshotPolicyRoundTrip(t *testing.T) {
	policies := []struct {
		name string
		p    AggregationPolicy
	}{
		{"fedavg", &FedAvgPolicy{}},
		{"fedbuff", &FedBuffPolicy{}},
		{"fedasync", &FedAsyncPolicy{}},
		{"importance", &ImportancePolicy{}},
		{"fedbuff+maxstale", WithMaxStaleness(&FedBuffPolicy{}, 4)},
		{"fedbuff+lr", WithServerLR(&FedBuffPolicy{}, func(t int) float64 { return 0.5 })},
		{"median", &MedianPolicy{}},
		{"trimmedmean", &TrimmedMeanPolicy{Frac: 0.25}},
		{"krum", &KrumPolicy{Frac: 0.2}},
		{"fedavg+clip", WithNormClip(&FedAvgPolicy{}, 5)},
	}
	for _, tc := range policies {
		t.Run(tc.name, func(t *testing.T) {
			cfg := snapTestConfig(t, 6)
			spec := RunSpec{
				Config:      cfg,
				Runtime:     RuntimeAsync,
				Concurrency: 4,
				BufferSize:  2,
				Latency:     ExponentialLatency{Mean: 1.5},
				Policy:      tc.p,
			}
			rs, err := NewRunState(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			for i := 0; i < 3; i++ {
				if _, err := rs.Step(); err != nil {
					t.Fatalf("step %d: %v", i+1, err)
				}
			}
			var a bytes.Buffer
			if err := rs.Snapshot(&a); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			rs2, err := Resume(bytes.NewReader(a.Bytes()), ResumeSpec{Spec: spec})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			var b bytes.Buffer
			if err := rs2.Snapshot(&b); err != nil {
				t.Fatalf("re-snapshot: %v", err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("restored state re-serializes differently (%d vs %d bytes)", a.Len(), b.Len())
			}
			// The restored run must also still run.
			if _, err := rs2.Run(); err != nil {
				t.Fatalf("resumed run: %v", err)
			}
		})
	}
}

// TestResumeRejectsBadSnapshots pins the precise-error contract for
// wrong-magic, wrong-version, truncated, and wrong-run streams.
func TestResumeRejectsBadSnapshots(t *testing.T) {
	cfg := snapTestConfig(t, 4)
	spec := RunSpec{Config: cfg}
	rs, err := NewRunState(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Step(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rs.Close()
	good := buf.Bytes()

	otherSeed := spec
	otherSeed.Seed = 99

	cases := []struct {
		name    string
		data    []byte
		spec    RunSpec
		wantErr string
	}{
		{"wrong magic", append([]byte("NOPE"), good[4:]...), spec, "not a run snapshot"},
		{"wrong version", append(append([]byte(snapMagic), 99), good[5:]...), spec, "version 99"},
		{"empty", nil, spec, "truncated"},
		{"truncated header", good[:3], spec, "truncated"},
		{"truncated body", good[:len(good)/2], spec, "truncated"},
		{"different run", good, otherSeed, "different run"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Resume(bytes.NewReader(tc.data), ResumeSpec{Spec: tc.spec})
			if err == nil {
				t.Fatal("bad snapshot accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestSnapshotRefusesServerSideAggregators: a method with server-side
// aggregation state (async_test.go's aggAlgo) cannot be serialized by
// the runtime; Snapshot must refuse it rather than resume a
// half-restored method.
func TestSnapshotRefusesServerSideAggregators(t *testing.T) {
	cfg := snapTestConfig(t, 4)
	cfg.Algo = aggAlgo{}
	rs, err := NewRunState(RunSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.Step(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = rs.Snapshot(&buf)
	if err == nil {
		t.Fatal("snapshot of an Aggregator method accepted")
	}
	if !strings.Contains(err.Error(), "cannot snapshot") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestSnapshotForgedLengthAllocationBounded: a 64-byte FTRS prefix whose
// first array claims 2^30 floats (8 GiB) must fail as a truncated
// snapshot having allocated about what the stream held, not the claim.
func TestSnapshotForgedLengthAllocationBounded(t *testing.T) {
	raw := make([]byte, 64)
	copy(raw, snapMagic)
	raw[4] = snapVersion
	binary.LittleEndian.PutUint64(raw[5:], 1<<30)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sr := newSnapReader(bytes.NewReader(raw))
	var magic [4]byte
	sr.raw(magic[:])
	sr.u8()
	v := sr.floats("forged array", 1<<30)
	runtime.ReadMemStats(&m1)
	if v != nil || sr.err == nil || !strings.Contains(sr.err.Error(), "truncated snapshot") {
		t.Fatalf("forged length: %d values, err %v; want a truncated-snapshot error", len(v), sr.err)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("forged length allocated %d bytes before failing", grew)
	}
}

// TestResumeRejectsForgedLengths: lengths are bounded by what the
// rebuilt run implies, and a snapshot ends where its runner section does.
func TestResumeRejectsForgedLengths(t *testing.T) {
	cfg := snapTestConfig(t, 4)
	spec := RunSpec{Config: cfg}
	rs, err := NewRunState(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Step(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rs.Close()
	good := buf.Bytes()
	// The global model's length prefix follows the fingerprint.
	at := 5 + 8 + int(binary.LittleEndian.Uint64(good[5:]))
	forged := func(n uint64) []byte {
		b := slices.Clone(good)
		binary.LittleEndian.PutUint64(b[at:], n)
		return b
	}
	fingerprint := slices.Clone(good)
	binary.LittleEndian.PutUint64(fingerprint[5:], 1<<62)
	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"global model 2^30", forged(1 << 30), "global model length 1073741824 outside"},
		{"global model negative", forged(1 << 63), "global model length -9223372036854775808 outside"},
		{"global model short", forged(3), "global model sized 3"},
		{"fingerprint 2^62", fingerprint, "fingerprint length"},
		{"trailing bytes", append(slices.Clone(good), 0), "trailing bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Resume(bytes.NewReader(tc.data), ResumeSpec{Spec: spec})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want one mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// allocSpec is an async MLP run over a fleet of n clients drawn from a
// shared sample pool; the concurrency, buffer and round count — hence
// the number of participants — do not depend on n.
func allocSpec(t *testing.T, n int, scale float64) RunSpec {
	t.Helper()
	const perClient, pool = 4, 1000
	train, test, err := data.Generate(data.Spec{Kind: data.KindMNIST, Train: pool, Test: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := prng.New(7)
	parts := make([][]int, n)
	flat := make([]int, n*perClient)
	for i := range parts {
		p := flat[i*perClient : (i+1)*perClient : (i+1)*perClient]
		for k := range p {
			p[k] = rng.Intn(pool)
		}
		parts[i] = p
	}
	return RunSpec{
		Config: Config{
			Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: scale},
			Train: train, Test: test, Parts: parts,
			Rounds: 6, ClientsPerRound: 8, BatchSize: 4, LocalEpochs: 1,
			LR: 0.05, Momentum: 0.9, Algo: NewFedTrip(0.4), Seed: 11,
		},
		Runtime:     RuntimeAsync,
		Concurrency: 16,
		BufferSize:  8,
		Latency:     ExponentialLatency{Mean: 2},
		Churn:       &ChurnModel{MeanUp: 400, MeanDown: 40, Drops: []MassDrop{{At: 1, Fraction: 0.2, Duration: 50}}},
	}
}

// snapshotMallocs steps a run and counts the heap objects one Snapshot
// allocates: the least of several Snapshots, since the runtime itself
// sometimes allocates inside the window (a collection empties its cache
// of goroutine wait records, which quiescing then refills).
func snapshotMallocs(t *testing.T, spec RunSpec) uint64 {
	t.Helper()
	rs, err := NewRunState(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for i := 0; i < 3; i++ {
		if _, err := rs.Step(); err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
	}
	var buf bytes.Buffer
	least := uint64(math.MaxUint64)
	for i := 0; i < 6; i++ {
		buf.Reset() // the first Snapshot sizes the buffer
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := rs.Snapshot(&buf)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			least = min(least, after.Mallocs-before.Mallocs)
		}
	}
	return least
}

// TestSnapshotAllocsIndependentOfFleet pins the codec's allocation
// count: the same run over 10k and 100k clients, and over a model twice
// as wide, must allocate the same small number of objects per Snapshot —
// no term per client and none per serialized value.
func TestSnapshotAllocsIndependentOfFleet(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pin runs in the non-race job")
	}
	const maxObjects = 64
	base := snapshotMallocs(t, allocSpec(t, 10_000, 0.25))
	for _, tc := range []struct {
		name    string
		clients int
		scale   float64
	}{
		{"100k clients", 100_000, 0.25},
		{"wider model", 10_000, 0.5},
	} {
		got := snapshotMallocs(t, allocSpec(t, tc.clients, tc.scale))
		t.Logf("%s: %d objects per Snapshot (10k clients: %d)", tc.name, got, base)
		if got > maxObjects || base > maxObjects || got > base+4 {
			t.Fatalf("%s: Snapshot allocates %d objects, 10k clients %d: the count grows with the fleet or the model", tc.name, got, base)
		}
	}
}
