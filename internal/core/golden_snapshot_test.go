package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
)

// The golden snapshot hashes pin the FTRS byte format: the SHA-256 of a
// mid-run Snapshot for two runs that between them touch every section
// (global model, per-client Hist and RNG positions, the recorder, the
// error-feedback transport state, the event heap and buffer, the churn
// process with a pending mass rejoin, and the adversary assignment). A
// codec change that moves these moved the format, and every existing
// -resume file with it; bump snapVersion on purpose or not at all.
const (
	goldenSnapSyncMLP   = "8d9a17b9d58c9b02aafabc900609575e9cd168bbae3f9bb97ffa37b869d32644"
	goldenSnapAsyncWire = "01ac5ccb6e5666066f25916e6cd7656b70b85c384bcdc779c44da33f355491a0"
	goldenSnapBarrier   = "297e33d6d31f87d71715181d3c893b892d0efcc2e71656611075d6cec113a237"
)

func snapshotHash(t *testing.T, spec core.RunSpec, steps int) string {
	t.Helper()
	rs, err := core.NewRunState(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for i := 0; i < steps; i++ {
		if _, err := rs.Step(); err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
	}
	var buf bytes.Buffer
	if err := rs.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func mlpModel() nn.ModelSpec {
	return nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10}
}

// TestGoldenSnapshotSyncMLP pins the snapshot bytes of a synchronous
// FedTrip run on the MLP.
func TestGoldenSnapshotSyncMLP(t *testing.T) {
	skipOffAMD64(t)
	spec := goldenSpec(t, data.KindMNIST, mlpModel(), 6, 60)
	spec.Rounds = 4
	if got := snapshotHash(t, spec, 2); got != goldenSnapSyncMLP {
		t.Fatalf("sync MLP snapshot sha256 %s, pinned %s: the FTRS bytes changed", got, goldenSnapSyncMLP)
	}
}

// TestGoldenSnapshotAsyncWire pins the snapshot bytes of a buffered-async
// run with top-k error feedback, Markov churn plus a mass drop, Byzantine
// sign-flippers and a trimmed-mean merge.
func TestGoldenSnapshotAsyncWire(t *testing.T) {
	skipOffAMD64(t)
	spec := goldenSpec(t, data.KindMNIST, mlpModel(), 20, 30)
	tr, err := comm.ParseTransport("topk:0.01+ef")
	if err != nil {
		t.Fatal(err)
	}
	churn, err := core.ParseChurn("markov:40,10+drop:4,0.5,6")
	if err != nil {
		t.Fatal(err)
	}
	faults, err := core.ParseFaults("byz:0.1,signflip")
	if err != nil {
		t.Fatal(err)
	}
	policy, err := core.ParsePolicy("trimmedmean:0.1")
	if err != nil {
		t.Fatal(err)
	}
	spec.Runtime = core.RuntimeAsync
	spec.Rounds = 10
	spec.Concurrency = 6
	spec.BufferSize = 3
	spec.Latency = core.ExponentialLatency{Mean: 2}
	spec.Transport = tr
	spec.Churn = churn
	spec.Faults = faults
	spec.Policy = policy
	if got := snapshotHash(t, spec, 5); got != goldenSnapAsyncWire {
		t.Fatalf("async wire snapshot sha256 %s, pinned %s: the FTRS bytes changed", got, goldenSnapAsyncWire)
	}
}

// TestGoldenSnapshotBarrierWire pins the snapshot bytes of a barrier run
// with tiered devices and links and top-k error feedback: the clock, the
// latency stream and the population registry of the barrier body.
func TestGoldenSnapshotBarrierWire(t *testing.T) {
	skipOffAMD64(t)
	if got := snapshotHash(t, barrierWireSpec(t), 2); got != goldenSnapBarrier {
		t.Fatalf("barrier snapshot sha256 %s, pinned %s: the FTRS bytes changed", got, goldenSnapBarrier)
	}
}
