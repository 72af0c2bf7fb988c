package core_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// The golden digests pin the training math across commits: every other
// bit-for-bit pin compares two paths of one build, so a kernel change that
// shifted every trajectory alike would pass them all. A kernel may only
// change these constants on purpose, with the change said in CHANGES.md.
const (
	goldenSyncCNN     = "a642f4210886d160"
	goldenAsyncMLP    = "9b681ac072e30ccd"
	goldenBarrierWire = "1486816d0047ace7"
)

// goldenSpec is a short run over a fixed synthetic corpus and partition.
func goldenSpec(t *testing.T, kind data.Kind, model nn.ModelSpec, clients, perClient int) core.RunSpec {
	t.Helper()
	train, test, err := data.Generate(data.Spec{Kind: kind, Train: clients * perClient, Test: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, clients, perClient, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	return core.RunSpec{Config: core.Config{
		Model: model, Train: train, Test: test, Parts: parts,
		Rounds: 3, ClientsPerRound: 3, BatchSize: 20, LocalEpochs: 1,
		LR: 0.05, Momentum: 0.9, Algo: core.NewFedTrip(0.4), Seed: 11,
	}}
}

func requireGolden(t *testing.T, what string, spec core.RunSpec, want string) {
	t.Helper()
	res, err := core.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Digest(); got != want {
		t.Fatalf("%s digest %s, pinned %s: the training math changed", what, got, want)
	}
}

func skipOffAMD64(t *testing.T) {
	t.Helper()
	// Go fuses x*y+z into one FMA instruction on arm64, ppc64 and s390x,
	// which rounds once instead of twice; the pins hold for the unfused
	// float64 arithmetic amd64 performs.
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; %s fuses multiply-adds", runtime.GOARCH)
	}
}

// TestGoldenDigestSyncCNN pins a short synchronous FedTrip run on the
// half-width CNN: conv, pooling and dense kernels, forward and backward.
func TestGoldenDigestSyncCNN(t *testing.T) {
	skipOffAMD64(t)
	model := nn.ModelSpec{Arch: nn.ArchCNN, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.5}
	requireGolden(t, "sync CNN", goldenSpec(t, data.KindFMNIST, model, 4, 60), goldenSyncCNN)
}

// TestGoldenDigestAsyncMLPTopK pins a short buffered-async MLP run whose
// uploads go through top-k sparsification with error feedback.
func TestGoldenDigestAsyncMLPTopK(t *testing.T) {
	skipOffAMD64(t)
	model := nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10}
	spec := goldenSpec(t, data.KindMNIST, model, 6, 60)
	tr, err := comm.ParseTransport("topk:0.01+ef")
	if err != nil {
		t.Fatal(err)
	}
	spec.Transport = tr
	spec.Runtime = core.RuntimeAsync
	spec.Rounds = 6
	spec.Concurrency = 4
	spec.BufferSize = 2
	spec.Latency = core.UniformLatency{Min: 1, Max: 3}
	requireGolden(t, "async MLP top-k", spec, goldenAsyncMLP)
}

// barrierWireSpec is a lock-step run priced on the simulated clock:
// tiered devices set each dispatch's compute time, tiered links add the
// transfer time of the top-k+EF bytes actually moved.
func barrierWireSpec(t *testing.T) core.RunSpec {
	t.Helper()
	model := nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10}
	spec := goldenSpec(t, data.KindMNIST, model, 6, 60)
	tr, err := comm.ParseTransport("topk:0.01+ef")
	if err != nil {
		t.Fatal(err)
	}
	spec.Transport = tr
	spec.Runtime = core.RuntimeBarrier
	spec.Rounds = 4
	spec.Devices = core.DefaultTiers()
	spec.Network = core.DefaultNetTiers()
	return spec
}

// TestGoldenDigestBarrierWire pins the barrier runtime: device and
// network pricing, per-arrival FLOP metering and the simulated clock.
func TestGoldenDigestBarrierWire(t *testing.T) {
	skipOffAMD64(t)
	requireGolden(t, "barrier MLP top-k", barrierWireSpec(t), goldenBarrierWire)
}
