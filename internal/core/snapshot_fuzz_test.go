package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// fuzzSpec is a small async run whose snapshot has every section: client
// history, an error-feedback transport, in-flight jobs, churn with a
// mass drop, and a sign-flipping adversary. Its 2x2-pixel images and
// 16-parameter model keep the snapshot a few KB, small enough for the
// fuzzer to mutate and minimize quickly.
func fuzzSpec(t testing.TB) core.RunSpec {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	tiny := func(n int) *data.Dataset {
		d := &data.Dataset{Kind: data.KindMNIST, Classes: 2, Channels: 1, Height: 2, Width: 2,
			X: make([]float64, 4*n), Y: make([]int, n)}
		for i := range d.Y {
			d.Y[i] = rng.Intn(2)
			for k := 0; k < 4; k++ {
				d.X[4*i+k] = rng.NormFloat64() + float64(d.Y[i])
			}
		}
		return d
	}
	train, test := tiny(160), tiny(40)
	parts, err := partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, 8, 20, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := comm.ParseTransport("topk:0.05+ef")
	if err != nil {
		t.Fatal(err)
	}
	churn, err := core.ParseChurn("markov:40,10+drop:2,0.5,6")
	if err != nil {
		t.Fatal(err)
	}
	faults, err := core.ParseFaults("byz:0.25,signflip")
	if err != nil {
		t.Fatal(err)
	}
	return core.RunSpec{
		Config: core.Config{
			Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 2, Width: 2, Classes: 2, Scale: 0.02},
			Train: train, Test: test, Parts: parts,
			Rounds: 6, ClientsPerRound: 3, BatchSize: 10, LocalEpochs: 1,
			LR: 0.05, Momentum: 0.9, Algo: core.NewFedTrip(0.4), Seed: 11,
			Transport: tr,
		},
		Runtime:     core.RuntimeAsync,
		Concurrency: 3,
		BufferSize:  2,
		Latency:     core.ExponentialLatency{Mean: 2},
		Churn:       churn,
		Faults:      faults,
	}
}

func snapshotAt(t testing.TB, spec core.RunSpec, steps int) []byte {
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
	return buf.Bytes()
}

// FuzzResume feeds Resume arbitrary bytes against a fixed spec. Resume
// must never panic, and it must either refuse the input or rebuild a run
// whose snapshot reproduces the input byte for byte: every accepted
// snapshot is canonical. The corpus seeds are a real snapshot and its
// truncations.
func FuzzResume(f *testing.F) {
	spec := fuzzSpec(f)
	good := snapshotAt(f, spec, 3)
	rs, err := core.Resume(bytes.NewReader(good), core.ResumeSpec{Spec: spec})
	if err != nil {
		f.Fatalf("the seed snapshot does not resume: %v", err)
	}
	rs.Close()
	f.Add(good)
	for _, n := range []int{0, 4, 5, len(good) / 4, len(good) / 2, len(good) - 1} {
		f.Add(good[:n])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				buf := make([]byte, 1<<20)
				panic(fmt.Sprintf("Resume or Snapshot hangs on %x\n%s", in, buf[:runtime.Stack(buf, true)]))
			}
		}()
		sp := spec
		sp.Transport, _ = comm.ParseTransport("topk:0.05+ef") // fresh run-long state
		rs, err := core.Resume(bytes.NewReader(in), core.ResumeSpec{Spec: sp})
		if err != nil {
			return
		}
		defer rs.Close()
		var out bytes.Buffer
		if err := rs.Snapshot(&out); err != nil {
			t.Fatalf("accepted snapshot does not re-snapshot: %v", err)
		}
		if !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("accepted snapshot re-serializes differently (%d vs %d bytes)", out.Len(), len(in))
		}
	})
}
