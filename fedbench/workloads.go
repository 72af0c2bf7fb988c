package main

import (
	"fmt"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/partition"
)

// The benchmark seed draws the federation: which samples each client
// holds. The synthetic corpus is fixed per workload, as a real dataset
// is, and so is each run's own randomness (model initialisation, client
// selection, batching, and the fleet's devices, links, churn and faults).
// Varying those too made the accuracy of these short runs swing so
// widely between seeds that rounds_to_target said more about the seed
// than about the program.
const dataSeed, runSeed = 1, 7

// shards is the real training parallelism of every workload; the driver
// also pins GOMAXPROCS to it so runs compare across machines with more
// cores.
const shards = 2

// workload is one benchmark scenario: how to build its inputs and how to
// configure the run over them. The three set-up phases
// (data, partition, build) are separate functions so the traced run can
// time each one.
type workload struct {
	name string
	// clients is the population size; rounds the trajectory length
	// (aggregations in the async runtime).
	clients, rounds int
	// snapAt lists the rounds after which the run is checkpointed into
	// memory, each checkpoint timed on its own.
	snapAt []int
	// cohort is the number of trajectories, on partitions drawn from the
	// benchmark seed, that the accuracy metrics are taken over.
	cohort int
	// target is the accuracy behind rounds_to_target and
	// wall_to_target_s; floor is the least final_accuracy a correct run
	// reaches on every seed.
	target, floor float64
	// gemm is the m, k, n of the matmul that carries the most FLOPs in
	// one training step of the workload's model.
	gemm      [3]int
	data      func(clients int) (train, test *data.Dataset, err error)
	partition func(train *data.Dataset, clients int, seed int64) ([][]int, error)
	// spec configures the run; it parses fresh stateful parts (the
	// transport's error-feedback residuals) on every call, so a resumed
	// run never shares state with the run it was snapshotted from.
	spec func(in inputs, w workload) (core.RunSpec, error)
}

// inputs is everything a run is built from.
type inputs struct {
	train, test *data.Dataset
	parts       [][]int
}

var workloads = []workload{paperCNN, fleet1M, wireRobust}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// shrunk is a small copy of w with the same layers switched on, for
// tests: fewer clients and rounds, and accuracy bars any run clears.
func (w workload) shrunk() workload {
	if w.name == fleet1M.name {
		w.clients = 2000
	}
	w.rounds, w.snapAt, w.cohort = 6, []int{3}, 2
	w.target, w.floor = 0.01, 0
	return w
}

// paperCNN is the paper's own regime: synchronous FedTrip on the
// half-width CNN over FMNIST-like data. Kernels, local training and the
// evaluator do nearly all the work; there is no transport and the event
// loop is idle, so kernel gains show here and nowhere else.
var paperCNN = workload{
	name:    "paper-cnn",
	clients: 10, rounds: 20, cohort: 4,
	// A checkpoint here mostly waits for the off-loop evaluator, whose lag
	// varies; three of them make a steady median, and each costs little.
	snapAt: []int{8, 10, 12},
	target: 0.6, floor: 0.15,
	// The second convolution, once per sample: 8 filters over 3x5x5
	// patches at 10x10 output positions.
	gemm: [3]int{8, 75, 100},
	data: func(clients int) (*data.Dataset, *data.Dataset, error) {
		return data.Generate(data.Spec{Kind: data.KindFMNIST, Train: clients * 200, Test: 500, Seed: dataSeed})
	},
	partition: func(train *data.Dataset, clients int, seed int64) ([][]int, error) {
		return partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, clients, 200, rand.New(rand.NewSource(seed)))
	},
	spec: func(in inputs, w workload) (core.RunSpec, error) {
		return core.RunSpec{Config: core.Config{
			Model: nn.ModelSpec{Arch: nn.ArchCNN, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.5},
			Train: in.train, Test: in.test, Parts: in.parts,
			Rounds: w.rounds, ClientsPerRound: 4,
			BatchSize: 50, LocalEpochs: 1, LR: 0.01, Momentum: 0.9,
			Algo: core.NewFedTrip(0.4), Seed: runSeed, Shards: shards,
			EvalEvery: 1, TargetAccuracy: w.target,
		}}, nil
	},
}

// fleet1M is the population-scale north star: buffered async FedTrip
// over a million clients that share a 2000-sample pool, with straggler
// latency and aggregate churn plus a mass drop. The registry, churn,
// event heap, dispatch, pooled copies, GC and the O(N) snapshot carry
// the load; the model is a tiny MLP, so GEMM is small.
var fleet1M = workload{
	name:    "fleet-1m",
	clients: 1_000_000, rounds: 120, snapAt: []int{60}, cohort: 5,
	target: 0.75, floor: 0.5,
	gemm: [3]int{4, 784, 10}, // batch 4 into the 10-unit hidden layer
	data: func(clients int) (*data.Dataset, *data.Dataset, error) {
		return data.Generate(data.Spec{Kind: data.KindMNIST, Train: 2000, Test: 500, Seed: dataSeed})
	},
	// Every client draws 4 samples from the shared pool: the dataset
	// stays O(pool) while the fleet is O(clients).
	partition: func(train *data.Dataset, clients int, seed int64) ([][]int, error) {
		const perClient = 4
		rng := rand.New(rand.NewSource(seed))
		parts := make([][]int, clients)
		flat := make([]int, clients*perClient)
		for i := range parts {
			p := flat[i*perClient : (i+1)*perClient : (i+1)*perClient]
			for k := range p {
				p[k] = rng.Intn(train.Len())
			}
			parts[i] = p
		}
		return parts, nil
	},
	spec: func(in inputs, w workload) (core.RunSpec, error) {
		churn, err := core.ParseChurn("markov:400,40+drop:10,0.1,10")
		if err != nil {
			return core.RunSpec{}, err
		}
		return core.RunSpec{
			Config: core.Config{
				Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.1},
				Train: in.train, Test: in.test, Parts: in.parts,
				Rounds: w.rounds, ClientsPerRound: 64,
				BatchSize: 4, LocalEpochs: 1, LR: 0.05, Momentum: 0.9,
				Algo: core.NewFedTrip(0.4), Seed: runSeed, Shards: shards,
				EvalEvery: 1, TargetAccuracy: w.target,
			},
			Runtime:     core.RuntimeAsync,
			Concurrency: 256,
			BufferSize:  64,
			Latency:     core.StragglerLatency{Fast: 1, Slow: 10, SlowEvery: 7},
			Churn:       churn,
		}, nil
	},
}

// wireRobust runs the same async and merge layers with O(|w|) work per
// update: a sparsifying error-feedback transport, a tiered fleet, churn,
// sign-flipping Byzantine clients and a trimmed-mean merge. It is the
// only workload with a transport or a robust policy.
var wireRobust = workload{
	name:    "wire-robust",
	clients: 200, rounds: 30, snapAt: []int{15}, cohort: 4,
	target: 0.3, floor: 0.15,
	gemm: [3]int{10, 784, 100}, // batch 10 into the 100-unit hidden layer
	data: func(clients int) (*data.Dataset, *data.Dataset, error) {
		return data.Generate(data.Spec{Kind: data.KindMNIST, Train: clients * 20, Test: 500, Seed: dataSeed})
	},
	partition: func(train *data.Dataset, clients int, seed int64) ([][]int, error) {
		return partition.Partition(partition.Dirichlet(0.5), train.Y, train.Classes, clients, 20, rand.New(rand.NewSource(seed)))
	},
	spec: func(in inputs, w workload) (core.RunSpec, error) {
		tr, err := comm.ParseTransport("topk:0.01+ef")
		if err != nil {
			return core.RunSpec{}, err
		}
		dev, err := core.ParseDeviceDist("tiered")
		if err != nil {
			return core.RunSpec{}, err
		}
		net, err := core.ParseNetDist("tiered")
		if err != nil {
			return core.RunSpec{}, err
		}
		churn, err := core.ParseChurn("markov:30,3")
		if err != nil {
			return core.RunSpec{}, err
		}
		faults, err := core.ParseFaults("byz:0.1,signflip")
		if err != nil {
			return core.RunSpec{}, err
		}
		policy, err := core.ParsePolicy("trimmedmean:0.1")
		if err != nil {
			return core.RunSpec{}, err
		}
		return core.RunSpec{
			Config: core.Config{
				Model: nn.ModelSpec{Arch: nn.ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10},
				Train: in.train, Test: in.test, Parts: in.parts,
				Rounds: w.rounds, ClientsPerRound: 16,
				BatchSize: 10, LocalEpochs: 1, LR: 0.1, Momentum: 0.9,
				Algo: core.NewFedTrip(0.4), Seed: runSeed, Shards: shards,
				EvalEvery: 1, TargetAccuracy: w.target,
				Transport: tr,
			},
			Runtime:     core.RuntimeAsync,
			Concurrency: 32,
			BufferSize:  16,
			Devices:     dev,
			Network:     net,
			Churn:       churn,
			Faults:      faults,
			Policy:      policy,
		}, nil
	},
}
