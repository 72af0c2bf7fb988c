// Package parallel provides small data-parallel building blocks used by the
// tensor kernels and by the federated-learning server to train selected
// clients concurrently.
//
// The helpers are deliberately simple: a parallel for over an index range
// with static chunking, and a bounded worker pool. Both size themselves from
// GOMAXPROCS so the library scales with the machine without configuration.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultMinWork is the smallest index range worth splitting across
// goroutines; below it the scheduling overhead dominates. It is exported
// so hot paths can ask Serial whether ForChunked would run inline and, if
// so, call their chunk body directly without allocating a closure.
const DefaultMinWork = 256

const minParallelWork = DefaultMinWork

// Workers returns the degree of parallelism used by For and ForChunked.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) using up to Workers() goroutines.
// Iterations must be independent. Small ranges run inline on the caller's
// goroutine.
func For(n int, fn func(i int)) {
	ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForChunked splits [0, n) into contiguous chunks and runs fn(lo, hi) for
// each chunk, using up to Workers() goroutines. Chunked form lets kernels
// amortise per-iteration overhead (index math, bounds hoisting).
func ForChunked(n int, fn func(lo, hi int)) {
	ForChunkedMin(n, minParallelWork, fn)
}

// Serial reports whether ForChunkedMin(n, minWork, ...) would run inline on
// the caller's goroutine. Hot paths use it to call their chunk body
// directly in the serial case, so the closure they would otherwise hand to
// ForChunked never escapes to the heap.
func Serial(n, minWork int) bool {
	return Workers() <= 1 || n < minWork
}

// ForChunkedMin is ForChunked with an explicit parallelism threshold:
// ranges smaller than minWork run inline. Kernels whose per-index work is
// much heavier than a scalar op (e.g. a GEMM row tile) pass a smaller
// threshold than the package default.
func ForChunkedMin(n, minWork int, fn func(lo, hi int)) {
	RunChunked(n, minWork, chunkFunc(fn))
}

// Chunker is a loop body over index ranges [lo, hi).
type Chunker interface {
	Chunk(lo, hi int)
}

type chunkFunc func(lo, hi int)

func (f chunkFunc) Chunk(lo, hi int) { f(lo, hi) }

// RunChunked is ForChunkedMin over a Chunker. A hot path passes a pooled
// pointer, where a closure handed to other goroutines would escape to the
// heap on every call, so RunChunked itself allocates no job or closure.
//
// The range splits into up to Workers() chunks, which the caller and any
// idle resident helpers claim one at a time. Chunks nobody else claims
// run on the caller, so a body may itself call RunChunked without
// deadlock. The caller then yields until its helpers are done instead of
// parking on a WaitGroup. Only the caller's wait avoids parking: each
// helper parks on its channel receive between jobs. A park takes a
// runtime wait record from a per-P cache, refilled from a central cache
// that every GC empties, so the first parks after a GC may allocate.
// Steady state between collections is allocation-free.
//
//fedtripvet:hotpath
func RunChunked(n, minWork int, body Chunker) {
	if n <= 0 {
		return
	}
	p := Workers()
	if p <= 1 || n < minWork {
		body.Chunk(0, n)
		return
	}
	if p > n {
		p = n
	}
	startHelpers(p - 1)
	j := jobs.Get()
	size := (n + p - 1) / p
	j.body, j.n, j.size, j.chunks = body, n, size, int64((n+size-1)/size)
	j.next.Store(0)
	for h := 1; h < p; h++ {
		j.helpers.Add(1)
		select {
		case idle <- j:
		default: // no idle helper: the caller runs the chunk
			j.helpers.Add(-1)
		}
	}
	j.run()
	for j.helpers.Load() > 0 {
		runtime.Gosched()
	}
	j.body = nil
	jobs.Put(j)
}

// chunkJob is one RunChunked call, shared with the helpers it woke.
type chunkJob struct {
	body    Chunker
	n, size int
	chunks  int64
	next    atomic.Int64 // next unclaimed chunk
	helpers atomic.Int32 // helpers still inside run
}

// run claims and runs chunks until none is left.
//
//fedtripvet:hotpath
func (j *chunkJob) run() {
	for c := j.next.Add(1) - 1; c < j.chunks; c = j.next.Add(1) - 1 {
		lo := int(c) * j.size
		j.body.Chunk(lo, min(lo+j.size, j.n))
	}
}

var (
	jobs FreeList[chunkJob]
	// idle is unbuffered: a send succeeds only when a helper is waiting.
	idle      = make(chan *chunkJob)
	helpersMu sync.Mutex
	nHelpers  atomic.Int32
)

// startHelpers makes sure at least n resident helper goroutines exist.
// Helpers live for the life of the process and cost nothing while idle.
func startHelpers(n int) {
	if int(nHelpers.Load()) >= n {
		return
	}
	helpersMu.Lock()
	for int(nHelpers.Load()) < n {
		nHelpers.Add(1)
		go helper()
	}
	helpersMu.Unlock()
}

func helper() {
	for j := range idle {
		j.run()
		j.helpers.Add(-1)
	}
}

// FreeList is a concurrency-safe stack of reusable objects for hot paths
// that must not allocate. Unlike sync.Pool it is shared by all Ps and kept
// across collections: with sync.Pool, an object parked in one P's private
// slot is invisible to a goroutine that migrated to another P, which then
// allocates. A FreeList holds at most as many objects as were ever
// checked out at once. The zero value is an empty list.
type FreeList[T any] struct {
	mu    sync.Mutex
	items []*T
}

// Get takes an object off the list, or returns a new zero T when it is
// empty.
//
//fedtripvet:hotpath
func (f *FreeList[T]) Get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.items)
	if n == 0 {
		return new(T)
	}
	x := f.items[n-1]
	f.items[n-1] = nil
	f.items = f.items[:n-1]
	return x
}

// Put returns x to the list.
//
//fedtripvet:hotpath
func (f *FreeList[T]) Put(x *T) {
	f.mu.Lock()
	f.items = append(f.items, x) //fedtripvet:allow grows only to the most objects ever checked out at once
	f.mu.Unlock()
}

// Do runs every task concurrently, bounded by Workers() goroutines, and
// waits for all of them. It is used by the FL server to run the selected
// clients' local training in parallel, mirroring the "clients train in
// parallel" step of each communication round.
func Do(tasks ...func()) {
	n := len(tasks)
	switch n {
	case 0:
		return
	case 1:
		tasks[0]()
		return
	}
	sem := make(chan struct{}, Workers())
	var wg sync.WaitGroup
	for _, t := range tasks {
		wg.Add(1)
		sem <- struct{}{}
		go func(t func()) {
			defer wg.Done()
			t()
			<-sem
		}(t)
	}
	wg.Wait()
}

// Map applies fn to every index in [0, n) and collects the results in
// order. It is a convenience wrapper over For for fan-out/fan-in patterns
// such as "evaluate every client's model".
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	For(n, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// Pool is a persistent bounded worker pool. Unlike Do, which spins up
// goroutines per call, a Pool keeps its workers alive across many Submit
// calls, and each submitted task learns which worker runs it. That worker
// index is the hook for sharded state: a caller can keep one expensive
// resource per worker (the FL core keeps one training engine — model,
// optimizer, batch buffers — per shard) and access it without locking,
// because a worker executes its tasks sequentially.
type Pool struct {
	tasks chan func(worker int)
	wg    sync.WaitGroup
	size  int
}

// NewPool starts a pool with the given number of workers (values < 1 are
// clamped to 1). Close must be called to release the workers.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		// A small queue decouples submitters from workers; Submit blocks
		// once it fills, which bounds in-flight memory.
		tasks: make(chan func(worker int), 2*workers),
		size:  workers,
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer p.wg.Done()
			for fn := range p.tasks {
				fn(w)
			}
		}(w)
	}
	return p
}

// Size returns the number of workers.
func (p *Pool) Size() int { return p.size }

// Submit enqueues one task. It blocks while the queue is full (bounded
// backpressure) and must not be called after Close. The worker index passed
// to fn is in [0, Size()).
func (p *Pool) Submit(fn func(worker int)) {
	p.tasks <- fn
}

// Close waits for every submitted task to finish and releases the workers.
// The pool cannot be reused afterwards.
func (p *Pool) Close() {
	close(p.tasks)
	p.wg.Wait()
}
