package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 255, 256, 1000, 4096} {
		seen := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForChunkedPartition(t *testing.T) {
	// Chunks must tile [0,n) exactly once, with lo < hi.
	for _, n := range []int{1, 2, 255, 256, 257, 1024, 100000} {
		var total int64
		ForChunked(n, func(lo, hi int) {
			if lo >= hi || lo < 0 || hi > n {
				t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
			}
			atomic.AddInt64(&total, int64(hi-lo))
		})
		if total != int64(n) {
			t.Fatalf("n=%d covered %d elements", n, total)
		}
	}
}

func TestForChunkedNegativeAndZero(t *testing.T) {
	called := false
	ForChunked(0, func(lo, hi int) { called = true })
	ForChunked(-5, func(lo, hi int) { called = true })
	if called {
		t.Fatal("fn must not be called for n<=0")
	}
}

func TestDoRunsAll(t *testing.T) {
	var count int64
	tasks := make([]func(), 50)
	for i := range tasks {
		tasks[i] = func() { atomic.AddInt64(&count, 1) }
	}
	Do(tasks...)
	if count != 50 {
		t.Fatalf("ran %d of 50 tasks", count)
	}
	Do() // no tasks: must not hang
	Do(func() { atomic.AddInt64(&count, 1) })
	if count != 51 {
		t.Fatalf("single-task Do did not run")
	}
}

func TestMapOrdered(t *testing.T) {
	out := Map(1000, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d]=%d", i, v)
		}
	}
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d", Workers())
	}
}

// Property: parallel sum equals sequential sum for arbitrary slices.
func TestForSumProperty(t *testing.T) {
	f := func(xs []int64) bool {
		var par, seq int64
		For(len(xs), func(i int) { atomic.AddInt64(&par, xs[i]) })
		for _, x := range xs {
			seq += x
		}
		return par == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestForChunkedMinCoversRange checks the custom-threshold variant visits
// every index exactly once, both below and above the threshold.
func TestForChunkedMinCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 300} {
		for _, minWork := range []int{1, 8, 1000} {
			var mu sync.Mutex
			seen := make([]int, n)
			ForChunkedMin(n, minWork, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
				}
				mu.Lock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				mu.Unlock()
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d minWork=%d: index %d visited %d times", n, minWork, i, c)
				}
			}
		}
	}
}

// TestSerialConsistentWithForChunkedMin pins the contract hot paths rely
// on: whenever Serial reports true, ForChunkedMin runs the body inline on
// the caller's goroutine as a single chunk.
func TestSerialConsistentWithForChunkedMin(t *testing.T) {
	for _, n := range []int{1, 10, 255, 256, 5000} {
		for _, minWork := range []int{1, 256, 10000} {
			if !Serial(n, minWork) {
				continue
			}
			calls := 0
			ForChunkedMin(n, minWork, func(lo, hi int) {
				calls++
				if lo != 0 || hi != n {
					t.Fatalf("Serial=true but chunk [%d,%d) != [0,%d)", lo, hi, n)
				}
			})
			if calls != 1 {
				t.Fatalf("Serial=true but %d chunks for n=%d", calls, n)
			}
		}
	}
}

// tally is a Chunker that counts visits per index.
type tally struct {
	seen  []atomic.Int32
	empty atomic.Int32 // chunks with lo >= hi
}

func (c *tally) Chunk(lo, hi int) {
	if lo >= hi {
		c.empty.Add(1)
	}
	for i := lo; i < hi; i++ {
		c.seen[i].Add(1)
	}
}

// nested is a Chunker whose every index runs a RunChunked of its own.
type nested struct{ inner []*tally }

func (c *nested) Chunk(lo, hi int) {
	for i := lo; i < hi; i++ {
		RunChunked(len(c.inner[i].seen), 1, c.inner[i])
	}
}

// TestRunChunkedNested checks that bodies which themselves run chunked
// loops finish, with every inner index visited exactly once, whether or
// not helpers are free to take their chunks.
func TestRunChunkedNested(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for rep := 0; rep < 50; rep++ {
		outer := &nested{inner: make([]*tally, 41)}
		for i := range outer.inner {
			outer.inner[i] = &tally{seen: make([]atomic.Int32, 1+i)}
		}
		RunChunked(len(outer.inner), 1, outer)
		for i, in := range outer.inner {
			if e := in.empty.Load(); e != 0 {
				t.Fatalf("rep %d: inner %d ran %d empty chunks", rep, i, e)
			}
			for j := range in.seen {
				if c := in.seen[j].Load(); c != 1 {
					t.Fatalf("rep %d: inner %d index %d visited %d times", rep, i, j, c)
				}
			}
		}
	}
}

// TestRunChunkedAllocFree pins the parallel path at zero allocations per
// call with several Ps: the body is a pointer, jobs are recycled, and the
// caller waits without parking.
func TestRunChunkedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	body := &tally{seen: make([]atomic.Int32, 4096)}
	run := func(calls int) {
		for i := 0; i < calls; i++ {
			RunChunked(len(body.seen), 1, body)
		}
	}
	// Warm up the runtime's per-P GC workers, the helpers and the OS
	// threads that run them.
	runtime.GC()
	run(2000)
	const calls = 1000
	for attempt := 1; ; attempt++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(calls)
		runtime.ReadMemStats(&after)
		// A collection inside the window empties the runtime's central
		// cache of wait records, so the helpers' next parks may
		// allocate; measure again rather than blame RunChunked.
		if after.NumGC != before.NumGC && attempt < 3 {
			continue
		}
		if n := after.Mallocs - before.Mallocs; n > 0 {
			t.Fatalf("RunChunked allocates %v objects per call", float64(n)/calls)
		}
		break
	}
}
