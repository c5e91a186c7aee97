package store

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"chanos/internal/core"
)

// TestMain runs every test of the package with freed block buffers
// poisoned: a buffer read after it went back to the free list yields
// wrong values, so an aliasing bug fails a test instead of passing by
// luck.
func TestMain(m *testing.M) {
	poisonFreed = true
	os.Exit(m.Run())
}

// TestLogPathRecyclesBlocks: once warm, a PUT → group commit → ack cycle
// plus a cache-miss GET moves block buffers between their owners (open
// block, disk write, disk read, cache, free list) and allocates none.
// What the cycle does allocate (messages, the GET's value) stays far
// below one block.
func TestLogPathRecyclesBlocks(t *testing.T) {
	p := Params{Shards: 1, CacheBlocks: 2, FlushCycles: 20_000, LogBlocks: 1024}
	w := newSW(4, p, 11, nil)
	defer w.rt.Shutdown()
	const keys, warm, measured = 1000, 200, 1000
	val := make([]byte, 64) // ~50 records a block, spread over ~20 blocks
	var names []string
	for i := 0; i < keys; i++ {
		names = append(names, fmt.Sprintf("k%03d", i))
	}
	cycle := func(th *core.Thread, i int) {
		if r := w.kv.Put(th, names[i%keys], val); !r.OK {
			t.Errorf("put %d: %+v", i, r)
		}
		if g := w.kv.Get(th, names[i*37%keys]); !g.Found || len(g.Val) != len(val) {
			t.Errorf("get %d: %+v", i, g)
		}
	}
	// The platter is the simulated medium, not a log-path buffer: it
	// grows by one block for each fresh log block written, so that
	// growth is left out of the count.
	platter := func() int { return len(w.kv.Disks()[0].SnapshotData()) }
	var bytesPerCycle float64
	var misses, seals uint64
	w.rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < keys; i++ {
			w.kv.Put(th, names[i], val)
		}
		for i := 0; i < warm; i++ {
			cycle(th, i)
		}
		c0, p0, s0 := w.kv.Counters(), platter(), w.kv.shards[0].openBlock
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := warm; i < warm+measured; i++ {
			cycle(th, i)
		}
		runtime.ReadMemStats(&after)
		grown := platter() - p0
		misses = w.kv.Counters().CacheMisses - c0.CacheMisses
		seals = uint64(w.kv.shards[0].openBlock - s0)
		bytesPerCycle = float64(after.TotalAlloc-before.TotalAlloc-uint64(grown*w.kv.P.Disk.BlockSize)) / measured
	})
	w.rt.Run()
	if misses < measured/2 || seals < 10 {
		t.Fatalf("the cycle missed the cache %d times in %d and sealed %d blocks: the path under test did not run", misses, measured, seals)
	}
	block := w.kv.P.Disk.BlockSize
	t.Logf("%.0f bytes allocated per cycle (%d cache misses, block %d bytes)", bytesPerCycle, misses, block)
	if bytesPerCycle >= float64(block/4) {
		t.Fatalf("%.0f bytes allocated per write+miss cycle, want < %d: a block buffer is being allocated instead of recycled", bytesPerCycle, block/4)
	}
}

// TestWorkloadKeyNames: the precomputed key names are exactly the
// formatted ones, and keys outside the table still format.
func TestWorkloadKeyNames(t *testing.T) {
	w := NewWorkload(1, 2, 1500, 50, 8)
	for i := -1; i <= 1501; i++ {
		if got, want := w.Key(i), fmt.Sprintf("key/%05d", i); got != want {
			t.Fatalf("Key(%d) = %q, want %q", i, got, want)
		}
	}
}
