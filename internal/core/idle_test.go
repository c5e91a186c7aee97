package core

import (
	"testing"

	"chanos/internal/sim"
)

// TestIdleStackKicksLikeTheUnboundedStack replays random idle, busy and
// kick sequences against the stack the runtime used to keep (push on
// every idle transition, skip entries whose core is busy when popped)
// and checks that the deduplicated stack kicks the same cores in the
// same order while never holding more than one entry per core.
func TestIdleStackKicksLikeTheUnboundedStack(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		rng := sim.NewRNG(seed)
		n := 1 + int(rng.Uint64n(8))

		// The old model: a plain stack of core ids plus idle flags.
		var old []int
		oldIdle := make([]bool, n)
		oldKick := func() int {
			for len(old) > 0 {
				id := old[len(old)-1]
				old = old[:len(old)-1]
				if oldIdle[id] {
					oldIdle[id] = false
					return id
				}
			}
			return -1
		}

		var s idleStack
		cores := make([]*coreState, n)
		for i := range cores {
			cores[i] = &coreState{id: i}
		}
		// Both start with every core idle, core 0 on top.
		for i := n - 1; i >= 0; i-- {
			old = append(old, i)
			oldIdle[i] = true
			s.push(cores[i])
		}

		for step := 0; step < 2000; step++ {
			c := int(rng.Uint64n(uint64(n)))
			switch rng.Uint64n(3) {
			case 0: // core c finds nothing to run
				if !oldIdle[c] {
					oldIdle[c] = true
					old = append(old, c)
				}
				if !cores[c].idle {
					s.push(cores[c])
				}
			case 1: // core c gets a thread
				oldIdle[c] = false
				s.remove(cores[c])
			case 2:
				want, got := oldKick(), -1
				if cs := s.pop(); cs != nil {
					got = cs.id
				}
				if got != want {
					t.Fatalf("seed %d step %d: kicked core %d, the old stack kicks %d", seed, step, got, want)
				}
			}
			idle := 0
			for i, cs := range cores {
				if cs.idle != oldIdle[i] {
					t.Fatalf("seed %d step %d: core %d idle %v, old model %v", seed, step, i, cs.idle, oldIdle[i])
				}
				if cs.idle {
					idle++
				}
			}
			linked := 0
			for cs := s.top; cs != nil; cs = cs.below {
				linked++
			}
			if linked != idle || linked > n {
				t.Fatalf("seed %d step %d: %d entries for %d idle of %d cores", seed, step, linked, idle, n)
			}
		}
	}
}
