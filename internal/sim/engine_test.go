package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
	if e.Fired() != 3 {
		t.Fatalf("fired = %d, want 3", e.Fired())
	}
}

func TestEngineStableTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered at %d: got %d", i, v)
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.After(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", fired)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.At(10, func() { ran = true })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel is a no-op
	e.Run()
	if ran {
		t.Fatal("canceled event ran")
	}
	if ev.Pending() {
		t.Fatal("canceled event still reports pending")
	}
}

func TestEngineCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []int
	var evs []Timer
	for i := 0; i < 10; i++ {
		i := i
		evs = append(evs, e.At(Time(i+1), func() { got = append(got, i) }))
	}
	e.Cancel(evs[3])
	e.Cancel(evs[7])
	e.Run()
	if len(got) != 8 {
		t.Fatalf("got %d events, want 8: %v", len(got), got)
	}
	for _, v := range got {
		if v == 3 || v == 7 {
			t.Fatalf("canceled event %d ran", v)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, tm := range []Time{5, 10, 15, 20} {
		tm := tm
		e.At(tm, func() { got = append(got, tm) })
	}
	e.RunUntil(12)
	if len(got) != 2 {
		t.Fatalf("RunUntil(12) fired %d events, want 2", len(got))
	}
	if e.Now() != 12 {
		t.Fatalf("clock = %d, want 12", e.Now())
	}
	e.RunUntil(100)
	if len(got) != 4 {
		t.Fatalf("resume fired %d events total, want 4", len(got))
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100", e.Now())
	}
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine()
	n := 0
	e.At(1, func() { n++; e.Halt() })
	e.At(2, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("halt did not stop the run: n = %d", n)
	}
	e.Run() // resume
	if n != 2 {
		t.Fatalf("resume after halt failed: n = %d", n)
	}
}

func TestEngineStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

// Property: with random event times, the engine fires events in
// non-decreasing time order and ends with the clock at the max time.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		var maxT Time
		for _, tt := range times {
			tm := Time(tt)
			if tm > maxT {
				maxT = tm
			}
			e.At(tm, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return e.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A Timer is live only until its event fires or is canceled: Pending
// turns false at either point (inside the event's own callback too, as
// the dumps' RTO-armed flag relies on), and a stale Timer must not
// cancel the unrelated event that later reuses its pooled slot.
func TestEngineStaleTimer(t *testing.T) {
	e := NewEngine()
	var fired Timer
	pendingInCallback := true
	fired = e.At(1, func() { pendingInCallback = fired.Pending() })
	e.Run()
	if pendingInCallback || fired.Pending() {
		t.Fatal("fired event still reports pending")
	}
	canceled := e.At(5, func() {})
	if !canceled.Pending() {
		t.Fatal("queued event does not report pending")
	}
	e.Cancel(canceled)
	if canceled.Pending() {
		t.Fatal("canceled event still reports pending")
	}

	ran := false
	fresh := e.At(10, func() { ran = true })
	if fresh.ev != canceled.ev {
		t.Fatal("released event was not reused")
	}
	e.Cancel(canceled) // stale: must not touch fresh
	e.Cancel(fired)
	if !fresh.Pending() {
		t.Fatal("stale Timer canceled the event that reused its slot")
	}
	e.Run()
	if !ran {
		t.Fatal("event reusing a stale Timer's slot did not run")
	}
	if (Timer{}).Pending() {
		t.Fatal("zero Timer reports pending")
	}
	e.Cancel(Timer{})
}

// Scheduling and firing an event allocates nothing but the caller's
// closure: events come from the free list.
func TestEngineEventAllocs(t *testing.T) {
	e := NewEngine()
	n := 0
	allocs := testing.AllocsPerRun(1000, func() {
		e.At(e.Now()+1, func() { n++ })
		e.Step()
	})
	if allocs > 1 {
		t.Fatalf("At+Step allocates %.1f times per event, want <= 1 (the closure)", allocs)
	}
	if n == 0 {
		t.Fatal("no event ran")
	}
}

// Random interleavings of schedule and cancel against the 4-ary heap:
// survivors fire exactly once, in (time, scheduling order).
func TestEngineHeapCancelProperty(t *testing.T) {
	f := func(times []uint8, cancel []bool) bool {
		e := NewEngine()
		type rec struct {
			at  Time
			ord int
		}
		var got []rec
		var timers []Timer
		live := 0
		for i, tt := range times {
			at, ord := Time(tt), i
			timers = append(timers, e.At(at, func() { got = append(got, rec{at, ord}) }))
			if i < len(cancel) && cancel[i] {
				e.Cancel(timers[i/2])
			}
		}
		for _, tm := range timers {
			if tm.Pending() {
				live++
			}
		}
		if e.Pending() != live {
			return false
		}
		e.Run()
		if len(got) != live {
			return false
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.at > b.at || a.at == b.at && a.ord > b.ord {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
