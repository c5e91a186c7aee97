// Package sim provides the deterministic discrete-event simulation engine
// that underpins the chanOS reproduction: a virtual clock measured in CPU
// cycles, a stable-ordered event heap, and a seedable random number
// generator. Everything above this package (machine model, channel runtime,
// kernel, experiments) schedules work through a single Engine, so a whole
// 1024-core run is reproducible from one seed.
//
// Scheduling returns a Timer, a value handle of (event, generation).
// Events are recycled through a free list the moment they fire or are
// canceled, and recycling advances the event's generation. A Timer is
// therefore live only while its generation matches: Timer.Pending
// turns false once the event has fired or been canceled, and Cancel on
// a stale Timer does nothing, even after its event has been reused for
// an unrelated callback. Holders need not clear their Timers.
package sim

import (
	"fmt"
	"sort"
)

// Time is virtual time in CPU cycles since boot.
type Time = uint64

// event is one scheduled callback. Events are ordered by (when, seq):
// two events at the same virtual time run in the order they were
// scheduled, which is what makes runs deterministic. Events are pooled:
// once fired or canceled an event goes back on the engine's free list
// and its generation advances, which invalidates every Timer naming it.
type event struct {
	when Time
	seq  uint64
	fn   func()
	gen  uint64 // bumped on release; a Timer is live while it matches
	idx  int    // heap index while queued
	// observer events fire normally but are invisible to the event
	// count: Fired() does not include them and StopAtFired does not halt
	// on them. They are for machinery that watches the machine (statd
	// sweeps, dump triggers) — with the count blind to them, "replay to
	// event N" lands on the same instant whether observation was armed
	// or not.
	observer bool
}

// before reports whether a runs ahead of b.
func (a *event) before(b *event) bool {
	return a.when < b.when || a.when == b.when && a.seq < b.seq
}

// Timer is a handle on one scheduled event, returned by At, After,
// ObserveAt and ObserveAfter. It is a value: copy it freely. The zero
// Timer names no event.
type Timer struct {
	ev  *event
	gen uint64
}

// Pending reports whether the timer's event is still queued: false once
// it has fired (including while its own callback runs) or been
// canceled, and for the zero Timer.
func (t Timer) Pending() bool { return t.ev != nil && t.ev.gen == t.gen }

// Engine is a discrete-event simulator. It is not safe for concurrent use;
// by design exactly one goroutine (the "engine goroutine") drives it.
type Engine struct {
	now    Time
	seq    uint64
	pq     []*event // 4-ary min-heap on (when, seq)
	free   []*event // released events, reused by At
	fired  uint64
	halted bool

	// stopAtFired, when non-zero, halts the run loop the moment `fired`
	// reaches it — BEFORE the next counted event pops, so the machine
	// rests exactly at the state after counted event N. stopReached
	// latches when the limit trips (it also suppresses RunUntil's final
	// clock-force, so Now() stays at the last counted event's time).
	stopAtFired uint64
	stopReached bool

	// triggers are callbacks armed on the counted-event axis (AtFired),
	// kept sorted by (n, seq) and drained after each counted event.
	triggers []firedTrigger
}

// firedTrigger is one AtFired arming: fn runs the moment Fired()
// reaches n, immediately after counted event n's own callback returns.
type firedTrigger struct {
	n   uint64
	seq uint64
	fn  func()
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of counted events executed so far. Observer
// events (ObserveAt/ObserveAfter) are excluded: the count is the
// replay coordinate a core dump records, and it must be identical with
// observation on or off.
func (e *Engine) Fired() uint64 { return e.fired }

// StopAtFired arms a halt just before counted event n+1: once Fired()
// reaches n, Step refuses to pop further events and Run/RunUntil
// return with the clock at counted event n's time. 0 disarms. This is
// the time-travel half of the dump contract — replaying a seed with
// StopAtFired(dump.EventCount) parks the machine in exactly the
// dumped state.
func (e *Engine) StopAtFired(n uint64) {
	e.stopAtFired = n
	e.stopReached = n > 0 && e.fired >= n
}

// StopReached reports whether an armed StopAtFired limit has tripped.
func (e *Engine) StopReached() bool { return e.stopReached }

// Pending returns the number of scheduled, uncanceled events.
func (e *Engine) Pending() int { return len(e.pq) }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently reorder causality, which is always a bug in callers.
func (e *Engine) At(t Time, fn func()) Timer { return e.schedule(t, fn, false) }

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) Timer { return e.schedule(e.now+d, fn, false) }

// ObserveAt schedules an observer event at absolute time t: it fires
// like any event but does not advance Fired() and cannot trip
// StopAtFired. Observer callbacks must not mutate simulated machine
// state — they exist so telemetry sweeps and dump triggers leave the
// replay coordinate system untouched.
func (e *Engine) ObserveAt(t Time, fn func()) Timer { return e.schedule(t, fn, true) }

// ObserveAfter schedules an observer event d cycles from now.
func (e *Engine) ObserveAfter(d Time, fn func()) Timer { return e.schedule(e.now+d, fn, true) }

func (e *Engine) schedule(t Time, fn func(), observer bool) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d in the past (now %d)", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event func")
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.when, ev.seq, ev.fn, ev.observer = t, e.seq, fn, observer
	e.seq++
	ev.idx = len(e.pq)
	e.pq = append(e.pq, ev)
	e.up(ev.idx)
	return Timer{ev: ev, gen: ev.gen}
}

// release retires a fired or canceled event to the free list. Bumping
// the generation first makes every outstanding Timer for it stale, so
// the event's next use cannot be canceled through an old handle.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.fn = nil
	e.free = append(e.free, ev)
}

// AtFired schedules fn on the counted-event axis instead of the clock:
// it runs once Fired() reaches n, immediately after counted event n's
// own callback returns and before the next event pops. This is the
// chaos harness's event-count trigger — because it keys off the same
// coordinate StopAtFired halts on, a fault armed at event N lands at
// the identical instant in an original run and in a dump replay,
// whatever the wall-clock of event N turns out to be. Arming a trigger
// at or before the current count panics, like scheduling in the past.
// Triggers with equal n run in arming order.
func (e *Engine) AtFired(n uint64, fn func()) {
	if fn == nil {
		panic("sim: nil AtFired func")
	}
	if n <= e.fired {
		panic(fmt.Sprintf("sim: AtFired trigger at event %d in the past (fired %d)", n, e.fired))
	}
	tr := firedTrigger{n: n, seq: e.seq, fn: fn}
	e.seq++
	i := sort.Search(len(e.triggers), func(i int) bool {
		t := e.triggers[i]
		return t.n > tr.n || (t.n == tr.n && t.seq > tr.seq)
	})
	e.triggers = append(e.triggers, firedTrigger{})
	copy(e.triggers[i+1:], e.triggers[i:])
	e.triggers[i] = tr
}

// Cancel removes a scheduled event. Canceling a fired, canceled or zero
// Timer is a harmless no-op, even if its event has since been reused.
func (e *Engine) Cancel(t Timer) {
	if !t.Pending() {
		return
	}
	e.remove(t.ev.idx)
	e.release(t.ev)
}

// Step runs the single earliest event. It returns false if no events
// remain or an armed StopAtFired limit has been reached.
func (e *Engine) Step() bool {
	if e.stopAtFired > 0 && e.fired >= e.stopAtFired {
		// The machine rests exactly after counted event N: nothing more
		// pops — not even pending observer events, which never mutate
		// machine state anyway.
		e.stopReached = true
		e.halted = true
		return false
	}
	if len(e.pq) == 0 {
		return false
	}
	ev := e.remove(0)
	e.now = ev.when
	fn, observer := ev.fn, ev.observer
	e.release(ev)
	if observer {
		fn()
		return true
	}
	e.fired++
	fn()
	// Drain fired-count triggers: each may arm more (at strictly higher
	// n), so re-check the head every iteration.
	for len(e.triggers) > 0 && e.triggers[0].n <= e.fired {
		tfn := e.triggers[0].fn
		e.triggers[0] = firedTrigger{}
		e.triggers = e.triggers[1:]
		tfn()
	}
	return true
}

// Run executes events until none remain or Halt is called.
func (e *Engine) Run() {
	e.halted = false
	for !e.halted && e.Step() {
	}
}

// RunUntil executes all events scheduled at or before t, then advances the
// clock to exactly t (even if the heap drained earlier or later events
// remain pending).
func (e *Engine) RunUntil(t Time) {
	e.halted = false
	for !e.halted && len(e.pq) > 0 && e.pq[0].when <= t {
		e.Step()
	}
	if e.now < t && !e.stopReached {
		// A tripped StopAtFired pins the clock to the last counted
		// event's time: replay must come to rest at the dumped instant,
		// not at the caller's slice boundary.
		e.now = t
	}
}

// Halt stops Run/RunUntil after the current event returns. Pending events
// stay queued, so the simulation can be resumed.
func (e *Engine) Halt() { e.halted = true }

// The queue is a 4-ary min-heap: half the depth of a binary heap, and a
// node's four children share a cache line or two of pointers. Each event
// keeps its index so Cancel removes it in O(log n). (when, seq) is unique
// per event, so the pop order — and with it every run — does not depend
// on the heap's shape.

// up sifts the event at i toward the root.
func (e *Engine) up(i int) {
	h := e.pq
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].idx = i
		i = p
	}
	h[i] = ev
	ev.idx = i
}

// down sifts the event at i toward the leaves and reports whether it
// moved.
func (e *Engine) down(i int) bool {
	h := e.pq
	n := len(h)
	ev := h[i]
	i0 := i
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(ev) {
			break
		}
		h[i] = h[m]
		h[i].idx = i
		i = m
	}
	h[i] = ev
	ev.idx = i
	return i != i0
}

// remove takes the event at heap index i out of the queue.
func (e *Engine) remove(i int) *event {
	n := len(e.pq) - 1
	ev := e.pq[i]
	last := e.pq[n]
	e.pq[n] = nil
	e.pq = e.pq[:n]
	if i < n {
		e.pq[i] = last
		last.idx = i
		if !e.down(i) {
			e.up(i)
		}
	}
	return ev
}
