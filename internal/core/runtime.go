// Package core implements the paper's primary contribution: a runtime for
// lightweight threads and lightweight message channels (Hoare CSP /
// pi-calculus style, as in Erlang, Newsqueak and Go) executing on the
// simulated many-core machine.
//
// Each thread body is a coroutine (iter.Pull) driven by the engine, so
// exactly one runs at a time and only when the engine asks: every runtime
// operation (Compute, Send, Recv, Choose, Spawn, ...) yields an op back
// to the engine, which charges virtual cycles from the machine cost model
// and later resumes the body with the op's result, in deterministic event
// order. A resume is a direct coroutine switch, not a trip through the Go
// scheduler, and nothing in this package is shared between goroutines.
// The result is a cooperatively-scheduled M:N runtime over simulated
// cores whose entire execution is reproducible from a seed.
//
// A message hop allocates nothing on the host at steady state. A live
// thread has at most one pending engine event, so its state lives in
// the thread's continuation slot and fires through a callback bound at
// spawn (see cont). Channel and run queues reuse their arrays, and
// blocked operations wait as pooled waiters whose generation check
// keeps a stale queue entry from matching a waiter's next use (see
// waiter). DESIGN.md §core has the details.
//
// The API mirrors the constructs of the paper's Section 3: channels are
// first-class values (and can themselves be sent through channels), send
// can be blocking (rendezvous) or non-blocking (buffered), `Choose`
// selects over send and receive options, and `Spawn` is the paper's
// `start { foo(); }`.
package core

import (
	"fmt"
	"iter"
	"sort"

	"chanos/internal/machine"
	"chanos/internal/sim"
	"chanos/internal/sim/fifo"
)

// ChooseImpl selects how blocked Choose operations wait; the paper (§5)
// flags "implementing choice effectively" as a challenge, and experiment
// E11 compares these strategies.
type ChooseImpl int

const (
	// ChooseWaiters registers a waiter on every channel in the choice;
	// the first channel to become ready resolves the choice directly.
	ChooseWaiters ChooseImpl = iota
	// ChoosePoll re-polls all channels every PollInterval cycles,
	// charging poll cost each round. Simpler hardware, wasted cycles.
	ChoosePoll
)

// Config holds runtime policy knobs.
type Config struct {
	// Strict enforces the shared-nothing discipline of Erlang: every
	// message payload is deep-copied and the copy cost is charged to the
	// sender ("This buys scalability at the cost of some memory
	// bandwidth overhead", §3).
	Strict bool

	// Choose implementation strategy and poll interval (ChoosePoll).
	Choose       ChooseImpl
	PollInterval uint64

	// Per-operation base costs (cycles). Zero values get defaults.
	ChooseSetup  uint64 // fixed cost to evaluate a choice
	ChooseCase   uint64 // additional cost per case
	PollCost     uint64 // cost of one readiness poll (Try*, ChoosePoll)
	CopyShift    uint   // copy cost: bytes >> CopyShift cycles
	DefaultBytes int    // assumed payload size when not measurable

	Seed uint64

	// Sched places threads on cores; nil means round-robin.
	Sched Scheduler

	// Tracer, when non-nil, receives run segments, message deliveries
	// and exits for timeline export.
	Tracer Tracer
}

func (c *Config) fill() {
	if c.PollInterval == 0 {
		c.PollInterval = 200
	}
	if c.ChooseSetup == 0 {
		c.ChooseSetup = 12
	}
	if c.ChooseCase == 0 {
		c.ChooseCase = 6
	}
	if c.PollCost == 0 {
		c.PollCost = 10
	}
	if c.CopyShift == 0 {
		c.CopyShift = 2 // ~4 bytes/cycle memcpy
	}
	if c.DefaultBytes == 0 {
		c.DefaultBytes = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Tracer observes runtime activity for timeline export (implemented by
// internal/trace). All methods are invoked from the engine goroutine.
type Tracer interface {
	// RunSegment reports that thread tid occupied coreID over [start, end).
	RunSegment(tid int, name string, coreID int, start, end sim.Time)
	// Message reports a delivery on channel ch landing at a core.
	Message(ch string, fromCore, toCore int, at sim.Time)
	// Exit reports a thread's death.
	Exit(tid int, name string, at sim.Time, abnormal bool)
}

// PlaceHint carries placement advice to the scheduler at spawn time.
type PlaceHint struct {
	Core int     // explicit core, or -1
	Near *Thread // prefer the core neighbourhood of this thread, or nil
}

// Scheduler decides thread placement and (optionally) work stealing.
// Implementations live in internal/sched; core only defines the contract.
type Scheduler interface {
	// Place returns the core for a newly spawned thread.
	Place(rt *Runtime, hint PlaceHint) int
	// Steal is consulted when a core goes idle with an empty run queue.
	// It may return a thread popped from another core's queue (use
	// rt.StealFrom), or nil to stay idle.
	Steal(rt *Runtime, idleCore int) *Thread
}

// roundRobin is the fallback scheduler.
type roundRobin struct{ next int }

func (s *roundRobin) Place(rt *Runtime, hint PlaceHint) int {
	if hint.Core >= 0 {
		return hint.Core
	}
	if hint.Near != nil {
		return hint.Near.core
	}
	c := s.next % rt.NumCores()
	s.next++
	return c
}

func (s *roundRobin) Steal(rt *Runtime, idleCore int) *Thread { return nil }

// Stats is a snapshot of runtime-wide counters.
type Stats struct {
	Spawns      uint64
	Exits       uint64
	Sends       uint64
	Recvs       uint64
	BytesSent   uint64
	BytesCopied uint64
	Switches    uint64
	Rendezvous  uint64
	Chooses     uint64
	ChoosePolls uint64
	Kills       uint64
}

// Runtime ties the machine, the engine and the thread/channel world
// together. Create one per simulated boot.
type Runtime struct {
	M   *machine.Machine
	Eng *sim.Engine
	Cfg Config

	rng    *sim.RNG
	sched  Scheduler
	cores  []*coreState
	nextID int
	nextCh int

	idle idleStack // cores that went idle with nothing stealable

	threads map[int]*Thread
	stats   Stats

	// Recycled host records (see waiter and delivery) and evalChoice's
	// scratch list of ready cases.
	freeW []*waiter
	freeD []*delivery
	ready []int
}

type coreState struct {
	id       int
	cur      *Thread // thread currently owning the core (running or mid-op)
	runq     fifo.Queue[*Thread]
	lastTID  int  // last thread that ran; used to charge context switches
	idle     bool // parked with empty queue, waiting for a kick (in Runtime.idle)
	assigned int  // live threads placed on this core

	below, above *coreState // neighbours in Runtime.idle while idle
}

// idleStack holds the idle cores kickIdleCore may wake, most recently
// idled on top. It is intrusive, and a core is in it exactly while its
// idle flag is set: push on going idle, remove on leaving idle. So it
// never holds more than one entry per core.
//
// This kicks the same cores in the same order as a plain stack that
// pushes on every idle transition and skips entries whose core is no
// longer idle when popped. An older entry of core X sits below X's
// newest one, so it is popped only after the newest was popped. Then
// X either was busy or was woken by that kick, and it could go idle
// again only by pushing a newer entry. The older entry is therefore
// always stale by the time it is popped, and dropping it early changes
// nothing but the memory it held.
type idleStack struct{ top *coreState }

func (s *idleStack) push(cs *coreState) {
	cs.idle = true
	cs.below, cs.above = s.top, nil
	if s.top != nil {
		s.top.above = cs
	}
	s.top = cs
}

// remove takes cs out of the stack if it is idle.
func (s *idleStack) remove(cs *coreState) {
	if !cs.idle {
		return
	}
	cs.idle = false
	if cs.above != nil {
		cs.above.below = cs.below
	} else {
		s.top = cs.below
	}
	if cs.below != nil {
		cs.below.above = cs.above
	}
	cs.below, cs.above = nil, nil
}

// pop removes and returns the most recently idled core, nil if none.
func (s *idleStack) pop() *coreState {
	cs := s.top
	if cs != nil {
		s.remove(cs)
	}
	return cs
}

// NewRuntime builds a runtime over machine m.
func NewRuntime(m *machine.Machine, cfg Config) *Runtime {
	cfg.fill()
	rt := &Runtime{
		M:       m,
		Eng:     m.Eng,
		Cfg:     cfg,
		rng:     sim.NewRNG(cfg.Seed),
		threads: make(map[int]*Thread),
	}
	rt.sched = cfg.Sched
	if rt.sched == nil {
		rt.sched = &roundRobin{}
	}
	rt.cores = make([]*coreState, m.NumCores())
	for i := range rt.cores {
		rt.cores[i] = &coreState{id: i, lastTID: -1}
	}
	// Every core starts idle and kickable (stack pops last-first, so low
	// cores are kicked first).
	for i := m.NumCores() - 1; i >= 0; i-- {
		rt.idle.push(rt.cores[i])
	}
	return rt
}

// NumCores returns the machine's core count.
func (rt *Runtime) NumCores() int { return rt.M.NumCores() }

// Stats returns a snapshot of runtime counters.
func (rt *Runtime) Stats() Stats { return rt.stats }

// CoreLoad returns the run-queue length of core i (plus one if a thread
// currently owns the core). Schedulers use it to find stealable backlogs.
func (rt *Runtime) CoreLoad(i int) int {
	cs := rt.cores[i]
	n := cs.runq.Len()
	if cs.cur != nil {
		n++
	}
	return n
}

// CoreAssigned returns how many live threads are placed on core i
// (running, ready or blocked). Placement policies balance on this, since
// blocked threads will wake on their core again.
func (rt *Runtime) CoreAssigned(i int) int { return rt.cores[i].assigned }

// StealFrom pops the newest runnable thread from victim's run queue and
// retargets it to thief. It returns nil if nothing is stealable.
func (rt *Runtime) StealFrom(victim, thief int) *Thread {
	cs := rt.cores[victim]
	for i := cs.runq.Len() - 1; i >= 0; i-- {
		t := cs.runq.Items()[i]
		cs.runq.Remove(i)
		if t.state != tReady {
			continue
		}
		cs.assigned--
		rt.cores[thief].assigned++
		t.core = thief
		t.migrations++
		return t
	}
	return nil
}

// Boot spawns a thread from outside the simulation (before or between
// runs). Inside a thread, use Thread.Spawn.
func (rt *Runtime) Boot(name string, fn func(*Thread), opts ...SpawnOpt) *Thread {
	req := spawnReq{name: name, fn: fn, hint: PlaceHint{Core: -1}}
	for _, o := range opts {
		o(&req)
	}
	t := rt.newThread(&req)
	t.arm(rt.Eng.Now(), kReady)
	return t
}

// Run drives the simulation until no events remain (all threads blocked
// or dead).
func (rt *Runtime) Run() { rt.Eng.Run() }

// RunFor drives the simulation for d more cycles of virtual time.
func (rt *Runtime) RunFor(d sim.Time) { rt.Eng.RunUntil(rt.Eng.Now() + d) }

// Blocked returns the names of threads that are neither dead nor runnable,
// sorted. After Run() drains the event queue, a non-empty result means
// those threads can never make progress (deadlock or intentional servers).
func (rt *Runtime) Blocked() []string {
	var out []string
	for _, t := range rt.threads {
		if t.state == tBlocked {
			out = append(out, t.name)
		}
	}
	sort.Strings(out)
	return out
}

// Alive returns the number of threads not yet dead.
func (rt *Runtime) Alive() int {
	n := 0
	for _, t := range rt.threads {
		if t.state != tDead {
			n++
		}
	}
	return n
}

// Shutdown kills every remaining thread so their coroutines finish. Call
// at the end of a simulation: a suspended body holds a goroutine.
func (rt *Runtime) Shutdown() {
	ids := make([]int, 0, len(rt.threads))
	for id := range rt.threads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if t, ok := rt.threads[id]; ok && t.state != tDead {
			t.kill(ErrKilled)
		}
	}
}

func (rt *Runtime) newThread(req *spawnReq) *Thread {
	t := &Thread{
		rt:    rt,
		id:    rt.nextID,
		name:  req.name,
		links: make(map[int]*Thread),
	}
	t.kfn = t.fire
	rt.nextID++
	t.core = rt.sched.Place(rt, req.hint)
	if t.core < 0 || t.core >= rt.NumCores() {
		panic(fmt.Sprintf("core: scheduler placed %q on invalid core %d", t.name, t.core))
	}
	rt.threads[t.id] = t
	rt.cores[t.core].assigned++
	rt.stats.Spawns++
	fn := req.fn
	// The body's coroutine needs no stop: every body runs to its end,
	// by return or by a kill's poison.
	t.next, _ = iter.Pull(func(yield func(op) bool) {
		t.yieldOp = yield
		defer func() { t.finish(recover()) }()
		if t.in.poison != nil {
			panic(t.in.poison) // killed before it ever ran
		}
		fn(t)
	})
	return t
}

// makeReady queues t on its core and kicks the dispatcher. If the core is
// already busy with a backlog, an idle core (if any) gets a chance to
// steal.
func (rt *Runtime) makeReady(t *Thread) {
	if t.state == tDead {
		return
	}
	t.state = tReady
	cs := rt.cores[t.core]
	cs.runq.Push(t)
	rt.dispatch(cs)
	if cs.cur != nil && cs.runq.Len() > 0 {
		rt.kickIdleCore()
	}
}

// kickIdleCore wakes one idle core so its scheduler can attempt a steal.
func (rt *Runtime) kickIdleCore() {
	if cs := rt.idle.pop(); cs != nil {
		rt.dispatch(cs)
	}
}

// dispatch gives the core to the next runnable thread, charging a context
// switch when the thread differs from the last one that ran there.
func (rt *Runtime) dispatch(cs *coreState) {
	if cs.cur != nil {
		return
	}
	var t *Thread
	for cs.runq.Len() > 0 {
		// Only a killed thread can sit in a run queue not ready: dead,
		// or still unwinding through deferred code on continuations
		// of its own.
		if t = cs.runq.Pop(); t.state == tReady {
			break
		}
		t = nil
	}
	if t == nil {
		if st := rt.sched.Steal(rt, cs.id); st != nil {
			t = st
		} else {
			if !cs.idle {
				rt.idle.push(cs)
			}
			return
		}
	}
	rt.idle.remove(cs)
	cs.cur = t
	t.segStart = rt.Eng.Now()
	t.state = tRunning
	var switchCost uint64
	if cs.lastTID != t.id {
		switchCost = rt.M.P.CtxSwitch
		rt.stats.Switches++
	}
	cs.lastTID = t.id
	_, end := rt.M.Core(cs.id).Reserve(rt.Eng.Now(), switchCost)
	res := t.pending
	t.pending = opResult{}
	if end == rt.Eng.Now() {
		rt.resumeThread(t, res)
		return
	}
	t.arm(end, kDispatch).res = res
}

// releaseCore detaches t from its core (if it owns it) and redistributes.
func (rt *Runtime) releaseCore(t *Thread) {
	cs := rt.cores[t.core]
	if cs.cur == t {
		if rt.Cfg.Tracer != nil {
			rt.Cfg.Tracer.RunSegment(t.id, t.name, cs.id, t.segStart, rt.Eng.Now())
		}
		cs.cur = nil
		rt.dispatch(cs)
	}
}

// resumeThread switches to t's body until its next operation, and
// processes it. This (with kill's unwind) is the only place user
// code runs.
func (rt *Runtime) resumeThread(t *Thread, res opResult) {
	if t.state == tDead {
		panic("core: resuming dead thread " + t.name)
	}
	t.state = tRunning
	rt.handleOp(t, t.run(res))
}

// handleOp executes one runtime operation on behalf of t at the current
// virtual time. t owns its core when handleOp is entered (except opExit
// reached via kill, handled in finish()).
func (rt *Runtime) handleOp(t *Thread, o op) {
	now := rt.Eng.Now()
	switch o.kind {
	case opCompute:
		_, end := rt.M.Core(t.core).Reserve(now, o.cycles)
		t.arm(end, kCompute)

	case opSleep:
		t.state = tBlocked
		rt.releaseCore(t)
		t.arm(now+o.cycles, kSleep)

	case opYield:
		t.pending = opResult{}
		rt.releaseCore(t)
		rt.makeReady(t)

	case opMigrate:
		cs := rt.cores[t.core]
		if cs.cur == t {
			cs.cur = nil
		}
		cs.assigned--
		rt.cores[o.core].assigned++
		t.core = o.core
		t.migrations++
		rt.dispatch(cs)
		t.pending = opResult{}
		rt.makeReady(t)

	case opSpawn:
		_, end := rt.M.Core(t.core).Reserve(now, rt.M.P.SpawnCost)
		child := rt.newThread(o.spawn)
		t.arm(end, kSpawn).res = opResult{thread: child}

	case opSend:
		rt.opSend(t, o)

	case opRecv:
		rt.opRecv(t, o)

	case opChoose:
		rt.opChoose(t, o)

	case opClose:
		_, end := rt.M.Core(t.core).Reserve(now, rt.Cfg.PollCost)
		t.arm(end, kClose).ch = o.ch

	case opKill:
		_, end := rt.M.Core(t.core).Reserve(now, 30)
		t.arm(end, kKill).peer = o.victim

	case opPark:
		if t.permit {
			t.permit = false
			rt.resumeInPlace(t, opResult{})
			return
		}
		t.parked = true
		t.state = tBlocked
		rt.releaseCore(t)

	case opUnpark:
		_, end := rt.M.Core(t.core).Reserve(now, rt.M.P.WakeCost)
		t.arm(end, kUnpark).peer = o.victim

	case opExit:
		rt.threadExit(t, o.exit)

	default:
		panic(fmt.Sprintf("core: unknown op kind %d from %q", o.kind, t.name))
	}
}

// wakeWith makes a blocked thread runnable with an op result to deliver.
// A thread waits on at most one operation, so any wake clears its wait
// registrations.
func (t *Thread) wakeWith(res opResult) {
	if t.state == tDead {
		return
	}
	t.cancelWaits()
	t.pending = res
	t.rt.makeReady(t)
}

// unpark wakes t from Park, or banks a permit if it is not parked.
func (t *Thread) unpark() {
	if t.state == tDead {
		return
	}
	if t.parked {
		t.parked = false
		t.wakeWith(opResult{})
	} else {
		t.permit = true
	}
}

// resumeInPlace continues a thread that still owns its core at the current
// time (e.g. a send that completed without blocking).
func (rt *Runtime) resumeInPlace(t *Thread, res opResult) {
	if t.state == tDead {
		rt.releaseCore(t)
		return
	}
	rt.resumeThread(t, res)
}
