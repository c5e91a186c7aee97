package core

import (
	"errors"
	"fmt"
	"sort"

	"chanos/internal/sim"
)

// Msg is a message payload. Messages "can typically be any language
// value" (§3) — including channels themselves.
type Msg = any

type tstate int

const (
	tReady tstate = iota
	tRunning
	tBlocked
	tDead
)

type opKind int

const (
	opCompute opKind = iota
	opSleep
	opYield
	opMigrate
	opSpawn
	opSend
	opRecv
	opChoose
	opClose
	opKill
	opPark
	opUnpark
	opExit
)

type op struct {
	kind   opKind
	cycles uint64
	core   int
	ch     *Chan
	val    Msg
	try    bool
	cases  []Case
	hasDef bool
	spawn  *spawnReq
	victim *Thread
	exit   error
}

type opResult struct {
	val    Msg
	ok     bool
	ready  bool
	idx    int
	thread *Thread
	poison error
}

type spawnReq struct {
	name string
	fn   func(*Thread)
	hint PlaceHint
}

// SpawnOpt adjusts thread placement at spawn time.
type SpawnOpt func(*spawnReq)

// OnCore pins the new thread to a specific core.
func OnCore(c int) SpawnOpt { return func(r *spawnReq) { r.hint.Core = c } }

// Near asks the scheduler to place the new thread close to t — the
// locality hint placement policies use (§5 "which groups of threads to
// place together").
func Near(t *Thread) SpawnOpt { return func(r *spawnReq) { r.hint.Near = t } }

// Sentinel exit reasons.
var (
	// ErrKilled marks a thread terminated by Kill or Shutdown.
	ErrKilled = errors.New("killed")
	// ErrLinkedExit marks a thread killed because a linked peer died.
	ErrLinkedExit = errors.New("linked thread exited abnormally")
	// ErrSendClosed is the fault raised by sending on a closed channel.
	ErrSendClosed = errors.New("send on closed channel")
)

type exitNormal struct{}

func (exitNormal) Error() string { return "normal exit" }

// PanicError wraps a recovered panic value as a thread exit reason.
type PanicError struct{ Value any }

func (e PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// ExitNotice is delivered to monitor channels (and to exit-trapping linked
// threads) when a thread dies. This is the paper's upward notification
// flow: thread death is just another message.
type ExitNotice struct {
	TID    int
	Name   string
	Reason error // nil for normal exit
	Abnorm bool  // true if the exit was a fault
}

// Thread is a lightweight thread: "in this model threads are also
// lightweight, so typically starting one is easy" (§3).
type Thread struct {
	rt   *Runtime
	id   int
	name string
	core int

	state   tstate
	next    func() (op, bool) // runs the body to its next op; nil once it returned
	yieldOp func(op) bool     // the body's side of next: post an op, suspend
	in      opResult          // result handed to the body by the current resume
	exitErr error             // exit reason finish recorded as the body unwound
	pending opResult
	k       cont      // the one pending engine continuation (see cont)
	kfn     func()    // t.fire, bound once: the callback of every continuation
	orphans []cont    // continuations a kill detached from the slot, still due to fire
	waits   []*waiter // live wait-queue registrations, for cancellation
	choice  choiceRec // shared by the waiters of t's current blocked Choose

	links     map[int]*Thread
	monitors  []*Chan
	trapExits *Chan

	parked bool // blocked in Park
	permit bool // Unpark arrived before Park

	replies []ownedReply // see ReplyChan

	segStart sim.Time // when this thread last gained its core (tracing)

	exitReason error
	migrations uint64
	sent       uint64
	received   uint64
}

// ID returns the thread id (unique within the runtime).
func (t *Thread) ID() int { return t.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Core returns the core the thread is currently placed on.
func (t *Thread) Core() int { return t.core }

// Now returns the current virtual time. Safe to call from thread code:
// the engine is quiescent while user code runs.
func (t *Thread) Now() sim.Time { return t.rt.Eng.Now() }

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// ExitReason reports why a dead thread exited (nil = normal). Valid once
// the thread is dead; monitors receive the same information as a message.
func (t *Thread) ExitReason() error {
	if _, ok := t.exitReason.(exitNormal); ok {
		return nil
	}
	return t.exitReason
}

// Dead reports whether the thread has exited.
func (t *Thread) Dead() bool { return t.state == tDead }

// do posts one operation to the engine and suspends the body until the
// engine resumes it with the result. A poison result unwinds the thread
// (kill, linked exit).
func (t *Thread) do(o op) opResult {
	t.yieldOp(o)
	r := t.in
	if r.poison != nil {
		panic(r.poison)
	}
	return r
}

// Compute charges n cycles of computation on the thread's current core.
func (t *Thread) Compute(n uint64) {
	if n == 0 {
		return
	}
	t.do(op{kind: opCompute, cycles: n})
}

// Sleep blocks the thread for d cycles without occupying its core.
func (t *Thread) Sleep(d uint64) { t.do(op{kind: opSleep, cycles: d}) }

// Yield releases the core to the next runnable thread.
func (t *Thread) Yield() { t.do(op{kind: opYield}) }

// Migrate moves the thread to another core (queueing behind its work).
func (t *Thread) Migrate(core int) {
	if core < 0 || core >= t.rt.NumCores() {
		panic(fmt.Sprintf("core: migrate to invalid core %d", core))
	}
	t.do(op{kind: opMigrate, core: core})
}

// Spawn starts fn as a new lightweight thread — the paper's
// `start { foo(); }`. The spawn cost is charged to the parent.
func (t *Thread) Spawn(name string, fn func(*Thread), opts ...SpawnOpt) *Thread {
	req := &spawnReq{name: name, fn: fn, hint: PlaceHint{Core: -1}}
	for _, o := range opts {
		o(req)
	}
	r := t.do(op{kind: opSpawn, spawn: req})
	return r.thread
}

// Exit terminates the thread immediately with a normal exit.
func (t *Thread) Exit() { panic(exitNormal{}) }

// Fail terminates the thread abnormally with the given reason; linked
// threads and monitors observe it.
func (t *Thread) Fail(reason error) { panic(reason) }

// finish runs in the body as it unwinds (normal return, Exit, Fail, Kill
// poison, or a genuine panic) and records the reason; the engine posts
// it as opExit once the body has returned.
func (t *Thread) finish(recovered any) {
	var reason error
	switch v := recovered.(type) {
	case nil:
		reason = exitNormal{}
	case exitNormal:
		reason = v
	case error:
		reason = v
	default:
		reason = PanicError{Value: v}
	}
	t.exitErr = reason
}

// run resumes t's body with res and returns the next op it posts: the
// op it yielded, or opExit once the body has returned.
func (t *Thread) run(res opResult) op {
	t.in = res
	o, ok := t.next()
	t.in = opResult{}
	if !ok {
		// Drop the finished coroutine: it still holds the last op it
		// yielded, payload included.
		t.next, t.yieldOp = nil, nil
		o = op{kind: opExit, exit: t.exitErr}
	}
	return o
}

// Link establishes a bidirectional link with other (Erlang semantics): if
// either dies abnormally, the other is killed — unless it traps exits, in
// which case it receives an ExitNotice message instead. Links are the
// primitive beneath supervision trees (§5 partial failure).
func (t *Thread) Link(other *Thread) {
	if other == nil || other.id == t.id {
		return
	}
	t.links[other.id] = other
	other.links[t.id] = t
}

// Unlink removes a link in both directions.
func (t *Thread) Unlink(other *Thread) {
	if other == nil {
		return
	}
	delete(t.links, other.id)
	delete(other.links, t.id)
}

// TrapExits redirects linked-exit kills into ExitNotice messages on ch.
func (t *Thread) TrapExits(ch *Chan) { t.trapExits = ch }

// Monitor registers notify to receive an ExitNotice when other dies.
// Unlike Link, monitoring is unidirectional and never kills the watcher.
func (t *Thread) Monitor(other *Thread, notify *Chan) {
	if other == nil {
		return
	}
	if other.state == tDead {
		// Already dead: deliver immediately, preserving the guarantee
		// that a monitor always fires exactly once.
		t.rt.notifyExit(other, notify)
		return
	}
	other.monitors = append(other.monitors, notify)
}

// Park blocks the thread until some other thread Unparks it. One permit
// is buffered: an Unpark delivered before Park makes the Park return
// immediately. Park/Unpark are the building blocks for the shared-memory
// baseline's queued locks.
func (t *Thread) Park() { t.do(op{kind: opPark}) }

// Unpark wakes other from Park (or banks a permit if it is not parked).
// Unparking a dead thread is a no-op.
func (t *Thread) Unpark(other *Thread) {
	if other == nil {
		return
	}
	t.do(op{kind: opUnpark, victim: other})
}

// Kill terminates another thread abnormally (reason ErrKilled).
func (t *Thread) Kill(victim *Thread) {
	if victim == nil {
		return
	}
	if victim.id == t.id {
		panic(ErrKilled)
	}
	t.do(op{kind: opKill, victim: victim})
}

// threadExit processes an exit op on the engine side.
func (rt *Runtime) threadExit(t *Thread, reason error) {
	if t.state == tDead {
		return
	}
	t.state = tDead
	t.exitReason = reason
	rt.cores[t.core].assigned--
	rt.stats.Exits++
	t.dropCont()
	t.cancelWaits()
	rt.releaseCore(t)

	_, abnormal := exitKind(reason)
	if rt.Cfg.Tracer != nil {
		rt.Cfg.Tracer.Exit(t.id, t.name, rt.Eng.Now(), abnormal)
	}
	for _, ch := range t.monitors {
		rt.notifyExit(t, ch)
	}
	t.monitors = nil
	// Iterate links in id order: map order would make kill cascades (and
	// therefore the whole simulation) nondeterministic.
	ids := make([]int, 0, len(t.links))
	for id := range t.links {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		peer := t.links[id]
		delete(peer.links, t.id)
		if peer.state == tDead {
			continue
		}
		if abnormal {
			if peer.trapExits != nil {
				rt.InjectSend(peer.trapExits, rt.exitNotice(t), t.core)
			} else {
				peer.kill(ErrLinkedExit)
			}
		}
	}
	t.links = nil
	delete(rt.threads, t.id)
}

func exitKind(reason error) (normal, abnormal bool) {
	if reason == nil {
		return true, false
	}
	if _, ok := reason.(exitNormal); ok {
		return true, false
	}
	return false, true
}

func (rt *Runtime) exitNotice(t *Thread) ExitNotice {
	_, abnormal := exitKind(t.exitReason)
	n := ExitNotice{TID: t.id, Name: t.name, Abnorm: abnormal}
	if abnormal {
		n.Reason = t.exitReason
	}
	return n
}

func (rt *Runtime) notifyExit(t *Thread, ch *Chan) {
	rt.InjectSend(ch, rt.exitNotice(t), t.core)
}

// kill forcibly unwinds a thread from the engine side, on the thread's
// own runtime. The victim's body is resumed with a poison result, which
// panics through user code and posts opExit. The body's deferred
// functions run as it unwinds and may post operations of their own
// (see dropCont).
func (t *Thread) kill(reason error) {
	if t.state == tDead {
		return
	}
	rt := t.rt
	rt.stats.Kills++
	t.dropCont()
	t.cancelWaits()
	// Pull it off the core / run queue bookkeeping happens in threadExit;
	// here we just need the body to unwind. The thread may be Ready
	// (queued with a pending result) or Blocked (no queue position) or
	// Running-but-suspended (mid Compute), or not yet started. In every
	// case its body is suspended in do() or before its first line.
	t.state = tBlocked
	rt.handleOp(t, t.run(opResult{poison: reason}))
}

// cancelWaits removes the thread from every channel wait queue. The
// waiters go back to the pool; recycling advances their generation, so
// the entries they leave in channel queues read as dead.
func (t *Thread) cancelWaits() {
	for i, w := range t.waits {
		t.rt.freeWaiter(w)
		t.waits[i] = nil
	}
	t.waits = t.waits[:0]
}
