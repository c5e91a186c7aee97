package core

import (
	"fmt"

	"chanos/internal/sim"
)

// contKind names what a thread's pending engine continuation does when
// it fires.
type contKind uint8

const (
	kNone      contKind = iota
	kReady              // boot: queue the thread on its core
	kDispatch           // context switch paid: resume with res
	kCompute            // compute done: resume, or yield to a waiting run queue
	kSleep              // sleep over: wake with res
	kWake               // a channel operation completed: wake with res
	kResume             // resume in place with res
	kSpawn              // spawn paid: ready the child res.thread, resume the parent
	kSend               // send cost paid: complete the send of val on ch
	kRecv               // receive cost paid: complete the receive on ch
	kChoose             // choice setup paid: evaluate cases
	kClose              // close cost paid: close ch, resume
	kKill               // kill cost paid: kill peer, resume
	kUnpark             // unpark cost paid: wake or permit peer, resume
	kPoll               // ChoosePoll: charge one readiness poll
	kPollCheck          // ChoosePoll: poll paid, check readiness
	kRePoll             // ChoosePoll: readiness seen, reclaim the core
	kPollRetry          // ChoosePoll: core was busy, try to reclaim again
)

// cont is a thread's continuation slot: the one engine event a live
// thread may have outstanding, spelled out as data. Every runtime
// operation that must wait for simulated time — an op's cycle cost, a
// context switch, a message in transit — parks its state here and
// schedules t.kfn, a func value bound once at spawn, so arming a
// continuation allocates nothing.
//
// One slot suffices because a live thread is always in exactly one
// place: running its body, queued on a core, parked on channel wait
// queues, or waiting for one event. Each event handler consumes the
// slot before it acts, and every path that arms the slot does so from
// the thread's own op or from the single wake that ends a wait (a
// choice's waiters share one done flag, so only the first to resolve
// wakes it). arm asserts this: a second continuation is a runtime bug.
type cont struct {
	kind   contKind
	timer  sim.Timer
	res    opResult // kDispatch, kSleep, kWake, kResume, kSpawn
	ch     *Chan    // kSend, kRecv, kClose
	val    Msg      // kSend
	bytes  int      // kSend
	idx    int      // kSend, kRecv: choice case index, or -1
	peer   *Thread  // kKill, kUnpark
	cases  []Case   // kChoose and the poll kinds
	hasDef bool     // kChoose
}

// arm schedules t's continuation at `at` and returns the slot for the
// caller to fill. It panics if t already has one outstanding. The
// continuation runs on t's own runtime whoever arms it: a sender on one
// machine completing a receive on another wakes the receiver on the
// receiver's machine.
func (t *Thread) arm(at sim.Time, kind contKind) *cont {
	if t.k.kind != kNone {
		panic(fmt.Sprintf("core: thread %q armed a second continuation (kind %d, pending %d)", t.name, kind, t.k.kind))
	}
	t.k.kind = kind
	t.k.timer = t.rt.Eng.At(at, t.kfn)
	return &t.k
}

// cancelable reports whether killing the thread may simply cancel the
// continuation: true for the kinds that only ever resume the thread
// itself (compute, sleep, choice polls).
func (k *cont) cancelable() bool {
	switch k.kind {
	case kCompute, kSleep, kPoll, kPollCheck, kPollRetry:
		return true
	}
	return false
}

// dropCont retires a killed thread's continuation and frees its slot,
// so code the thread's deferred functions run while unwinding can post
// ops of its own. A cancelable continuation is canceled. Any other
// still fires on schedule, because its effects outlive the thread (a
// spawned child still starts, a close or kill still lands) and the
// event count must not change: it moves to t.orphans, where fire finds
// it and runs only those effects.
func (t *Thread) dropCont() {
	if t.k.kind == kNone {
		return
	}
	if t.k.cancelable() {
		t.rt.Eng.Cancel(t.k.timer)
	} else {
		t.orphans = append(t.orphans, t.k)
	}
	t.k = cont{}
}

// fire is t.kfn: the engine callback of every continuation t arms.
// The firing event is already released when fire runs, so its timer
// no longer reports pending: a slot whose timer still does belongs to
// a later continuation, and the event firing is an orphan.
func (t *Thread) fire() {
	if t.k.kind == kNone || t.k.timer.Pending() {
		t.fireOrphan()
		return
	}
	k := t.k
	t.k = cont{}
	t.rt.runCont(t, &k)
}

// fireOrphan runs the thread-independent effects of a continuation
// dropped by a kill. Resuming the thread is skipped: it was killed.
func (t *Thread) fireOrphan() {
	i := 0
	for t.orphans[i].timer.Pending() {
		i++
	}
	k := t.orphans[i]
	t.orphans = append(t.orphans[:i], t.orphans[i+1:]...)
	switch k.kind {
	case kSpawn:
		t.rt.makeReady(k.res.thread)
	case kClose:
		t.rt.closeChan(k.ch)
	case kKill:
		k.peer.kill(ErrKilled)
	case kUnpark:
		k.peer.unpark()
	}
}

// runCont executes a fired continuation for t.
func (rt *Runtime) runCont(t *Thread, k *cont) {
	switch k.kind {
	case kReady:
		rt.makeReady(t)
	case kDispatch:
		if t.state == tDead {
			rt.releaseCore(t)
			return
		}
		rt.resumeThread(t, k.res)
	case kCompute:
		// Preempt at the op boundary if others are waiting for this
		// core: without this, a compute loop starves its run queue.
		cs := rt.cores[t.core]
		if cs.cur == t && cs.runq.Len() > 0 {
			t.pending = opResult{}
			cs.cur = nil
			rt.makeReady(t)
			return
		}
		rt.resumeThread(t, opResult{})
	case kSleep, kWake:
		t.wakeWith(k.res)
	case kResume:
		rt.resumeInPlace(t, k.res)
	case kSpawn:
		rt.makeReady(k.res.thread)
		if t.state != tDead {
			rt.resumeThread(t, k.res)
		}
	case kSend:
		rt.finishSendIdx(t, k.ch, k.val, k.bytes, k.idx)
	case kRecv:
		rt.finishRecvIdx(t, k.ch, k.idx)
	case kChoose:
		rt.evalChoice(t, k.cases, k.hasDef)
	case kClose:
		rt.closeChan(k.ch)
		rt.resumeInPlace(t, opResult{})
	case kKill:
		k.peer.kill(ErrKilled)
		rt.resumeInPlace(t, opResult{})
	case kUnpark:
		k.peer.unpark()
		rt.resumeInPlace(t, opResult{})
	case kPoll:
		rt.poll(t, k.cases)
	case kPollCheck:
		rt.pollCheck(t, k.cases)
	case kRePoll:
		if t.state == tDead {
			return
		}
		rt.evalChoiceOnCore(t, k.cases)
	case kPollRetry:
		rt.evalChoiceOnCore(t, k.cases)
	default:
		panic(fmt.Sprintf("core: unknown continuation kind %d for %q", k.kind, t.name))
	}
}
