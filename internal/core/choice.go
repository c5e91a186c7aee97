package core

// Case is one alternative in a Choose: receive from or send to a channel.
// This is the paper's `choose { option r <- c: ... }` construct; in
// "environments with blocking send, choice typically allows options that
// send as well as options that receive" (§3), and ours does.
type Case struct {
	Ch  *Chan
	Dir Dir
	Val Msg // payload for SendDir cases
}

// choiceRec marks a pending multi-channel wait. When any registered case
// fires, done flips and every other registration becomes dead.
type choiceRec struct {
	done bool
}

// Choose blocks until one of the cases can proceed, executes it, and
// returns its index. For receive cases v/ok carry the received value; for
// send cases the value has been sent when Choose returns.
func (t *Thread) Choose(cases ...Case) (idx int, v Msg, ok bool) {
	if len(cases) == 0 {
		panic("core: Choose with no cases")
	}
	r := t.do(op{kind: opChoose, cases: cases})
	return r.idx, r.val, r.ok
}

// ChooseDefault is Choose with a default: if no case is immediately ready
// it returns idx == -1 without blocking.
func (t *Thread) ChooseDefault(cases ...Case) (idx int, v Msg, ok bool) {
	if len(cases) == 0 {
		panic("core: ChooseDefault with no cases")
	}
	r := t.do(op{kind: opChoose, cases: cases, hasDef: true})
	return r.idx, r.val, r.ok
}

// RecvTimeout receives from c with a timeout of d cycles. timedOut is true
// if the timer fired first.
func (t *Thread) RecvTimeout(c *Chan, d uint64) (v Msg, ok bool, timedOut bool) {
	timer := t.rt.After(d)
	idx, v, ok := t.Choose(Case{Ch: c, Dir: RecvDir}, Case{Ch: timer, Dir: RecvDir})
	if idx == 1 {
		return nil, false, true
	}
	return v, ok, false
}

// opChoose processes a choice op: charge setup cost, then evaluate.
func (rt *Runtime) opChoose(t *Thread, o op) {
	rt.stats.Chooses++
	setup := rt.Cfg.ChooseSetup + uint64(len(o.cases))*rt.Cfg.ChooseCase
	_, end := rt.M.Core(t.core).Reserve(rt.Eng.Now(), setup)
	k := t.arm(end, kChoose)
	k.cases, k.hasDef = o.cases, o.hasDef
}

// newChoice resets and returns t's choice record. A thread blocks in at
// most one choice at a time, and the waiters of its previous one were
// recycled when that wait ended.
func (t *Thread) newChoice() *choiceRec {
	t.choice.done = false
	return &t.choice
}

// evalChoice picks among ready cases or parks the thread per the
// configured implementation strategy.
func (rt *Runtime) evalChoice(t *Thread, cases []Case, hasDef bool) {
	if t.state == tDead {
		rt.releaseCore(t)
		return
	}
	ready := rt.ready[:0]
	for i, cs := range cases {
		if cs.Ch == nil {
			panic("core: Choose case with nil channel")
		}
		var ok bool
		if cs.Dir == RecvDir {
			ok = cs.Ch.recvReady()
		} else {
			ok = cs.Ch.sendReady()
		}
		if ok {
			ready = append(ready, i)
		}
	}
	rt.ready = ready
	if len(ready) > 0 {
		pick := ready[rt.rng.Intn(len(ready))]
		rt.execCase(t, cases[pick], pick)
		return
	}
	if hasDef {
		rt.resumeInPlace(t, opResult{idx: -1})
		return
	}
	switch rt.Cfg.Choose {
	case ChooseWaiters:
		rec := t.newChoice()
		for i, cs := range cases {
			w := rt.newWaiter()
			w.t, w.choice, w.idx = t, rec, i
			if cs.Dir == RecvDir {
				push(&cs.Ch.recvq, w)
			} else {
				w.val = cs.Val
				push(&cs.Ch.sendq, w)
			}
			t.waits = append(t.waits, w)
		}
		t.state = tBlocked
		rt.releaseCore(t)
	case ChoosePoll:
		// Busy-poll: re-check every PollInterval, charging poll cost on
		// the thread's core each round — the "wasted cycles" strategy.
		t.state = tBlocked
		rt.releaseCore(t)
		t.arm(rt.Eng.Now()+rt.Cfg.PollInterval, kPoll).cases = cases
	default:
		panic("core: unknown choose implementation")
	}
}

// poll charges one readiness poll of a ChoosePoll wait.
func (rt *Runtime) poll(t *Thread, cases []Case) {
	if t.state == tDead {
		return
	}
	rt.stats.ChoosePolls++
	cost := rt.Cfg.PollCost * uint64(len(cases))
	_, end := rt.M.Core(t.core).Reserve(rt.Eng.Now(), cost)
	t.arm(end, kPollCheck).cases = cases
}

// pollCheck looks for a ready case once a poll is paid, and either
// re-runs the choice or schedules the next poll.
func (rt *Runtime) pollCheck(t *Thread, cases []Case) {
	if t.state == tDead {
		return
	}
	for _, cs := range cases {
		if cs.Dir == RecvDir && cs.Ch.recvReady() ||
			cs.Dir == SendDir && cs.Ch.sendReady() {
			// Reclaim the core, then re-evaluate as if freshly charged.
			// The thread must win its core back first; dispatch handles
			// queueing.
			t.pending = opResult{}
			t.state = tBlocked
			t.arm(rt.Eng.Now(), kRePoll).cases = cases
			return
		}
	}
	t.arm(rt.Eng.Now()+rt.Cfg.PollInterval, kPoll).cases = cases
}

// evalChoiceOnCore claims the thread's core and evaluates the choice
// again (poll path only).
func (rt *Runtime) evalChoiceOnCore(t *Thread, cases []Case) {
	cs := rt.cores[t.core]
	if cs.cur != nil && cs.cur != t {
		// Core busy: retry when it frees — rare; just poll again shortly.
		t.arm(rt.Eng.Now()+rt.Cfg.PollInterval, kPollRetry).cases = cases
		return
	}
	if cs.cur == nil {
		cs.cur = t
	}
	t.state = tRunning
	rt.evalChoice(t, cases, false)
}

// execCase runs the chosen ready case for t, which owns its core.
func (rt *Runtime) execCase(t *Thread, cs Case, idx int) {
	now := rt.Eng.Now()
	if cs.Dir == RecvDir {
		_, end := rt.M.Core(t.core).Reserve(now, rt.M.P.MsgRecvCost)
		t.armRecv(end, cs.Ch, idx)
		return
	}
	// Send case.
	if cs.Ch.closed {
		rt.releaseCore(t)
		t.kill(ErrSendClosed)
		return
	}
	v := cs.Val
	bytes := rt.msgBytes(v)
	var copyCost uint64
	if rt.Cfg.Strict {
		v = deepCopy(v)
		copyCost = uint64(bytes) >> rt.Cfg.CopyShift
		rt.stats.BytesCopied += uint64(bytes)
	}
	senderCycles, _ := rt.M.MsgCost(t.core, t.core, bytes)
	_, end := rt.M.Core(t.core).Reserve(now, senderCycles+copyCost)
	rt.stats.Sends++
	rt.stats.BytesSent += uint64(bytes)
	cs.Ch.Sends++
	t.sent++
	t.armSend(end, cs.Ch, v, bytes, idx)
}
