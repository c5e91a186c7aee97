package core

import (
	"fmt"

	"chanos/internal/sim/fifo"
)

// Dir says which way a choice case moves data.
type Dir int

const (
	// RecvDir receives from the channel.
	RecvDir Dir = iota
	// SendDir sends to the channel.
	SendDir
)

// waiter is one parked operation on a channel: a blocked sender, a blocked
// receiver, a registered choice case, or an injected (threadless) value
// from a device or the runtime itself.
//
// Waiters are pooled on the same contract as sim.Timer: a channel queue
// holds a wref, the waiter plus its generation at registration, and
// freeWaiter advances the generation. An entry a thread left behind in
// some other channel's queue therefore reads as dead once its waiter is
// recycled, and can never match the waiter's next use.
type waiter struct {
	t       *Thread // nil for injected values
	val     Msg     // payload for send-side waiters
	from    int     // sender core for injected values
	choice  *choiceRec
	idx     int // case index within the choice; 0 for plain waits
	removed bool
	gen     uint64
}

// wref is a wait-queue entry: a waiter as of one generation.
type wref struct {
	w   *waiter
	gen uint64
}

func (r wref) dead() bool { return r.w.gen != r.gen || r.w.dead() }

// newWaiter takes a zeroed waiter from the pool.
func (rt *Runtime) newWaiter() *waiter {
	if n := len(rt.freeW); n > 0 {
		w := rt.freeW[n-1]
		rt.freeW = rt.freeW[:n-1]
		return w
	}
	return new(waiter)
}

// freeWaiter recycles w, invalidating every queue entry naming it.
func (rt *Runtime) freeWaiter(w *waiter) {
	*w = waiter{gen: w.gen + 1}
	rt.freeW = append(rt.freeW, w)
}

func (w *waiter) dead() bool {
	if w.removed {
		return true
	}
	if w.choice != nil && w.choice.done {
		return true
	}
	if w.t != nil && w.t.state == tDead {
		return true
	}
	return false
}

type bufEntry struct {
	val  Msg
	from int // core the value was sent from, for delivery transit cost
}

// Chan is a lightweight message channel: a first-class endpoint that can
// itself be sent through other channels ("plumb a connection by passing
// around a channel", §3). Capacity 0 gives blocking (rendezvous) send;
// capacity > 0 gives the paper's non-blocking send with queueing.
type Chan struct {
	rt       *Runtime
	id       int
	name     string
	capacity int

	buf      fifo.Queue[bufEntry]
	inflight int // sends charged but not yet arrived at the channel
	sendq    fifo.Queue[wref]
	recvq    fifo.Queue[wref]
	closed   bool

	// Stats.
	Sends, Recvs uint64
}

// NewChan creates a channel. Capacity 0 means rendezvous semantics.
func (rt *Runtime) NewChan(name string, capacity int) *Chan {
	if capacity < 0 {
		panic("core: negative channel capacity")
	}
	c := &Chan{rt: rt, id: rt.nextCh, name: name, capacity: capacity}
	rt.nextCh++
	return c
}

// NewChan allocates a fresh channel from thread context, charging a small
// allocation cost. Per-call reply channels (the RPC idiom of §3) use this.
func (t *Thread) NewChan(name string, capacity int) *Chan {
	t.Compute(16)
	return t.rt.NewChan(name, capacity)
}

// Name returns the channel's name.
func (c *Chan) Name() string { return c.name }

// Cap returns the channel's capacity.
func (c *Chan) Cap() int { return c.capacity }

// Closed reports whether the channel has been closed.
func (c *Chan) Closed() bool { return c.closed }

// Len returns the number of values queued (arrived) in the buffer.
func (c *Chan) Len() int { return c.buf.Len() }

// Send sends v, blocking until the channel can take it (rendezvous for
// capacity 0, space in the buffer otherwise). Sending on a closed channel
// is a thread fault (the thread dies abnormally; supervision can observe
// it).
func (c *Chan) Send(t *Thread, v Msg) {
	t.do(op{kind: opSend, ch: c, val: v})
}

// TrySend sends v only if it can complete without blocking; it reports
// whether the value was sent.
func (c *Chan) TrySend(t *Thread, v Msg) bool {
	return t.do(op{kind: opSend, ch: c, val: v, try: true}).ready
}

// Recv receives the next value. ok is false only when the channel is
// closed and drained.
func (c *Chan) Recv(t *Thread) (v Msg, ok bool) {
	r := t.do(op{kind: opRecv, ch: c})
	return r.val, r.ok
}

// TryRecv receives a value if one is immediately available. ready is
// false when the operation would have blocked.
func (c *Chan) TryRecv(t *Thread) (v Msg, ok bool, ready bool) {
	r := t.do(op{kind: opRecv, ch: c, try: true})
	return r.val, r.ok, r.ready
}

// Close closes the channel: blocked and future receivers see ok=false
// after the buffer drains; blocked and future senders fault.
func (c *Chan) Close(t *Thread) {
	t.do(op{kind: opClose, ch: c})
}

// push registers w at the tail of q.
func push(q *fifo.Queue[wref], w *waiter) { q.Push(wref{w: w, gen: w.gen}) }

// CloseAsync closes the channel from engine or harness context.
func (rt *Runtime) CloseAsync(c *Chan) {
	rt.Eng.At(rt.Eng.Now(), func() { rt.closeChan(c) })
}

func (rt *Runtime) closeChan(c *Chan) {
	if c.closed {
		return
	}
	c.closed = true
	now := rt.Eng.Now()
	// Blocked plain senders fault (cf. Go: send on closed channel
	// panics); injected values are dropped; registered choice senders
	// stay parked — send-readiness on a closed channel resolves to a
	// fault only if that case is actually picked.
	for _, r := range c.sendq.Items() {
		if r.dead() {
			continue
		}
		w := r.w
		if w.t != nil && w.choice == nil {
			w.removed = true
			w.t.kill(fmt.Errorf("%w: %s", ErrSendClosed, c.name))
		} else if w.t == nil {
			rt.freeWaiter(w)
		}
	}
	// Waiting receivers (beyond what the buffer satisfies) see closed.
	if c.buf.Len() == 0 {
		for _, r := range c.recvq.Items() {
			if r.dead() {
				continue
			}
			w := r.w
			w.removed = true
			if w.choice != nil {
				w.choice.done = true
			}
			w.t.arm(now, kWake).res = opResult{idx: w.idx, ok: false, ready: true}
		}
		c.recvq.Reset()
	}
}

// InjectSend delivers v to c from outside any thread: device interrupts,
// timer expiry and exit notices use this. fromCore attributes transit
// distance. Delivery is deferred one engine event so InjectSend is safe
// to call from thread context too.
func (rt *Runtime) InjectSend(c *Chan, v Msg, fromCore int) {
	rt.deliver(rt.Eng.Now(), c, v, fromCore, 0, false)
}

// delivery is a value on its way to a channel outside any thread's
// continuation: an InjectSend, or a buffered send's value landing in the
// channel's buffer after its InjectCycles hop. Deliveries are pooled and
// their engine callback is bound once, so the hop allocates nothing.
type delivery struct {
	rt    *Runtime
	c     *Chan
	v     Msg
	from  int
	bytes int  // landing: the sender's payload size
	land  bool // landing (else injection)
	fn    func()
}

// deliver schedules a delivery of v to c at `at`.
func (rt *Runtime) deliver(at uint64, c *Chan, v Msg, from, bytes int, land bool) {
	var d *delivery
	if n := len(rt.freeD); n > 0 {
		d = rt.freeD[n-1]
		rt.freeD = rt.freeD[:n-1]
	} else {
		d = &delivery{}
		d.fn = d.fire
	}
	d.rt, d.c, d.v, d.from, d.bytes, d.land = rt, c, v, from, bytes, land
	rt.Eng.At(at, d.fn)
}

func (d *delivery) fire() {
	rt, c, v, from, bytes, land := d.rt, d.c, d.v, d.from, d.bytes, d.land
	d.rt, d.c, d.v = nil, nil, nil
	rt.freeD = append(rt.freeD, d)
	if !land {
		rt.injectNow(c, v, from)
		return
	}
	c.inflight--
	c.buf.Push(bufEntry{val: v, from: from})
	if r := c.popRecv(); r != nil {
		e := c.buf.Pop()
		_, transit := rt.M.MsgCost(e.from, r.t.core, bytes)
		rt.deliverToReceiver(r, e.val, rt.Eng.Now()+transit)
	}
}

func (rt *Runtime) injectNow(c *Chan, v Msg, fromCore int) {
	if c.closed {
		return
	}
	now := rt.Eng.Now()
	if r := c.popRecv(); r != nil {
		_, transit := rt.M.MsgCost(fromCore, r.t.core, rt.msgBytes(v))
		rt.traceMsg(c, fromCore, r.t.core, now+transit)
		rt.deliverToReceiver(r, v, now+transit)
		return
	}
	if c.capacity > 0 && c.buf.Len()+c.inflight < c.capacity {
		c.buf.Push(bufEntry{val: v, from: fromCore})
		return
	}
	w := rt.newWaiter()
	w.val, w.from = v, fromCore
	push(&c.sendq, w)
}

// After returns a fresh channel that receives a single Tick message d
// cycles from now — the timeout building block for Choose.
func (rt *Runtime) After(d uint64) *Chan {
	c := rt.NewChan("timer", 1)
	rt.Eng.After(d, func() { rt.injectNow(c, Tick{}, 0) })
	return c
}

// Tick is the payload delivered by After timers.
type Tick struct{}

// popRecv removes and returns the next live receive waiter, or nil. The
// winner is marked consumed (its choice, if any, resolves).
func (c *Chan) popRecv() *waiter { return popLive(&c.recvq) }

// popSend removes and returns the next live send waiter, or nil.
func (c *Chan) popSend() *waiter { return popLive(&c.sendq) }

func popLive(q *fifo.Queue[wref]) *waiter {
	for q.Len() > 0 {
		if r := q.Pop(); !r.dead() {
			w := r.w
			w.removed = true
			if w.choice != nil {
				w.choice.done = true
			}
			return w
		}
	}
	return nil
}

func haveLive(q *fifo.Queue[wref]) bool {
	for _, r := range q.Items() {
		if !r.dead() {
			return true
		}
	}
	return false
}

// recvReady reports whether a receive would complete without blocking.
func (c *Chan) recvReady() bool {
	return c.buf.Len() > 0 || haveLive(&c.sendq) || c.closed
}

// sendReady reports whether a send would complete without blocking.
// Sends on closed channels are "ready" in the sense that they complete
// immediately — with a fault.
func (c *Chan) sendReady() bool {
	if c.closed {
		return true
	}
	if c.capacity > 0 {
		return c.buf.Len()+c.inflight < c.capacity
	}
	return haveLive(&c.recvq)
}

// traceMsg reports a delivery to the configured tracer, if any.
func (rt *Runtime) traceMsg(c *Chan, from, to int, at uint64) {
	if rt.Cfg.Tracer != nil {
		rt.Cfg.Tracer.Message(c.name, from, to, at)
	}
}

// deliverToReceiver completes a receive waiter with v at time `when`.
func (rt *Runtime) deliverToReceiver(r *waiter, v Msg, when uint64) {
	r.t.received++
	r.t.arm(when, kWake).res = opResult{val: v, ok: true, ready: true, idx: r.idx}
}

// opSend processes a send (or try-send) op for thread t.
func (rt *Runtime) opSend(t *Thread, o op) {
	c := o.ch
	now := rt.Eng.Now()

	if o.try && !c.sendReady() {
		_, end := rt.M.Core(t.core).Reserve(now, rt.Cfg.PollCost)
		t.arm(end, kResume)
		return
	}
	if c.closed {
		// Fault the sender. It currently owns its core; unwind it.
		rt.releaseCore(t)
		t.kill(fmt.Errorf("%w: %s", ErrSendClosed, c.name))
		return
	}

	v := o.val
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
	c.Sends++
	t.sent++
	rt.M.Core(t.core).MsgsSent++
	rt.M.Core(t.core).BytesSent += uint64(bytes)

	t.armSend(end, c, v, bytes, -1)
}

// armSend schedules the completion of t's send once its cost is paid.
func (t *Thread) armSend(end uint64, c *Chan, v Msg, bytes, idx int) {
	k := t.arm(end, kSend)
	k.ch, k.val, k.bytes, k.idx = c, v, bytes, idx
}

// finishSendIdx completes a send once the sender has paid its local cost.
// idx >= 0 marks a send executed as a choice case.
func (rt *Runtime) finishSendIdx(t *Thread, c *Chan, v Msg, bytes int, idx int) {
	if t.state == tDead {
		rt.releaseCore(t)
		return
	}
	now := rt.Eng.Now()
	doneRes := opResult{ready: true, ok: true, idx: max(idx, 0)}
	if r := c.popRecv(); r != nil {
		_, transit := rt.M.MsgCost(t.core, r.t.core, bytes)
		arrival := now + transit
		rt.traceMsg(c, t.core, r.t.core, arrival)
		rt.deliverToReceiver(r, v, arrival)
		if c.capacity == 0 {
			// Rendezvous: the sender resumes when the receiver has the
			// value.
			rt.stats.Rendezvous++
			t.state = tBlocked
			rt.releaseCore(t)
			t.arm(arrival, kWake).res = doneRes
		} else {
			rt.resumeInPlace(t, doneRes)
		}
		return
	}
	if c.capacity > 0 && c.buf.Len()+c.inflight < c.capacity {
		// Fire and forget: the value travels to the channel's buffer.
		c.inflight++
		rt.deliver(now+rt.M.P.InjectCycles, c, v, t.core, bytes, true)
		rt.resumeInPlace(t, doneRes)
		return
	}
	// Block: rendezvous with no receiver, or buffer full.
	w := rt.newWaiter()
	w.t, w.val, w.from = t, v, t.core
	if idx >= 0 {
		// A picked choice send that raced to non-ready: register as a
		// resolved-choice waiter so completion carries the index.
		w.idx = idx
		w.choice = t.newChoice()
	}
	push(&c.sendq, w)
	t.waits = append(t.waits, w)
	t.state = tBlocked
	rt.releaseCore(t)
}

// opRecv processes a receive (or try-receive) op for thread t.
func (rt *Runtime) opRecv(t *Thread, o op) {
	c := o.ch
	now := rt.Eng.Now()

	if o.try && !c.recvReady() {
		_, end := rt.M.Core(t.core).Reserve(now, rt.Cfg.PollCost)
		t.arm(end, kResume)
		return
	}

	_, end := rt.M.Core(t.core).Reserve(now, rt.M.P.MsgRecvCost)
	t.armRecv(end, c, -1)
}

// armRecv schedules the completion of t's receive once its cost is paid.
func (t *Thread) armRecv(end uint64, c *Chan, idx int) {
	k := t.arm(end, kRecv)
	k.ch, k.idx = c, idx
}

// finishRecvIdx completes a receive once the receiver has paid its local
// dequeue cost. idx >= 0 marks a receive executed as a choice case.
func (rt *Runtime) finishRecvIdx(t *Thread, c *Chan, idx int) {
	if t.state == tDead {
		rt.releaseCore(t)
		return
	}
	now := rt.Eng.Now()
	rt.stats.Recvs++
	c.Recvs++
	rt.M.Core(t.core).MsgsRecvd++
	ci := max(idx, 0) // the case index a choice receive resumes with

	if c.buf.Len() > 0 {
		e := c.buf.Pop()
		bytes := rt.msgBytes(e.val)
		_, transit := rt.M.MsgCost(e.from, t.core, bytes)
		// Freeing buffer space may unblock a parked sender.
		if s := c.popSend(); s != nil {
			rt.promoteSender(c, s, now)
		}
		t.received++
		t.state = tBlocked
		rt.releaseCore(t)
		rt.traceMsg(c, e.from, t.core, now+transit)
		t.arm(now+transit, kWake).res = opResult{val: e.val, ok: true, ready: true, idx: ci}
		return
	}
	if s := c.popSend(); s != nil {
		if s.t == nil {
			// Injected value.
			v := s.val
			bytes := rt.msgBytes(v)
			_, transit := rt.M.MsgCost(s.from, t.core, bytes)
			rt.freeWaiter(s)
			t.received++
			t.state = tBlocked
			rt.releaseCore(t)
			t.arm(now+transit, kWake).res = opResult{val: v, ok: true, ready: true, idx: ci}
			return
		}
		// Rendezvous with a blocked sender (or a choice send case).
		bytes := rt.msgBytes(s.val)
		_, transit := rt.M.MsgCost(s.t.core, t.core, bytes)
		arrival := now + transit
		rt.traceMsg(c, s.t.core, t.core, arrival)
		rt.stats.Rendezvous++
		v := s.val
		s.t.arm(arrival, kWake).res = opResult{ready: true, ok: true, idx: s.idx}
		t.received++
		t.state = tBlocked
		rt.releaseCore(t)
		t.arm(arrival, kWake).res = opResult{val: v, ok: true, ready: true, idx: ci}
		return
	}
	if c.closed {
		rt.resumeInPlace(t, opResult{ok: false, ready: true, idx: ci})
		return
	}
	// Block.
	w := rt.newWaiter()
	w.t = t
	if idx >= 0 {
		w.idx = idx
		w.choice = t.newChoice()
	}
	push(&c.recvq, w)
	t.waits = append(t.waits, w)
	t.state = tBlocked
	rt.releaseCore(t)
}

// promoteSender completes a previously blocked sender whose value can now
// enter the channel buffer.
func (rt *Runtime) promoteSender(c *Chan, s *waiter, now uint64) {
	if s.t == nil {
		c.buf.Push(bufEntry{val: s.val, from: s.from})
		rt.freeWaiter(s)
		return
	}
	c.buf.Push(bufEntry{val: s.val, from: s.t.core})
	s.t.arm(now, kWake).res = opResult{ready: true, ok: true, idx: s.idx}
}

// Call implements the paper's RPC idiom: "c <- (a, b, c1); r <- c1" — send
// the argument with a fresh reply channel, then receive the reply.
func (t *Thread) Call(svc *Chan, arg Msg) (Msg, bool) {
	reply := t.NewChan(svc.name+".reply", 1)
	svc.Send(t, Call{Arg: arg, Reply: reply})
	return reply.Recv(t)
}

// ReplyChan returns the reply channel t keeps for its synchronous calls
// into owner (a kernel, say), made with NewChan on first use. A caller
// with at most one call outstanding per owner needs only the one
// channel. The thread holds it, so it goes away with the thread.
func (t *Thread) ReplyChan(owner any, name string) *Chan {
	for _, r := range t.replies {
		if r.owner == owner {
			return r.ch
		}
	}
	ch := t.NewChan(name, 1)
	t.replies = append(t.replies, ownedReply{owner: owner, ch: ch})
	return ch
}

type ownedReply struct {
	owner any
	ch    *Chan
}

// Call is the standard request envelope used by Thread.Call and the
// kernel's service protocol.
type Call struct {
	Arg   Msg
	Reply *Chan
}
