package core

import (
	"testing"

	"chanos/internal/machine"
	"chanos/internal/sim"
)

// A message crossing machines wakes its receiver on the receiver's own
// runtime: the work after the receive lands on the receiving machine's
// core, and the sending machine is never charged for it.
func TestCrossRuntimeWakeRunsOnReceiverRuntime(t *testing.T) {
	for _, capacity := range []int{0, 1} {
		eng := sim.NewEngine()
		a := NewRuntime(machine.New(eng, machine.DefaultParams(2)), Config{})
		b := NewRuntime(machine.New(eng, machine.DefaultParams(2)), Config{})
		t.Cleanup(a.Shutdown)
		t.Cleanup(b.Shutdown)
		ch := b.NewChan("x", capacity)
		const work = 50_000
		var got Msg
		b.Boot("rx", func(th *Thread) {
			got, _ = ch.Recv(th)
			th.Compute(work)
		}, OnCore(1))
		a.Boot("tx", func(th *Thread) {
			th.Sleep(1000) // the receiver is blocked by now
			ch.Send(th, 7)
		}, OnCore(1))
		eng.Run()
		if got != 7 {
			t.Fatalf("capacity %d: received %v, want 7", capacity, got)
		}
		if busy := b.M.Core(1).BusyCycles; busy < work {
			t.Fatalf("capacity %d: receiver's machine core busy %d cycles, want >= %d", capacity, busy, work)
		}
		if busy := a.M.Core(1).BusyCycles; busy >= work {
			t.Fatalf("capacity %d: sender's machine core charged %d cycles of the receiver's work", capacity, busy)
		}
	}
}

// checkSlots asserts the continuation invariant after a run: no dead
// thread holds a continuation, and no orphan is left to fire.
func checkSlots(t *testing.T, ths ...*Thread) {
	t.Helper()
	for _, th := range ths {
		if th.Dead() && th.k.kind != kNone {
			t.Fatalf("dead thread %q still holds a continuation (kind %d)", th.name, th.k.kind)
		}
		if len(th.orphans) != 0 {
			t.Fatalf("thread %q has %d orphaned continuations left", th.name, len(th.orphans))
		}
	}
}

// A kill cancels a pending Compute and frees the slot, so the victim's
// deferred code can post a Compute of its own while it unwinds.
func TestKillMidComputeWithDeferredCompute(t *testing.T) {
	rt := newRT(t, 2, Config{})
	cleaned := false
	victim := rt.Boot("victim", func(th *Thread) {
		defer func() {
			th.Compute(500)
			cleaned = true
		}()
		th.Compute(1_000_000)
	}, OnCore(1))
	var killedAt sim.Time
	killer := rt.Boot("killer", func(th *Thread) {
		th.Sleep(1000)
		th.Kill(victim)
		killedAt = th.Now()
	}, OnCore(0))
	rt.Run()
	if !victim.Dead() || victim.ExitReason() != ErrKilled {
		t.Fatalf("victim dead=%v reason=%v, want killed", victim.Dead(), victim.ExitReason())
	}
	if !cleaned || killedAt >= 1_000_000 {
		t.Fatalf("cleaned=%v, killed at %d: want the deferred Compute run after a kill mid-Compute", cleaned, killedAt)
	}
	checkSlots(t, victim, killer)
}

// A kill while the victim is blocked in Recv recycles its waiter; the
// entry it leaves in the channel's queue must never match that
// waiter's next use. A kill while the victim pays its receive cost
// leaves the receive continuation to fire as an orphan, and the
// deferred code's own continuation must not collide with it.
func TestKillMidRecv(t *testing.T) {
	t.Run("blocked", func(t *testing.T) {
		rt := newRT(t, 4, Config{})
		ch := rt.NewChan("c", 0)
		victim := rt.Boot("victim", func(th *Thread) { ch.Recv(th) }, OnCore(1))
		var got Msg
		rx := rt.Boot("rx", func(th *Thread) {
			th.Sleep(2000) // after the kill: reuses the victim's pooled waiter
			got, _ = ch.Recv(th)
		}, OnCore(2))
		tx := rt.Boot("tx", func(th *Thread) {
			th.Sleep(1000)
			th.Kill(victim)
			th.Sleep(5000)
			ch.Send(th, 7)
		}, OnCore(0))
		rt.Run()
		if !victim.Dead() || got != 7 {
			t.Fatalf("victim dead=%v, second receiver got %v; want dead and 7", victim.Dead(), got)
		}
		checkSlots(t, victim, rx, tx)
	})
	t.Run("paying receive cost", func(t *testing.T) {
		p := machine.DefaultParams(2)
		p.MsgRecvCost = 5000 // a wide window to kill in
		rt := NewRuntime(machine.New(sim.NewEngine(), p), Config{})
		t.Cleanup(rt.Shutdown)
		ch := rt.NewChan("c", 1)
		cleaned := false
		var recvAt, killedAt sim.Time
		victim := rt.Boot("victim", func(th *Thread) {
			defer func() {
				th.Compute(100)
				cleaned = true
			}()
			th.Sleep(1000)
			recvAt = th.Now()
			ch.Recv(th) // pays its cost until recvAt+5000
		}, OnCore(1))
		killer := rt.Boot("killer", func(th *Thread) {
			ch.Send(th, 7)
			th.Sleep(3000)
			th.Kill(victim)
			killedAt = th.Now()
		}, OnCore(0))
		rt.Run()
		if killedAt <= recvAt || killedAt >= recvAt+5000 {
			t.Fatalf("kill landed at %d, outside the receive [%d, %d)", killedAt, recvAt, recvAt+5000)
		}
		if !victim.Dead() || !cleaned {
			t.Fatalf("victim dead=%v cleaned=%v, want both", victim.Dead(), cleaned)
		}
		if ch.Len() != 1 {
			t.Fatalf("channel holds %d values, want the undelivered 1", ch.Len())
		}
		checkSlots(t, victim, killer)
	})
}

// A Choose with two receive cases on one channel registers two waiters
// that share one choice; when the channel closes, exactly one of them
// wakes the thread, which can then block in a Choose again.
func TestChooseTwoCasesOnOneChannelThenClose(t *testing.T) {
	rt := newRT(t, 2, Config{})
	ch := rt.NewChan("c", 0)
	other := rt.NewChan("o", 0)
	var idx1, idx2 int
	var ok1 bool
	var v2 Msg
	th := rt.Boot("chooser", func(th *Thread) {
		idx1, _, ok1 = th.Choose(Case{Ch: ch, Dir: RecvDir}, Case{Ch: ch, Dir: RecvDir})
		idx2, v2, _ = th.Choose(Case{Ch: ch, Dir: RecvDir}, Case{Ch: other, Dir: RecvDir})
	}, OnCore(1))
	closer := rt.Boot("closer", func(th *Thread) {
		th.Sleep(1000)
		ch.Close(th)
		th.Sleep(1000)
		other.Send(th, 9)
	}, OnCore(0))
	rt.Run()
	if ok1 || idx1 != 0 {
		t.Fatalf("first choice: idx=%d ok=%v, want 0 and closed", idx1, ok1)
	}
	if idx2 != 0 {
		// The closed channel is ready at once: the second choice picks it.
		t.Fatalf("second choice: idx=%d v=%v, want the closed case 0", idx2, v2)
	}
	if !th.Dead() {
		t.Fatal("chooser did not finish")
	}
	checkSlots(t, th, closer)
}

// Shutdown kills threads in every state, and the events their kills
// leave behind fire without incident. Context switches and spawns are
// made slow so that each state lasts long enough to be caught.
func TestShutdownWithThreadsInEveryState(t *testing.T) {
	p := machine.DefaultParams(8)
	p.CtxSwitch, p.SpawnCost = 1_000_000, 1_000_000
	eng := sim.NewEngine()
	rt := NewRuntime(machine.New(eng, p), Config{})
	rx, tx := rt.NewChan("rx", 0), rt.NewChan("tx", 0)
	c1, c2 := rt.NewChan("c1", 0), rt.NewChan("c2", 0)
	forever := func(th *Thread) { th.Compute(1 << 40) }
	var ths []*Thread
	boot := func(name string, fn func(*Thread), core int) *Thread {
		th := rt.Boot(name, fn, OnCore(core))
		ths = append(ths, th)
		return th
	}
	running := boot("running", forever, 0)
	ready := boot("ready", forever, 0)
	sleeping := boot("sleeping", func(th *Thread) { th.Sleep(1 << 40) }, 1)
	recving := boot("recving", func(th *Thread) { rx.Recv(th) }, 2)
	choosing := boot("choosing", func(th *Thread) {
		th.Choose(Case{Ch: c1, Dir: RecvDir}, Case{Ch: c2, Dir: SendDir, Val: 1})
	}, 3)
	parked := boot("parked", func(th *Thread) { th.Park() }, 4)
	sending := boot("sending", func(th *Thread) { tx.Send(th, 1) }, 5)
	spawning := boot("spawning", func(th *Thread) { th.Spawn("child", forever) }, 6)
	rt.RunFor(1_300_000)
	switching := boot("switching", forever, 7)
	rt.RunFor(200_000)
	fresh := boot("fresh", forever, 7)

	want := map[*Thread]contKind{
		running: kCompute, sleeping: kSleep, spawning: kSpawn,
		switching: kDispatch, fresh: kReady,
	}
	for _, th := range ths {
		if k, ok := want[th]; ok && th.k.kind != k {
			t.Fatalf("%s: continuation kind %d, want %d", th.name, th.k.kind, k)
		}
	}
	if ready.state != tReady || recving.state != tBlocked || choosing.state != tBlocked ||
		!parked.parked || sending.state != tBlocked {
		t.Fatal("threads are not in the states the test sets up")
	}

	rt.Shutdown()
	if n := rt.Alive(); n != 0 {
		t.Fatalf("%d threads alive after Shutdown", n)
	}
	eng.Run() // the orphans fire: the spawned child starts
	rt.Shutdown()
	eng.Run()
	if n := rt.Alive(); n != 0 {
		t.Fatalf("%d threads alive after the second Shutdown", n)
	}
	if n := eng.Pending(); n != 0 {
		t.Fatalf("%d events pending after the runtime was shut down", n)
	}
	checkSlots(t, ths...)
}

// At steady state a runtime operation allocates nothing: continuations
// live in the thread's slot, queues reuse their arrays, waiters and
// buffered deliveries come from pools, and events from the engine's.
func TestRuntimeOpAllocs(t *testing.T) {
	var one Msg = 1 // boxed once, outside the measurement
	pair := func(capacity int) func(rt *Runtime) {
		return func(rt *Runtime) {
			ch := rt.NewChan("c", capacity)
			rt.Boot("rx", func(th *Thread) {
				for {
					ch.Recv(th)
				}
			}, OnCore(1))
			rt.Boot("tx", func(th *Thread) {
				for {
					ch.Send(th, one)
				}
			}, OnCore(0))
		}
	}
	for _, c := range []struct {
		name string
		boot func(rt *Runtime)
	}{
		{"rendezvous send/recv", pair(0)},
		{"buffered send/recv", pair(4)},
		{"compute", func(rt *Runtime) {
			rt.Boot("c", func(th *Thread) {
				for {
					th.Compute(10)
				}
			})
		}},
		{"sleep", func(rt *Runtime) {
			rt.Boot("s", func(th *Thread) {
				for {
					th.Sleep(10)
				}
			})
		}},
	} {
		rt := newRT(t, 2, Config{})
		c.boot(rt)
		steps := func() {
			for i := 0; i < 100; i++ {
				rt.Eng.Step()
			}
		}
		steps() // warm the pools and queues
		if allocs := testing.AllocsPerRun(50, steps); allocs != 0 {
			t.Errorf("%s: %.2f allocations per 100 events at steady state, want 0", c.name, allocs)
		}
	}
}
