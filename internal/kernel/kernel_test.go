package kernel

import (
	"testing"

	"chanos/internal/core"
	"chanos/internal/machine"
	"chanos/internal/sim"
)

func newRT(t *testing.T, cores int) *core.Runtime {
	t.Helper()
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(cores))
	rt := core.NewRuntime(m, core.Config{Seed: 17})
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestKernelCoreCarving(t *testing.T) {
	rt := newRT(t, 16)
	k := New(rt, Config{KernelCoreFraction: 0.25})
	if got := len(k.KernelCores()); got != 4 {
		t.Fatalf("kernel cores = %d, want 4", got)
	}
	for _, c := range k.KernelCores() {
		if !k.IsKernelCore(c) {
			t.Fatalf("IsKernelCore(%d) false", c)
		}
	}
	if k.IsKernelCore(1) {
		t.Fatal("core 1 should not be a kernel core with stride 4")
	}
}

func TestKernelCoreMinimumOne(t *testing.T) {
	rt := newRT(t, 2)
	k := New(rt, Config{KernelCoreFraction: 0.1})
	if len(k.KernelCores()) != 1 {
		t.Fatalf("kernel cores = %d, want 1", len(k.KernelCores()))
	}
}

func TestSyscallRoundTrip(t *testing.T) {
	rt := newRT(t, 8)
	k := New(rt, Config{})
	k.Register("echo", 2, func(t *core.Thread, req Request) core.Msg {
		t.Compute(100)
		return req.Arg
	})
	var got core.Msg
	rt.Boot("app", func(th *core.Thread) {
		got = k.Call(th, "echo", 3, "ping", 1234)
		k.Stop(th)
	})
	rt.Run()
	if got != 1234 {
		t.Fatalf("syscall returned %v", got)
	}
	if k.Service("echo").Ops != 1 {
		t.Fatalf("ops = %d", k.Service("echo").Ops)
	}
}

func TestShardRouting(t *testing.T) {
	rt := newRT(t, 8)
	k := New(rt, Config{})
	// Handler returns which shard served the request, via thread name.
	k.Register("which", 4, func(t *core.Thread, req Request) core.Msg {
		return t.Name()
	})
	results := map[int]string{}
	rt.Boot("app", func(th *core.Thread) {
		for key := 0; key < 8; key++ {
			results[key] = k.Call(th, "which", key, "q", nil).(string)
		}
		k.Stop(th)
	})
	rt.Run()
	// Same key -> same shard; keys 4 apart share a shard.
	for key := 0; key < 4; key++ {
		if results[key] != results[key+4] {
			t.Fatalf("keys %d and %d landed on different shards", key, key+4)
		}
	}
	distinct := map[string]bool{}
	for _, s := range results {
		distinct[s] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("expected 4 shards, saw %d", len(distinct))
	}
}

func TestServiceThreadsRunOnKernelCores(t *testing.T) {
	rt := newRT(t, 16)
	k := New(rt, Config{KernelCoreFraction: 0.25})
	k.Register("svc", 0, func(t *core.Thread, req Request) core.Msg {
		if !k.IsKernelCore(t.Core()) {
			return false
		}
		return true
	})
	allOK := true
	rt.Boot("app", func(th *core.Thread) {
		for key := 0; key < 8; key++ {
			if k.Call(th, "svc", key, "q", nil) != true {
				allOK = false
			}
		}
		k.Stop(th)
	})
	rt.Run()
	if !allOK {
		t.Fatal("a service thread ran off the kernel cores")
	}
}

func TestCallAsyncOverlapsWork(t *testing.T) {
	rt := newRT(t, 8)
	k := New(rt, Config{})
	k.Register("slow", 1, func(t *core.Thread, req Request) core.Msg {
		t.Compute(100_000)
		return "done"
	})
	var issueTime, collectTime sim.Time
	rt.Boot("app", func(th *core.Thread) {
		reply := k.CallAsync(th, "slow", 0, "q", nil)
		issueTime = th.Now()
		th.Compute(100_000) // overlap with the service work
		v, _ := reply.Recv(th)
		collectTime = th.Now()
		if v != "done" {
			t.Error("bad async reply")
		}
		k.Stop(th)
	}, core.OnCore(2)) // off the kernel core so app and service overlap
	rt.Run()
	// The async call must return to the caller long before the service
	// completes; total time should approximate max(two 100k computations)
	// rather than their sum.
	if issueTime > 10_000 {
		t.Fatalf("async issue blocked until %d", issueTime)
	}
	if collectTime > 180_000 {
		t.Fatalf("no overlap: collected at %d", collectTime)
	}
}

func TestPostOneWay(t *testing.T) {
	rt := newRT(t, 4)
	k := New(rt, Config{})
	seen := 0
	k.Register("sink", 1, func(t *core.Thread, req Request) core.Msg {
		seen++
		return nil
	})
	rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < 5; i++ {
			k.Post(th, "sink", 0, "note", i)
		}
		th.Sleep(100_000) // let the posts drain
		k.Stop(th)
	})
	rt.Run()
	if seen != 5 {
		t.Fatalf("sink saw %d posts, want 5", seen)
	}
}

func TestUnknownServicePanics(t *testing.T) {
	rt := newRT(t, 4)
	k := New(rt, Config{})
	var exited *core.Thread
	rt.Boot("app", func(th *core.Thread) {
		exited = th
		k.Call(th, "nope", 0, "q", nil)
	})
	rt.Run()
	if exited.ExitReason() == nil {
		t.Fatal("call to unknown service should fault the thread")
	}
}

func TestDuplicateServicePanics(t *testing.T) {
	rt := newRT(t, 4)
	k := New(rt, Config{})
	k.Register("a", 1, func(t *core.Thread, r Request) core.Msg { return nil })
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	k.Register("a", 1, func(t *core.Thread, r Request) core.Msg { return nil })
}

// The syscall path must not involve trap costs: a null syscall should
// cost far less than the trap-based equivalent.
func TestNullSyscallCheaperThanTrap(t *testing.T) {
	rt := newRT(t, 4)
	k := New(rt, Config{})
	k.Register("null", 1, func(t *core.Thread, req Request) core.Msg { return nil })
	var elapsed sim.Time
	rt.Boot("app", func(th *core.Thread) {
		start := th.Now()
		for i := 0; i < 10; i++ {
			k.Call(th, "null", 0, "null", nil)
		}
		elapsed = th.Now() - start
		k.Stop(th)
	}, core.OnCore(1))
	rt.Run()
	perCall := elapsed / 10
	trapCost := rt.M.TrapCost()
	if perCall >= trapCost {
		t.Fatalf("message syscall %d cycles >= trap cost %d", perCall, trapCost)
	}
}

// Thread ids are per runtime, so a caller on another machine can share
// an id with a caller on this one. Their synchronous calls must still
// get separate reply channels, each caller its own answer.
func TestCallFromAnotherRuntimeKeepsItsOwnReply(t *testing.T) {
	eng := sim.NewEngine()
	local := core.NewRuntime(machine.New(eng, machine.DefaultParams(4)), core.Config{Seed: 17})
	remote := core.NewRuntime(machine.New(eng, machine.DefaultParams(4)), core.Config{Seed: 17})
	t.Cleanup(local.Shutdown)
	t.Cleanup(remote.Shutdown)
	k := New(local, Config{})
	// a's calls are slow and b's fast, so b's reply comes back while a
	// is still waiting for its own.
	k.Register("echo", 2, func(t *core.Thread, req Request) core.Msg {
		t.Sleep(uint64(5000 - 4000*req.Key))
		return req.Arg
	})
	remote.Boot("pad0", func(*core.Thread) {}) // align the callers' ids
	remote.Boot("pad1", func(*core.Thread) {})
	got := map[string]core.Msg{}
	call := func(name string, key int) func(*core.Thread) {
		return func(t *core.Thread) {
			for i := 0; i < 3; i++ {
				arg := name + string(rune('0'+i))
				if v := k.Call(t, "echo", key, "get", arg); v != arg {
					got[name] = v
					return
				}
			}
		}
	}
	a := local.Boot("a", call("a", 0))
	b := remote.Boot("b", call("b", 1))
	if a.ID() != b.ID() {
		t.Fatalf("callers have ids %d and %d; the test needs them equal", a.ID(), b.ID())
	}
	eng.Run()
	if len(got) != 0 {
		t.Fatalf("callers received other callers' replies: %v", got)
	}
}
