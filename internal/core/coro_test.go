package core

import (
	"errors"
	"runtime"
	"testing"
)

// Thread bodies are coroutines, each parked on a goroutine of its own
// while suspended. These tests pin that every way a thread ends — a
// kill before it ever ran, a panic, Shutdown — finishes the coroutine
// and gives its goroutine back.

// wantGoroutines fails t unless the process is back to want goroutines.
func wantGoroutines(t *testing.T, want int) {
	t.Helper()
	for i := 0; i < 100 && runtime.NumGoroutine() != want; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n != want {
		t.Fatalf("goroutines = %d, want %d", n, want)
	}
}

func TestKillBeforeFirstResumeFreesCoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	rt := newRT(t, 1, Config{})
	ran := false
	var victim *Thread
	rt.Boot("main", func(th *Thread) {
		// One core, still held by main: the child is queued, never run.
		victim = th.Spawn("victim", func(*Thread) { ran = true })
		th.Kill(victim)
		wantGoroutines(t, base+1) // main's own coroutine
	})
	rt.Run()
	if ran {
		t.Fatal("victim ran before the kill landed")
	}
	if !victim.Dead() || !errors.Is(victim.ExitReason(), ErrKilled) {
		t.Fatalf("victim dead=%v reason=%v", victim.Dead(), victim.ExitReason())
	}
	wantGoroutines(t, base)
}

func TestPanicFreesCoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	rt := newRT(t, 2, Config{})
	th := rt.Boot("panicky", func(th *Thread) {
		th.Compute(10)
		panic("boom")
	})
	rt.Run()
	var pe PanicError
	if !errors.As(th.ExitReason(), &pe) || pe.Value != "boom" {
		t.Fatalf("exit reason = %v", th.ExitReason())
	}
	if th.next != nil || th.yieldOp != nil {
		t.Fatal("finished thread still holds its coroutine")
	}
	wantGoroutines(t, base)
}

func TestShutdownFreesCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	rt := newRT(t, 4, Config{})
	ch := rt.NewChan("hang", 0)
	for i := 0; i < 10; i++ {
		rt.Boot("stuck", func(th *Thread) { ch.Recv(th) })
	}
	rt.Run()
	rt.Boot("unstarted", func(*Thread) { t.Error("unstarted thread ran") })
	wantGoroutines(t, base+11)
	rt.Shutdown()
	if rt.Alive() != 0 {
		t.Fatalf("alive after shutdown = %d", rt.Alive())
	}
	wantGoroutines(t, base)
}
