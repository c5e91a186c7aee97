package blockdev

import (
	"bytes"
	"testing"

	"chanos/internal/core"
	"chanos/internal/machine"
	"chanos/internal/sim"
)

func newRT(t *testing.T, cores int) *core.Runtime {
	t.Helper()
	eng := sim.NewEngine()
	m := machine.New(eng, machine.DefaultParams(cores))
	rt := core.NewRuntime(m, core.Config{Seed: 29})
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestDriverReadWriteRoundTrip(t *testing.T) {
	rt := newRT(t, 4)
	disk := NewDisk(rt, DefaultDiskParams(128))
	drv := NewDriver(rt, disk, 16, 1)
	var readBack []byte
	rt.Boot("app", func(th *core.Thread) {
		payload := bytes.Repeat([]byte{0xAB}, 4096)
		w := drv.SubmitSync(th, Write, 7, payload)
		if !w.OK {
			t.Errorf("write failed: %s", w.Err)
		}
		r := drv.SubmitSync(th, Read, 7, nil)
		if !r.OK {
			t.Errorf("read failed: %s", r.Err)
		}
		readBack = r.Data
		drv.Stop(th)
	})
	rt.Run()
	if len(readBack) != 4096 || readBack[0] != 0xAB || readBack[4095] != 0xAB {
		t.Fatal("read did not return written data")
	}
	if disk.Reads != 1 || disk.Writes != 1 {
		t.Fatalf("disk counters: %d reads %d writes", disk.Reads, disk.Writes)
	}
}

func TestUnwrittenBlockReadsZero(t *testing.T) {
	rt := newRT(t, 2)
	disk := NewDisk(rt, DefaultDiskParams(16))
	drv := NewDriver(rt, disk, 4, 0)
	var data []byte
	rt.Boot("app", func(th *core.Thread) {
		r := drv.SubmitSync(th, Read, 3, nil)
		data = r.Data
		drv.Stop(th)
	})
	rt.Run()
	for _, b := range data {
		if b != 0 {
			t.Fatal("unwritten block not zero")
		}
	}
}

// TestInjectWriteFailures: an injected failure must report an error,
// commit nothing to the media, and clear itself for the next write —
// and only committed writes count in the Writes stat (crash tests rely
// on that equality).
func TestInjectWriteFailures(t *testing.T) {
	rt := newRT(t, 4)
	disk := NewDisk(rt, DefaultDiskParams(32))
	drv := NewDriver(rt, disk, 8, 1)
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	var failed, readBack, retried Result
	rt.Boot("app", func(th *core.Thread) {
		disk.InjectWriteFailures(1)
		failed = drv.SubmitSync(th, Write, 3, payload)
		readBack = drv.SubmitSync(th, Read, 3, nil)
		retried = drv.SubmitSync(th, Write, 3, payload)
		drv.Stop(th)
	})
	rt.Run()
	if failed.OK || failed.Err == "" {
		t.Fatalf("injected failure not reported: %+v", failed)
	}
	if !readBack.OK || readBack.Data[0] != 0 {
		t.Fatal("failed write committed data")
	}
	if !retried.OK {
		t.Fatalf("write after injection window failed: %+v", retried)
	}
	if disk.Writes != 1 || disk.WriteFailures != 1 {
		t.Fatalf("stats: %d writes, %d failures", disk.Writes, disk.WriteFailures)
	}
}

// TestTrimDiscards: trimmed blocks read back as zeroes, like a fresh
// device — retiring a compacted log region must leave no stale bytes.
func TestTrimDiscards(t *testing.T) {
	rt := newRT(t, 2)
	disk := NewDisk(rt, DefaultDiskParams(16))
	drv := NewDriver(rt, disk, 4, 0)
	var before, after Result
	rt.Boot("app", func(th *core.Thread) {
		drv.SubmitSync(th, Write, 5, bytes.Repeat([]byte{0xEE}, 4096))
		before = drv.SubmitSync(th, Read, 5, nil)
		disk.Trim(4, 4)
		after = drv.SubmitSync(th, Read, 5, nil)
		drv.Stop(th)
	})
	rt.Run()
	if before.Data[0] != 0xEE {
		t.Fatal("write did not commit")
	}
	if after.Data[0] != 0 || disk.Trims != 1 {
		t.Fatalf("trim left data behind (first byte %x, %d trims)", after.Data[0], disk.Trims)
	}
}

func TestRegionMath(t *testing.T) {
	r := Region{Start: 9, Blocks: 16}
	if r.End() != 25 || !r.Contains(9) || !r.Contains(24) || r.Contains(8) || r.Contains(25) {
		t.Fatalf("region math wrong: %+v", r)
	}
}

func TestOutOfRangeBlockFails(t *testing.T) {
	rt := newRT(t, 2)
	disk := NewDisk(rt, DefaultDiskParams(16))
	drv := NewDriver(rt, disk, 4, 0)
	var res Result
	rt.Boot("app", func(th *core.Thread) {
		res = drv.SubmitSync(th, Read, 99, nil)
		drv.Stop(th)
	})
	rt.Run()
	if res.OK {
		t.Fatal("out-of-range read succeeded")
	}
}

func TestIOTakesSimulatedTime(t *testing.T) {
	rt := newRT(t, 2)
	p := DefaultDiskParams(16)
	disk := NewDisk(rt, p)
	drv := NewDriver(rt, disk, 4, 0)
	var elapsed sim.Time
	rt.Boot("app", func(th *core.Thread) {
		start := th.Now()
		drv.SubmitSync(th, Read, 0, nil)
		elapsed = th.Now() - start
		drv.Stop(th)
	})
	rt.Run()
	minCost := p.AccessCycles + uint64(p.BlockSize)*p.CyclesPerByt
	if elapsed < minCost {
		t.Fatalf("I/O took %d cycles, want >= %d", elapsed, minCost)
	}
}

func TestDeviceIsSerial(t *testing.T) {
	rt := newRT(t, 4)
	p := DefaultDiskParams(64)
	disk := NewDisk(rt, p)
	drv := NewDriver(rt, disk, 16, 0)
	var done []sim.Time
	finished := rt.NewChan("fin", 4)
	rt.Boot("app", func(th *core.Thread) {
		for i := 0; i < 3; i++ {
			i := i
			th.Spawn("io", func(th2 *core.Thread) {
				drv.SubmitSync(th2, Read, i, nil)
				finished.Send(th2, th2.Now())
			})
		}
		for i := 0; i < 3; i++ {
			v, _ := finished.Recv(th)
			done = append(done, v.(sim.Time))
		}
		drv.Stop(th)
	})
	rt.Run()
	perOp := p.AccessCycles + uint64(p.BlockSize)*p.CyclesPerByt
	// Three serial ops must take at least 3x the single-op media time.
	var maxT sim.Time
	for _, d := range done {
		if d > maxT {
			maxT = d
		}
	}
	if maxT < 3*perOp {
		t.Fatalf("3 serial ops finished at %d, want >= %d", maxT, 3*perOp)
	}
}

func TestSingleThreadDriverNoHazards(t *testing.T) {
	rt := newRT(t, 4)
	disk := NewDisk(rt, DefaultDiskParams(256))
	drv := NewDriver(rt, disk, 32, 0)
	runStorm(t, rt, func(th *core.Thread, blk int) Result {
		return drv.SubmitSync(th, Write, blk, nil)
	}, func(th *core.Thread) { drv.Stop(th) })
	if disk.Hazards != 0 {
		t.Fatalf("single-threaded driver produced %d hazards", disk.Hazards)
	}
}

func TestLockedDriverNoHazards(t *testing.T) {
	rt := newRT(t, 8)
	disk := NewDisk(rt, DefaultDiskParams(256))
	drv := NewLockedDriver(rt, disk, 32, 4, []int{0, 1, 2, 3}, true)
	runStorm(t, rt, func(th *core.Thread, blk int) Result {
		return drv.SubmitSync(th, Write, blk, nil)
	}, func(th *core.Thread) { drv.Stop(th) })
	if disk.Hazards != 0 {
		t.Fatalf("locked driver produced %d hazards", disk.Hazards)
	}
}

func TestLocklessDriverHasHazards(t *testing.T) {
	rt := newRT(t, 8)
	disk := NewDisk(rt, DefaultDiskParams(256))
	drv := NewLockedDriver(rt, disk, 32, 4, []int{0, 1, 2, 3}, false)
	runStorm(t, rt, func(th *core.Thread, blk int) Result {
		return drv.SubmitSync(th, Write, blk, nil)
	}, func(th *core.Thread) { drv.Stop(th) })
	if disk.Hazards == 0 {
		t.Fatal("lockless multithreaded driver produced no hazards — race model broken")
	}
}

// runStorm fires 32 concurrent writers at the driver and waits for all.
func runStorm(t *testing.T, rt *core.Runtime, do func(*core.Thread, int) Result, stop func(*core.Thread)) {
	t.Helper()
	finished := rt.NewChan("fin", 32)
	rt.Boot("storm", func(th *core.Thread) {
		for i := 0; i < 32; i++ {
			i := i
			th.Spawn("w", func(th2 *core.Thread) {
				do(th2, i%200)
				finished.Send(th2, 1)
			})
		}
		for i := 0; i < 32; i++ {
			finished.Recv(th)
		}
		stop(th)
	})
	rt.Run()
}

// TestWriteOwnsBufferUntilDone: Program does not copy a write's payload.
// The platter takes the bytes at completion, so a change made before
// done runs reaches the media; one made after done does not.
func TestWriteOwnsBufferUntilDone(t *testing.T) {
	rt := newRT(t, 2)
	disk := NewDisk(rt, DefaultDiskParams(8))
	buf := bytes.Repeat([]byte{0x11}, 4096)
	var res Result
	rt.Boot("app", func(th *core.Thread) {
		disk.Program(th, Request{Op: Write, Block: 3, Data: buf}, func(r Result) {
			res = r
			buf[1] = 0x33 // the buffer is the caller's again
		})
		buf[0] = 0x22 // still the write's: the device has not run yet
	})
	rt.Run()
	if !res.OK {
		t.Fatalf("write failed: %+v", res)
	}
	got := disk.SnapshotData()[3]
	if got[0] != 0x22 || got[1] != 0x11 || got[2] != 0x11 {
		t.Fatalf("platter = % x..., want 22 11 11: the write copied at Program or kept the buffer after done", got[:3])
	}
}

// TestReadFillsGivenBuffer: a Read whose buffer has room for a block
// returns it in that buffer; without one it allocates. Unwritten blocks
// come back zeroed either way, whatever the buffer held.
func TestReadFillsGivenBuffer(t *testing.T) {
	rt := newRT(t, 2)
	disk := NewDisk(rt, DefaultDiskParams(8))
	buf := bytes.Repeat([]byte{0xFF}, 4096)[:0]
	var written, unwritten, fresh Result
	rt.Boot("app", func(th *core.Thread) {
		irq := th.NewChan("irq", 1)
		do := func(req Request) Result {
			disk.Program(th, req, func(r Result) { rt.InjectSend(irq, r, th.Core()) })
			v, _ := irq.Recv(th)
			return v.(Result)
		}
		do(Request{Op: Write, Block: 2, Data: []byte{1, 2, 3}})
		written = do(Request{Op: Read, Block: 2, Data: buf})
		written.Data = bytes.Clone(written.Data)
		unwritten = do(Request{Op: Read, Block: 5, Data: buf})
		fresh = do(Request{Op: Read, Block: 2, Data: make([]byte, 0, 16)})
	})
	rt.Run()
	if len(written.Data) != 4096 || !bytes.Equal(written.Data[:4], []byte{1, 2, 3, 0}) {
		t.Fatalf("read of block 2 = % x...", written.Data[:4])
	}
	if len(unwritten.Data) != 4096 || &unwritten.Data[0] != &buf[:1][0] {
		t.Fatal("read did not fill the buffer it was given")
	}
	if !bytes.Equal(unwritten.Data, make([]byte, 4096)) {
		t.Fatal("unwritten block not zeroed in the given buffer")
	}
	if len(fresh.Data) != 4096 || fresh.Data[0] != 1 {
		t.Fatalf("read with a short buffer: %d bytes, first %x", len(fresh.Data), fresh.Data[0])
	}
}
