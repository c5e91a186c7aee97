package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"chanos/internal/core"
	"chanos/internal/sim"
)

// round is one boot, prefill and drive of a workload, timed from
// outside the world: host times around the builder's public calls and
// at its OnSlice callbacks, simulated results from its accessors.
type round struct {
	build, prefill, drive time.Duration
	allocs                uint64  // host heap allocations during the drive phase
	refBefore, refAfter   float64 // reference rates either side of the round (calibrate.go)
	attempted             uint64  // client requests attempted after prefill
	sim                   simResult
	failures              []string // correctness gate; empty when the round passed
}

// simResult is everything a round measures in simulated time or counts.
// It is deterministic from the seed, so rounds of one seed must agree
// exactly (compared with ==).
type simResult struct {
	drive      counts  // counter deltas over the drive phase
	seconds    float64 // simulated length of the drive phase
	latN       uint64  // client latency samples (0 on the cluster fleet)
	p50, p99   float64 // client latency, simulated µs
	p999       float64
	flushN     uint64
	flushP50   float64 // group-commit flush latency since boot, µs, worst machine
	flushP99   float64
	replMaxLag uint64 // worst primary→replica lag seen at any slice, sequences
}

// runRound boots w at seed and drives it through the builder's Run.
// The drive phase runs from the first OnSlice callback to the callback
// at which the fleet has answered the workload's request count. A nil
// tracer leaves the round untraced.
func runRound(w workload, seed uint64, idx int, tr *tracer) round {
	runtime.GC() // start every round from the same heap state
	var rd round
	fail := func(format string, a ...any) {
		rd.failures = append(rd.failures, fmt.Sprintf(format, a...))
	}

	t0 := time.Now()
	r := boot(w, seed)
	defer r.close()
	tBuilt := time.Now()
	tr.span("build", idx, t0, tBuilt, nil)

	if tr != nil && r.kv != nil {
		// Per-request simulated spans: each client has at most one
		// request outstanding, so a response closes that client's
		// latest request.
		eng, sent := r.eng, make([]sim.Time, w.cfg.Clients)
		seq := make([]int, w.cfg.Clients)
		r.kv.TapReq = func(c int, _ core.Msg) { sent[c] = eng.Now() }
		r.kv.TapResp = func(c int, _ core.Msg) {
			tr.request(idx, c, seq[c], r.clock.Seconds(sent[c])*1e6, r.clock.Seconds(eng.Now())*1e6)
			seq[c]++
		}
	}

	want := uint64(w.cfg.Requests)
	var start, end counts
	var tStart, tEnd, tSlice time.Time
	var allocStart, allocEnd, lag uint64
	started, ended := false, false
	r.setOnSlice(func(i int) {
		now := time.Now()
		if i == 0 {
			tr.span("prefill", idx, tBuilt, now, nil)
			rd.prefill = now.Sub(tBuilt)
			start = r.read()
			allocStart = heapAllocs()
			tr.startProfile()
			started = true
			tStart = time.Now()
		} else {
			tr.span("slice", idx, tSlice, now, map[string]any{"slice": i, "responses": r.done()})
		}
		lag = max(lag, r.replMaxLag())
		if !ended && r.done() >= want {
			tEnd = time.Now()
			allocEnd = heapAllocs()
			tr.stopProfile()
			end = r.read()
			ended = true
		}
		tSlice = time.Now()
	})
	rep := r.run()
	tRun := time.Now()
	tr.span("run-tail", idx, tSlice, tRun, nil)

	var bad []string
	for _, sd := range r.statds {
		snap := sd.SnapshotNow()
		bad = append(bad, snap.Conservation()...)
		if fl := snap.Service("store").TotalHist("FlushLatency"); fl != nil {
			rd.sim.flushN += fl.N
			rd.sim.flushP50 = max(rd.sim.flushP50, r.clock.Seconds(fl.P50)*1e6)
			rd.sim.flushP99 = max(rd.sim.flushP99, r.clock.Seconds(fl.P99)*1e6)
		}
	}
	tr.span("conservation", idx, tRun, time.Now(), nil)

	final := r.read()
	switch {
	case !started:
		fail("the fleet never started")
	case !ended:
		fail("the fleet answered %d of %d requests", final.Done, want)
	case end.Done == start.Done || tEnd.Equal(tStart):
		fail("the drive phase was empty")
	}
	if rep.Stalled {
		fail("the fleet stalled")
	}
	if rep.Halted {
		fail("the engine halted")
	}
	for _, b := range bad {
		fail("conservation: %s", b)
	}
	if rep.Errs > 0 {
		fail("%d responses carried a store error", rep.Errs)
	}
	if final.StoreErrors > 0 || final.FailStop > 0 {
		fail("stores refused %d requests with an error and fail-stopped %d shards", final.StoreErrors, final.FailStop)
	}
	if rep.NotFound > 0 {
		fail("%d GETs found no key after prefill", rep.NotFound)
	}
	if final.LogFull > 0 {
		fail("%d writes refused for a full log", final.LogFull)
	}
	if final.Lost > 0 {
		fail("%d cluster requests lost after their retry budget", final.Lost)
	}
	if final.ConnsFailed > 0 {
		fail("%d client connections abandoned", final.ConnsFailed)
	}

	tr.span("drive", idx, tStart, tEnd, map[string]any{"responses": end.Done - start.Done})
	tr.span("round", idx, t0, time.Now(), nil)

	rd.attempted = final.Done - start.Done + rep.Errs + final.Lost + final.ConnsFailed
	rd.build = tBuilt.Sub(t0)
	rd.drive = tEnd.Sub(tStart)
	rd.allocs = allocEnd - allocStart
	d := end.minus(start)
	rd.sim.drive = d
	rd.sim.seconds = r.clock.Seconds(d.Now)
	rd.sim.replMaxLag = lag
	if h := r.latency(); h != nil {
		us := func(p float64) float64 { return r.clock.Seconds(h.Percentile(p)) * 1e6 }
		rd.sim.latN = h.N()
		rd.sim.p50, rd.sim.p99, rd.sim.p999 = us(50), us(99), us(99.9)
	}
	return rd
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
}

// heapAllocs is the process's cumulative heap allocation count, tiny
// allocations included (the count testing's allocs/op reports).
func heapAllocs() uint64 {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64() + allocSamples[1].Value.Uint64()
}
