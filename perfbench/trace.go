package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"chanos/internal/trace"
)

// tracer records traced rounds: spans from the benchmark's own code
// around each call into the world, per-request simulated spans from the
// kvload fleet's TapReq/TapResp hooks (which the builder documents as
// schedule-neutral), and a CPU profile of each drive phase. Everything
// stays in memory until write. A nil *tracer records nothing.
type tracer struct {
	origin   time.Time
	host     []trace.Event // pid 0: host spans, µs since origin; tid = round
	requests []trace.Event // pid 1+round: simulated spans, simulated µs; tid = client
	profiles [][]byte      // one gzipped CPU profile per drive phase
	prof     *bytes.Buffer // the profile being recorded
	err      error         // first profiler failure
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) span(name string, round int, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	us := func(at time.Time) float64 { return float64(at.Sub(t.origin).Nanoseconds()) / 1e3 }
	t.host = append(t.host, trace.Event{Name: name, Cat: "host", Ph: "X",
		TS: us(start), Dur: us(end) - us(start), PID: 0, TID: round, Args: args})
}

func (t *tracer) request(round, client, seq int, startUS, endUS float64) {
	t.requests = append(t.requests, trace.Event{Name: "request", Cat: "sim", Ph: "X",
		TS: startUS, Dur: endUS - startUS, PID: 1 + round, TID: client,
		Args: map[string]any{"client": client, "request": seq}})
}

func (t *tracer) startProfile() {
	if t == nil || t.err != nil {
		return
	}
	t.prof = new(bytes.Buffer)
	if err := pprof.StartCPUProfile(t.prof); err != nil {
		t.err = fmt.Errorf("start CPU profile: %w", err)
		t.prof = nil
	}
}

func (t *tracer) stopProfile() {
	if t == nil || t.prof == nil {
		return
	}
	pprof.StopCPUProfile()
	t.profiles = append(t.profiles, t.prof.Bytes())
	t.prof = nil
}

// write saves every span to path as a Chrome trace (chrome://tracing,
// Perfetto).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": append(t.host, t.requests...)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
