// Command perfbench is chanOS's benchmark. It boots each workload
// through the public world builders (dump.Build for the kvload
// scenario, dump.BuildCluster for the cluster scenario), drives it with
// the builder's own Run, and times it from outside: host time around
// the public calls and at the OnSlice callbacks, simulated results and
// per-layer counts from the worlds' accessors.
//
// A run repeats rounds of boot, prefill and drive for about --seconds
// of host time. Every round of one seed must produce identical
// simulated results and pass the correctness gate. Host rates are
// totals over the untraced rounds' drive phases and set-up times are
// medians over those rounds, all measured on one P (GOMAXPROCS=1) and
// in calibrated seconds (see calibrate.go). With --trace 1 untraced rounds
// alternate with traced ones (spans, request taps and a CPU profile),
// and the per-layer metrics are reported.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload kv-read-hot --seed 7 --seconds 40 --trace 0
//
// Standard output is one typed JSON line per metric, then a summary
// line with correct, attempted, failed and the metrics BENCHMARK.json
// lists for the mode. The exit code is 1 when the gate fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeed is the seed a run uses unless told otherwise; every
// workload also passes the gate at heldOutSeed, which no tuning used.
const defaultSeed, heldOutSeed = 7, 1009

// traceDir, relative to the working directory, receives each traced
// run's spans.
const traceDir = ".bench_out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "kv-read-hot", "workload to run")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 40, "host seconds to spend on rounds")
	traceOn := fs.Int("trace", 0, "1 = alternate untraced and traced rounds and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	traced := *traceOn != 0
	// The simulator runs one simulated thread at a time, handing control
	// from goroutine to goroutine. On one P those handoffs stay on one OS
	// thread instead of becoming cross-CPU wakeups, whose cost depends on
	// how the host schedules its CPUs; host figures are measured so, and
	// do not depend on the host's CPU count.
	runtime.GOMAXPROCS(1)
	res := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), traced)
	if traced {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, *seed))
		if err := res.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 1
		}
	}
	ok, err := report(stdout, w, *seed, res, traced)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// bench runs rounds of w within budget. A first warm-up round fills the
// heap and caches and is checked but not timed. Then come timed rounds,
// at least three, while the last round's length still fits in what is
// left of the budget; with tracing, untraced and traced rounds alternate
// (at least one of each), so drift in the host's speed falls on both
// alike.
func bench(w workload, seed uint64, budget time.Duration, traced bool) *result {
	start := time.Now()
	ref := reference()
	measure := func(i int, tr *tracer) round {
		rd := runRound(w, seed, i, tr)
		rd.refBefore, ref = ref, reference()
		rd.refAfter = ref
		return rd
	}
	res := &result{warmup: measure(0, nil)}
	last := time.Since(start)
	minRounds := 3
	if traced {
		res.tr, minRounds = newTracer(), 1
	}
	for i := 1; len(res.rounds) < minRounds || traced && len(res.traced) < 1 || time.Since(start)+last <= budget; i++ {
		t := time.Now()
		if traced && i%2 == 0 {
			res.traced = append(res.traced, measure(i, res.tr))
		} else {
			res.rounds = append(res.rounds, measure(i, nil))
		}
		last = time.Since(t)
	}
	if traced {
		res.layers = map[string]int64{}
		for _, p := range res.tr.profiles {
			if err := foldProfile(p, res.layers); err != nil && res.tr.err == nil {
				res.tr.err = err
			}
		}
	}
	res.peakKB = peakRSSKB()
	return res
}
