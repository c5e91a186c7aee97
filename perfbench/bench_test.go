package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload's rounds so a test run takes seconds.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.cfg.Requests = 1500
	return w
}

// reportLines runs report and splits its output into the per-metric
// lines, keyed by name, and the summary line.
func reportLines(t *testing.T, w workload, seed uint64, res *result, traced bool) (bool, map[string]map[string]any, map[string]any) {
	t.Helper()
	var out bytes.Buffer
	ok, err := report(&out, w, seed, res, traced)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	byName := map[string]map[string]any{}
	for _, l := range lines[1 : len(lines)-1] {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("metric line %q: %v", l, err)
		}
		byName[m["name"].(string)] = m
	}
	var summary map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("summary line: %v", err)
	}
	return ok, byName, summary
}

func TestTinyRunEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := tiny(t, w.name)
			for _, seed := range []uint64{defaultSeed, heldOutSeed} {
				res := bench(w, seed, 0, true)
				for _, traced := range []bool{false, true} {
					ok, lines, summary := reportLines(t, w, seed, res, traced)
					if !ok || summary["correct"] != true || summary["failed"].(float64) != 0 {
						t.Fatalf("seed %d: gate failed: %v", seed, res.failures())
					}
					metrics := summary["metrics"].(map[string]any)
					for _, m := range catalogue {
						line, found := lines[m.name]
						if !found {
							t.Fatalf("no line for %s", m.name)
						}
						_, hasValue := line["value"]
						reason, _ := line["absent"].(string)
						if hasValue == (reason != "") {
							t.Errorf("%s: want exactly one of value and absent, got %v", m.name, line)
						}
						if m.partial || m.layer != traced {
							continue
						}
						if _, in := metrics[m.name]; !in {
							t.Errorf("seed %d trace %v: summary lacks %s (%s)", seed, traced, m.name, reason)
						}
					}
					if len(metrics) != countListed(traced) {
						t.Errorf("summary has %d metrics, want %d", len(metrics), countListed(traced))
					}
				}
			}
		})
	}
}

func countListed(layer bool) int {
	n := 0
	for _, m := range catalogue {
		if !m.partial && m.layer == layer {
			n++
		}
	}
	return n
}

// TestGateFiresOnFailWrites injects log-device write failures through
// the builder's own fault knob and expects the gate to turn red.
func TestGateFiresOnFailWrites(t *testing.T) {
	w := tiny(t, "kv-read-hot")
	w.cfg.FailWrites = 3
	res := bench(w, defaultSeed, 0, false)
	ok, _, summary := reportLines(t, w, defaultSeed, res, false)
	if ok || summary["correct"] != false {
		t.Fatal("gate stayed green with injected write failures")
	}
	if summary["failed"] != summary["attempted"] {
		t.Errorf("failed %v of %v attempted; a red round counts every request failed", summary["failed"], summary["attempted"])
	}
	if !strings.Contains(strings.Join(res.failures(), "\n"), "store error") {
		t.Errorf("failures do not name the store errors: %v", res.failures())
	}
}

func TestProfileFoldAssignsEverySampleOnce(t *testing.T) {
	w := tiny(t, "kv-read-hot")
	w.cfg.Requests = 20_000 // long enough for the profiler to take samples
	tr := newTracer()
	if rd := runRound(w, defaultSeed, 0, tr); len(rd.failures) > 0 {
		t.Fatal(rd.failures)
	}
	var total int64
	byLayer := map[string]int64{}
	for _, p := range tr.profiles {
		samples, err := parseProfile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			total += s.count
		}
		if err := foldProfile(p, byLayer); err != nil {
			t.Fatal(err)
		}
	}
	if total == 0 {
		t.Fatal("the profile took no samples")
	}
	var folded int64
	for l, n := range byLayer {
		if !contains(hostLayers, l) {
			t.Errorf("fold produced unknown layer %q", l)
		}
		folded += n
	}
	if folded != total {
		t.Errorf("fold assigned %d samples of %d", folded, total)
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"chanos/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"chanos/internal/sim/detmap.Keys"}, "sim"},
		{[]string{"container/heap.down", "container/heap.Pop", "chanos/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"runtime.memmove", "chanos/internal/store.(*shard).append"}, "store"},
		{[]string{"runtime.lock2", "runtime.chansend", "chanos/internal/core.(*Runtime).resumeThread"}, "go_sched"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "chanos/internal/net.(*Stack).transmit"}, "go_alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "go_gc"},
		{[]string{"chanos/internal/cluster.(*Pool).step", "runtime.mallocgc"}, "cluster"},
		{[]string{"time.Now", "main.runRound"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the
// catalogue in step: the same workloads, and every metric the summary
// line prints with the same unit and direction.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type listed struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []listed `json:"end_to_end"`
		PerLayer []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	var want []listed
	for _, m := range catalogue {
		if !m.partial {
			want = append(want, listed{Name: m.name, Unit: m.unit, Better: m.better})
		}
	}
	got := append(bj.EndToEnd, bj.PerLayer...)
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the catalogue %d", len(got), len(want))
	}
	var setupBound, maxBound float64
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
			t.Errorf("metric %d: BENCHMARK.json %s %s %s, catalogue %s %s %s", i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
		}
		if (i < len(bj.EndToEnd)) != (g.Bound != nil) {
			t.Errorf("%s: end-to-end metrics and only they carry a bound", g.Name)
		}
		if g.Bound != nil {
			maxBound = max(maxBound, *g.Bound)
			if g.Name == "setup_s" {
				setupBound = *g.Bound
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
}

func TestUnknownWorkloadExits(t *testing.T) {
	var out, errs bytes.Buffer
	start := time.Now()
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errs); code == 0 || out.Len() > 0 {
		t.Errorf("exit %d with output %q", code, out.String())
	}
	if time.Since(start) > time.Second {
		t.Error("an unknown workload should fail before any round")
	}
}
