package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"syscall"
)

// A metric is one named number the benchmark reports.
type metric struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// group is "host" for wall time or memory on the machine running
	// the benchmark, which carries noise, and "sim" for simulated time
	// or counts, which repeat exactly for a seed.
	group string
	layer bool // per-layer rather than end-to-end
	// partial metrics are not measured on every workload, so they are
	// reported but left out of BENCHMARK.json, whose metrics every run
	// must print.
	partial bool
}

// catalogue is every metric, in report order. BENCHMARK.json lists the
// non-partial ones under end_to_end and per_layer with the same units
// and directions (TestBenchmarkJSONMatchesCatalogue).
var catalogue = []metric{
	{name: "host_req_per_s", unit: "1/s", better: "higher", group: "host"},
	{name: "allocs_per_req", unit: "count", better: "lower", group: "host"},
	{name: "peak_rss_mb", unit: "MB", better: "lower", group: "host"},
	{name: "setup_s", unit: "s", better: "lower", group: "host"},
	{name: "sim_ops_per_s", unit: "1/s", better: "higher", group: "sim"},
	{name: "sim_p50_us", unit: "us", better: "lower", group: "sim", partial: true},
	{name: "sim_p99_us", unit: "us", better: "lower", group: "sim", partial: true},
	{name: "sim_p999_us", unit: "us", better: "lower", group: "sim", partial: true},
	{name: "err_frac", unit: "fraction", better: "lower", group: "sim", partial: true},

	{name: "sim.events_per_req", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "sim.host_ns_per_event", unit: "ns", better: "lower", group: "host", layer: true},
	{name: "core.switches_per_req", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "core.sends_per_req", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "core.recvs_per_req", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "core.spawns_per_req", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "machine.nic_rx_drops", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "net.pkts_per_req", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "net.retransmits", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "store.cache_hit_ratio", unit: "fraction", better: "higher", group: "sim", layer: true},
	{name: "store.acks_per_flush", unit: "count", better: "higher", group: "sim", layer: true},
	{name: "store.flush_p50_us", unit: "us", better: "lower", group: "sim", layer: true},
	{name: "store.flush_p99_us", unit: "us", better: "lower", group: "sim", layer: true},
	{name: "store.compactions", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "store.compacted_records_per_req", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "store.log_full", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "store.repl_records_per_batch", unit: "count", better: "higher", group: "sim", layer: true},
	{name: "store.repl_adverts_per_req", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "store.repl_max_lag", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "blockdev.writes_per_req", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "blockdev.reads_per_req", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "blockdev.kb_per_req", unit: "KiB", better: "lower", group: "sim", layer: true},
	{name: "cluster.redirects", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "cluster.map_refreshes", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "cluster.retries", unit: "count", better: "lower", group: "sim", layer: true},
	{name: "dump.build_s", unit: "s", better: "lower", group: "host", layer: true},
	{name: "prefill_s", unit: "s", better: "lower", group: "host", layer: true},
	{name: "host.sim_pct", unit: "%", better: "lower", group: "host", layer: true},
	{name: "host.core_pct", unit: "%", better: "lower", group: "host", layer: true},
	{name: "host.kernel_pct", unit: "%", better: "lower", group: "host", layer: true},
	{name: "host.machine_pct", unit: "%", better: "lower", group: "host", layer: true},
	{name: "host.net_pct", unit: "%", better: "lower", group: "host", layer: true},
	{name: "host.store_pct", unit: "%", better: "lower", group: "host", layer: true},
	{name: "host.blockdev_pct", unit: "%", better: "lower", group: "host", layer: true},
	{name: "host.cluster_pct", unit: "%", better: "lower", group: "host", layer: true},
	{name: "host.go_sched_pct", unit: "%", better: "lower", group: "host", layer: true},
	{name: "host.go_alloc_pct", unit: "%", better: "lower", group: "host", layer: true},
	{name: "host.go_gc_pct", unit: "%", better: "lower", group: "host", layer: true},
	{name: "host.other_pct", unit: "%", better: "lower", group: "host", layer: true},
	{name: "trace.overhead_pct", unit: "%", better: "lower", group: "host", layer: true},
}

// A reading is one metric's outcome: a value, or the reason it is absent.
type reading struct {
	value   float64
	samples uint64 // latency percentiles: the histogram's sample count
	absent  string
}

// result is a whole run: a warm-up round, the timed rounds and, with
// tracing, the traced rounds and their tracer.
type result struct {
	warmup round
	rounds []round // untraced; every end-to-end number comes from these
	traced []round
	tr     *tracer
	layers map[string]int64 // traced drive phases' CPU-profile samples per host layer
	peakKB int64
}

// all is every round in the order run.
func (res *result) all() []round {
	return append(append([]round{res.warmup}, res.rounds...), res.traced...)
}

// failures lists every round's gate failures plus any disagreement
// between rounds on a simulated result.
func (res *result) failures() []string {
	var out []string
	all := res.all()
	for i, rd := range all {
		for _, f := range rd.failures {
			out = append(out, fmt.Sprintf("round %d: %s", i, f))
		}
		if i > 0 && rd.sim != all[0].sim {
			out = append(out, fmt.Sprintf("round %d: simulated results differ from round 0 with the same seed", i))
		}
	}
	if res.tr != nil && res.tr.err != nil {
		out = append(out, res.tr.err.Error())
	}
	return out
}

// tally returns the client requests attempted and failed over every
// round. A round that fails the gate counts all of its requests failed.
func (res *result) tally() (attempted, failed uint64) {
	for _, rd := range res.all() {
		attempted += rd.attempted
		if len(rd.failures) > 0 {
			failed += rd.attempted
		}
	}
	return max(attempted, 1), failed
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func perRound(rounds []round, f func(round) float64) []float64 {
	xs := make([]float64, len(rounds))
	for i, rd := range rounds {
		xs[i] = f(rd)
	}
	return xs
}

// over applies f to each round and takes the median.
func over(rounds []round, f func(round) float64) float64 {
	return median(perRound(rounds, f))
}

// hostReqPerS is a round's wall-clock request rate, uncalibrated.
func hostReqPerS(rd round) float64 {
	return float64(rd.sim.drive.Done) / rd.drive.Seconds()
}

// driveTotals sums the drive phases of rounds: calibrated host seconds,
// requests answered, host heap allocations and engine events. Host
// rates are taken over these totals, which weight every round by its
// length and so follow a host whose speed wanders during a run more
// smoothly than a median of per-round rates.
func driveTotals(rounds []round) (host, reqs, allocs, events float64) {
	for _, rd := range rounds {
		host += calibrated(rd, rd.drive)
		reqs += float64(rd.sim.drive.Done)
		allocs += float64(rd.allocs)
		events += float64(rd.sim.drive.Fired)
	}
	return host, reqs, allocs, events
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// readings computes every metric of the catalogue from a run.
func (res *result) readings() map[string]reading {
	out := map[string]reading{}
	set := func(name string, v float64) { out[name] = reading{value: v} }

	rs := res.rounds
	s := rs[0].sim
	d := s.drive
	host, reqs, allocs, events := driveTotals(rs)
	set("host_req_per_s", reqs/host)
	set("allocs_per_req", allocs/reqs)
	set("peak_rss_mb", float64(res.peakKB)/1024)
	set("setup_s", over(rs, func(rd round) float64 { return calibrated(rd, rd.build+rd.prefill) }))
	set("sim_ops_per_s", float64(d.Done)/s.seconds)
	for _, p := range []struct {
		name string
		v    float64
		tail float64 // share of samples beyond the percentile
	}{{"sim_p50_us", s.p50, 0.5}, {"sim_p99_us", s.p99, 0.01}, {"sim_p999_us", s.p999, 0.001}} {
		switch {
		case s.latN == 0:
			out[p.name] = reading{absent: "cluster.Pool keeps no latency histogram"}
		case float64(s.latN)*p.tail < 10:
			out[p.name] = reading{samples: s.latN, absent: "fewer than 10 samples beyond the percentile"}
		default:
			out[p.name] = reading{value: p.v, samples: s.latN}
		}
	}
	attempted, failed := res.tally()
	set("err_frac", float64(failed)/float64(attempted))

	perReq := func(x uint64) float64 { return ratio(x, d.Done) }
	set("sim.events_per_req", perReq(d.Fired))
	set("sim.host_ns_per_event", host*1e9/events)
	set("core.switches_per_req", perReq(d.Switches))
	set("core.sends_per_req", perReq(d.Sends))
	set("core.recvs_per_req", perReq(d.Recvs))
	set("core.spawns_per_req", perReq(d.Spawns))
	set("machine.nic_rx_drops", float64(d.RxDrops))
	set("net.pkts_per_req", perReq(d.Pkts))
	set("net.retransmits", float64(d.Retransmits))
	set("store.cache_hit_ratio", ratio(d.CacheHits, d.CacheHits+d.CacheMisses))
	set("store.acks_per_flush", ratio(d.AckedWrites, d.FlushesDone))
	set("store.flush_p50_us", s.flushP50)
	set("store.flush_p99_us", s.flushP99)
	set("store.compactions", float64(d.Compactions))
	set("store.compacted_records_per_req", perReq(d.CompactedRecords))
	set("store.log_full", float64(d.LogFull))
	set("store.repl_records_per_batch", ratio(d.ReplRecords, d.ReplBatches))
	set("store.repl_adverts_per_req", perReq(d.ReplAdverts))
	set("store.repl_max_lag", float64(s.replMaxLag))
	set("blockdev.writes_per_req", perReq(d.DiskWrites))
	set("blockdev.reads_per_req", perReq(d.DiskReads))
	set("blockdev.kb_per_req", perReq(d.DiskBytes)/1024)
	set("cluster.redirects", float64(d.Redirects))
	set("cluster.map_refreshes", float64(d.MapRefreshes))
	set("cluster.retries", float64(d.Retries))
	set("dump.build_s", over(rs, func(rd round) float64 { return calibrated(rd, rd.build) }))
	set("prefill_s", over(rs, func(rd round) float64 { return calibrated(rd, rd.prefill) }))

	if res.tr == nil || len(res.traced) == 0 {
		for _, l := range hostLayers {
			out["host."+l+"_pct"] = reading{absent: "traced runs only"}
		}
		out["trace.overhead_pct"] = reading{absent: "traced runs only"}
		return out
	}
	var total int64
	for _, n := range res.layers {
		total += n
	}
	for _, l := range hostLayers {
		if total == 0 {
			out["host."+l+"_pct"] = reading{absent: "the CPU profile took no samples"}
			continue
		}
		set("host."+l+"_pct", 100*float64(res.layers[l])/float64(total))
	}
	tracedHost, tracedReqs, _, _ := driveTotals(res.traced)
	set("trace.overhead_pct", 100*(tracedHost/tracedReqs/(host/reqs)-1))
	return out
}

// peakRSSKB is the process's peak resident set size in KiB.
func peakRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// report writes one typed JSON line per catalogue metric, labelled with
// its group, then the summary line: correct, attempted, failed and the
// metrics BENCHMARK.json lists for this mode (end-to-end untraced,
// per-layer traced).
func report(out io.Writer, w workload, seed uint64, res *result, traced bool) (bool, error) {
	enc := json.NewEncoder(out)
	vals := res.readings()
	fails := res.failures()
	header := map[string]any{"workload": w.name, "seed": seed, "requests_per_round": w.cfg.Requests,
		"rounds": len(res.rounds), "traced_rounds": len(res.traced), "failures": fails,
		"wall_host_req_per_s": perRound(res.rounds, hostReqPerS),
		"wall_setup_s":        perRound(res.rounds, func(rd round) float64 { return (rd.build + rd.prefill).Seconds() }),
		"reference_rate":      perRound(res.rounds, func(rd round) float64 { return rd.refAfter }),
		"note":                "the simulated model has not been checked against real hardware, so no error figure is given"}
	if err := enc.Encode(header); err != nil {
		return false, err
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := map[string]valueUnit{}
	for _, m := range catalogue {
		r := vals[m.name]
		line := map[string]any{"group": m.group, "name": m.name, "unit": m.unit, "better": m.better}
		if m.layer {
			line["level"] = "per_layer"
		} else {
			line["level"] = "end_to_end"
		}
		if math.IsNaN(r.value) || math.IsInf(r.value, 0) {
			r = reading{absent: "undefined: the drive phase was empty"}
		}
		if r.absent != "" {
			line["absent"] = r.absent
		} else {
			line["value"] = r.value
		}
		if r.samples > 0 {
			line["samples"] = r.samples
		}
		if err := enc.Encode(line); err != nil {
			return false, err
		}
		if !m.partial && m.layer == traced && r.absent == "" {
			summary[m.name] = valueUnit{r.value, m.unit}
		}
	}
	attempted, failed := res.tally()
	ok := len(fails) == 0
	err := enc.Encode(struct {
		Correct   bool                 `json:"correct"`
		Attempted uint64               `json:"attempted"`
		Failed    uint64               `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{ok, attempted, failed, summary})
	return ok, err
}
