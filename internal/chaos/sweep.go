// The sweep driver: fan N seeds across scenario families, run each
// seed's generated fault schedule through the harness, and fold the
// verdicts into a pass/fail matrix with per-invariant violation
// counts. Any red seed carries its (seed, config, event-count) repro
// triple, the written machine dump, and the one-command replay line.
package chaos

import (
	"encoding/json"

	"chanos/internal/dump"
)

// RowSpec is one scenario family in the sweep: a config template and
// how many seeds to fan across it.
type RowSpec struct {
	Label string
	Cfg   dump.Config
	Seeds int
}

// DefaultRows is the standard matrix: solo and replicated kvload
// machines plus 3-, 5- and 7-node clusters. The full tier fans 100
// seeded schedules; the short tier 20.
func DefaultRows(short bool) []RowSpec {
	solo := dump.Config{Shards: 2, Clients: 12, Requests: 240, ReadPct: 60,
		Keys: 96, ValBytes: 128, LogBlocks: 64}
	repl := solo
	repl.Replicas = 1
	cl := func(machines, requests int) dump.Config {
		return dump.Config{Machines: machines, RF: 2, Shards: 2, Clients: 8,
			Requests: requests, ReadPct: 50, Keys: 30 * machines, ValBytes: 128,
			LogBlocks: 64}
	}
	if short {
		return []RowSpec{
			{Label: "solo", Cfg: solo, Seeds: 8},
			{Label: "repl", Cfg: repl, Seeds: 8},
			{Label: "cluster3", Cfg: cl(3, 150), Seeds: 4},
		}
	}
	return []RowSpec{
		{Label: "solo", Cfg: solo, Seeds: 40},
		{Label: "repl", Cfg: repl, Seeds: 36},
		{Label: "cluster3", Cfg: cl(3, 150), Seeds: 16},
		{Label: "cluster5", Cfg: cl(5, 150), Seeds: 4},
		{Label: "cluster7", Cfg: cl(7, 120), Seeds: 4},
	}
}

// PartRows splits a row set into `parts` near-equal shares by seed
// count and returns share `part` (0-based). The invariant-named test
// sweeps each take one share, so together they cover the full matrix
// with no seed run twice.
func PartRows(rows []RowSpec, part, parts int) []RowSpec {
	out := make([]RowSpec, 0, len(rows))
	for _, r := range rows {
		lo := r.Seeds * part / parts
		hi := r.Seeds * (part + 1) / parts
		if hi <= lo {
			continue
		}
		rr := r
		rr.Seeds = hi - lo
		out = append(out, rr)
	}
	return out
}

// RowResult is one scenario family's fold.
type RowResult struct {
	Label        string         `json:"label"`
	Runs         int            `json:"runs"`
	Red          int            `json:"red"`
	ByInvariant  map[string]int `json:"by_invariant,omitempty"`
	ClausesArmed int            `json:"clauses_armed"`
	ClausesFired int            `json:"clauses_fired"`
	Reds         []*Result      `json:"reds,omitempty"`
}

// Matrix is the whole sweep's verdict.
type Matrix struct {
	Rows        []RowResult    `json:"rows"`
	Runs        int            `json:"runs"`
	Red         int            `json:"red"`
	ByInvariant map[string]int `json:"by_invariant,omitempty"`
}

// JSON renders the matrix summary (the CI artifact).
func (m *Matrix) JSON() []byte {
	b, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		panic(err) // plain values only
	}
	return append(b, '\n')
}

// Sweep runs every row's seeds through the harness. Seeds derive from
// seedBase, the row index and the seed index, so two sweeps with
// different bases share no schedule. Red dumps land in dumpDir ("" =
// none); the progress callback (nil ok) gets one line per red seed —
// including the replay command — and one per finished row.
func Sweep(rows []RowSpec, seedBase uint64, dumpDir string, progress func(format string, args ...any)) (*Matrix, error) {
	say := progress
	if say == nil {
		say = func(string, ...any) {}
	}
	m := &Matrix{ByInvariant: make(map[string]int)}
	for ri, row := range rows {
		rr := RowResult{Label: row.Label, ByInvariant: make(map[string]int)}
		for i := 0; i < row.Seeds; i++ {
			seed := seedBase + uint64(ri)*1_000_003 + uint64(i)*7919
			r, err := Run(Spec{Label: row.Label, Seed: seed, Cfg: row.Cfg, DumpDir: dumpDir})
			if err != nil {
				return nil, err
			}
			rr.Runs++
			sched, _ := Parse(r.Schedule)
			rr.ClausesArmed += len(sched)
			rr.ClausesFired += len(r.FiredClauses)
			if r.Red() {
				rr.Red++
				rr.Reds = append(rr.Reds, r)
				for _, inv := range r.Violations {
					rr.ByInvariant[inv]++
					m.ByInvariant[inv]++
				}
				say("RED %s seed=%d config=%s event-count=%d schedule=%q violations=%v",
					row.Label, seed, r.Scenario, r.EventCount, r.Schedule, r.Violations)
				if r.ReplayCmd != "" {
					say("  dump: %s", r.DumpPath)
					say("  repro: %s", r.ReplayCmd)
				}
			}
		}
		m.Rows = append(m.Rows, rr)
		m.Runs += rr.Runs
		m.Red += rr.Red
		say("%s: %d/%d green (%d/%d clauses fired)",
			row.Label, rr.Runs-rr.Red, rr.Runs, rr.ClausesFired, rr.ClausesArmed)
	}
	return m, nil
}
