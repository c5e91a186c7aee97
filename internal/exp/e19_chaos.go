// E19 — the deterministic chaos matrix: the whole fault-injection
// campaign as one experiment. Seeded schedules of machine kills, disk
// write failures, wire loss, NIC slowdowns and live migrations fan
// across scenario families (solo store, replicated store, N-node
// clusters), every run gated on the four global invariants — zero
// acked-write loss, no client hang, bounded replica staleness,
// fail-stop-or-heal. The paper's determinism argument is what makes
// the campaign auditable: any red seed is a (seed, config, event-count)
// triple plus a machine dump that replays to the exact failing event.
package exp

import (
	"fmt"
	"os"

	"chanos/internal/chaos"
	"chanos/internal/stats"
)

func init() {
	register("E19", "chaos matrix: seeded fault schedules x scenario families, gated on four invariants", e19Chaos)
}

func e19Chaos(o Options) []*stats.Table {
	rows := chaos.DefaultRows(o.Quick)
	dumpDir := o.DumpDir
	if dumpDir == "" {
		dumpDir = os.TempDir() // red dumps must land somewhere harmless
	}
	m, err := chaos.Sweep(rows, o.seed()*0x10_0001, dumpDir, nil)
	if err != nil {
		t := stats.NewTable("E19 / chaos matrix", "error")
		t.AddRow(err.Error())
		t.Check(false, "the sweep did not run")
		return []*stats.Table{t}
	}

	t := stats.NewTable("E19 / chaos matrix: seeded fault schedules per scenario family",
		"family", "runs", "green", "red", "clauses fired", "acked-loss", "client-hang", "staleness", "failstop-heal")
	addRow := func(label string, runs, red, fired, armed int, by map[string]int) {
		t.AddRow(label, fmt.Sprint(runs), fmt.Sprint(runs-red), fmt.Sprint(red),
			fmt.Sprintf("%d/%d", fired, armed),
			fmt.Sprint(by[chaos.InvAckedLoss]), fmt.Sprint(by[chaos.InvClientHang]),
			fmt.Sprint(by[chaos.InvStaleness]), fmt.Sprint(by[chaos.InvFailStop]))
	}
	var fired, armed int
	for _, rr := range m.Rows {
		addRow(rr.Label, rr.Runs, rr.Red, rr.ClausesFired, rr.ClausesArmed, rr.ByInvariant)
		t.Check(rr.Red == 0, "%s: %d of %d runs red", rr.Label, rr.Red, rr.Runs)
		fired += rr.ClausesFired
		armed += rr.ClausesArmed
	}
	addRow("total", m.Runs, m.Red, fired, armed, m.ByInvariant)
	t.Note("each run draws a seeded schedule (kills, disk write failures, wire loss, NIC slowdowns, migrations) and must end green on all four invariants")
	t.Note("contract: red = 0 on every row; any red seed prints its (seed, config, event-count) repro triple and a one-command replay line")
	for _, rr := range m.Rows {
		for _, red := range rr.Reds {
			t.Note("RED %s seed=%d event-count=%d schedule=%q violations=%v replay: %s",
				rr.Label, red.Seed, red.EventCount, red.Schedule, red.Violations, red.ReplayCmd)
		}
	}
	return []*stats.Table{t}
}
