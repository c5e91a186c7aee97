package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"chanos/internal/exp"
	"chanos/internal/stats"
	"chanos/internal/telemetry"
)

// A violated check must reach the JSON artifact and the exit status,
// while rows and the telemetry snapshot are still written.
func TestViolationFailsRunAndReachesJSON(t *testing.T) {
	t.Chdir(t.TempDir())
	stub := exp.Experiment{ID: "STUB", Title: "stub", Run: func(o exp.Options) []*stats.Table {
		tb := stats.NewTable("STUB / checked", "n")
		tb.AddRow("1")
		tb.Check(true, "passes")
		tb.Check(false, "fails")
		o.SnapshotSink(&telemetry.Snapshot{Seq: 7})
		return []*stats.Table{tb}
	}}
	saved := experiments
	experiments = func() []exp.Experiment { return []exp.Experiment{stub} }
	t.Cleanup(func() { experiments = saved })

	var out strings.Builder
	if code := run([]string{"-run", "STUB", "-json"}, &out); code == 0 {
		t.Fatalf("exit status 0 with a violated check; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "  VIOLATED: STUB / checked: fails\n") {
		t.Fatalf("violation missing from the table output:\n%s", out.String())
	}

	buf, err := os.ReadFile("BENCH_STUB.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchJSON
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Tables) != 1 || len(got.Tables[0].Rows) != 1 {
		t.Fatalf("tables = %+v, want one table with one row", got.Tables)
	}
	if v := got.Tables[0].Violations; len(v) != 1 || v[0] != "STUB / checked: fails" {
		t.Fatalf("violations = %q, want the one failing check", v)
	}
	if got.Telemetry == nil || got.Telemetry.Seq != 7 {
		t.Fatalf("telemetry = %+v, want the sink's snapshot", got.Telemetry)
	}

	// The same experiment without a failing check exits 0.
	stub.Run = func(exp.Options) []*stats.Table {
		tb := stats.NewTable("STUB / checked", "n")
		tb.AddRow("1")
		tb.Check(true, "passes")
		return []*stats.Table{tb}
	}
	if code := run([]string{"-run", "STUB"}, io.Discard); code != 0 {
		t.Fatalf("exit status %d with every check passing", code)
	}
}
