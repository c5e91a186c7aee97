// Command chanos-bench regenerates the experiment tables and figure
// series behind ARCHITECTURE.md's claim table, and checks each table's
// contracts.
//
// Usage:
//
//	chanos-bench -list
//	chanos-bench -run E1 [-seed 7] [-quick] [-csv] [-json]
//	chanos-bench [-quick]    (full suite)
//
// -json additionally writes each experiment's tables to BENCH_<id>.json
// (machine-readable, for CI artifacts and plotting). After every
// requested experiment has run, the exit status is 1 if any table
// reported a violated contract check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"chanos/internal/exp"
	"chanos/internal/stats"
	"chanos/internal/telemetry"
)

// experiments lists the runnable experiments; tests substitute their own.
var experiments = exp.All

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("chanos-bench", flag.ContinueOnError)
	var (
		list    = fs.Bool("list", false, "list experiments")
		runID   = fs.String("run", "", "run one experiment by id (E1..E19, A1..A4)")
		all     = fs.Bool("all", false, "run every experiment")
		quick   = fs.Bool("quick", false, "reduced sweeps and windows")
		seed    = fs.Uint64("seed", 42, "simulation seed")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut = fs.Bool("json", false, "also write BENCH_<id>.json per experiment")
		dumpDir = fs.String("dump-on-fail", "", "write a machine core dump into this directory if an experiment's invariant gate fails")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "chanos-bench: unexpected argument %q (did you mean -run %s?)\n",
			fs.Arg(0), fs.Arg(0))
		return 2
	}

	o := exp.Options{Seed: *seed, Quick: *quick, DumpDir: *dumpDir}

	var selected []exp.Experiment
	switch {
	case *list:
		for _, e := range experiments() {
			fmt.Fprintf(stdout, "%-5s %s\n", e.ID, e.Title)
		}
		return 0
	case *runID != "":
		e, ok := exp.Find(experiments(), *runID)
		if !ok {
			fmt.Fprintf(os.Stderr, "chanos-bench: unknown experiment %q (try -list)\n", *runID)
			return 1
		}
		selected = []exp.Experiment{e}
	case *all:
		fallthrough
	default:
		// -all, or bare invocation (with or without -quick/-seed): the
		// full suite.
		selected = experiments()
	}

	var violations []string
	for _, e := range selected {
		tables, err := emit(stdout, e, o, *csv, *jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chanos-bench: %v\n", err)
			return 1
		}
		for _, tb := range tables {
			violations = append(violations, tb.Violations...)
		}
	}
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "chanos-bench: VIOLATED: %s\n", v)
	}
	if len(violations) > 0 {
		return 1
	}
	return 0
}

func emit(w io.Writer, e exp.Experiment, o exp.Options, csv, jsonOut bool) ([]*stats.Table, error) {
	fmt.Fprintf(w, "# %s — %s\n", e.ID, e.Title)
	// Instrumented experiments hand over telemetry snapshots as they run;
	// the last one — the final state of the last world measured — rides
	// along in the JSON artifact.
	var snap *telemetry.Snapshot
	o.SnapshotSink = func(s *telemetry.Snapshot) { snap = s }
	tables := e.Run(o)
	for _, tb := range tables {
		if csv {
			tb.CSV(w)
			fmt.Fprintln(w)
		} else {
			tb.Fprint(w)
		}
	}
	if jsonOut {
		return tables, writeJSON(w, e, o, tables, snap)
	}
	return tables, nil
}

// benchJSON is the stable machine-readable schema behind -json.
type benchJSON struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Seed   uint64      `json:"seed"`
	Quick  bool        `json:"quick"`
	Tables []tableJSON `json:"tables"`
	// Telemetry is the final telemetry snapshot of the experiment's last
	// measured world (present for instrumented experiments): the full
	// per-service metric state behind the table cells.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

type tableJSON struct {
	Title      string     `json:"title"`
	Cols       []string   `json:"cols"`
	Rows       [][]string `json:"rows"`
	Notes      []string   `json:"notes,omitempty"`
	Violations []string   `json:"violations,omitempty"`
}

func writeJSON(w io.Writer, e exp.Experiment, o exp.Options, tables []*stats.Table, snap *telemetry.Snapshot) error {
	out := benchJSON{ID: e.ID, Title: e.Title, Seed: o.Seed, Quick: o.Quick, Telemetry: snap}
	for _, tb := range tables {
		out.Tables = append(out.Tables, tableJSON{
			Title: tb.Title, Cols: tb.Cols, Rows: tb.Rows, Notes: tb.Notes, Violations: tb.Violations,
		})
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal %s: %v", e.ID, err)
	}
	name := fmt.Sprintf("BENCH_%s.json", e.ID)
	if err := os.WriteFile(name, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %v", name, err)
	}
	fmt.Fprintf(w, "wrote %s\n", name)
	return nil
}
