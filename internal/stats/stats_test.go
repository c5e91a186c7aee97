package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 2, 4, 8, 100} {
		h.Add(v)
	}
	if h.N() != 5 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if got := h.Mean(); got != 23 {
		t.Fatalf("mean = %v, want 23", got)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := uint64(1); i <= 1000; i++ {
		h.Add(i)
	}
	p50 := h.Percentile(50)
	// Bucketed: p50 of 1..1000 is in [512,1023] bucket upper bound, but
	// must be way below max*2 and above 256.
	if p50 < 256 || p50 > 1023 {
		t.Fatalf("p50 = %d", p50)
	}
	if h.Percentile(100) != 1000 {
		t.Fatalf("p100 = %d, want max", h.Percentile(100))
	}
	if h.Percentile(0) > 1 {
		t.Fatalf("p0 = %d", h.Percentile(0))
	}
}

// The interpolated percentile must do far better than bucket-upper
// quantisation: for a uniform 1..1000 sample the p50 estimate should
// land near 500, not snap to 511 or 1023.
func TestHistogramPercentileInterpolates(t *testing.T) {
	var h Histogram
	for i := uint64(1); i <= 1000; i++ {
		h.Add(i)
	}
	if p50 := h.Percentile(50); p50 < 450 || p50 > 550 {
		t.Fatalf("p50 = %d, want ~500 (interpolated within the [512,1023) bucket boundary)", p50)
	}
	if p99 := h.Percentile(99); p99 < 940 || p99 > 1000 {
		t.Fatalf("p99 = %d, want ~990", p99)
	}
	// A single-sample histogram reports that sample at every percentile.
	var one Histogram
	one.Add(777)
	for _, p := range []float64{0, 50, 100} {
		if v := one.Percentile(p); v != 777 {
			t.Fatalf("single-sample p%.0f = %d, want 777", p, v)
		}
	}
}

func TestHistogramEmptySafe(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(99) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
}

func TestHistogramZeroSample(t *testing.T) {
	var h Histogram
	h.Add(0)
	if h.N() != 1 || h.Min() != 0 || h.Percentile(50) != 0 {
		t.Fatal("zero sample mishandled")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := uint64(0); i < 50; i++ {
		a.Add(10)
		b.Add(1000)
	}
	a.Merge(&b)
	if a.N() != 100 {
		t.Fatalf("merged N = %d", a.N())
	}
	if a.Max() != 1000 || a.Min() != 10 {
		t.Fatalf("merged bounds %d..%d", a.Min(), a.Max())
	}
}

// Property: percentile is monotonic in p and bounded by [min-bucket, max].
func TestPercentileMonotonicProperty(t *testing.T) {
	f := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		var h Histogram
		for _, s := range samples {
			h.Add(uint64(s))
		}
		prev := uint64(0)
		for p := 0.0; p <= 100; p += 10 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return h.Percentile(100) <= h.Max() || h.Max() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta", "2")
	tb.Note("a footnote")
	out := tb.String()
	for _, want := range []string{"== demo ==", "alpha", "beta", "note: a footnote", "name"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := NewTable("q", "a", "b")
	tb.AddRow("x,y", `say "hi"`)
	var b strings.Builder
	tb.CSV(&b)
	out := b.String()
	if !strings.Contains(out, `"x,y"`) {
		t.Fatalf("comma cell not quoted: %s", out)
	}
	if !strings.Contains(out, `"say ""hi"""`) {
		t.Fatalf("quote cell not escaped: %s", out)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[float64]string{
		12:     "12.00",
		12345:  "12.35k",
		2.5e6:  "2.50M",
		3.25e9: "3.25G",
		9999:   "9999.00",
		10000:  "10.00k",
	}
	for in, want := range cases {
		if got := F(in); got != want {
			t.Errorf("F(%v) = %q, want %q", in, got, want)
		}
	}
	if Ratio(10, 0) != "inf" {
		t.Error("Ratio by zero")
	}
	if Ratio(10, 4) != "2.50x" {
		t.Errorf("Ratio = %s", Ratio(10, 4))
	}
}

// Passing checks leave no trace in either rendering; a failing check
// adds exactly one VIOLATED line that names the table.
func TestCheckPrintsOnlyViolations(t *testing.T) {
	build := func(checks ...bool) *Table {
		tb := NewTable("T / checked", "a", "b")
		tb.AddRow("1", "2")
		tb.Note("a note")
		for i, ok := range checks {
			tb.Check(ok, "check %d", i)
		}
		return tb
	}
	render := func(tb *Table) (text, csv string) {
		var b strings.Builder
		tb.CSV(&b)
		return tb.String(), b.String()
	}
	plainText, plainCSV := render(build())
	passText, passCSV := render(build(true, true))
	if passText != plainText || passCSV != plainCSV {
		t.Fatalf("passing checks changed the output:\n%s\nvs\n%s", passText, plainText)
	}

	failed := build(true, false)
	failText, failCSV := render(failed)
	if failCSV != plainCSV {
		t.Fatalf("a violation changed the CSV:\n%s", failCSV)
	}
	want := "  VIOLATED: T / checked: check 1\n"
	if got := strings.Replace(failText, want, "", 1); got != plainText {
		t.Fatalf("failing check should add exactly %q:\n%s", want, failText)
	}
	if len(failed.Violations) != 1 || failed.Violations[0] != "T / checked: check 1" {
		t.Fatalf("Violations = %q", failed.Violations)
	}
}
