package chaos

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestMain holds the package to the rule that tests leave no artifacts
// behind: every red run dumps into a temporary directory, and a replay
// dumps nowhere, so the package directory must read the same before
// and after the whole suite.
func TestMain(m *testing.M) {
	before, err := dirState(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos: list package directory:", err)
		os.Exit(1)
	}
	code := m.Run()
	after, err := dirState(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos: list package directory:", err)
		os.Exit(1)
	}
	if after != before {
		fmt.Fprintf(os.Stderr, "chaos: tests changed the package directory\nbefore:\n%safter:\n%s", before, after)
		code = 1
	}
	os.Exit(code)
}

// dirState lists dir's entries with size and modification time, one a
// line, in name order: a rewritten file changes it as surely as a new
// one.
func dirState(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	lines := make([]string, 0, len(ents))
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return "", err
		}
		lines = append(lines, fmt.Sprintf("%s %d %s\n", e.Name(), info.Size(), info.ModTime().UTC().Format("2006-01-02T15:04:05.000000000")))
	}
	sort.Strings(lines)
	return strings.Join(lines, ""), nil
}
