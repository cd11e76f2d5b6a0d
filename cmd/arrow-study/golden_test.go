package main

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// goldenWorkloads are the study workloads the experiments name, so every
// experiment runs on the subset.
var goldenWorkloads = []string{
	"als/spark2.1/medium",
	"bayes/spark2.1/medium",
	"pagerank/hadoop2.7/medium",
	"lr/spark1.5/medium",
	"regression/spark1.5/medium",
	"terasort/hadoop2.7/large",
	"wordcount/spark2.1/medium",
	"kmeans/spark1.5/medium",
}

const goldenDir = "testdata/golden"

// TestStudyGolden runs every experiment at two seeds on goldenWorkloads
// and compares stdout and every CSV with testdata/golden, so a change
// that moves any figure's numbers or text shows up here. Regenerate
// after an intended change with
//
//	ARROW_UPDATE_GOLDEN=1 go test -run TestStudyGolden ./cmd/arrow-study
func TestStudyGolden(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	args := []string{"-seeds", "2", "-cache-dir", "", "-out", dir,
		"-workloads", strings.Join(goldenWorkloads, ",")}
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := readDirCSVs(t, dir)
	got["stdout.txt"] = out.String()

	if os.Getenv("ARROW_UPDATE_GOLDEN") != "" {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range got {
			if err := os.WriteFile(filepath.Join(goldenDir, name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}

	want := readDirCSVs(t, goldenDir)
	stdout, err := os.ReadFile(filepath.Join(goldenDir, "stdout.txt"))
	if err != nil {
		t.Fatalf("missing golden stdout (regenerate with ARROW_UPDATE_GOLDEN=1): %v", err)
	}
	want["stdout.txt"] = string(stdout)
	names := map[string]bool{}
	for name := range got {
		names[name] = true
	}
	for name := range want {
		names[name] = true
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		g, inGot := got[name]
		w, inWant := want[name]
		switch {
		case !inGot:
			t.Errorf("%s: in the golden set but not written", name)
		case !inWant:
			t.Errorf("%s: written but not in the golden set", name)
		case g != w:
			t.Errorf("%s differs from the golden: %s", name, firstDiff(w, g))
		}
	}
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return "line " + strconv.Itoa(i+1) + ":\n  want " + strconv.Quote(w) + "\n  got  " + strconv.Quote(g)
		}
	}
	return "no line differs"
}
