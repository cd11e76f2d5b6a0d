package study

import (
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestExperiments runs every experiment at two seeds on the workloads the
// experiments name. Each must print its summary and write at least one
// CSV whose rows fit its header, no two may write the same file, and a
// failing sink must fail the experiment.
func TestExperiments(t *testing.T) {
	var ws []workloads.Workload
	for _, id := range []string{
		"als/spark2.1/medium", "bayes/spark2.1/medium", "pagerank/hadoop2.7/medium", "lr/spark1.5/medium",
		"regression/spark1.5/medium", "terasort/hadoop2.7/large", "wordcount/spark2.1/medium", "kmeans/spark1.5/medium",
	} {
		w, err := workloads.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	r := NewRunner(sim.New(cloud.DefaultCatalog()), WithWorkloads(ws))
	defer r.Close()

	writer := map[string]string{} // CSV name -> experiment that wrote it
	var current string
	p := NewPaper(r, 2, func(name string, header []string, rows [][]string) error {
		if prev, ok := writer[name]; ok {
			t.Errorf("%s: %s already written by %s", current, name, prev)
		}
		writer[name] = current
		if len(rows) == 0 {
			t.Errorf("%s: %s has no rows", current, name)
		}
		for _, row := range rows {
			if len(row) != len(header) {
				t.Errorf("%s: %s row %q does not fit header %q", current, name, row, header)
				break
			}
		}
		return nil
	})
	names := map[string]bool{}
	for _, e := range Experiments {
		if names[e.Name] {
			t.Errorf("experiment %s listed twice", e.Name)
		}
		names[e.Name] = true
		current = e.Name
		written := len(writer)
		var out strings.Builder
		if err := e.Run(p, &out); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(writer) == written {
			t.Errorf("%s wrote no CSV", e.Name)
		}
		if out.Len() == 0 {
			t.Errorf("%s printed nothing", e.Name)
		}
	}

	full := errors.New("disk full")
	failing := NewPaper(r, 2, func(string, []string, [][]string) error { return full })
	for _, e := range Experiments {
		if err := e.Run(failing, io.Discard); !errors.Is(err, full) {
			t.Errorf("%s with a failing sink returned %v", e.Name, err)
		}
	}
}

// TestFig3SmallStudySet runs Fig 3 on a study set smaller than the six
// workloads its chart shows: the chart shows what there is.
func TestFig3SmallStudySet(t *testing.T) {
	var ws []workloads.Workload
	for _, id := range []string{"pearson/spark2.1/medium", "scan/hadoop2.7/medium"} {
		w, err := workloads.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	r := NewRunner(sim.New(cloud.DefaultCatalog()), WithWorkloads(ws), WithoutRunCache())
	defer r.Close()
	var rows int
	p := NewPaper(r, 1, func(_ string, _ []string, csv [][]string) error {
		rows = len(csv)
		return nil
	})
	var out strings.Builder
	for _, e := range Experiments {
		if e.Name == "fig3" {
			if err := e.Run(p, &out); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rows != len(ws) {
		t.Errorf("fig3 wrote %d rows, want %d", rows, len(ws))
	}
	for _, w := range ws {
		if !strings.Contains(out.String(), w.ID()) {
			t.Errorf("fig3 chart does not show %s:\n%s", w.ID(), out.String())
		}
	}
}
