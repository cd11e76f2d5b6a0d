package arrow

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The advisor tests in nextbatch_test.go compare only a batch session's
// final result and trace, and the search loop decides those alone: a
// speculative pick the loop does not take is simply re-suggested later.
// The picks themselves come from the optimizers' plan hooks, which
// fantasize through the loop's selection code. This golden pins every
// batch the hooks return across the grid below, so a change to that code
// path that alters a single fantasy pick fails here.

// goldenBatchWorkloads are the simulated workloads every configuration
// runs on.
var goldenBatchWorkloads = []string{
	"als/spark2.1/medium",
	"kmeans/spark2.1/medium",
	"pagerank/hadoop2.7/medium",
}

// goldenBatchFailures are the candidates the chaos variant fails
// permanently: 0, 3 and 4 sit in common initial designs, forcing design
// replacements, and 14 is a frequent model-phase pick.
var goldenBatchFailures = []int{0, 3, 14, 4}

// goldenBatchConfig is one optimizer configuration of the grid. Every
// configuration runs at seed 42.
type goldenBatchConfig struct {
	name string
	opts []Option
}

// warmStartHistory measures six catalog entries of the workload under a
// different trial, the history the warm-started configurations carry.
func warmStartHistory(t *testing.T, workload string) []PriorRun {
	t.Helper()
	target, err := NewSimulatedTarget(workload, 99)
	if err != nil {
		t.Fatal(err)
	}
	var history []PriorRun
	for _, i := range []int{1, 4, 7, 10, 13, 16} {
		out, err := target.Measure(i)
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, PriorRun{Features: target.Features(i), Metrics: out.Metrics, Value: out.CostUSD})
	}
	return history
}

func goldenBatchConfigs(t *testing.T, workload string) []goldenBatchConfig {
	t.Helper()
	methods := []struct {
		name   string
		method Method
	}{
		{"naive", MethodNaiveBO},
		{"augmented", MethodAugmentedBO},
		{"hybrid", MethodHybridBO},
		{"random", MethodRandomSearch},
	}
	var cfgs []goldenBatchConfig
	for _, m := range methods {
		cfgs = append(cfgs, goldenBatchConfig{m.name, []Option{WithMethod(m.method)}})
	}
	// At 300 s no VM meets the SLO, so every model-phase pick is the
	// fastest-predicted fallback; at 1000 s some VMs are feasible.
	for _, slo := range []float64{300, 1000} {
		for _, m := range methods[:3] {
			cfgs = append(cfgs, goldenBatchConfig{
				fmt.Sprintf("%s/slo%g", m.name, slo),
				[]Option{WithMethod(m.method), WithObjective(MinimizeCost), WithMaxTimeSLO(slo)},
			})
		}
	}
	warm := warmStartHistory(t, workload)
	cfgs = append(cfgs,
		goldenBatchConfig{"naive/mes", []Option{WithMethod(MethodNaiveBO), WithAcquisition(AcquisitionMES)}},
		goldenBatchConfig{"naive/auto-kernel/slo1000", []Option{WithMethod(MethodNaiveBO), WithAutoKernel(), WithMaxTimeSLO(1000)}},
		goldenBatchConfig{"augmented/no-lowlevel", []Option{WithMethod(MethodAugmentedBO), WithoutLowLevelMetrics()}},
		goldenBatchConfig{"augmented/random-design/max9", []Option{WithMethod(MethodAugmentedBO), WithInitialDesign(DesignRandom), WithMaxMeasurements(9)}},
		// A one-point design leaves the augmented loop a replacement
		// pick to make, with its planner on the design read-ahead.
		goldenBatchConfig{"augmented/one-point-design", []Option{WithMethod(MethodAugmentedBO), WithNumInitial(1)}},
		goldenBatchConfig{"hybrid/fixed-design/switch6", []Option{WithMethod(MethodHybridBO), WithInitialCandidates(0, 3, 5), WithSwitchAfter(6)}},
		goldenBatchConfig{"augmented/warm-start", []Option{WithMethod(MethodAugmentedBO), WithWarmStart(warm...)}},
		goldenBatchConfig{"hybrid/warm-start", []Option{WithMethod(MethodHybridBO), WithWarmStart(warm...)}},
	)
	return cfgs
}

// batchPicks drives one advisor session through NextBatch(k) to the end
// and returns every batch's candidate indices. Each batch's last
// suggestion is observed first, so later plans see a fantasy whose real
// outcome already arrived; the rest follow in batch order.
func batchPicks(t *testing.T, opts []Option, target Target, k int) [][]int {
	t.Helper()
	opt, err := New(append([]Option{WithSeed(42)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	advisor, err := opt.NewAdvisor(TargetCandidates(target))
	if err != nil {
		t.Fatal(err)
	}
	defer advisor.Abort(nil)
	var batches [][]int
	for len(batches) <= target.NumCandidates() {
		sugs, err := advisor.NextBatch(context.Background(), k)
		if err != nil {
			t.Fatalf("NextBatch: %v", err)
		}
		if sugs[0].Done {
			return batches
		}
		batch := make([]int, len(sugs))
		for i, sug := range sugs {
			batch[i] = sug.Index
		}
		batches = append(batches, batch)
		order := []int{len(batch) - 1}
		for i := 0; i < len(batch)-1; i++ {
			order = append(order, i)
		}
		for _, i := range order {
			idx := batch[i]
			out, merr := target.Measure(idx)
			if merr != nil {
				err = advisor.ObserveFailure(idx, merr)
			} else {
				err = advisor.Observe(idx, out)
			}
			if err != nil {
				t.Fatalf("observing %d: %v", idx, err)
			}
		}
	}
	t.Fatalf("session still running after %d batches", len(batches))
	return nil
}

// goldenBatchEntry is one line of the golden file.
type goldenBatchEntry struct {
	Config  string  `json:"config"`
	Batches [][]int `json:"batches"`
}

// generateBatchPicks runs the whole grid — every configuration on every
// workload, at k = 2 on the plain target and k = 4 on a chaos target with
// permanent failures — and renders one JSON entry per line.
func generateBatchPicks(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("[\n")
	first := true
	for _, workload := range goldenBatchWorkloads {
		for _, cfg := range goldenBatchConfigs(t, workload) {
			for _, chaos := range []bool{false, true} {
				target, err := NewSimulatedTarget(workload, 1)
				if err != nil {
					t.Fatal(err)
				}
				k, variant := 2, "k2"
				if chaos {
					target = NewChaosTarget(target, ChaosConfig{PermanentFailures: goldenBatchFailures})
					k, variant = 4, "k4-chaos"
				}
				line, err := json.Marshal(goldenBatchEntry{
					Config:  cfg.name + "/" + workload + "/" + variant,
					Batches: batchPicks(t, cfg.opts, target, k),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !first {
					buf.WriteString(",\n")
				}
				first = false
				buf.Write(line)
			}
		}
	}
	buf.WriteString("\n]\n")
	return buf.Bytes()
}

// TestNextBatchPicksGolden requires every batch pick of the grid to match
// the checked-in golden byte for byte. Regenerate only after an
// intentional change to the planners' picks with:
//
//	ARROW_UPDATE_GOLDEN=1 go test -run TestNextBatchPicksGolden .
func TestNextBatchPicksGolden(t *testing.T) {
	golden := filepath.Join("testdata", "golden_batch_picks.json")
	got := generateBatchPicks(t)

	if os.Getenv("ARROW_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", golden, len(got))
		return
	}

	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden picks (regenerate with ARROW_UPDATE_GOLDEN=1): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("batch picks diverge from golden at line %d:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("golden has %d lines, got %d", len(wantLines), len(gotLines))
}
