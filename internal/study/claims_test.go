package study

import (
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The paper's claims, checked against the committed 20-seed study
// (results/, written by `arrow-study -seeds 20`). Each claim is one
// shape of DESIGN.md §4 or one row of the EXPERIMENTS.md inventory: the
// paper's value, ours as read from the CSVs, and a predicate. A claim
// this substrate does not reproduce carries the EXPERIMENTS.md
// divergence that explains it; it fails if it starts to hold, so the
// mark comes off. No search runs here: the test checks the numbers the
// repository publishes.

const (
	resultsDir      = "../../results"
	experimentsPath = "../../EXPERIMENTS.md"
	claimsBegin     = "<!-- claims:begin -->"
	claimsEnd       = "<!-- claims:end -->"
)

type claim struct {
	name  string // subtest name: <experiment>/<shape>
	shape string // the claim in words
	paper string
	// diverges names the EXPERIMENTS.md divergence that explains why the
	// predicate fails on this substrate; empty for a claim that holds.
	diverges string
	// check reads the results and returns our value and the verdict of
	// the claim's predicate on it.
	check func(r *results) (ours string, holds bool)
}

var paperClaims = []claim{
	{
		name: "table1/study-set", shape: "107 workloads run on every VM", paper: "107 workloads",
		check: func(r *results) (string, bool) {
			rows := r.read("table1_inventory.csv")
			n := len(rows.where("status", "study"))
			return fmt.Sprintf("%d of %d candidates", n, len(rows)), n == 107
		},
	},
	{
		name: "fig1/naive-within-6-time", shape: "Naive BO finds the optimum within 6 measurements for ~50–60 % of workloads (time; predicate 40–70 %)",
		paper: "50 % (Fig 1), 60 % (Fig 9a)", diverges: "divergence 1",
		check: func(r *results) (string, bool) {
			v := r.cdf("fig9a_cdf_time.csv", "Naive BO", 6)
			return pct(v), v >= 0.40 && v <= 0.70
		},
	},
	{
		name: "fig2/als-is-slow", shape: "Naive BO needs more than 12 measurements on ALS (a Region III workload; time)",
		paper: "optimum at attempt 13", diverges: "divergence 1",
		check: func(r *results) (string, bool) {
			step := r.read("fig2_als_trajectory.csv").optimumStep("median_norm_time")
			return fmt.Sprintf("median at the optimum from step %d", step), step > RegionIIBudget
		},
	},
	{
		name: "fig3/time-spread", shape: "the worst VM is O(10–20×) slower than the best (predicate 10–40×)", paper: "up to 20×",
		check: func(r *results) (string, bool) {
			id, v := r.read("fig3_spread.csv").max("time_worst_over_best")
			return fmt.Sprintf("%.1f× (%s)", v, id), v >= 10 && v <= 40
		},
	},
	{
		name: "fig3/cost-spread", shape: "the worst VM costs O(10×) more than the best (predicate 5–20×)", paper: "up to 10×",
		check: func(r *results) (string, bool) {
			id, v := r.read("fig3_spread.csv").max("cost_worst_over_best")
			return fmt.Sprintf("%.1f× (%s)", v, id), v >= 5 && v <= 20
		},
	},
	{
		name: "fig4/most-expensive-best-for-half", shape: "the most expensive VM is (near-)optimal for only ~half the workloads (time; predicate 40–60 %)",
		paper: "c4.2xlarge ~50 %",
		check: func(r *results) (string, bool) {
			v := r.optimalShare("c4.2xlarge")
			return "c4.2xlarge " + pct(v), v >= 0.40 && v <= 0.60
		},
	},
	{
		name: "fig4/cheapest-vm-no-safe-default", shape: "the cheapest VM is not a safe default (cost; predicate under 50 %)",
		paper: "c4.large does not guarantee the lowest cost",
		check: func(r *results) (string, bool) {
			v := r.optimalShare("c4.large")
			return "c4.large " + pct(v), v < 0.5
		},
	},
	{
		name: "fig5/best-vm-changes-with-size", shape: "the cost-optimal VM changes with input size for most probed app/system pairs",
		paper: "bayes/spark: m4.2xlarge at small, +40 % cost at large",
		check: func(r *results) (string, bool) {
			best := map[string]map[string]bool{}
			for _, row := range r.read("fig5_input_size.csv") {
				pair := row["app"] + "/" + row["system"]
				if best[pair] == nil {
					best[pair] = map[string]bool{}
				}
				best[pair][row["best_vm"]] = true
			}
			changed := 0
			for _, vms := range best {
				if len(vms) > 1 {
					changed++
				}
			}
			return fmt.Sprintf("%d of %d pairs", changed, len(best)), 2*changed > len(best)
		},
	},
	{
		name: "fig6/cost-compresses-spread", shape: "cost spreads less than time across VMs (regression/spark1.5)",
		paper: "time differs widely, cost is similar",
		check: func(r *results) (string, bool) {
			rows := r.read("fig6_level_playing_field.csv")
			_, tv := rows.max("normalized_time")
			_, cv := rows.max("normalized_cost")
			return fmt.Sprintf("%.1f× time vs %.1f× cost", tv, cv), cv < tv
		},
	},
	{
		name: "fig7/kernel-rank-flips", shape: "no kernel is best on both panels (als/time, bayes/cost)",
		paper: "Matérn 1/2 best on als, worst on bayes", diverges: "divergence 7",
		check: func(r *results) (string, bool) {
			var panels []string
			best := map[string]int{}
			for _, panel := range []struct{ label, file string }{
				{"als/time", "fig7a_kernels_als_time.csv"},
				{"bayes/cost", "fig7b_kernels_bayes_cost.csv"},
			} {
				rows := r.read(panel.file)
				steps := map[string]int{}
				var kernels []string
				for _, k := range rows.distinct("kernel") {
					steps[k] = rows.where("kernel", k).optimumStep("median_normalized")
					kernels = append(kernels, fmt.Sprintf("%s %d", k, steps[k]))
				}
				fastest := math.MaxInt
				for _, s := range steps {
					fastest = min(fastest, s)
				}
				for k, s := range steps {
					if s == fastest {
						best[k]++
					}
				}
				panels = append(panels, panel.label+": "+strings.Join(kernels, ", "))
			}
			flips := true
			for _, n := range best {
				flips = flips && n < 2
			}
			return "steps to the median optimum, " + strings.Join(panels, "; "), flips
		},
	},
	{
		name: "fig8/memory-bottleneck", shape: "the two slowest VMs for lr/spark1.5 are the small c-types under memory pressure; c4.2xlarge is fastest",
		paper: "c3.large 14.8×, c4.large 13.9×; c4.2xlarge 1.0",
		check: func(r *results) (string, bool) {
			rows := r.read("fig8_memory_bottleneck.csv") // slowest first
			slow, fastest := rows[:2], rows[len(rows)-1]
			holds := fastest["vm"] == "c4.2xlarge"
			var parts []string
			for _, row := range slow {
				holds = holds && (row["vm"] == "c3.large" || row["vm"] == "c4.large") && r.float(row["mem_commit_pct"]) > 100
				parts = append(parts, fmt.Sprintf("%s %.1f× at %.0f %% commit", row["vm"], r.float(row["normalized_time"]), r.float(row["mem_commit_pct"])))
			}
			return strings.Join(parts, ", ") + "; fastest " + fastest["vm"], holds
		},
	},
	{
		name: "fig9/naive-within-6-cost", shape: "Naive BO finds the optimum within 6 measurements for ~50 % of workloads (cost; predicate 40–60 %)",
		paper: "50 %", diverges: "divergence 5",
		check: func(r *results) (string, bool) {
			v := r.cdf("fig9b_cdf_cost.csv", "Naive BO", 6)
			return pct(v), v >= 0.40 && v <= 0.60
		},
	},
	{
		name: "fig9/augmented-slow-start-cost", shape: "Augmented BO starts behind Naive BO and is ahead by 10 measurements (cost)",
		paper: "behind in the first ~4; 96 vs 80 % within 10",
		check: func(r *results) (string, bool) {
			const file = "fig9b_cdf_cost.csv"
			behind := 0
			for m := 1; m <= 6 && behind == 0; m++ {
				if r.cdf(file, "Augmented BO", m) < r.cdf(file, "Naive BO", m) {
					behind = m
				}
			}
			a10, n10 := r.cdf(file, "Augmented BO", 10), r.cdf(file, "Naive BO", 10)
			ours := fmt.Sprintf("%s vs %s within 6; %s vs %s within 10",
				pct(r.cdf(file, "Augmented BO", 6)), pct(r.cdf(file, "Naive BO", 6)), pct(a10), pct(n10))
			return ours, behind > 0 && a10 > n10
		},
	},
	{
		name: "fig9/hybrid-dominates-naive", shape: "Hybrid BO is at or above Naive BO at every budget, on both objectives",
		paper: "dominates everywhere", diverges: "divergence 6",
		check: func(r *results) (string, bool) {
			var below []string
			for _, panel := range []struct{ objective, file string }{
				{"time", "fig9a_cdf_time.csv"},
				{"cost", "fig9b_cdf_cost.csv"},
			} {
				for m := 1; m <= 18; m++ {
					if h, n := r.cdf(panel.file, "Hybrid BO", m), r.cdf(panel.file, "Naive BO", m); h < n {
						below = append(below, fmt.Sprintf("%s %d: %.1f vs %.1f %%", panel.objective, m, 100*h, 100*n))
					}
				}
			}
			if len(below) == 0 {
				return "never below", true
			}
			return "below Naive at " + strings.Join(below, "; "), false
		},
	},
	{
		name: "fig10/augmented-sooner", shape: "Augmented BO reaches the optimum no later than Naive BO on every panel, sooner on one",
		paper: "Augmented reaches the optimum sooner",
		check: func(r *results) (string, bool) {
			var parts []string
			noLater, sooner := true, false
			for _, file := range fig10Files {
				rows := r.read(file)
				a := rows.where("method", "Augmented BO").optimumStep("median_normalized")
				n := rows.where("method", "Naive BO").optimumStep("median_normalized")
				noLater, sooner = noLater && a <= n, sooner || a < n
				parts = append(parts, fmt.Sprintf("%d vs %d", a, n))
			}
			return "steps to the median optimum, Augmented vs Naive: " + strings.Join(parts, ", "), noLater && sooner
		},
	},
	{
		name: "fig10/augmented-narrower-iqr", shape: "Augmented BO's interquartile band is narrower than Naive BO's on every panel",
		paper: "smaller variance", diverges: "divergence 8",
		check: func(r *results) (string, bool) {
			var parts []string
			narrower := true
			for _, file := range fig10Files {
				rows := r.read(file)
				a := rows.where("method", "Augmented BO").meanIQR()
				n := rows.where("method", "Naive BO").meanIQR()
				narrower = narrower && a < n
				parts = append(parts, fmt.Sprintf("%.3f vs %.3f", a, n))
			}
			return "mean IQR, Augmented vs Naive: " + strings.Join(parts, ", "), narrower
		},
	},
	{
		name: "fig11/augmented-trade-off", shape: "raising Augmented BO's delta buys a better VM for more measurements, in every region",
		paper: "a clean frontier; Naive BO has none",
		check: func(r *results) (string, bool) {
			holds := true
			var parts []string
			for _, region := range []Region{RegionI, RegionII, RegionIII} {
				pts := r.sweep(region, "Augmented BO")
				for i := 1; i < len(pts); i++ {
					holds = holds && pts[i].SearchCost >= pts[i-1].SearchCost && pts[i].FoundNorm <= pts[i-1].FoundNorm
				}
				first, last := pts[0], pts[len(pts)-1]
				holds = holds && last.SearchCost > first.SearchCost && last.FoundNorm < first.FoundNorm
				parts = append(parts, fmt.Sprintf("%s: %.2f→%.2f measurements, %.3f→%.3f×", region, first.SearchCost, last.SearchCost, first.FoundNorm, last.FoundNorm))
			}
			return "delta 0.9→1.3, " + strings.Join(parts, "; "), holds
		},
	},
	{
		name: "fig11/augmented-dominates-region-II", shape: "in Region II, at no more search cost than any Naive BO point, an Augmented BO point finds a cheaper VM",
		paper: "Augmented dominates in Regions II/III", diverges: "divergence 9",
		check: func(r *results) (string, bool) { return r.dominates(RegionII) },
	},
	{
		name: "fig11/augmented-dominates-region-III", shape: "in Region III, at no more search cost than any Naive BO point, an Augmented BO point finds a cheaper VM",
		paper: "Augmented dominates in Regions II/III",
		check: func(r *results) (string, bool) { return r.dominates(RegionIII) },
	},
	{
		name: "fig12/more-win-than-loss", shape: "more Win than Loss workloads (cost, EI 10 % vs delta 1.1)",
		paper: "46 win / 39 same / 17 draw / 5 loss",
		check: func(r *results) (string, bool) { return r.winLoss("fig12_win_loss_cost.csv") },
	},
	{
		name: "fig13/more-win-than-loss", shape: "more Win than Loss workloads (time-cost product, EI 10 % vs delta 1.05)",
		paper: "53 win / 14 same / 32+2 draw / 6 loss",
		check: func(r *results) (string, bool) { return r.winLoss("fig13_win_loss_product.csv") },
	},
	{
		name: "fig13/larger-search-cost-reductions", shape: "the product objective gives larger search-cost reductions than cost alone",
		paper: "reductions over 50 % exist",
		check: func(r *results) (string, bool) {
			_, p := r.read("fig13_win_loss_product.csv").max("search_cost_reduction_pct")
			_, c := r.read("fig12_win_loss_cost.csv").max("search_cost_reduction_pct")
			return fmt.Sprintf("max %.1f %% vs %.1f %% (Fig 12)", p, c), p > c
		},
	},
	{
		name: "initpoints/triplet-sensitivity", shape: "the miss-within-6 rate swings by at least 15 points between fixed initial triplets",
		paper: "~15 % under one triplet, ~0 under another",
		check: func(r *results) (string, bool) {
			rows := r.read("initpoints_sensitivity.csv")
			lo, hi := 1.0, 0.0
			for _, design := range rows.distinct("design") {
				steps := rows.where("design", design)
				missed := 0
				for _, row := range steps {
					if r.float(row["step_optimal"]) > RegionIBudget {
						missed++
					}
				}
				rate := float64(missed) / float64(len(steps))
				lo, hi = math.Min(lo, rate), math.Max(hi, rate)
			}
			return fmt.Sprintf("%s to %s across %d triplets", pct(lo), pct(hi), len(rows.distinct("design"))), hi-lo >= 0.15
		},
	},
}

var fig10Files = []string{"fig10a_pagerank.csv", "fig10b_als.csv", "fig10c_lr.csv"}

// TestPaperClaims checks every claim against results/ and compares the
// rendered table with the block between the claims markers in
// EXPERIMENTS.md. After regenerating results/, refresh the block with
//
//	ARROW_UPDATE_GOLDEN=1 go test -run TestPaperClaims ./internal/study
func TestPaperClaims(t *testing.T) {
	r := &results{t: t, files: map[string]table{}}
	var block strings.Builder
	block.WriteString("| Claim | Paper | Ours | Verdict |\n|---|---|---|---|\n")
	for _, c := range paperClaims {
		t.Run(c.name, func(t *testing.T) {
			r.t = t
			ours, holds := c.check(r)
			verdict := "holds"
			switch {
			case c.diverges != "" && holds:
				t.Errorf("%s now holds (%s): remove its diverges mark and %s", c.shape, ours, c.diverges)
			case c.diverges != "":
				verdict = "diverges (" + c.diverges + ")"
			case !holds:
				t.Errorf("%s does not hold: ours %s, paper %s", c.shape, ours, c.paper)
				verdict = "FAILS"
			}
			fmt.Fprintf(&block, "| `%s`: %s | %s | %s | %s |\n", c.name, c.shape, c.paper, ours, verdict)
		})
	}

	doc, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	begin := strings.Index(string(doc), claimsBegin)
	end := strings.Index(string(doc), claimsEnd)
	if begin < 0 || end < begin {
		t.Fatalf("EXPERIMENTS.md lacks the %s ... %s block", claimsBegin, claimsEnd)
	}
	head, tail := string(doc[:begin+len(claimsBegin)])+"\n", string(doc[end:])
	if os.Getenv("ARROW_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(experimentsPath, []byte(head+block.String()+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got := string(doc[begin+len(claimsBegin)+1 : end]); got != block.String() {
		t.Errorf("EXPERIMENTS.md's claims block is stale (regenerate with ARROW_UPDATE_GOLDEN=1); the claims render as:\n%s", block.String())
	}
}

// results reads the committed study CSVs, each once.
type results struct {
	t     *testing.T
	files map[string]table
}

// table is a CSV file's rows keyed by its header.
type table []map[string]string

func (r *results) read(name string) table {
	r.t.Helper()
	if tab, ok := r.files[name]; ok {
		return tab
	}
	f, err := os.Open(filepath.Join(resultsDir, name))
	if err != nil {
		r.t.Fatal(err)
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil || len(records) < 2 {
		r.t.Fatalf("%s: %d records, %v", name, len(records), err)
	}
	tab := make(table, 0, len(records)-1)
	for _, rec := range records[1:] {
		row := map[string]string{}
		for i, col := range records[0] {
			row[col] = rec[i]
		}
		tab = append(tab, row)
	}
	r.files[name] = tab
	return tab
}

func (r *results) float(s string) float64 {
	r.t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		r.t.Fatal(err)
	}
	return v
}

// cdf is a method's fraction of workloads solved within m measurements.
func (r *results) cdf(file, method string, m int) float64 {
	r.t.Helper()
	for _, row := range r.read(file).where("method", method) {
		if row["measurements"] == strconv.Itoa(m) {
			return r.float(row["fraction_of_workloads"])
		}
	}
	r.t.Fatalf("%s: no %s row at %d measurements", file, method, m)
	return 0
}

// optimalShare is the share of workloads on which vm is (near-)optimal
// in Figure 4.
func (r *results) optimalShare(vm string) float64 {
	rows := r.read("fig4_fixed_vm.csv").where("vm", vm)
	n := 0
	for _, row := range rows {
		if r.float(row["normalized"]) <= fixedVMEpsilon {
			n++
		}
	}
	return float64(n) / float64(len(rows))
}

// sweep returns a method's Figure 11 points in one region, in
// threshold order.
func (r *results) sweep(region Region, method string) []SweepPoint {
	var pts []SweepPoint
	for _, row := range r.read("fig11_stopping_tradeoff.csv").where("region", region.String()) {
		if strings.HasPrefix(row["method"], method) {
			pts = append(pts, SweepPoint{Label: row["method"], Threshold: r.float(row["threshold"]),
				SearchCost: r.float(row["mean_search_cost"]), FoundNorm: r.float(row["mean_normalized_cost"])})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Threshold < pts[j].Threshold })
	return pts
}

// dominates checks Figure 11's equal-cost comparison in one region:
// for every Naive BO point, the best Augmented BO point that pays no
// more measurements must find a strictly cheaper VM.
func (r *results) dominates(region Region) (string, bool) {
	holds := true
	var misses []string
	for _, n := range r.sweep(region, "Naive BO") {
		best := math.Inf(1)
		var bestLabel string
		for _, a := range r.sweep(region, "Augmented BO") {
			if a.SearchCost <= n.SearchCost && a.FoundNorm < best {
				best, bestLabel = a.FoundNorm, a.Label
			}
		}
		if best >= n.FoundNorm {
			holds = false
			if math.IsInf(best, 1) {
				misses = append(misses, fmt.Sprintf("no Augmented point at %.2f measurements", n.SearchCost))
			} else {
				misses = append(misses, fmt.Sprintf("%s %.3f× vs %s %.3f× (%.2f measurements)",
					thresholdOf(n.Label), n.FoundNorm, thresholdOf(bestLabel), best, n.SearchCost))
			}
		}
	}
	if holds {
		return "every Naive point is beaten", true
	}
	return strings.Join(misses, "; "), false
}

// winLoss reads a Figure 12/13 split and checks Win > Loss.
func (r *results) winLoss(file string) (string, bool) {
	counts := map[string]int{}
	for _, row := range r.read(file) {
		counts[row["class"]]++
	}
	return fmt.Sprintf("%d win / %d same / %d draw / %d loss", counts["Win"], counts["Same"], counts["Draw"], counts["Loss"]),
		counts["Win"] > counts["Loss"]
}

func (tab table) where(col, val string) table {
	var out table
	for _, row := range tab {
		if row[col] == val {
			out = append(out, row)
		}
	}
	return out
}

// distinct lists a column's values in first-seen order.
func (tab table) distinct(col string) []string {
	seen := map[string]bool{}
	var out []string
	for _, row := range tab {
		if !seen[row[col]] {
			seen[row[col]] = true
			out = append(out, row[col])
		}
	}
	return out
}

// max returns the largest value of col and the first column of its row.
func (tab table) max(col string) (string, float64) {
	id, best := "", math.Inf(-1)
	for _, row := range tab {
		if v, err := strconv.ParseFloat(row[col], 64); err == nil && v > best {
			id, best = firstColumn(row), v
		}
	}
	return id, best
}

// firstColumn names a row by its workload or VM.
func firstColumn(row map[string]string) string {
	if id, ok := row["workload"]; ok {
		return id
	}
	return row["vm"]
}

// optimumStep is the first step at which the median trajectory in col
// reaches the optimum (18 + 1 if it never does).
func (tab table) optimumStep(col string) int {
	for _, row := range tab {
		if v, err := strconv.ParseFloat(row[col], 64); err == nil && v <= 1 {
			step, _ := strconv.Atoi(row["step"])
			return step
		}
	}
	return 19
}

// meanIQR averages a trajectory's interquartile band over its steps.
func (tab table) meanIQR() float64 {
	sum := 0.0
	for _, row := range tab {
		q1, _ := strconv.ParseFloat(row["q1"], 64)
		q3, _ := strconv.ParseFloat(row["q3"], 64)
		sum += q3 - q1
	}
	return sum / float64(len(tab))
}

// thresholdOf shortens "Naive BO (EI 5%)" to "EI 5%".
func thresholdOf(label string) string {
	_, threshold, _ := strings.Cut(strings.TrimSuffix(label, ")"), "(")
	return threshold
}

func pct(v float64) string { return fmt.Sprintf("%.0f %%", 100*v) }
