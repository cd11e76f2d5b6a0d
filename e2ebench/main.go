// Command e2ebench is the repository's end-to-end benchmark. One process
// generates the load and hosts the program under test: advisor sessions
// driven over loopback TCP against a journaled serve.Server, or the
// study's figure mix on a cold study.Runner. Every output is checked
// against an in-process reference outside the timed window.
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced
// run (--trace 1) repeats the workload untraced, then again with a
// tracer attached, and prints the per-layer breakdown. Each layer is
// measured from outside: by timing calls into its public functions and
// by reading the telemetry events the program already emits. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the command exits 1 when any operation
// failed or any output was wrong.
//
// Run it from the repository root with
//
//	bash e2ebench/run.sh --workload serve-durable --seed 1 --seconds 10 --trace 0
//
// LAYERS.md lists the workloads, the metrics and which end-to-end
// metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"
)

// The end-to-end metrics, in report order, with their units. A workload
// reports the ones that apply to it.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"sessions_per_s", "1/s"},
	{"searches_per_s", "1/s"},
	{"create_p50_ms", "ms"},
	{"create_p99_ms", "ms"},
	{"next_p50_ms", "ms"},
	{"next_p99_ms", "ms"},
	{"observe_p50_ms", "ms"},
	{"observe_p99_ms", "ms"},
	{"result_p50_ms", "ms"},
	{"result_p99_ms", "ms"},
	{"recover_s", "s"},
	{"failed_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// gatedE2E and gatedLayers are the metrics of the final JSON line, the
// ones BENCHMARK.json declares: each is measured on every workload.
// peak_rss_mb is left out: serve-durable keeps every session in its
// table, so there it restates sessions_per_s with more noise.
var (
	gatedE2E    = []string{"setup_s", "sessions_per_s"}
	gatedLayers = []string{
		"core.next_us_p50", "core.next_us_p99",
		"core.fit_ms_p50", "core.fit_ms_p99",
		"core.fits_per_suggestion", "core.refit_incremental_ratio", "core.scored_per_suggestion",
		"telemetry.events_per_session", "trace_overhead_pct",
	}
)

// metric is one reported number; n is the sample count behind it (0 for
// a count or a ratio).
type metric struct {
	value float64
	unit  string
	n     int
}

// layerRow is one line of the per-layer table. dist holds the samples
// behind a timing, for the quartile column; share is the layer's share
// of the end-to-end time, negative when none applies.
type layerRow struct {
	name  string
	m     metric
	dist  []float64
	share float64
}

// tally counts the operations a run attempted and the ones that failed:
// non-2xx or refused requests and outputs that disagree with the
// reference. It keeps the first few failure descriptions.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.problems) < 10 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one operation, failed unless good.
func (t *tally) check(good bool, format string, args ...any) {
	if good {
		t.ok()
		return
	}
	t.fail(format, args...)
}

// report is one workload's outcome.
type report struct {
	workload string
	e2e      map[string]metric
	traced   map[string]metric // the traced pass's end-to-end metrics (--trace 1)
	layers   []layerRow
	tally    *tally
}

// options are the command-line inputs every workload shares.
type options struct {
	seed    int64
	window  time.Duration
	trace   bool
	scratch string
}

// runners maps each workload name onto its runner.
var runners = map[string]func(options) (*report, error){
	"serve-durable": func(o options) (*report, error) { return runServe(serveDurable, o) },
	"serve-plan":    func(o options) (*report, error) { return runServe(servePlan, o) },
	"study-cold":    runStudy,
}

func main() { os.Exit(run(os.Args[1:])) }

// run executes the command and returns its exit code: 0 when every check
// passed, 1 when an operation failed or an output was wrong, 2 when the
// benchmark could not run.
func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve-durable, serve-plan, study-cold, or all")
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	scratch := fs.String("scratch", ".bench_build/scratch", "directory for journals and caches, removed afterwards")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"serve-durable", "serve-plan", "study-cold"}
	}
	for _, name := range names {
		if runners[name] == nil {
			fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", name)
			return 2
		}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	scratchDir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	defer os.RemoveAll(scratchDir)
	opts := options{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, scratch: scratchDir}

	var reports []*report
	for _, name := range names {
		rep, err := runners[name](opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", name, err)
			return 2
		}
		reports = append(reports, rep)
	}
	printE2E(os.Stdout, reports, opts.trace)
	if opts.trace {
		for _, rep := range reports {
			printLayers(os.Stdout, rep)
		}
	}
	correct := true
	for _, rep := range reports {
		for _, p := range rep.tally.problems {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %s\n", rep.workload, p)
		}
		if rep.tally.failed > 0 {
			correct = false
		}
	}
	if err := printJSON(os.Stdout, reports, opts.trace, correct); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if !correct {
		return 1
	}
	return 0
}

// printE2E renders the end-to-end table: one row per workload (and per
// pass, for a traced run), each cell a value with its sample count.
func printE2E(w io.Writer, reports []*report, traced bool) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := []string{"WORKLOAD"}
	units := []string{""}
	for _, m := range e2eMetrics {
		header = append(header, m.name)
		units = append(units, m.unit)
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	fmt.Fprintln(tw, strings.Join(units, "\t"))
	row := func(label string, ms map[string]metric) {
		cells := []string{label}
		for _, m := range e2eMetrics {
			v, ok := ms[m.name]
			switch {
			case !ok:
				cells = append(cells, "-")
			case v.n > 0:
				cells = append(cells, fmt.Sprintf("%.4g n=%d", v.value, v.n))
			default:
				cells = append(cells, fmt.Sprintf("%.4g", v.value))
			}
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	for _, rep := range reports {
		row(rep.workload, rep.e2e)
		if traced {
			row(rep.workload+" (traced)", rep.traced)
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// printLayers renders one workload's per-layer table in the quartile
// style of `arrow-bench -tables`.
func printLayers(w io.Writer, rep *report) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "LAYER (%s)\tVALUE\tUNIT\tN\tQ1 / MED / Q3\tSHARE OF E2E\n", rep.workload)
	for _, r := range rep.layers {
		dist, share := "-", "-"
		if len(r.dist) > 0 {
			q1, med, q3 := quartiles(r.dist)
			dist = fmt.Sprintf("%.4g / %.4g / %.4g", q1, med, q3)
		}
		if r.share >= 0 {
			share = fmt.Sprintf("%.1f%%", 100*r.share)
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%s\t%d\t%s\t%s\n", r.name, r.m.value, r.m.unit, r.m.n, dist, share)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// printJSON writes the final result line: the gated metrics only, so
// every workload reports the same set.
func printJSON(w io.Writer, reports []*report, traced, correct bool) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: correct, Metrics: make(map[string]jsonMetric)}
	for _, rep := range reports {
		out.Attempted += rep.tally.attempted
		out.Failed += rep.tally.failed
		source, names := rep.e2e, gatedE2E
		if traced {
			source, names = make(map[string]metric), gatedLayers
			for _, r := range rep.layers {
				source[r.name] = r.m
			}
		}
		for _, name := range names {
			m, ok := source[name]
			if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				return fmt.Errorf("%s: metric %s was not measured", rep.workload, name)
			}
			key := name
			if len(reports) > 1 {
				key = rep.workload + "/" + name
			}
			out.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// e2eOf fills in the end-to-end metrics every workload shares but
// failed_ratio, which is known only once the checks ran.
func e2eOf(setup []time.Duration, rss float64) map[string]metric {
	secs := in(setup, time.Second)
	return map[string]metric{
		"setup_s":     {quantile(secs, 0.5), "s", len(secs)},
		"peak_rss_mb": {rss, "MB", 0},
	}
}

// failedRatio is the failed share of the operations attempted so far.
func failedRatio(tl *tally) metric {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return metric{float64(tl.failed) / math.Max(1, float64(tl.attempted)), "ratio", int(tl.attempted)}
}

// rateBucket is the slice of the timed window one throughput sample
// covers. Throughput is the interquartile mean of the per-bucket rates:
// a stall or a burst of outside load on a shared machine moves only the
// outer buckets, and averaging the middle half keeps more of the
// sample's information than its median would.
const rateBucket = 500 * time.Millisecond

// bucketRate counts the completions (offsets from the window's start)
// falling in each whole bucket of the window and returns the
// interquartile mean of the per-bucket rates; n is the completions
// counted.
func bucketRate(done []time.Duration, window time.Duration) metric {
	buckets := int(window / rateBucket)
	if buckets < 1 {
		buckets = 1
	}
	rates := make([]float64, buckets)
	n := 0
	for _, d := range done {
		if b := int(d / rateBucket); b < buckets {
			rates[b] += 1 / rateBucket.Seconds()
			n++
		}
	}
	return metric{interquartileMean(rates), "1/s", n}
}

// latencyMetrics adds the p50 and p99 of each route's client round trips.
func latencyMetrics(ms map[string]metric, lat map[string][]time.Duration) {
	for _, route := range routes {
		xs := in(lat[route], time.Millisecond)
		ms[route+"_p50_ms"] = metric{quantile(xs, 0.50), "ms", len(xs)}
		ms[route+"_p99_ms"] = metric{quantile(xs, 0.99), "ms", len(xs)}
	}
}

// timingRows turns a duration sample into its p50 and p99 rows, named
// base_p50tail and base_p99tail.
func timingRows(base, tail string, ds []time.Duration, unit time.Duration, unitName string, share float64) []layerRow {
	xs := in(ds, unit)
	sorted := append([]float64(nil), xs...)
	return []layerRow{
		{base + "_p50" + tail, metric{quantile(sorted, 0.50), unitName, len(xs)}, xs, share},
		{base + "_p99" + tail, metric{quantile(sorted, 0.99), unitName, len(xs)}, nil, -1},
	}
}

// countRow is a per-layer count or ratio with no distribution.
func countRow(name string, v float64, unit string) layerRow {
	return layerRow{name: name, m: metric{v, unit, 0}, share: -1}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
