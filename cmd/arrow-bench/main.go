// Command arrow-bench converts `go test -bench` output into a JSON report
// mapping each benchmark to its ns/op, B/op and allocs/op. `make bench`
// pipes the hot-path benchmarks through it to produce BENCH.json, so
// performance regressions show up as a reviewable diff. Custom metrics
// emitted via b.ReportMetric (e.g. the study cache's dedup-ratio) land in
// each benchmark's "extra" map.
//
// Usage:
//
//	go test -run xxx -bench . -benchmem ./... | arrow-bench -o BENCH.json
//	arrow-bench -compare BENCH.json fresh.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "arrow-bench:", err)
		os.Exit(1)
	}
}

// Metrics is one benchmark's measured costs. BytesPerOp and AllocsPerOp
// are present only when the run used -benchmem.
type Metrics struct {
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units, e.g. "dedup-ratio".
	Extra map[string]float64 `json:"extra,omitempty"`
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("arrow-bench", flag.ContinueOnError)
	outPath := fs.String("o", "", "write the JSON report to this file instead of stdout")
	compare := fs.Bool("compare", false, "compare two JSON reports: arrow-bench -compare old.json new.json")
	guard := fs.String("guard", "", "with -compare, fail when a benchmark regresses past its budget: 'BenchmarkFullSearchAugmented=25,BenchmarkOther=10' (percent ns/op)")
	tables := fs.Bool("tables", false, "summarize multi-sample output (go test -bench -count=N) as a quartile table instead of JSON")
	markdown := fs.Bool("markdown", false, "with -tables, use Markdown table notation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *guard != "" && !*compare {
		return fmt.Errorf("-guard only applies with -compare")
	}
	if *markdown && !*tables {
		return fmt.Errorf("-markdown only applies with -tables")
	}
	if *tables && *compare {
		return fmt.Errorf("-tables and -compare are mutually exclusive")
	}
	if *tables {
		return runTables(in, out, *markdown)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two reports: old.json new.json")
		}
		if err := runCompare(fs.Arg(0), fs.Arg(1), out); err != nil {
			return err
		}
		return runGuard(fs.Arg(0), fs.Arg(1), *guard, out)
	}

	report, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(report) == 0 {
		return fmt.Errorf("no benchmark result lines found on stdin")
	}

	w := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// parseBench scans `go test -bench` output for result lines of the form
//
//	BenchmarkName-8   50   8012345 ns/op   1404032 B/op   511 allocs/op
//
// and returns them keyed by benchmark name with the -GOMAXPROCS suffix
// stripped. Repeated names (e.g. -count > 1) keep the last measurement.
func parseBench(in io.Reader) (map[string]Metrics, error) {
	report := make(map[string]Metrics)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if name, m, ok := parseBenchLine(sc.Text()); ok {
			report[name] = m
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return report, nil
}

// runCompare diffs two JSON reports benchmark by benchmark, printing
// old/new ns/op with the relative change, plus custom metrics and
// "(new)"/"(gone)" markers for benchmarks present on only one side.
// `make bench-compare` uses it to diff a fresh run against BENCH.json.
func runCompare(oldPath, newPath string, out io.Writer) error {
	oldRep, err := readReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return err
	}
	names := make(map[string]bool, len(oldRep)+len(newRep))
	for name := range oldRep {
		names[name] = true
	}
	for name := range newRep {
		names[name] = true
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)

	fmt.Fprintf(out, "%-36s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, name := range sorted {
		o, inOld := oldRep[name]
		n, inNew := newRep[name]
		switch {
		case !inOld:
			fmt.Fprintf(out, "%-36s %14s %14.0f %9s%s\n", name, "-", n.NsPerOp, "(new)", extraSuffix(n))
		case !inNew:
			fmt.Fprintf(out, "%-36s %14.0f %14s %9s\n", name, o.NsPerOp, "-", "(gone)")
		default:
			delta := "n/a"
			if o.NsPerOp != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(n.NsPerOp-o.NsPerOp)/o.NsPerOp)
			}
			fmt.Fprintf(out, "%-36s %14.0f %14.0f %9s%s\n", name, o.NsPerOp, n.NsPerOp, delta, extraSuffix(n))
		}
	}
	return nil
}

// extraSuffix renders a benchmark's custom metrics in key order.
func extraSuffix(m Metrics) string {
	if len(m.Extra) == 0 {
		return ""
	}
	units := make([]string, 0, len(m.Extra))
	for unit := range m.Extra {
		units = append(units, unit)
	}
	sort.Strings(units)
	var sb strings.Builder
	for _, unit := range units {
		fmt.Fprintf(&sb, "  %s=%.4g", unit, m.Extra[unit])
	}
	return sb.String()
}

// runGuard enforces per-benchmark regression budgets against two
// reports already known to read cleanly (runCompare ran first). spec is
// a comma-separated list of name=percent entries; a guarded benchmark
// missing from either report fails, because a guard that silently
// evaluates nothing is worse than no guard. An empty spec is a no-op.
func runGuard(oldPath, newPath, spec string, out io.Writer) error {
	if spec == "" {
		return nil
	}
	oldRep, err := readReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return err
	}
	var failures []string
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, budgetStr, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("bad -guard entry %q, want Name=percent", entry)
		}
		budget, err := strconv.ParseFloat(budgetStr, 64)
		if err != nil || budget < 0 {
			return fmt.Errorf("bad -guard budget in %q, want a non-negative percent", entry)
		}
		o, inOld := oldRep[name]
		n, inNew := newRep[name]
		switch {
		case !inOld:
			failures = append(failures, fmt.Sprintf("%s missing from baseline %s", name, oldPath))
		case !inNew:
			failures = append(failures, fmt.Sprintf("%s missing from %s", name, newPath))
		case o.NsPerOp <= 0:
			failures = append(failures, fmt.Sprintf("%s has a non-positive baseline ns/op", name))
		default:
			delta := 100 * (n.NsPerOp - o.NsPerOp) / o.NsPerOp
			if delta > budget {
				failures = append(failures, fmt.Sprintf("%s regressed %.1f%% (%.0f -> %.0f ns/op), budget %.1f%%",
					name, delta, o.NsPerOp, n.NsPerOp, budget))
			} else {
				fmt.Fprintf(out, "guard ok: %s %+.1f%% within %.1f%% budget\n", name, delta, budget)
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench guard failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

func readReport(path string) (map[string]Metrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var report map[string]Metrics
	if err := json.Unmarshal(data, &report); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return report, nil
}

// sortedNames is a test seam: the JSON encoder already sorts map keys, but
// textual summaries want a stable order too.
func sortedNames(report map[string]Metrics) []string {
	names := make([]string, 0, len(report))
	for name := range report {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
