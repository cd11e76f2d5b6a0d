// Command arrow-study regenerates the paper's evaluation: every figure's
// data series is recomputed on the simulator substrate, written as CSV
// into the output directory, and sketched as an ASCII chart on stdout.
// The experiments themselves (workloads, methods, thresholds, CSV names)
// are the entries of study.Experiments; this command selects, runs and
// merges them and writes their CSV files.
//
// The selected experiments run as a work queue over one shared runner:
// every search pulls through the content-addressed run cache
// (internal/runcache), so overlapping figures execute each distinct
// (method, workload, objective, seed) search once, warm re-runs against
// a cache directory skip completed searches entirely, and an
// interrupted study resumes where it stopped. Figure output is buffered
// and merged in paper order, so CSVs and stdout are byte-identical
// between a cold run, a warm run, and any -concurrency setting.
// Progress, ETA and cache statistics go to stderr.
//
// Usage:
//
//	arrow-study                      # all experiments, 20 seeds (results/)
//	arrow-study -figures fig9,fig12  # a subset
//	arrow-study -seeds 100           # the paper's repeat count
//	arrow-study -no-cache            # force every search to execute
package main

import (
	"bytes"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/study"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "arrow-study:", err)
		os.Exit(1)
	}
}

func run(args []string, out, progress io.Writer) error {
	fs := flag.NewFlagSet("arrow-study", flag.ContinueOnError)
	var (
		seeds    = fs.Int("seeds", 20, "independent repetitions per workload (paper uses 100)")
		outDir   = fs.String("out", "results", "directory for CSV output")
		figures  = fs.String("figures", "all", "comma-separated experiment list (see -list)")
		list     = fs.Bool("list", false, "list experiments and exit")
		workers  = fs.Int("concurrency", 0, "bound on concurrently executing searches (0 = GOMAXPROCS)")
		cacheDir = fs.String("cache-dir", "auto", "persistent run-cache directory (auto = <out>/cache, empty = memory-only)")
		noCache  = fs.Bool("no-cache", false, "disable the run cache entirely: every search executes (forces a cold run)")
		subset   = fs.String("workloads", "", "comma-separated workload IDs to restrict the study set (default: all 107)")
		traceOut = fs.String("trace", "", "write a canonically ordered JSONL study trace to this file (wall-stripped, it is byte-identical across cold/warm cache and any -concurrency)")
		metrics  = fs.Bool("metrics", false, "print trace-derived event counters to stderr after the study")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range study.Experiments {
			fmt.Fprintf(out, "%-12s %s\n", e.Name, e.Desc)
		}
		return nil
	}
	if *seeds < 1 {
		return fmt.Errorf("seeds must be positive, got %d", *seeds)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("creating output dir: %w", err)
	}

	simulator := sim.New(cloud.DefaultCatalog())
	var opts []study.Option
	if *workers > 0 {
		opts = append(opts, study.WithConcurrency(*workers))
	}
	if *subset != "" {
		ws, err := resolveWorkloads(simulator, *subset)
		if err != nil {
			return err
		}
		opts = append(opts, study.WithWorkloads(ws))
	}
	switch {
	case *noCache:
		opts = append(opts, study.WithoutRunCache())
	case *cacheDir == "auto":
		opts = append(opts, study.WithCacheDir(filepath.Join(*outDir, "cache")))
	case *cacheDir != "":
		opts = append(opts, study.WithCacheDir(*cacheDir))
	}
	var tracers []telemetry.Tracer
	var traceFile *os.File
	var traceSink *telemetry.SortingJSONL
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		traceFile = f
		traceSink = telemetry.NewSortingJSONL(f, false)
		tracers = append(tracers, traceSink)
	}
	var traceMetrics *telemetry.Metrics
	if *metrics {
		traceMetrics = telemetry.NewMetrics()
		tracers = append(tracers, traceMetrics)
	}
	if t := telemetry.Multi(tracers...); t != nil {
		opts = append(opts, study.WithTracer(t))
	}
	runner := study.NewRunner(simulator, opts...)
	defer runner.Close()

	selected, err := selectExperiments(*figures)
	if err != nil {
		return err
	}
	err = runQueue(runner, study.NewPaper(runner, *seeds, csvWriter(*outDir)), selected, out, progress)
	// The trace is flushed even after a failed study: partial traces are
	// how an aborted run gets diagnosed.
	if traceSink != nil {
		if ferr := traceSink.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("trace file: %w", ferr)
		}
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace file: %w", cerr)
		}
	}
	if traceMetrics != nil {
		fmt.Fprintf(progress, "\n%s", telemetry.RenderSummary(traceMetrics))
	}
	return err
}

// selectExperiments resolves the -figures flag against the experiment
// list, preserving paper order.
func selectExperiments(figures string) ([]study.Experiment, error) {
	want := map[string]bool{}
	if figures == "all" {
		for _, e := range study.Experiments {
			want[e.Name] = true
		}
	} else {
		for _, name := range strings.Split(figures, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	known := map[string]bool{}
	for _, e := range study.Experiments {
		known[e.Name] = true
	}
	for name := range want {
		if !known[name] {
			return nil, fmt.Errorf("unknown experiment %q (see -list)", name)
		}
	}
	var sel []study.Experiment
	for _, e := range study.Experiments {
		if want[e.Name] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

// resolveWorkloads parses a comma-separated ID list against the
// simulator's study set.
func resolveWorkloads(s *sim.Simulator, csvIDs string) ([]workloads.Workload, error) {
	inStudy := map[string]workloads.Workload{}
	for _, w := range s.StudyWorkloads() {
		inStudy[w.ID()] = w
	}
	var ws []workloads.Workload
	for _, id := range strings.Split(csvIDs, ",") {
		id = strings.TrimSpace(id)
		w, ok := inStudy[id]
		if !ok {
			return nil, fmt.Errorf("workload %q not in the study set", id)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// syncWriter serializes progress lines from concurrent figures.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// runQueue executes the selected experiments as a work queue: every
// figure runs concurrently against the shared runner (whose semaphore
// bounds the real work at -concurrency searches), output is buffered
// per figure and merged to out in paper order, and progress/ETA lines
// plus the cache/wall-clock summary footer stream to progress. Keeping
// timing out of `out` is what makes cold, warm and any-concurrency runs
// byte-identical.
func runQueue(runner *study.Runner, paper *study.Paper, sel []study.Experiment, out, progress io.Writer) error {
	type outcome struct {
		buf bytes.Buffer
		dur time.Duration
		err error
	}
	outcomes := make([]outcome, len(sel))
	pw := &syncWriter{w: progress}
	var done atomic.Int64
	start := time.Now()

	parallel.Do(len(sel), len(sel), func(i int) {
		e := sel[i]
		t0 := time.Now()
		outcomes[i].err = e.Run(paper, &outcomes[i].buf)
		outcomes[i].dur = time.Since(t0)

		d := done.Add(1)
		elapsed := time.Since(start)
		status := "done"
		if outcomes[i].err != nil {
			status = "FAILED"
		}
		// ETA extrapolates from the mean figure wall-clock so far; with
		// a warm cache it converges to ~0 immediately.
		eta := time.Duration(float64(elapsed) / float64(d) * float64(int64(len(sel))-d))
		fmt.Fprintf(pw, "[%d/%d] %-12s %s in %-8v (elapsed %v, ETA %v)\n",
			d, len(sel), e.Name, status, outcomes[i].dur.Round(time.Millisecond),
			elapsed.Round(time.Millisecond), eta.Round(time.Second))
	})

	// Deterministic merge: paper order, independent of completion order.
	for i, e := range sel {
		fmt.Fprintf(out, "=== %s: %s\n", e.Name, e.Desc)
		if outcomes[i].err != nil {
			return fmt.Errorf("%s: %w", e.Name, outcomes[i].err)
		}
		if _, err := out.Write(outcomes[i].buf.Bytes()); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	// Summary footer: per-figure wall-clock and cache counters.
	fmt.Fprintf(pw, "\nper-figure wall-clock:\n")
	for i, e := range sel {
		fmt.Fprintf(pw, "  %-12s %v\n", e.Name, outcomes[i].dur.Round(time.Millisecond))
	}
	runs, truth := runner.CacheStats()
	fmt.Fprintf(pw, "run cache: %d computed, %d memory hits, %d disk hits, %d deduplicated in-flight (%.1f%% of %d lookups reused)\n",
		runs.Misses, runs.Hits, runs.DiskHits, runs.Shared, 100*runs.ReuseRatio(), runs.Lookups())
	if runs.Loaded > 0 || runs.Invalidated > 0 || runs.Corrupt > 0 {
		fmt.Fprintf(pw, "run cache (disk tier): %d entries loaded, %d invalidated by substrate version, %d damaged lines skipped\n",
			runs.Loaded, runs.Invalidated, runs.Corrupt)
	}
	fmt.Fprintf(pw, "truth tables: %d computed, %d reused\n", truth.Misses, truth.Lookups()-truth.Misses)
	fmt.Fprintf(pw, "total wall-clock %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// csvWriter writes each CSV file into the output directory.
func csvWriter(outDir string) study.CSVSink {
	return func(name string, header []string, rows [][]string) error {
		path := filepath.Join(outDir, name)
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("creating %s: %w", path, err)
		}
		if err := csv.NewWriter(f).WriteAll(append([][]string{header}, rows...)); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
}
