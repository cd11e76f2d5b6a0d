// Command arrow searches for the best cloud VM for one workload using the
// public API: Naive BO (CherryPick), Arrow's Augmented BO, Hybrid BO, or
// random search, against the built-in simulator substrate.
//
// Usage:
//
//	arrow -workload als/spark2.1/medium -method augmented -objective cost
//	arrow -list                 # list the 107 study workloads
//	arrow -vms                  # list the 18-type VM catalog
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	arrow "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "arrow:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("arrow", flag.ContinueOnError)
	var (
		workloadID = fs.String("workload", "als/spark2.1/medium", "study workload ID (app/system/size)")
		method     = fs.String("method", "augmented", "search method: naive | augmented | hybrid | random")
		objective  = fs.String("objective", "cost", "objective: time | cost | product")
		kernelName = fs.String("kernel", "matern52", "GP kernel for naive BO: rbf | matern12 | matern32 | matern52")
		seed       = fs.Int64("seed", 1, "search seed (initial design + surrogate randomization)")
		trial      = fs.Int64("trial", 1, "measurement-noise trial index")
		delta      = fs.Float64("delta", 1.1, "prediction-delta stop threshold for augmented BO (negative disables)")
		eiStop     = fs.Float64("ei", 0.10, "EI stop fraction for naive BO (negative disables)")
		maxMeas    = fs.Int("max", 0, "maximum measurements (0 = whole catalog)")
		batchK     = fs.Int("batch", 1, "concurrent suggestions per planning round: >1 drives the advisor's NextBatch(k) with k measurement workers; 1 is the classic sequential search")
		slo        = fs.Float64("slo", 0, "maximum execution time SLO in seconds (0 = unconstrained)")
		list       = fs.Bool("list", false, "list the study workloads and exit")
		vms        = fs.Bool("vms", false, "list the VM catalog and exit")
		asJSON     = fs.Bool("json", false, "emit the search result as JSON instead of a table")

		retries        = fs.Int("retries", 0, "retries per measurement after a transient failure (0 disables the retry middleware)")
		retryBackoff   = fs.Duration("retry-backoff", 2*time.Second, "initial retry backoff, doubling per failed attempt (capped at 60s)")
		measureTimeout = fs.Duration("measure-timeout", 0, "per-measurement-attempt timeout (0 = unbounded)")
		chaosTransient = fs.Float64("chaos-transient", 0, "inject transient measurement failures at this rate, for exercising -retries")
		chaosFail      = fs.String("chaos-fail", "", "comma-separated candidate indices that permanently fail, for exercising quarantine")

		traceOut    = fs.String("trace", "", "write a JSONL search trace to this file (one event per line; wall-clock fields live in the \"wall\" subobject)")
		showMetrics = fs.Bool("metrics", false, "print trace-derived event counters and latency histograms after the search")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProfile = fs.String("memprofile", "", "write a heap profile at exit to this file (inspect with go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" || *memProfile != "" {
		finish, perr := startProfiles(*cpuProfile, *memProfile)
		if perr != nil {
			return perr
		}
		defer func() {
			if perr := finish(); perr != nil && err == nil {
				err = perr
			}
		}()
	}

	if *list {
		for _, id := range arrow.WorkloadIDs() {
			fmt.Fprintln(out, id)
		}
		return nil
	}
	if *vms {
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "NAME\tVCPUS\tMEM_GIB\tUSD_PER_HR\tFEATURES")
		for _, vm := range arrow.CatalogVMs() {
			fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.3f\t%v\n", vm.Name, vm.VCPUs, vm.MemGiB, vm.PricePerHr, vm.Features)
		}
		return tw.Flush()
	}

	opts, err := buildOptions(*method, *objective, *kernelName, *seed, *delta, *eiStop, *maxMeas)
	if err != nil {
		return err
	}
	var observers []arrow.Observer
	var traceFile *os.File
	var traceSink *arrow.JSONLTracer
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("trace file: %v", err)
		}
		traceSink = arrow.NewJSONLTracer(traceFile, false)
		observers = append(observers, traceSink)
	}
	var traceMetrics *arrow.TraceMetrics
	if *showMetrics {
		traceMetrics = arrow.NewTraceMetrics()
		observers = append(observers, traceMetrics)
	}
	if obs := arrow.MultiObserver(observers...); obs != nil {
		opts = append(opts, arrow.WithTracer(obs))
	}
	// finishTrace drains the trace sink and renders the metrics table;
	// both run after the search regardless of how it ended.
	finishTrace := func() error {
		if traceSink != nil {
			if err := traceSink.Flush(); err != nil {
				return fmt.Errorf("trace file: %v", err)
			}
			if err := traceFile.Close(); err != nil {
				return fmt.Errorf("trace file: %v", err)
			}
		}
		if traceMetrics != nil {
			fmt.Fprintf(out, "\n%s", arrow.RenderTraceSummary(traceMetrics))
		}
		return nil
	}
	if *slo > 0 {
		opts = append(opts, arrow.WithMaxTimeSLO(*slo))
	}
	if *retries > 0 {
		opts = append(opts, arrow.WithRetry(arrow.RetryPolicy{
			MaxAttempts:    *retries + 1,
			InitialBackoff: *retryBackoff,
			Seed:           *seed,
		}))
	}
	if *measureTimeout > 0 {
		opts = append(opts, arrow.WithMeasureTimeout(*measureTimeout))
	}
	opt, err := arrow.New(opts...)
	if err != nil {
		return err
	}
	target, err := arrow.NewSimulatedTarget(*workloadID, *trial)
	if err != nil {
		return err
	}
	if *chaosTransient > 0 || *chaosFail != "" {
		permanent, err := parseIndices(*chaosFail, target.NumCandidates())
		if err != nil {
			return err
		}
		target = arrow.NewChaosTarget(target, arrow.ChaosConfig{
			Seed:              *seed,
			TransientRate:     *chaosTransient,
			PermanentFailures: permanent,
		})
	}

	if *batchK < 1 {
		return fmt.Errorf("-batch must be at least 1, got %d", *batchK)
	}
	// search runs either the classic sequential loop or, with -batch k>1,
	// the advisor's batch pipeline: NextBatch(k) hands out k concurrent
	// suggestions, k workers measure them in parallel, and observations
	// flow back in completion order.
	search := func() (*arrow.Result, error) {
		if *batchK == 1 {
			return opt.Search(target)
		}
		return searchBatched(opt, target, *batchK)
	}

	if *asJSON {
		// A partial result is still emitted — the failure records and
		// salvaged observations are the point — before the error makes
		// the exit code nonzero.
		res, err := search()
		if res != nil {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if encErr := enc.Encode(res); encErr != nil {
				return encErr
			}
		}
		if terr := finishTrace(); terr != nil && err == nil {
			err = terr
		}
		return err
	}

	fmt.Fprintf(out, "searching %s for the best VM (%s, objective %s)\n\n", *workloadID, opt.Method(), opt.Objective())
	res, err := search()
	if res == nil {
		if terr := finishTrace(); terr != nil && err == nil {
			err = terr
		}
		return err
	}
	if perr := printResult(out, res, *slo); perr != nil {
		return perr
	}
	if err != nil {
		fmt.Fprintf(out, "\nsearch aborted: %v\n", err)
		fmt.Fprintf(out, "salvaged %d completed measurement(s) above\n", res.NumMeasurements())
	}
	if terr := finishTrace(); terr != nil && err == nil {
		err = terr
	}
	return err
}

// searchBatched drives an advisor session with k suggestions in flight:
// each planning round asks NextBatch(k), measures the batch on k worker
// goroutines, and reports the outcomes as they complete — out of order
// is fine, the advisor matches observations by candidate index. Note
// that measurement middleware (retries, timeouts) does not apply here:
// the advisor never measures, so a transient failure quarantines the
// candidate exactly as a failed batch-search measurement would.
func searchBatched(opt *arrow.Optimizer, target arrow.Target, k int) (*arrow.Result, error) {
	adv, err := opt.NewAdvisor(arrow.TargetCandidates(target))
	if err != nil {
		return nil, err
	}
	// The simulator (and its chaos wrapper) owns per-target RNG state, so
	// measurements are serialized; real targets measure genuinely in
	// parallel, which is the point of the batch pipeline.
	var measureMu sync.Mutex
	for {
		sugs, err := adv.NextBatch(context.Background(), k)
		if err != nil {
			res, aerr := adv.Abort(err)
			if res == nil {
				return nil, aerr
			}
			return res, err
		}
		if sugs[0].Done {
			break
		}
		var (
			wg      sync.WaitGroup
			obsErrs = make([]error, len(sugs))
		)
		for i, sug := range sugs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				measureMu.Lock()
				out, merr := target.Measure(sug.Index)
				measureMu.Unlock()
				if merr != nil {
					obsErrs[i] = adv.ObserveFailure(sug.Index, merr)
				} else {
					obsErrs[i] = adv.Observe(sug.Index, out)
				}
			}()
		}
		wg.Wait()
		for _, oerr := range obsErrs {
			if oerr != nil {
				res, aerr := adv.Abort(oerr)
				if res == nil {
					return nil, aerr
				}
				return res, oerr
			}
		}
	}
	return adv.Result()
}

// startProfiles begins CPU profiling (when cpu is non-empty) and returns a
// finish function that stops it and writes the heap profile (when mem is
// non-empty). Either path may be empty to skip that profile.
func startProfiles(cpu, mem string) (finish func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpu profile: %v", err)
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpu profile: %v", err)
			}
		}
		if mem != "" {
			runtime.GC() // flush unreachable objects so the heap profile reflects live data
			f, err := os.Create(mem)
			if err != nil {
				return fmt.Errorf("heap profile: %v", err)
			}
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("heap profile: %v", err)
			}
			return f.Close()
		}
		return nil
	}, nil
}

// printResult renders the observation table, the failure records and the
// verdict. It handles partial results, where there may be no best VM.
func printResult(out io.Writer, res *arrow.Result, slo float64) error {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "STEP\tVM\tTIME_S\tCOST_USD\tOBJECTIVE")
	for i, obs := range res.Observations {
		fmt.Fprintf(tw, "%d\t%s\t%.1f\t%.4f\t%.5g\n", i+1, obs.Name, obs.Outcome.TimeSec, obs.Outcome.CostUSD, obs.Value)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(res.Failures) > 0 {
		fmt.Fprintf(out, "\nquarantined %d candidate(s):\n", len(res.Failures))
		for _, f := range res.Failures {
			fmt.Fprintf(out, "  %s after %d attempt(s): %s\n", f.Name, f.Attempts, f.Reason)
		}
	}
	if res.BestIndex >= 0 {
		fmt.Fprintf(out, "\nbest VM: %s (objective %.5g) after %d measurements\n", res.BestName, res.BestValue, res.NumMeasurements())
	} else {
		fmt.Fprintf(out, "\nno VM could be measured\n")
	}
	if res.StoppedEarly {
		fmt.Fprintf(out, "stopped early: %s\n", res.StopReason)
	}
	if !res.SLOSatisfied {
		fmt.Fprintf(out, "WARNING: no VM met the %.0fs SLO; showing the fastest VM observed\n", slo)
	}
	return nil
}

// parseIndices parses a comma-separated candidate index list.
func parseIndices(s string, n int) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		idx, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad candidate index %q: %v", part, err)
		}
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("candidate index %d out of [0,%d)", idx, n)
		}
		out = append(out, idx)
	}
	return out, nil
}

func buildOptions(method, objective, kernelName string, seed int64, delta, eiStop float64, maxMeas int) ([]arrow.Option, error) {
	m, err := arrow.ParseMethod(method)
	if err != nil {
		return nil, err
	}
	o, err := arrow.ParseObjective(objective)
	if err != nil {
		return nil, err
	}
	k, err := arrow.ParseKernel(kernelName)
	if err != nil {
		return nil, err
	}
	opts := []arrow.Option{
		arrow.WithMethod(m), arrow.WithObjective(o), arrow.WithKernel(k),
		arrow.WithSeed(seed),
		arrow.WithDeltaThreshold(delta),
		arrow.WithEIStopFraction(eiStop),
	}
	if maxMeas > 0 {
		opts = append(opts, arrow.WithMaxMeasurements(maxMeas))
	}
	return opts, nil
}
