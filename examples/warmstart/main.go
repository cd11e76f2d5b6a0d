// Warmstart demonstrates the paper's stated future work: seeding
// Augmented BO's surrogate with historical performance data. A recurring
// job was profiled at its old (small) input size; when the input grows,
// the search for the new best VM starts from that history instead of from
// scratch. The history shapes early predictions but costs no measurements.
//
// History usually transfers: logistic regression keeps its bottleneck
// structure across sizes, so the warm search converges much faster. When
// input growth moves a workload onto a different bottleneck, stale history
// could mislead the early steps instead, so each case prints the verdict
// its own cold and warm means give rather than an expectation.
//
// Everything pulls through internal/runcache, the same content-addressed
// store that powers arrow-study: history tables and per-seed search costs
// are computed once and shared across transfer cases, so the cross-app
// case below reuses both the lr-small history table and the kmeans cold
// baseline without any ad-hoc result plumbing.
//
// Run with:
//
//	go run ./examples/warmstart
package main

import (
	"fmt"
	"log"
	"math"

	arrow "repro"
	"repro/internal/parallel"
	"repro/internal/runcache"
	"repro/internal/sim"
)

const seeds = 20

// caches shares history tables and search costs across transfer cases.
type caches struct {
	histories *runcache.Store[[]arrow.PriorRun]
	searches  *runcache.Store[float64]
}

func main() {
	cases := []struct {
		newWorkload string
		oldWorkload string
		note        string
	}{
		{"lr/spark1.5/medium", "lr/spark1.5/small", "bottleneck structure transfers"},
		{"terasort/hadoop2.7/large", "terasort/hadoop2.7/medium", "I/O-bound at both sizes"},
		{"kmeans/spark2.1/medium", "kmeans/spark2.1/small", "growth shifts the bottleneck"},
		// Cross-application transfer: reuses the lr-small history table and
		// the kmeans cold baseline already cached by the cases above.
		{"kmeans/spark2.1/medium", "lr/spark1.5/small", "cross-app history"},
	}
	histories, _ := runcache.Open[[]arrow.PriorRun]("", sim.SubstrateVersion) // memory-only Open cannot fail
	searches, _ := runcache.Open[float64]("", sim.SubstrateVersion)
	c := &caches{histories: histories, searches: searches}

	for _, tc := range cases {
		history, err := c.recordHistory(tc.oldWorkload)
		if err != nil {
			log.Fatal(err)
		}
		cold, err := c.meanSearchCost(tc.newWorkload, "", nil)
		if err != nil {
			log.Fatal(err)
		}
		warm, err := c.meanSearchCost(tc.newWorkload, tc.oldWorkload, history)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s, history from %s\n", tc.newWorkload, tc.oldWorkload)
		fmt.Printf("  cold start: %.1f measurements to the best VM\n", cold)
		fmt.Printf("  warm start: %.1f measurements  (%s; %s)\n\n", warm, tc.note, verdict(cold, warm))
	}

	h, s := histories.Stats(), searches.Stats()
	fmt.Printf("run cache: %d history tables computed, %d reused; %d searches computed, %d reused\n",
		h.Misses, h.Lookups()-h.Misses, s.Misses, s.Lookups()-s.Misses)
}

// verdict reads a transfer's effect off the cold and warm means, at the
// precision they are printed with.
func verdict(cold, warm float64) string {
	switch d := math.Round(warm*10) - math.Round(cold*10); {
	case d < 0:
		return "warm start helps"
	case d > 0:
		return "warm start hurts: stale history misleads"
	}
	return "warm start changes nothing"
}

// recordHistory measures the old workload on every VM — in production this
// would be read back from the job's past deployment logs. The table is
// cached per workload, so several transfer cases share one profile.
func (c *caches) recordHistory(workloadID string) ([]arrow.PriorRun, error) {
	return c.histories.Do(runcache.Key("history\x00"+workloadID), func() ([]arrow.PriorRun, error) {
		target, err := arrow.NewSimulatedTarget(workloadID, 77)
		if err != nil {
			return nil, err
		}
		history := make([]arrow.PriorRun, 0, target.NumCandidates())
		for i := 0; i < target.NumCandidates(); i++ {
			out, err := target.Measure(i)
			if err != nil {
				return nil, err
			}
			history = append(history, arrow.PriorRun{
				Features: target.Features(i),
				Metrics:  out.Metrics,
				Value:    out.CostUSD,
			})
		}
		return history, nil
	})
}

// meanSearchCost averages the step at which the eventual best VM was
// measured across seeds. Each (workload, history source, seed) search is
// cached, so a cold baseline computed for one case is free for the next.
func (c *caches) meanSearchCost(workloadID, historyID string, history []arrow.PriorRun) (float64, error) {
	costs := make([]float64, seeds)
	errs := make([]error, seeds)
	parallel.Do(seeds, 0, func(i int) {
		seed := int64(i)
		key := runcache.Key(fmt.Sprintf("search\x00%s\x00%s\x00%d", workloadID, historyID, seed))
		costs[i], errs[i] = c.searches.Do(key, func() (float64, error) {
			return searchCost(workloadID, seed, history)
		})
	})
	total := 0.0
	for i := range costs {
		if errs[i] != nil {
			return 0, errs[i]
		}
		total += costs[i]
	}
	return total / seeds, nil
}

// searchCost runs one seeded Augmented BO search to exhaustion and
// returns the step at which the eventual best VM was first measured.
func searchCost(workloadID string, seed int64, history []arrow.PriorRun) (float64, error) {
	opts := []arrow.Option{
		arrow.WithMethod(arrow.MethodAugmentedBO),
		arrow.WithObjective(arrow.MinimizeCost),
		arrow.WithDeltaThreshold(-1), // exhaust: measure cost-to-best exactly
		arrow.WithSeed(seed),
	}
	if history != nil {
		opts = append(opts, arrow.WithWarmStart(history...))
	}
	opt, err := arrow.New(opts...)
	if err != nil {
		return 0, err
	}
	target, err := arrow.NewSimulatedTarget(workloadID, seed)
	if err != nil {
		return 0, err
	}
	res, err := opt.Search(target)
	if err != nil {
		return 0, err
	}
	for i, obs := range res.Observations {
		if obs.Index == res.BestIndex {
			return float64(i + 1), nil
		}
	}
	return 0, fmt.Errorf("best index %d never observed for %s seed %d", res.BestIndex, workloadID, seed)
}
