package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workloads"
)

// Target adapts one (simulator, workload) pair to the core.Target
// interface: the candidates are the catalog's VM types and measuring one
// runs the workload on it with the configured noise.
type Target struct {
	sim      *Simulator
	workload workloads.Workload
	trial    int64
}

// Compile-time interface check.
var _ core.Target = (*Target)(nil)

// NewTarget builds a measurable target for w. The trial index seeds the
// measurement noise so that independent search repetitions observe
// different interference, while the same repetition is reproducible.
func (s *Simulator) NewTarget(w workloads.Workload, trial int64) *Target {
	return &Target{sim: s, workload: w, trial: trial}
}

// NumCandidates implements core.Target.
func (t *Target) NumCandidates() int { return t.sim.catalog.Len() }

// Features implements core.Target with the paper's 4-feature encoding.
func (t *Target) Features(i int) []float64 { return t.sim.catalog.VM(i).Encode() }

// Name implements core.Target.
func (t *Target) Name(i int) string { return t.sim.catalog.VM(i).Name() }

// Measure implements core.Target.
func (t *Target) Measure(i int) (core.Outcome, error) {
	res, err := t.sim.Measure(t.workload, t.sim.catalog.VM(i), t.trial)
	if err != nil {
		return core.Outcome{}, fmt.Errorf("sim: target measure: %w", err)
	}
	return core.Outcome{TimeSec: res.TimeSec, CostUSD: res.CostUSD, Metrics: res.Metrics}, nil
}

// Workload returns the workload under search.
func (t *Target) Workload() workloads.Workload { return t.workload }
