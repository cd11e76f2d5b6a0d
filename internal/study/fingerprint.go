package study

import (
	"slices"

	"repro/internal/core"
	"repro/internal/runcache"
)

// fingerprintSchema versions the canonicalization below, independently of
// the substrate: bump it when the mapping from MethodConfig to
// Fingerprint changes.
const fingerprintSchema = "arrow-run/1"

// Fingerprint canonically identifies the search RunSearch(mc, w,
// objective, seed) would execute, for cache addressing. It maps the
// canonical form of the optimizer configuration (core.Config.Canonical),
// so two MethodConfigs that build behaviorally identical optimizers map
// to the same fingerprint: defaulted zero values are resolved (a zero
// kernel and an explicit Matérn 5/2 collide), every disabled stopping
// threshold collapses to -1, and fields the method ignores are dropped.
// Unknown methods fail in Build before anything is cached.
func (mc MethodConfig) Fingerprint(workloadID string, objective core.Objective, seed int64, substrate string) runcache.Fingerprint {
	c := mc.config(objective, seed).Canonical()
	forest := c.Forest()
	fp := runcache.Fingerprint{
		Schema:            fingerprintSchema,
		Substrate:         substrate,
		Method:            mc.Method.String(),
		WorkloadID:        workloadID,
		Objective:         objective.String(),
		Seed:              seed,
		EIStop:            c.EIStopFraction,
		Delta:             c.DeltaThreshold,
		SwitchAfter:       c.SwitchAfter,
		ForestTrees:       forest.NumTrees,
		ForestMinSplit:    forest.MinSamplesSplit,
		ForestMaxFeatures: forest.MaxFeatures, // 0 = round(sqrt(d)), already canonical
		ForestMaxDepth:    forest.MaxDepth,    // 0 = unbounded
	}
	if c.Kernel != 0 {
		fp.Kernel = c.Kernel.String()
	}
	if c.Design.Kind != 0 {
		fp.DesignKind = c.Design.Kind.String()
		fp.DesignSize = c.Design.NumInitial
		fp.DesignFixed = slices.Clone(c.Design.Fixed)
	}
	return fp
}
