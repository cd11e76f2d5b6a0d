package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	arrow "repro"
	"repro/internal/serve"
)

// outcomeTable is one simulated deployment's measurement of every
// candidate, taken once while the inputs are generated so the clients
// spend no time simulating.
type outcomeTable struct {
	out  []arrow.Outcome
	errs []error
}

// measureAll measures every candidate of t, timing each call.
func measureAll(t arrow.Target, times *[]time.Duration) *outcomeTable {
	n := t.NumCandidates()
	tab := &outcomeTable{out: make([]arrow.Outcome, n), errs: make([]error, n)}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		tab.out[i], tab.errs[i] = t.Measure(i)
		*times = append(*times, time.Since(t0))
	}
	return tab
}

// observeBody is the observe request a measuring client sends for
// candidate i.
func (tab *outcomeTable) observeBody(i int) ([]byte, error) {
	req := serve.ObserveRequest{Index: i}
	if err := tab.errs[i]; err != nil {
		req.Failed, req.Reason = true, err.Error()
	} else {
		o := tab.out[i]
		req.TimeSec, req.CostUSD, req.Metrics = o.TimeSec, o.CostUSD, o.Metrics
	}
	return json.Marshal(req)
}

// sessionPlan is one generated advisor session: the create request, the
// deployment its measurements come from, and whether the client walks
// away halfway.
type sessionPlan struct {
	index int
	req   serve.SessionRequest
	body  []byte
	table *outcomeTable
	// abandonAfter > 0 makes the client stop after that many
	// observations, leaving the session live for the restart phase.
	abandonAfter int
}

// planner generates the sessions of a serve workload. Session i is a
// pure function of the workload seed and i, so both passes of a traced
// run and the in-process reference see the same inputs.
type planner struct {
	plan     func(i int) (*sessionPlan, error)
	simTimes []time.Duration // sim.Measure calls made while generating tables

	mu    sync.Mutex
	cache map[int]*sessionPlan
}

// get returns session i's plan, generating it on first use.
func (p *planner) get(i int) (*sessionPlan, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if sp, ok := p.cache[i]; ok {
		return sp, nil
	}
	sp, err := p.plan(i)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(sp.req)
	if err != nil {
		return nil, err
	}
	sp.index, sp.body = i, body
	p.cache[i] = sp
	return sp, nil
}

// mix hashes (seed, i) into 64 well-spread bits (splitmix64).
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// durableInputs cycles through every study workload on the 18-VM
// catalog, alternating random-search and naive-bo sessions of six
// measurements; every eighth session is abandoned after three.
func durableInputs(seed int64) (*planner, error) {
	const trials = 4
	p := &planner{cache: make(map[int]*sessionPlan)}
	ids := arrow.WorkloadIDs()
	tables := make(map[string]*outcomeTable, len(ids)*trials)
	for _, id := range ids {
		for trial := int64(1); trial <= trials; trial++ {
			t, err := arrow.NewSimulatedTarget(id, trial)
			if err != nil {
				return nil, err
			}
			tables[fmt.Sprintf("%s#%d", id, trial)] = measureAll(t, &p.simTimes)
		}
	}
	offset := int(mix(seed, -1) % uint64(len(ids)))
	p.plan = func(i int) (*sessionPlan, error) {
		h := mix(seed, i)
		method := "random-search"
		if i%2 == 1 {
			method = "naive-bo"
		}
		id := ids[(offset+i)%len(ids)]
		sp := &sessionPlan{
			req:   serve.SessionRequest{Method: method, Seed: int64(h >> 34), MaxMeasurements: 6},
			table: tables[fmt.Sprintf("%s#%d", id, 1+h%trials)],
		}
		if i%8 == 7 {
			sp.abandonAfter = 3
		}
		return sp, nil
	}
	return p, nil
}

// planInputs sends the 72-candidate cluster catalog (VM type x node
// count) as custom candidates, cycling augmented-bo, hybrid-bo and
// naive-bo sessions of twelve measurements with both stop rules off.
func planInputs(seed int64) (*planner, error) {
	const (
		trials       = 2
		maxWorkloads = 12
	)
	p := &planner{cache: make(map[int]*sessionPlan)}
	type deployment struct {
		cands []arrow.Candidate
		table *outcomeTable
	}
	var ids []string
	deps := make(map[string]deployment)
	for _, id := range arrow.WorkloadIDs() {
		if len(ids) == maxWorkloads {
			break
		}
		if _, err := arrow.NewSimulatedClusterTarget(id, 1); err != nil {
			continue // infeasible on some cluster size: not a cluster workload
		}
		ids = append(ids, id)
		for trial := int64(1); trial <= trials; trial++ {
			t, err := arrow.NewSimulatedClusterTarget(id, trial)
			if err != nil {
				return nil, err
			}
			deps[fmt.Sprintf("%s#%d", id, trial)] = deployment{arrow.TargetCandidates(t), measureAll(t, &p.simTimes)}
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no workload runs on every cluster size")
	}
	methods := []string{"augmented-bo", "hybrid-bo", "naive-bo"}
	offset := int(mix(seed, -1) % uint64(len(ids)))
	p.plan = func(i int) (*sessionPlan, error) {
		h := mix(seed, i)
		// Consecutive sessions run every method on one workload, so each
		// workload sees each method whatever the offset.
		dep := deps[fmt.Sprintf("%s#%d", ids[(offset+i/len(methods))%len(ids)], 1+h%trials)]
		return &sessionPlan{
			req: serve.SessionRequest{
				Method:          methods[i%len(methods)],
				Seed:            int64(h >> 34),
				MaxMeasurements: 12,
				DeltaThreshold:  -1,
				EIStopFraction:  -1,
				Candidates:      dep.cands,
			},
			table: dep.table,
		}, nil
	}
	return p, nil
}

// coreProbe collects the core layer's numbers from reference replays:
// the wall time of every arrow.Advisor.Next that returned a suggestion,
// and the search events the replayed optimizers emit.
type coreProbe struct {
	tracer *layerTracer

	mu          sync.Mutex
	next        []time.Duration
	suggestions int64
}

func newCoreProbe() *coreProbe { return &coreProbe{tracer: newLayerTracer()} }

func (p *coreProbe) record(d time.Duration) {
	p.mu.Lock()
	p.next = append(p.next, d)
	p.suggestions++
	p.mu.Unlock()
}

// drive runs an advisor to the end against a precomputed deployment and
// returns its result. With a probe, every Next is timed.
func drive(adv *arrow.Advisor, tab *outcomeTable, probe *coreProbe) (*arrow.Result, error) {
	ctx := context.Background()
	for {
		t0 := time.Now()
		sug, err := adv.Next(ctx)
		d := time.Since(t0)
		if err != nil {
			adv.Abort(err)
			return nil, err
		}
		if sug.Done {
			return adv.Result()
		}
		if probe != nil {
			probe.record(d)
		}
		if merr := tab.errs[sug.Index]; merr != nil {
			err = adv.ObserveFailure(sug.Index, merr)
		} else {
			err = adv.Observe(sug.Index, tab.out[sug.Index])
		}
		if err != nil {
			adv.Abort(err)
			return nil, err
		}
	}
}

// coreRows turns a probe into the core layer's rows.
func coreRows(p *coreProbe) []layerRow {
	t := p.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	rows := timingRows("core.next_us", "", p.next, time.Microsecond, "us", -1)
	fits := t.allFits()
	rows = append(rows, timingRows("core.fit_ms", "", fits, time.Millisecond, "ms", -1)...)
	for _, model := range sortedKeys(t.fits) {
		rows = append(rows, timingRows("core.fit_ms", "."+model, t.fits[model], time.Millisecond, "ms", -1)...)
	}
	sugs := float64(p.suggestions)
	return append(rows,
		countRow("core.fits_per_suggestion", ratio(float64(len(fits)), sugs), "count"),
		countRow("core.refit_incremental_ratio", ratio(float64(t.incremental), float64(len(fits))), "ratio"),
		countRow("core.scored_per_suggestion", ratio(float64(t.kinds["candidate_scored"]), sugs), "count"),
	)
}
