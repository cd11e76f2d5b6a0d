package arrow

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
)

// FuzzAdvisorSchedule drives one advisor session through an arbitrary
// schedule of calls and holds it to the same schedule run without its
// resumes. The input's first byte picks one of goldenBatchConfigs'
// configurations on fuzzWorkload and its second is the seed; every later
// byte, up to fuzzMaxOps of them, is one call, its low three bits the
// kind and the rest the argument:
//
//	0, 7  Next; NextBatch(1) must then return the same head and every
//	      outstanding pick
//	1     NextBatch(k), k = 1 + arg%4
//	2, 3  Observe outstanding pick arg%n, picks in the order suggested
//	4     ObserveFailure of outstanding pick arg%n
//	5     resume: Next, then Script, and a NewResumedAdvisor that replays
//	      every call so far (the serve layer snapshots right after
//	      serving a suggestion, and recovery replays the journal)
//	6     Abort, which ends the schedule
//
// A schedule that neither aborted nor finished is driven to Done by
// observing each head Next returns. Oracles: the result and the
// wall-stripped trace equal those of the same schedule with every resume
// reduced to its Next, the resumed trace stitched at each resume point
// from the prefix recorded before it, as snapshot recovery stitches it;
// a replayed call returns what it returned live; a suggestion keeps its
// Seq and Step when returned again; and checkTraceInvariants holds.
func FuzzAdvisorSchedule(f *testing.F) {
	cfgs := goldenBatchConfigs(f, fuzzWorkload)
	target, err := NewSimulatedTarget(fuzzWorkload, 1)
	if err != nil {
		f.Fatal(err)
	}
	outcomes := make([]Outcome, target.NumCandidates())
	for i := range outcomes {
		if outcomes[i], err = target.Measure(i); err != nil {
			f.Fatal(err)
		}
	}
	candidates := TargetCandidates(target)

	// One entry per configuration: a batch observed last-first, a
	// failure, two resumes with fantasies outstanding, a wider batch, and
	// on every third configuration an abort midway.
	for i := range cfgs {
		ops := []byte{
			opBatch | 2<<3, opObserve | 2<<3, opResume, opObserve, opFail,
			opNext, opBatch | 3<<3, opObserveB | 1<<3, opResume, opObserve,
			opNextB, opObserve,
		}
		if i%3 == 2 {
			ops = append(ops, opBatch|1<<3, opObserve|1<<3, opAbort)
		}
		f.Add(append([]byte{byte(i), 42}, ops...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := cfgs[int(data[0])%len(cfgs)]
		opts := append([]Option{WithSeed(int64(data[1]))}, cfg.opts...)
		ops := data[2:]
		if len(ops) > fuzzMaxOps {
			ops = ops[:fuzzMaxOps]
		}
		run := func(resumes bool) (string, []Event, *Result) {
			s := &fuzzSchedule{t: t, opts: opts, candidates: candidates, outcomes: outcomes,
				seen: map[int]Suggestion{}, resumes: resumes}
			return s.run(ops)
		}
		want, wantTrace, res := run(false)
		got, gotTrace, _ := run(true)
		if got != want {
			t.Fatalf("%s: result with resumes diverged:\n got %s\nwant %s", cfg.name, got, want)
		}
		if g, w := traceJSON(t, gotTrace), traceJSON(t, wantTrace); g != w {
			t.Fatalf("%s: trace with resumes diverged:\n got %s\nwant %s", cfg.name, g, w)
		}
		checkTraceInvariants(t, res, wantTrace)
	})
}

// fuzzWorkload is the simulated workload every fuzzed schedule advises on.
const fuzzWorkload = "als/spark2.1/medium"

// fuzzMaxOps and fuzzMaxResumes bound one schedule's work: every resume
// replays the whole schedule so far.
const (
	fuzzMaxOps     = 64
	fuzzMaxResumes = 4
)

// The schedule op kinds, the low three bits of an op byte.
const (
	opNext byte = iota
	opBatch
	opObserve
	opObserveB
	opFail
	opResume
	opAbort
	opNextB
)

// errFuzzFailure is the cause of every fuzzed measurement failure.
var errFuzzFailure = errors.New("fuzzed measurement failure")

// fuzzCall is one advisor call of a schedule, with what it returned, so
// a resume can replay it and assert the same answer.
type fuzzCall struct {
	op    byte // opNext, opBatch, opObserve or opFail
	arg   int  // k for opBatch, the candidate index for an observation
	sugs  []Suggestion
	batch []Suggestion // opNext: the NextBatch(1) that follows it
}

// fuzzSchedule is one run of a schedule against a live advisor,
// replaced by a resumed one at each resume.
type fuzzSchedule struct {
	t          *testing.T
	opts       []Option
	candidates []Candidate
	outcomes   []Outcome

	advisor *Advisor
	gate    *fuzzGate
	calls   []fuzzCall
	pending []int              // outstanding picks, in the order suggested
	seen    map[int]Suggestion // every suggestion as first returned
	resumes bool               // false reduces a resume to its Next
	resumed int
}

// fuzzGate records a session's trace, discarding events until it opens:
// a resumed advisor replays the schedule's prefix behind a closed gate,
// and the trace recorded before the resume stands in for those events.
type fuzzGate struct {
	open atomic.Bool
	rec  *TraceRecorder
}

func (g *fuzzGate) Emit(e Event) {
	if g.open.Load() {
		g.rec.Emit(e)
	}
}

// start builds the schedule's advisor: a live one with its gate open, or
// one resumed from script with its gate closed.
func (s *fuzzSchedule) start(script *ResumeScript) {
	s.gate = &fuzzGate{rec: NewTraceRecorder()}
	s.gate.open.Store(script == nil)
	opt, err := New(append(slices.Clone(s.opts), WithTracer(s.gate))...)
	if err != nil {
		s.t.Fatal(err)
	}
	if script == nil {
		s.advisor, err = opt.NewAdvisor(s.candidates)
	} else {
		s.advisor, err = opt.NewResumedAdvisor(s.candidates, *script)
	}
	if err != nil {
		s.t.Fatal(err)
	}
}

// run plays ops and returns the result (with the search error, if any)
// as JSON, the wall-stripped trace and the result itself.
func (s *fuzzSchedule) run(ops []byte) (string, []Event, *Result) {
	t := s.t
	s.start(nil)
	defer func() { s.advisor.Abort(nil) }()
	var res *Result
	var serr error
	aborted := false
	for _, b := range ops {
		arg := int(b >> 3)
		switch b & 7 {
		case opNext, opNextB:
			s.next()
		case opBatch:
			s.batch(1 + arg%4)
		case opObserve, opObserveB:
			s.observe(arg, false)
		case opFail:
			s.observe(arg, true)
		case opResume:
			s.resume()
		case opAbort:
			res, serr = s.advisor.Abort(nil)
			aborted = true
		}
		if aborted {
			break
		}
	}
	for n := 0; !aborted; n++ {
		if n > len(s.candidates) {
			t.Fatal("session still running after observing every candidate")
		}
		sug, err := s.advisor.Next(context.Background())
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if sug.Done {
			res, serr = s.advisor.Result()
			break
		}
		s.note(sug)
		s.observe(slices.Index(s.pending, sug.Index), false)
	}
	if res == nil {
		t.Fatalf("no result (search error %v)", serr)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		out = append(out, " error: "+serr.Error()...)
	}
	events := s.gate.rec.Events()
	for i, e := range events {
		events[i] = e.StripWall()
	}
	return string(out), events, res
}

// note records a returned suggestion: a new one joins the outstanding
// picks, and one returned before must come back unchanged.
func (s *fuzzSchedule) note(sug Suggestion) {
	if sug.Done {
		return
	}
	if first, ok := s.seen[sug.Index]; ok {
		if first != sug {
			s.t.Fatalf("candidate %d returned again as %+v, first as %+v", sug.Index, sug, first)
		}
		return
	}
	s.seen[sug.Index] = sug
	s.pending = append(s.pending, sug.Index)
}

// next calls Next, then NextBatch(1), which must return the same head
// followed by the rest of the outstanding picks.
func (s *fuzzSchedule) next() {
	ctx := context.Background()
	sug, err := s.advisor.Next(ctx)
	if err != nil {
		s.t.Fatalf("Next: %v", err)
	}
	s.note(sug)
	batch, err := s.advisor.NextBatch(ctx, 1)
	if err != nil {
		s.t.Fatalf("NextBatch(1): %v", err)
	}
	if batch[0] != sug {
		s.t.Fatalf("NextBatch(1) led with %+v, Next returned %+v", batch[0], sug)
	}
	if sug.Done {
		if len(batch) != 1 {
			s.t.Fatalf("NextBatch(1) after Done returned %+v", batch)
		}
	} else {
		got := make([]int, len(batch))
		for i, b := range batch {
			s.note(b)
			got[i] = b.Index
		}
		want := slices.Clone(s.pending)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			s.t.Fatalf("NextBatch(1) returned picks %v, outstanding are %v", got, want)
		}
	}
	s.calls = append(s.calls, fuzzCall{op: opNext, sugs: []Suggestion{sug}, batch: batch})
}

// batch calls NextBatch(k).
func (s *fuzzSchedule) batch(k int) {
	sugs, err := s.advisor.NextBatch(context.Background(), k)
	if err != nil {
		s.t.Fatalf("NextBatch(%d): %v", k, err)
	}
	if sugs[0].Done && len(sugs) != 1 {
		s.t.Fatalf("NextBatch(%d) after Done returned %+v", k, sugs)
	}
	for _, sug := range sugs {
		s.note(sug)
	}
	s.calls = append(s.calls, fuzzCall{op: opBatch, arg: k, sugs: sugs})
}

// observe reports outstanding pick j%n, as a measurement or a failure;
// with no pick outstanding it does nothing.
func (s *fuzzSchedule) observe(j int, fail bool) {
	if len(s.pending) == 0 {
		return
	}
	j %= len(s.pending)
	idx := s.pending[j]
	s.pending = slices.Delete(s.pending, j, j+1)
	call := fuzzCall{op: opObserve, arg: idx}
	if fail {
		call.op = opFail
	}
	s.calls = append(s.calls, call)
	s.replay(s.advisor, call)
}

// replay makes one observation call against a, or repeats a Next or
// NextBatch call and checks it returns what it did live.
func (s *fuzzSchedule) replay(a *Advisor, c fuzzCall) {
	ctx := context.Background()
	switch c.op {
	case opObserve:
		if err := a.Observe(c.arg, s.outcomes[c.arg]); err != nil {
			s.t.Fatalf("Observe(%d): %v", c.arg, err)
		}
	case opFail:
		if err := a.ObserveFailure(c.arg, errFuzzFailure); err != nil {
			s.t.Fatalf("ObserveFailure(%d): %v", c.arg, err)
		}
	case opNext:
		sug, err := a.Next(ctx)
		if err != nil || sug != c.sugs[0] {
			s.t.Fatalf("replayed Next = %+v, %v; live returned %+v", sug, err, c.sugs[0])
		}
		batch, err := a.NextBatch(ctx, 1)
		if err != nil || !slices.Equal(batch, c.batch) {
			s.t.Fatalf("replayed NextBatch(1) = %+v, %v; live returned %+v", batch, err, c.batch)
		}
	case opBatch:
		sugs, err := a.NextBatch(ctx, c.arg)
		if err != nil || !slices.Equal(sugs, c.sugs) {
			s.t.Fatalf("replayed NextBatch(%d) = %+v, %v; live returned %+v", c.arg, sugs, err, c.sugs)
		}
	}
}

// resume calls Next and, unless resumes are reduced to that Next or
// spent, swaps the advisor for one resumed from its script: the new
// advisor replays every call so far behind a closed trace gate, the
// prefix recorded before the resume is carried over, and the gate opens.
func (s *fuzzSchedule) resume() {
	s.next()
	if !s.resumes || s.resumed == fuzzMaxResumes {
		return
	}
	s.resumed++
	script := s.advisor.Script()
	prefix := s.gate.rec.Events()
	old := s.advisor
	s.start(&script)
	for _, c := range s.calls {
		s.replay(s.advisor, c)
	}
	for _, e := range prefix {
		s.gate.rec.Emit(e)
	}
	s.gate.open.Store(true)
	old.Abort(nil)
}

// traceJSON renders a trace for comparison.
func traceJSON(t *testing.T, events []Event) string {
	t.Helper()
	data, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
