package core

import "math"

// This file is the resume-script layer under session snapshots. A live
// stepper records every model-phase decision (which candidate the
// acquisition pass selected, with the score and stopping-rule quantity)
// and every batch-plan result as it happens; the snapshot of a session
// carries that script, and a stepper resumed from a snapshot consumes
// the script instead of re-fitting surrogates while it replays the
// journaled suggest/observe prefix. Everything the scripts skip is the
// expensive, deterministic model work; everything cheap that feeds the
// shared RNG stream (initial design, design replacement, the augmented
// tree-seed draw) still runs for real, so the search state after the
// script is exhausted is exactly the live session's state and every
// post-resume decision is computed — and recorded — identically.
//
// Scripts are advisory, never authoritative: a consumed entry that does
// not match the replay position (wrong observation count, wrong pending
// set) flips the state to recording mode, and the journal replay's
// suggestion assertions catch any divergence and fall back to a full
// replay. Correctness never depends on a script.

// ResumeDecision is one recorded model-phase selection: the candidate
// the acquisition pass picked when the search had Step observations,
// its acquisition score, and the stopping-rule quantity (max EI for
// naive BO, the predicted objective for augmented BO). A +Inf aux —
// JSON cannot carry infinities — is flagged with AuxInf.
type ResumeDecision struct {
	Step   int     `json:"step"`
	Index  int     `json:"index"`
	Score  float64 `json:"score"`
	Aux    float64 `json:"aux"`
	AuxInf bool    `json:"aux_inf,omitempty"`
}

// aux reconstitutes the stopping-rule quantity.
func (d ResumeDecision) aux() float64 {
	if d.AuxInf {
		return math.Inf(1)
	}
	return d.Aux
}

// ResumePlan is one recorded batch-fantasization result: the pending
// candidate indices and extra count the plan hook was invoked with, and
// the speculative picks it returned. Pending and Extra key the entry to
// its invocation so replay consumes it only at the matching call.
type ResumePlan struct {
	Pending []int `json:"pending"`
	Extra   int   `json:"extra"`
	Picks   []int `json:"picks"`
}

// ResumeScript is the decision log a snapshot carries: enough to replay
// a session's journaled prefix without refitting a single surrogate.
type ResumeScript struct {
	Decisions []ResumeDecision `json:"decisions,omitempty"`
	Plans     []ResumePlan     `json:"plans,omitempty"`
}

// clone deep-copies the script so recorded state never aliases caller
// slices.
func (s ResumeScript) clone() ResumeScript {
	out := ResumeScript{}
	if len(s.Decisions) > 0 {
		out.Decisions = append([]ResumeDecision(nil), s.Decisions...)
	}
	if len(s.Plans) > 0 {
		out.Plans = make([]ResumePlan, len(s.Plans))
		for i, p := range s.Plans {
			out.Plans[i] = ResumePlan{
				Pending: append([]int(nil), p.Pending...),
				Extra:   p.Extra,
				Picks:   append([]int(nil), p.Picks...),
			}
		}
	}
	return out
}

// resumeState is the stepper-owned script cursor. Positions below the
// limits consume recorded entries; at the limits the state records. The
// search loop consumes decisions; plan consumption in the plan-hook
// wrapper and script export run only while the Stepper holds the loop
// parked, so it needs no lock of its own.
type resumeState struct {
	script    ResumeScript
	decPos    int
	decLimit  int
	planPos   int
	planLimit int
	// decVoid permanently disables decision scripting (set by
	// voidResumeDecisions); without it the recording guard would start
	// appending fresh decisions again the moment the limits are cleared.
	decVoid bool
}

// newResumeState installs script (a deep copy) with the consumption
// limits set to its lengths; an empty script starts in recording mode.
func newResumeState(script ResumeScript) *resumeState {
	sc := script.clone()
	return &resumeState{
		script:    sc,
		decLimit:  len(sc.Decisions),
		planLimit: len(sc.Plans),
	}
}

// plan consumes the next scripted plan entry when it matches this
// invocation, or runs the real hook and records its result. A mismatch
// permanently flips plans to recording mode — the replay's suggestion
// assertions are the safety net if the live and replayed streams truly
// diverged.
func (rs *resumeState) plan(pending []PendingPoint, extra int, inner PlanHook) []int {
	pidx := make([]int, len(pending))
	for i, p := range pending {
		pidx[i] = p.Index
	}
	if rs.planPos < rs.planLimit {
		e := rs.script.Plans[rs.planPos]
		if e.Extra == extra && equalInts(e.Pending, pidx) {
			rs.planPos++
			return append([]int(nil), e.Picks...)
		}
		rs.script.Plans = rs.script.Plans[:rs.planPos]
		rs.planLimit = rs.planPos
	}
	picks := inner(pending, extra)
	// Empty results are not recorded: the serve layer only journals
	// batches that produced new suggestions, so an empty invocation has
	// no replay-side counterpart to consume it.
	if len(picks) > 0 {
		rs.script.Plans = append(rs.script.Plans, ResumePlan{
			Pending: pidx,
			Extra:   extra,
			Picks:   append([]int(nil), picks...),
		})
		rs.planPos++
	}
	return picks
}

// equalInts reports element-wise equality.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// resumeCarrier is implemented by targets that own a resume state (the
// stepper's channel-backed target); newSearchState discovers it so the
// search loops can consume and record decisions.
type resumeCarrier interface {
	resumeState() *resumeState
}

// scriptedDecision consumes the next recorded decision when one is
// available and stamped with the current observation count. A stamp
// mismatch truncates the script at the cursor and flips decisions to
// recording mode.
func (s *searchState) scriptedDecision() (ResumeDecision, bool) {
	rs := s.resume
	if rs == nil || rs.decVoid || rs.decPos >= rs.decLimit {
		return ResumeDecision{}, false
	}
	d := rs.script.Decisions[rs.decPos]
	if d.Step != len(s.obs) {
		rs.script.Decisions = rs.script.Decisions[:rs.decPos]
		rs.decLimit = rs.decPos
		return ResumeDecision{}, false
	}
	rs.decPos++
	return d, true
}

// recordDecision appends a freshly computed decision to the script.
func (s *searchState) recordDecision(idx int, score, aux float64) {
	rs := s.resume
	if rs == nil || rs.decVoid || rs.decPos < rs.decLimit {
		return
	}
	d := ResumeDecision{Step: len(s.obs), Index: idx, Score: score, Aux: aux}
	if math.IsInf(aux, 0) || math.IsNaN(aux) {
		d.Aux, d.AuxInf = 0, true
	}
	rs.script.Decisions = append(rs.script.Decisions, d)
	rs.decPos++
}

// voidResumeDecisions disables decision scripting for this search:
// consumed and recorded entries are dropped. Entropy search draws its
// posterior-minimum samples from the main RNG inside the selection
// pass, so skipping a selection would desynchronize every later draw.
func (s *searchState) voidResumeDecisions() {
	if rs := s.resume; rs != nil {
		rs.script.Decisions = rs.script.Decisions[:0]
		rs.decPos, rs.decLimit = 0, 0
		rs.decVoid = true
	}
}
