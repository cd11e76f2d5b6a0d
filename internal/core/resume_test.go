package core

import (
	"context"
	"reflect"
	"testing"
)

// roundSize alternates Next-sized and two-wide batches, so a session
// records both decisions and plans.
func roundSize(round int) int { return 1 + round%2 }

// recordScripts drives a live stepper over target one round at a time:
// a NextBatch of roundSize, then an observation of every suggestion it
// returned. It returns each round's suggested indices and the Script()
// exported after each round's NextBatch, the last one after the search
// ended.
func recordScripts(t *testing.T, opt Optimizer, target *fakeTarget) ([][]int, []ResumeScript) {
	t.Helper()
	s := NewStepper(opt, target)
	var rounds [][]int
	var scripts []ResumeScript
	for round := 0; ; round++ {
		sugs, err := s.NextBatch(context.Background(), roundSize(round))
		if err != nil {
			t.Fatalf("round %d: NextBatch: %v", round, err)
		}
		scripts = append(scripts, s.Script())
		if sugs[0].Done {
			return rounds, scripts
		}
		var indices []int
		for _, sug := range sugs {
			indices = append(indices, sug.Index)
			out, merr := target.Measure(sug.Index)
			if err := s.Observe(sug.Index, out, merr); err != nil {
				t.Fatalf("round %d: Observe(%d): %v", round, sug.Index, err)
			}
		}
		rounds = append(rounds, indices)
	}
}

// replayRounds resumes a stepper from script and replays rounds[:cut+1]:
// every round's NextBatch, asserting the live suggestions, and the
// observations of every round before the cut. It returns the stepper
// parked where the script was exported.
func replayRounds(t *testing.T, opt Optimizer, target *fakeTarget, rounds [][]int, cut int, script ResumeScript) *Stepper {
	t.Helper()
	s := ResumeStepper(opt, target, script)
	for round := 0; round <= cut; round++ {
		sugs, err := s.NextBatch(context.Background(), roundSize(round))
		if err != nil {
			t.Fatalf("round %d: NextBatch: %v", round, err)
		}
		if round == len(rounds) {
			if !sugs[0].Done {
				t.Fatalf("round %d: resumed stepper suggested %d after the live search ended", round, sugs[0].Index)
			}
			break
		}
		var got []int
		for _, sug := range sugs {
			got = append(got, sug.Index)
		}
		if !reflect.DeepEqual(got, rounds[round]) {
			t.Fatalf("round %d: resumed stepper suggested %v, live %v", round, got, rounds[round])
		}
		if round == cut {
			break
		}
		for _, idx := range got {
			out, merr := target.Measure(idx)
			if err := s.Observe(idx, out, merr); err != nil {
				t.Fatalf("round %d: Observe(%d): %v", round, idx, err)
			}
		}
	}
	return s
}

// TestResumedStepperConsumesWholeScript: a stepper resumed from a live
// session's Script() — exported at the first round, midway and after the
// search ended — and replayed through the rounds before that export
// consumes every recorded decision and plan, never falling back to
// recording.
func TestResumedStepperConsumesWholeScript(t *testing.T) {
	for name, opt := range allOptimizers(t, MinimizeTime, 4, true) {
		t.Run(name, func(t *testing.T) {
			rounds, scripts := recordScripts(t, opt, newFakeTarget(exhaustiveValues()))
			full := scripts[len(scripts)-1]
			if name != "random-search" && (len(full.Decisions) == 0 || len(full.Plans) == 0) {
				t.Fatalf("full script has %d decisions and %d plans; both must be recorded", len(full.Decisions), len(full.Plans))
			}
			for label, cut := range map[string]int{"empty": 0, "midway": len(scripts) / 2, "full": len(scripts) - 1} {
				s := replayRounds(t, opt, newFakeTarget(exhaustiveValues()), rounds, cut, scripts[cut])
				rs := s.resume
				if n := len(scripts[cut].Decisions); rs.decPos != n || rs.decLimit != n || len(rs.script.Decisions) != n {
					t.Errorf("%s cut: decPos %d, decLimit %d, %d decisions; want all %d consumed",
						label, rs.decPos, rs.decLimit, len(rs.script.Decisions), n)
				}
				if n := len(scripts[cut].Plans); rs.planPos != n || rs.planLimit != n {
					t.Errorf("%s cut: planPos %d, planLimit %d; want all %d consumed", label, rs.planPos, rs.planLimit, n)
				}
				s.Abort(nil)
			}
		})
	}
}

// TestResumedStepperTruncatesMisstampedScript is the negative control: a
// decision stamped with the wrong Step truncates the script there, and
// the resumed stepper records afresh from that point the decisions the
// live session made.
func TestResumedStepperTruncatesMisstampedScript(t *testing.T) {
	for name, opt := range allOptimizers(t, MinimizeTime, 4, true) {
		if name == "random-search" {
			continue // records no decisions
		}
		t.Run(name, func(t *testing.T) {
			rounds, scripts := recordScripts(t, opt, newFakeTarget(exhaustiveValues()))
			live := scripts[len(scripts)-1]
			bad := live.clone()
			j := len(bad.Decisions) / 2
			bad.Decisions[j].Step++
			s := replayRounds(t, opt, newFakeTarget(exhaustiveValues()), rounds, len(scripts)-1, bad)
			defer s.Abort(nil)
			if rs := s.resume; rs.decLimit != j {
				t.Errorf("decLimit = %d, want the script truncated at the misstamped decision %d", rs.decLimit, j)
			}
			if got := s.Script(); !reflect.DeepEqual(got.Decisions, live.Decisions) {
				t.Errorf("decisions recorded after the truncation differ from the live session's:\n got %+v\nwant %+v",
					got.Decisions, live.Decisions)
			}
		})
	}
}
