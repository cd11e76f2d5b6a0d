package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"testing"
)

// substrateDigests pins the simulated values of each SubstrateVersion,
// as TestSubstrateDigest hashes them.
var substrateDigests = map[string]string{
	"arrow-substrate/2": "0335b18b4cbdadbcafb8fb9222e73ce46622e9a23fe7b01dff413e7cd07f71cc",
}

// resultBits lists the bits of every simulated value in r: time, cost,
// the six metrics, and the noise and affinity factors.
func resultBits(r Result) []uint64 {
	out := []uint64{math.Float64bits(r.TimeSec), math.Float64bits(r.CostUSD)}
	for _, m := range r.Metrics {
		out = append(out, math.Float64bits(m))
	}
	return append(out, math.Float64bits(r.Breakdown.NoiseFactor), math.Float64bits(r.Breakdown.Affinity))
}

// studyRuns evaluates every study workload on every VM: its Truth, then
// its Measure at trials 0 to trials-1, in a fixed order.
func studyRuns(s *Simulator, trials int64) []func() (Result, error) {
	var runs []func() (Result, error)
	for _, w := range s.StudyWorkloads() {
		for i := 0; i < s.Catalog().Len(); i++ {
			vm := s.Catalog().VM(i)
			runs = append(runs, func() (Result, error) { return s.Truth(w, vm) })
			for trial := int64(0); trial < trials; trial++ {
				runs = append(runs, func() (Result, error) { return s.Measure(w, vm, trial) })
			}
		}
	}
	return runs
}

// TestSubstrateDigest holds the simulator to its SubstrateVersion: one
// SHA-256 over resultBits of every study pair's Truth and its Measure at
// trials 0–3. The run cache trusts the version alone, so a change that
// moves any simulated value must also bump SubstrateVersion.
func TestSubstrateDigest(t *testing.T) {
	h := sha256.New()
	for _, run := range studyRuns(newSim(t), 4) {
		r, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if err := binary.Write(h, binary.LittleEndian, resultBits(r)); err != nil {
			t.Fatal(err)
		}
	}
	got, want := hex.EncodeToString(h.Sum(nil)), substrateDigests[SubstrateVersion]
	if got != want {
		t.Fatalf("substrate digest %s, want %q for %s: the simulated values changed. "+
			"Bump SubstrateVersion, regenerate the goldens (ARROW_UPDATE_GOLDEN=1) and results/, "+
			"and pin the new digest in substrateDigests", got, want, SubstrateVersion)
	}
}

// TestConcurrentMeasureMatchesSerial measures from several goroutines
// through the shared rngPool and holds every value to a serial pass bit
// for bit. make study-smoke repeats it under -race.
func TestConcurrentMeasureMatchesSerial(t *testing.T) {
	runs := studyRuns(newSim(t), 2)
	serial := make([][]uint64, len(runs))
	for i, run := range runs {
		r, err := run()
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = resultBits(r)
	}
	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker walks its own stride in its own direction, so
			// pooled rngs pass between workers and between streams.
			for k := g; k < len(runs); k += workers {
				i := k
				if g%2 == 1 {
					i = len(runs) - 1 - k
				}
				r, err := runs[i]()
				if err != nil {
					t.Error(err)
					return
				}
				for j, b := range resultBits(r) {
					if b != serial[i][j] {
						t.Errorf("run %d value %d: %x concurrently, %x serially", i, j, b, serial[i][j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
