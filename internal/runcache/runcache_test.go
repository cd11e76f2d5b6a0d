package runcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

type payload struct {
	Name   string
	Values []float64
}

func TestDoComputesOnceAndCaches(t *testing.T) {
	s, err := Open[payload]("", "v1")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	compute := func() (payload, error) {
		calls++
		return payload{Name: "a", Values: []float64{1, 2.5}}, nil
	}
	for i := 0; i < 3; i++ {
		got, err := s.Do("k", compute)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != "a" || len(got.Values) != 2 {
			t.Fatalf("unexpected value %+v", got)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 1 miss + 2 hits", st)
	}
}

func TestDoSingleflightDeduplicates(t *testing.T) {
	s, err := Open[int]("", "v1")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 32
	var computes atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := s.Do("shared", func() (int, error) {
				computes.Add(1)
				<-release // hold the flight open so everyone piles up
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("got %d, %v", v, err)
			}
		}()
	}
	// Let the waiters queue up behind the single in-flight compute, then
	// release it. The sleep-free way: poll Stats until Shared+Misses
	// accounts for everyone except late memory hits.
	for {
		st := s.Stats()
		if st.Misses+st.Shared+st.Hits >= goroutines-1 || st.Shared > 0 {
			break
		}
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	st := s.Stats()
	if st.Lookups() != goroutines {
		t.Errorf("lookups = %d, want %d (stats %+v)", st.Lookups(), goroutines, st)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	s, err := Open[int]("", "v1")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	fail := func() (int, error) { calls++; return 0, fmt.Errorf("boom %d", calls) }
	if _, err := s.Do("k", fail); err == nil {
		t.Fatal("want error")
	}
	if _, err := s.Do("k", fail); err == nil || err.Error() != "boom 2" {
		t.Fatalf("second call got %v, want fresh boom 2", err)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (errors must not cache)", calls)
	}
}

func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open[payload](dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	want := payload{Name: "x", Values: []float64{3.14159, 1e-9, 1234567.875}}
	if _, err := s.Do("k1", func() (payload, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := Open[payload](dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.Do("k1", func() (payload, error) {
		t.Error("compute ran on a warm cache")
		return payload{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || len(got.Values) != len(want.Values) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Errorf("value %d: %v != %v (must round-trip exactly)", i, got.Values[i], want.Values[i])
		}
	}
	st := warm.Stats()
	if st.Loaded != 1 || st.DiskHits != 1 {
		t.Errorf("stats = %+v, want 1 loaded + 1 disk hit", st)
	}
}

func TestSubstrateBumpInvalidatesDiskTier(t *testing.T) {
	dir := t.TempDir()
	s, err := Open[int](dir, "substrate-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do("k", func() (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	bumped, err := Open[int](dir, "substrate-2")
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	if _, err := bumped.Do("k", func() (int, error) { ran = true; return 8, nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("bumped substrate must invalidate disk entries")
	}
	st := bumped.Stats()
	if st.Invalidated != 1 || st.Loaded != 0 {
		t.Errorf("stats = %+v, want 1 invalidated + 0 loaded", st)
	}
}

func TestCorruptShardLinesSkippedWithWarning(t *testing.T) {
	dir := t.TempDir()
	s, err := Open[int](dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		key := Key(fmt.Sprintf("k%d", i))
		i := i
		if _, err := s.Do(key, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Damage the tier: garbage line in one shard, truncated tail in
	// another, and one empty file.
	shards, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shard files written (err %v)", err)
	}
	appendTo := func(path, text string) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(text); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	appendTo(shards[0], "{this is not json}\n")
	appendTo(shards[len(shards)-1], `{"k":"truncated","s":"v1","v":`) // no newline: a killed writer
	if err := os.WriteFile(filepath.Join(dir, "shard-99.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	warm, err := Open[int](dir, "v1", WithWarnf(func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}))
	if err != nil {
		t.Fatalf("damaged shards must not fail Open: %v", err)
	}
	st := warm.Stats()
	if st.Loaded != 20 {
		t.Errorf("loaded %d entries, want all 20 intact ones", st.Loaded)
	}
	if st.Corrupt < 2 {
		t.Errorf("corrupt = %d, want >= 2", st.Corrupt)
	}
	if len(warnings) < 2 {
		t.Errorf("want warnings for damaged lines, got %v", warnings)
	}
	for i := 0; i < 20; i++ {
		v, err := warm.Do(Key(fmt.Sprintf("k%d", i)), func() (int, error) {
			t.Errorf("k%d recomputed on a warm cache", i)
			return -1, nil
		})
		if err != nil || v != i {
			t.Errorf("k%d = %d, %v", i, v, err)
		}
	}
}

func TestMemoryOnlyStoreWritesNothing(t *testing.T) {
	s, err := Open[int]("", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do("k", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintKeyIsHexAndStable(t *testing.T) {
	fp := Fingerprint{Schema: "arrow-run/1", Substrate: "sim/1", Method: "Naive BO",
		WorkloadID: "als/spark2.1/medium", Objective: "time", Seed: 3,
		Kernel: "MATERN 5/2", EIStop: 0.1, DesignKind: "quasi-random", DesignSize: 3}
	k1, k2 := fp.Key(), fp.Key()
	if k1 != k2 {
		t.Error("key not deterministic")
	}
	if len(k1) != 64 || strings.Trim(string(k1), "0123456789abcdef") != "" {
		t.Errorf("key %q is not lowercase sha256 hex", k1)
	}
	fp.Seed = 4
	if fp.Key() == k1 {
		t.Error("seed change must alter the key")
	}
}

func TestStatsReuseRatio(t *testing.T) {
	var s Stats
	if s.ReuseRatio() != 0 {
		t.Error("idle ratio must be 0")
	}
	s = Stats{Hits: 6, DiskHits: 2, Misses: 2, Shared: 0}
	if got := s.ReuseRatio(); got != 0.8 {
		t.Errorf("ratio = %v, want 0.8", got)
	}
}

// keyInShard returns a key other than the given ones that lands in the
// given shard.
func keyInShard(t *testing.T, shard int, not ...Key) Key {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := Key(fmt.Sprintf("key-%d", i))
		if shardOf(k) == shard && !slices.Contains(not, k) {
			return k
		}
	}
	t.Fatalf("no key found for shard %d", shard)
	return ""
}

func quiet(string, ...any) {}

// TestFlippedDigitDetectedAndRecomputed: a digit flipped inside a cached
// value, on a line with intact lines after it, is detected and counted
// as corrupt, the value is recomputed rather than loaded, and the other
// line still loads.
func TestFlippedDigitDetectedAndRecomputed(t *testing.T) {
	dir := t.TempDir()
	other := keyInShard(t, shardOf("k"), "k")
	s, err := Open[float64](dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range []struct {
		key Key
		val float64
	}{{"k", 1.25}, {other, 2.5}} {
		if _, err := s.Do(kv.key, func() (float64, error) { return kv.val, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("shard-%02d.jsonl", shardOf("k")))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Replace(data, []byte("1.25"), []byte("1.75"), 1)
	if bytes.Equal(flipped, data) {
		t.Fatalf("cached value 1.25 not found in %s", data)
	}
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	warm, err := Open[float64](dir, "v1", WithWarnf(quiet))
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	got, err := warm.Do("k", func() (float64, error) { ran = true; return 1.25, nil })
	if err != nil || !ran || got != 1.25 {
		t.Fatalf("Do = %v, %v, recomputed %v; want the damaged value recomputed as 1.25", got, err, ran)
	}
	if v, err := warm.Do(other, func() (float64, error) { return -1, nil }); err != nil || v != 2.5 {
		t.Fatalf("intact line after the damage: %v, %v; want 2.5 from disk", v, err)
	}
	if st := warm.Stats(); st.Corrupt < 1 || st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want the flipped line counted corrupt and one disk hit", st)
	}
}

// TestEntryAfterTornTailSurvivesReopen: an entry appended after a killed
// writer's partial line starts on a fresh line, so it loads after a
// reopen instead of being glued to the torn bytes and recomputed.
func TestEntryAfterTornTailSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open[int](dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do("a", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, fmt.Sprintf("shard-%02d.jsonl", shardOf("a")))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The first half of a line with no newline, as a killed writer leaves it.
	if err := os.WriteFile(path, append(data, data[:len(data)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}

	b := keyInShard(t, shardOf("a"), "a")
	for open := 1; open <= 2; open++ {
		s, err := Open[int](dir, "v1", WithWarnf(quiet))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []Key{"a", b} {
			v, err := s.Do(k, func() (int, error) {
				if open == 2 {
					t.Errorf("open %d: %s recomputed; its line was lost", open, k)
				}
				return 2, nil
			})
			if err != nil || (k == "a" && v != 1) {
				t.Fatalf("open %d: %s = %d, %v", open, k, v, err)
			}
		}
		s.Close()
	}
}

// TestClosedStorePersistsNothing: after Close the store is a
// memory-only cache. A new key is computed and served from memory, and
// no shard file is opened or written.
func TestClosedStorePersistsNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open[int](dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		v, err := s.Do("k", func() (int, error) { return 7, nil })
		if err != nil || v != 7 {
			t.Fatalf("Do after Close = %d, %v", v, err)
		}
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss + 1 memory hit", st)
	}
	if shards, _ := filepath.Glob(filepath.Join(dir, "shard-*.jsonl")); len(shards) != 0 {
		t.Fatalf("closed store wrote %v", shards)
	}
}
