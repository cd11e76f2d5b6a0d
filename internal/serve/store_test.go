package serve

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestStoreSweepEvictsOnlyExpired fills the store with 1k sessions of
// which only the oldest have idled past the TTL, some of those refreshed
// by a lookup in between, and checks that one sweep evicts exactly the
// expired sessions — tombstoned for 410s — and that the next finds
// nothing more.
func TestStoreSweepEvictsOnlyExpired(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	st := newStore(2000, time.Minute, func() time.Time { return clock })
	add := func(i int) {
		if evicted, err := st.add(&session{id: fmt.Sprintf("s%04d", i)}); err != nil || len(evicted) != 0 {
			t.Fatalf("add %d: evicted %d, err %v", i, len(evicted), err)
		}
	}

	const total, old, refreshed = 1000, 100, 10
	for i := 0; i < old; i++ {
		add(i)
		clock = clock.Add(time.Millisecond)
	}
	clock = clock.Add(30 * time.Second)
	// Touching the first few old sessions moves them to the back of the
	// idle order: they must survive the sweep.
	for i := 0; i < refreshed; i++ {
		if _, status, evicted := st.get(fmt.Sprintf("s%04d", i)); status != lookupOK || len(evicted) != 0 {
			t.Fatalf("refresh %d: status %v, evicted %d", i, status, len(evicted))
		}
	}
	for i := old; i < total; i++ {
		add(i)
	}
	clock = clock.Add(31 * time.Second) // the untouched old sessions are now 61 s idle

	_, status, evicted := st.get("s0999")
	if status != lookupOK {
		t.Fatalf("live lookup: status %v", status)
	}
	got := make(map[string]bool, len(evicted))
	for _, s := range evicted {
		got[s.id] = true
	}
	if len(got) != old-refreshed || len(evicted) != old-refreshed {
		t.Fatalf("swept %d sessions (%d distinct), want %d", len(evicted), len(got), old-refreshed)
	}
	for i := 0; i < total; i++ {
		id := fmt.Sprintf("s%04d", i)
		expired := i >= refreshed && i < old
		if got[id] != expired {
			t.Fatalf("%s: evicted=%v, want %v", id, got[id], expired)
		}
		want := lookupOK
		if expired {
			want = lookupGone
		}
		if _, status, more := st.get(id); status != want || len(more) != 0 {
			t.Fatalf("%s after sweep: status %v evicted %d, want status %v and no eviction", id, status, len(more), want)
		}
	}
	if _, status, _ := st.get("never"); status != lookupNotFound {
		t.Fatalf("unknown id: status %v, want not found", status)
	}
	if n := st.len(); n != total-(old-refreshed) {
		t.Fatalf("%d sessions live, want %d", n, total-(old-refreshed))
	}
}

// TestStoreRemoveKeepsIdleOrder removes sessions from the front, middle
// and back of the idle order and checks the sweep still evicts exactly
// the expired survivors.
func TestStoreRemoveKeepsIdleOrder(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	st := newStore(10, time.Minute, func() time.Time { return clock })
	for i := 0; i < 5; i++ {
		if _, err := st.add(&session{id: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
		clock = clock.Add(time.Second)
	}
	for _, id := range []string{"0", "2", "4"} {
		st.remove(id)
	}
	st.remove("absent")
	clock = clock.Add(2 * time.Minute)
	if _, err := st.add(&session{id: "fresh"}); err != nil {
		t.Fatal(err)
	}
	_, _, evicted := st.get("fresh")
	if len(evicted) != 2 || evicted[0].id != "1" || evicted[1].id != "3" {
		ids := make([]string, len(evicted))
		for i, s := range evicted {
			ids[i] = s.id
		}
		t.Fatalf("evicted %v, want [1 3] oldest first", ids)
	}
	if _, status, _ := st.get("2"); status != lookupNotFound {
		t.Fatalf("removed id: status %v, want not found (remove does not tombstone)", status)
	}
}

// TestStoreAllocatesTombstonesOnDemand: a store with a large cap costs
// nothing up front for its tombstone ring, which grows as sessions are
// evicted. At a cap of 65,536 a ring sized for its 4x bound would be
// 4 MiB.
func TestStoreAllocatesTombstonesOnDemand(t *testing.T) {
	const n = 8
	stores := make([]*store, 0, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		stores = append(stores, newStore(65536, -1, time.Now))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 64<<10 {
		t.Fatalf("newStore(65536) allocated %d bytes, want under 64 KiB", per)
	}
	runtime.KeepAlive(stores)
}

// TestStoreTombstoneRingBound evicts past the ring's bound of four
// tombstones per session of cap: the oldest tombstones are forgotten
// (404) and the newest kept (410), and the ring never grows past the
// bound.
func TestStoreTombstoneRingBound(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	st := newStore(2, time.Minute, func() time.Time { return clock })
	const total, bound = 13, 8
	for i := range total {
		if _, err := st.add(&session{id: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
		clock = clock.Add(2 * time.Minute) // the next lookup evicts it
		if _, status, evicted := st.get(fmt.Sprint(i)); status != lookupGone || len(evicted) != 1 {
			t.Fatalf("session %d: status %v, %d evicted; want it evicted and gone", i, status, len(evicted))
		}
	}
	if len(st.ring) != bound || len(st.tombs) != bound {
		t.Fatalf("ring holds %d ids, map %d; want the bound %d", len(st.ring), len(st.tombs), bound)
	}
	for i := range total {
		want := lookupGone
		if i < total-bound {
			want = lookupNotFound
		}
		if _, status, _ := st.get(fmt.Sprint(i)); status != want {
			t.Errorf("session %d: status %v, want %v", i, status, want)
		}
	}
}
