package workloads

import (
	"reflect"
	"sync"
	"testing"
)

// TestTableConcurrentUse calls All and ByID from many goroutines at once.
// Run under -race, it checks that the once-built table is published
// safely and that every caller sees the same one.
func TestTableConcurrentUse(t *testing.T) {
	const n = 8
	got := make([][]Workload, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			if _, err := ByID("als/spark2.1/medium"); err != nil {
				t.Error(err)
			}
			got[g] = All()
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < n; g++ {
		if !reflect.DeepEqual(got[g], got[0]) {
			t.Fatalf("goroutine %d saw a different table", g)
		}
	}
}

func TestTableStableAcrossCalls(t *testing.T) {
	want := All()
	if got := All(); !reflect.DeepEqual(got, want) {
		t.Fatal("All differs between calls")
	}
	for _, w := range want {
		got, err := ByID(w.ID())
		if err != nil {
			t.Fatalf("ByID(%q): %v", w.ID(), err)
		}
		if got != w {
			t.Errorf("ByID(%q) = %+v, want %+v", w.ID(), got, w)
		}
	}
	for _, id := range []string{"", "als", "als/spark2.1", "als/spark2.1/huge", "ALS/spark2.1/medium"} {
		if _, err := ByID(id); err == nil {
			t.Errorf("ByID(%q) should fail", id)
		}
	}
}

func TestAllReturnsCopy(t *testing.T) {
	want := All()
	mutated := All()
	mutated[0].AppName = "mutated"
	mutated[0].Demands.CPUCoreSeconds = -1
	_ = append(mutated[:1], Workload{AppName: "appended"})
	if got := All(); !reflect.DeepEqual(got, want) {
		t.Error("mutating All's result changed the next call's")
	}
	w, err := ByID(want[0].ID())
	if err != nil || w != want[0] {
		t.Errorf("ByID after mutation = %+v, %v; want %+v", w, err, want[0])
	}
}
