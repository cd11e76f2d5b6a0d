package cloud

import (
	"reflect"
	"sync"
	"testing"
)

// TestDefaultCatalogShared checks that every caller, concurrent ones
// included, gets the one catalog, and that the feature rows and names a
// caller receives do not alias the catalog's own data (VMs has its own
// test). Run under -race, it also checks that the once-built catalog is
// published safely.
func TestDefaultCatalogShared(t *testing.T) {
	const n = 8
	got := make([]*Catalog, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = DefaultCatalog()
			if _, err := got[g].Index("c4.large"); err != nil {
				t.Error(err)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		if got[g] != DefaultCatalog() {
			t.Fatalf("goroutine %d got a different catalog", g)
		}
	}

	cat := DefaultCatalog()
	feats, names := cat.Features(), cat.Names()
	cat.Features()[0][0] = -1
	cat.Names()[0] = "mutated"
	if !reflect.DeepEqual(cat.Features(), feats) || !reflect.DeepEqual(cat.Names(), names) {
		t.Error("mutating a returned slice changed the catalog")
	}
}
