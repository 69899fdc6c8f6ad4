package mem_test

import (
	"runtime"
	"testing"

	"informing/internal/inorder"
	"informing/internal/mem"
	"informing/internal/ooo"
)

// table1Hiers are the data hierarchies of the paper's two Table-1
// machines; both carry a 2 MB L2.
var table1Hiers = []struct {
	name string
	cfg  mem.HierConfig
}{
	{"R10000", ooo.DefaultConfig().Hier},
	{"Alpha21164", inorder.DefaultConfig().Hier},
}

// TestNewHierarchyConstructionCost is the regression gate for lazily
// allocated cache and taxonomy state: building a Table-1 hierarchy must
// cost a few page tables and starting tables, not the 2 MB L2's way
// array, shadow node pool and shadow index, which together take about
// 4.7 MB when sized by capacity.
func TestNewHierarchyConstructionCost(t *testing.T) {
	const budget = 64 << 10
	for _, h := range table1Hiers {
		const calls = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if _, err := mem.NewHierarchy(h.cfg); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > budget {
			t.Errorf("%s: NewHierarchy allocates %d bytes per call, budget %d", h.name, per, budget)
		}
	}
}

// BenchmarkNewHierarchy measures hierarchy construction for both
// Table-1 machines.
func BenchmarkNewHierarchy(b *testing.B) {
	for _, h := range table1Hiers {
		b.Run(h.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mem.NewHierarchy(h.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
