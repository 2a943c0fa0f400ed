package rtsm

import (
	"fmt"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/manager"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// The snapshot benchmarks quantify what the copy-on-write engine takes
// out of the admission hot path. All run with -benchmem and are uploaded
// by CI as the bench-snapshot-comparison artifact:
//
//   - BenchmarkSnapshotOnly{CoW,DeepCopy}: the raw arch-level capture,
//     isolating the O(regions) pointer capture from the O(mesh) struct
//     copy without any manager machinery (the comparison pair: CoW must
//     be ≥2x faster and ≥4x lighter in B/op than the deep copy);
//   - BenchmarkAdmissionSnapshotCoW: the base-snapshot acquisition one
//     admission performs, measured on a churn-loaded 16×16 mesh manager;
//   - BenchmarkAdmissionChurn16CoW: the full pipeline (map + commit +
//     stop) for end-to-end context.

// loadedChurnManager16 builds a 16×16 region-sharded mesh, admits a
// churn-style resident population and returns the manager — the platform
// state a steady-state admission snapshots against.
func loadedChurnManager16(b *testing.B) *manager.Manager {
	plat := workload.SyntheticRegionPlatform(16, 16, 123, 4)
	regions := plat.RegionCount()
	m := manager.New(plat, core.Config{})
	m.SetMappingReuse(true)
	resident := 0
	for i := 0; i < 64; i++ {
		app, lib := shardApp(i, regions)
		app.Name = fmt.Sprintf("resident-%d", i)
		if out := m.Admit(app, lib); out.Admitted {
			resident++
		}
	}
	if resident == 0 {
		b.Fatal("no residents admitted; churn fixture broken")
	}
	return m
}

// BenchmarkAdmissionSnapshotCoW measures exactly the copy-on-write
// snapshot acquisition the admission path performs per mapping round on
// the churn workload at 16×16 (manager.Snapshot is that call; epoch
// sharing, when it hits, makes an admission cheaper still by skipping
// even this).
func BenchmarkAdmissionSnapshotCoW(b *testing.B) {
	m := loadedChurnManager16(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := m.Snapshot(); s == nil {
			b.Fatal("nil snapshot")
		}
	}
}

// snapshotOnlyPlatform is a reservation-loaded 16×16 mesh for the raw
// capture pair: a handful of committed mappings so tiles and links carry
// non-trivial state.
func snapshotOnlyPlatform(b *testing.B) *arch.Platform {
	plat := workload.SyntheticRegionPlatform(16, 16, 123, 4)
	regions := plat.RegionCount()
	for i := 0; i < 2*regions; i++ {
		app, lib := shardApp(i, regions)
		app.Name = fmt.Sprintf("load-%d", i)
		res, err := (&core.Mapper{Lib: lib}).Map(app, plat)
		if err != nil || !res.Feasible {
			continue
		}
		if err := core.Apply(plat, res); err != nil {
			continue
		}
	}
	return plat
}

// BenchmarkSnapshotOnlyCoW is the raw copy-on-write capture: per-region
// pointer copies plus the version vector, coordinated through a region
// lock set the way the manager captures.
func BenchmarkSnapshotOnlyCoW(b *testing.B) {
	plat := snapshotOnlyPlatform(b)
	locks := arch.NewRegionLocks(plat.RegionCount())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := plat.SnapshotCoW(locks); s == nil {
			b.Fatal("nil snapshot")
		}
	}
}

// BenchmarkSnapshotOnlyDeepCopy is the raw deep copy of every tile and
// link struct, the pre-CoW capture.
func BenchmarkSnapshotOnlyDeepCopy(b *testing.B) {
	plat := snapshotOnlyPlatform(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := plat.Snapshot(); s == nil {
			b.Fatal("nil snapshot")
		}
	}
}

// BenchmarkAdmissionChurn16CoW drives the full pipeline — copy-on-write
// epoch snapshot, speculative map, sharded commit, stop — on the 16×16
// region-pinned churn workload, for end-to-end context around the
// capture-only pair.
func BenchmarkAdmissionChurn16CoW(b *testing.B) {
	plat := workload.SyntheticRegionPlatform(16, 16, 123, 4)
	regions := plat.RegionCount()
	m := manager.New(plat, core.Config{})
	m.SetMappingReuse(true)
	warmCatalogue(b, m, func(s int) (*model.Application, *model.Library) {
		return shardApp(s, regions)
	})
	base := m.Stats()
	pipe := manager.NewPipeline(m, 4, 4)
	defer pipe.Close()
	pending := make(chan (<-chan manager.Outcome), 4)
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for ch := range pending {
			out := <-ch
			if out.Admitted {
				if err := m.Stop(out.App); err != nil {
					b.Error(err)
				}
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app, lib := shardApp(i, regions)
		ch, err := pipe.Submit(app, lib)
		if err != nil {
			b.Fatal(err)
		}
		pending <- ch
	}
	close(pending)
	<-collectorDone
	b.StopTimer()
	reportAdmissions(b, m, base)
}
