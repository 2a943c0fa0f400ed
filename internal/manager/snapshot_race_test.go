package manager

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"rtsm/internal/core"
	"rtsm/internal/energy"
	"rtsm/internal/workload"
)

// TestEpochSnapshotSharingStress drives concurrent admissions and
// departures with copy-on-write epoch snapshots on (the defaults) and,
// under -race, pins the sharing protocol: many workers map against the
// same frozen base snapshot while commits fault regions in on the live
// platform, the ledger stays invariant-clean and returns to pristine,
// and the statistics show that sharing actually happened — admissions
// served from an existing epoch snapshot plus base captures add up to
// more than the captures alone.
func TestEpochSnapshotSharingStress(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 123, 4)
	pristine := plat.Residual()
	m := New(plat, core.Config{})
	// No template reuse: every admission must take (or share) a base
	// snapshot, so the sharing counters are actually exercised.
	m.SetMappingReuse(false)

	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := w*perWorker + i
				app, lib := workload.Synthetic(workload.SynthOptions{
					Shape: workload.ShapeChain, Processes: 3 + n%3, Seed: int64(n % 6),
					MaxUtil: 0.12, PeriodNs: 40_000,
					SrcTile: fmt.Sprintf("SRC%d", n%4), SinkTile: fmt.Sprintf("SINK%d", n%4),
				})
				app.Name = fmt.Sprintf("epoch-%d", n)
				out := m.Admit(app, lib)
				if out.Admitted {
					if err := m.Stop(app.Name); err != nil {
						t.Errorf("stop %s: %v", app.Name, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("ledger corrupted under shared epoch snapshots: %v", err)
	}
	if final := m.Residual(); !final.Equal(pristine) {
		d := pristine.Diff(final)
		t.Fatalf("reservations leaked: %d tiles, %d links drifted", len(d.Tiles), len(d.Links))
	}
	st := m.Stats()
	if st.Admitted == 0 {
		t.Fatal("stress run admitted nothing")
	}
	if st.Snapshots == 0 {
		t.Fatal("no base snapshots recorded; counter plumbing broken")
	}
	if st.SnapshotsShared == 0 {
		t.Fatalf("no admission shared an epoch snapshot across %d concurrent arrivals (Snapshots=%d)",
			st.Admitted+st.Rejected, st.Snapshots)
	}
	if st.CoWFaults == 0 {
		t.Fatal("no CoW faults recorded despite commits on shared snapshots")
	}
	t.Logf("epoch stress: %d admitted, %d base snapshots, %d shared, %d CoW faults",
		st.Admitted, st.Snapshots, st.SnapshotsShared, st.CoWFaults)
}

// TestCoWSnapshotMapMatchesDeepCopy is the differential oracle for the
// admission path's snapshot engine. On a churn-loaded 8×8, 4-region
// manager, with commits and stops interleaved, every arrival is mapped
// twice: against a copy-on-write capture and against a deep copy
// (arch.Platform.Snapshot) taken at the same version. Both must give the
// same verdict, the same reservation deltas and the same energy, even
// though the live platform commits the arrival (and often releases a
// resident) between capture and mapping, faulting regions in under the
// frozen capture. Energy is a
// float sum over map-ordered terms (energy.Params.Evaluate), so it is
// compared to rounding rather than bit for bit.
func TestCoWSnapshotMapMatchesDeepCopy(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 123, 4)
	regions := plat.RegionCount()
	if regions != 4 {
		t.Fatalf("fixture has %d regions, want 4", regions)
	}
	pristine := plat.Residual()
	m := New(plat, core.Config{})
	const arrivals = 200
	const resident = 10
	var live []string
	stopOldest := func() {
		if err := m.Stop(live[0]); err != nil {
			t.Fatalf("stop %s: %v", live[0], err)
		}
		live = live[1:]
	}
	feasible, infeasible := 0, 0
	for n := 0; n < arrivals; n++ {
		s := n % 6
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 2 + s%2, Seed: int64(s),
			MaxUtil: 0.2, PeriodNs: 40_000,
			SrcTile: fmt.Sprintf("SRC%d", n%regions), SinkTile: fmt.Sprintf("SINK%d", n%regions),
		})
		app.Name = fmt.Sprintf("diff-%d", n)

		cow := plat.SnapshotCoW(m.locks)
		m.locks.LockAll()
		deep := plat.Snapshot()
		m.locks.UnlockAll()
		if cow.Version != deep.Version {
			t.Fatalf("arrival %d: captures at versions %d and %d", n, cow.Version, deep.Version)
		}
		// The arrival commits, and every third arrival a departure
		// lands, between capture and mapping: both views must stay
		// frozen at the captured version.
		if out := m.Admit(app, lib); out.Admitted {
			live = append(live, app.Name)
		}
		if n%3 == 0 && len(live) > 0 {
			stopOldest()
		}

		mapper := &core.Mapper{Lib: lib}
		rc, errC := mapper.Map(app, cow.Plat)
		rd, errD := mapper.Map(app, deep.Plat)
		if (errC == nil) != (errD == nil) {
			t.Fatalf("arrival %d: CoW error %v, deep-copy error %v", n, errC, errD)
		}
		if errC != nil {
			continue
		}
		if rc.Feasible != rd.Feasible {
			t.Fatalf("arrival %d: CoW feasible=%v, deep copy feasible=%v", n, rc.Feasible, rd.Feasible)
		}
		if !rc.Feasible {
			infeasible++
		} else {
			feasible++
			if !sameEnergy(rc.Energy, rd.Energy) {
				t.Fatalf("arrival %d: CoW energy %v, deep-copy energy %v", n, rc.Energy, rd.Energy)
			}
			pc, err := core.NewPlan(plat, rc)
			if err != nil {
				t.Fatal(err)
			}
			pd, err := core.NewPlan(plat, rd)
			if err != nil {
				t.Fatal(err)
			}
			tc, lc := pc.Deltas()
			td, ld := pd.Deltas()
			if !reflect.DeepEqual(tc, td) || !reflect.DeepEqual(lc, ld) {
				t.Fatalf("arrival %d: reservation deltas differ between CoW and deep-copy mappings", n)
			}
		}
		for len(live) > resident {
			stopOldest()
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("differential covered %d feasible and %d infeasible arrivals; want both", feasible, infeasible)
	}
	if m.Stats().CoWFaults == 0 {
		t.Fatal("no CoW faults: commits never wrote under a live capture")
	}
	for len(live) > 0 {
		stopOldest()
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if final := m.Residual(); !final.Equal(pristine) {
		t.Fatal("reservations leaked across the differential churn")
	}
	t.Logf("differential: %d feasible, %d infeasible arrivals agree", feasible, infeasible)
}

// sameEnergy reports whether two energy breakdowns agree up to the
// rounding of their summation order.
func sameEnergy(a, b energy.Breakdown) bool {
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y)) }
	return near(a.Processing, b.Processing) && near(a.Communication, b.Communication) && near(a.Idle, b.Idle)
}
