// Package fleet federates N independent manager.Manager instances — one
// per NoC mesh — behind a single admission front door. The paper's
// run-time spatial mapper manages one mesh; a deployment that must serve
// "as fast as the hardware allows" scales horizontally instead, and the
// fleet is that horizontal layer: a placement router scores sibling
// meshes per arrival (utilization-, energy- and QoS-class-aware, sampled
// power-of-two-choices so routing stays O(1)), cross-mesh overflow spills
// capacity rejections to the next-best sibling before finally rejecting,
// and a background rebalancer drains best-effort residents from hot
// meshes to cold ones.
//
// Each mesh keeps its own region locks, epochs, template pools and
// batching; the fleet adds no shared mutable state on the admission hot
// path — the router reads per-mesh atomic load estimates
// (manager.LoadEstimate) and the only cross-mesh structure is a
// sync.Map of name→placement used for duplicate detection and the
// exactly-one-mesh residency invariant.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"rtsm/internal/manager"
	"rtsm/internal/model"
)

// MeshConfig describes one member mesh: its manager (already constructed
// over its own platform, possibly heterogeneous in size and region
// partition) and the pipeline in front of it.
type MeshConfig struct {
	// Manager owns the mesh. Required.
	Manager *manager.Manager
	// Workers is the mesh pipeline's worker count (min 1).
	Workers int
	// Queue is the mesh pipeline's queue depth (min 1).
	Queue int
	// Batch enables the mesh pipeline's batched admission path with the
	// given drain size (≤ 1 = per-item admission).
	Batch int
}

// Config tunes the fleet's router.
type Config struct {
	// Policy scores candidate meshes per arrival; nil selects
	// DefaultPolicy.
	Policy Policy
	// Sample is how many distinct meshes the router scores per arrival
	// (power-of-d-choices); 0 selects 2, the classic power-of-two. Values
	// ≥ the mesh count score every mesh.
	Sample int
	// Seed perturbs the router's sampling sequence so distinct fleets
	// don't sample in lockstep.
	Seed int64
	// SpillMargin gates the overflow path: a capacity-rejected arrival
	// only spills to siblings whose policy score is at least this much
	// better than the rejecting mesh's. 0 spills to every sibling (a
	// uniformly saturated fleet still probes each member before the
	// final rejection); positive values skip siblings that are just as
	// hot — on a fleet near uniform saturation most spill attempts are
	// doomed full mapping rounds, and the margin converts them into
	// immediate rejections.
	SpillMargin float64
	// RebalanceGap overrides DefaultRebalanceGap: the hottest-to-coldest
	// utilization spread below which rebalance rounds do nothing.
	RebalanceGap float64
	// RebalanceMoves overrides DefaultRebalanceMoves: how many residents
	// one rebalance round may move.
	RebalanceMoves int
}

// Outcome is a manager outcome annotated with the fleet's routing: which
// mesh ultimately served (or last refused) the arrival and how many
// cross-mesh spill attempts it took to get there.
type Outcome struct {
	manager.Outcome
	// Mesh is the index (into the fleet's construction order) of the
	// mesh that admitted the application, or the last mesh tried when
	// rejected.
	Mesh int
	// Spills counts cross-mesh overflow attempts: 0 when the routed mesh
	// answered, n when the arrival was re-tried on n siblings after a
	// retryable rejection.
	Spills int
}

// placement tracks which mesh an application lives on. It is the fleet's
// only cross-mesh mutable state: LoadOrStore on the name gives duplicate
// detection, and the state machine (pending → resident → relocating →
// resident, or → stopped) makes residency transfers race-free — exactly
// one of Stop and the rebalancer can claim a resident at a time, so an
// application is reserved on at most one mesh at every instant.
type placement struct {
	mesh  atomic.Int32
	state atomic.Int32
}

// placement states.
const (
	placePending    = int32(iota) // submitted, outcome not yet delivered
	placeResident                 // admitted; mesh index is authoritative
	placeRelocating               // claimed by the rebalancer
	placeStopped                  // claimed by Stop; entry about to vanish
)

// mesh is one member: the manager plus its pipeline and cached load
// pointer.
type mesh struct {
	id   int
	m    *manager.Manager
	pipe *manager.Pipeline
	load *manager.LoadEstimate
	// workers is the pipeline's worker count, for queue-pressure
	// normalization in MeshStat.
	workers int
	// inFlight counts admissions handed to this mesh whose outcome has
	// not yet been delivered — queued, mapping, or spilling through it.
	// The router reads it so backpressure on one mesh's bounded pipeline
	// queue diverts arrivals to idle siblings instead of blocking the
	// submitter.
	inFlight atomic.Int64
	// failed marks the mesh out of service (FailMesh): the router and
	// the spill path skip it and the rebalancer neither feeds nor drains
	// it — FailMesh's own drain owns moving its residents out.
	failed atomic.Bool
}

// Fleet is the multi-mesh federation. Construct with New, admit with
// Submit (pipelined) or Admit (synchronous), stop residents with Stop,
// rebalance with RebalanceOnce or StartRebalancer, and shut down with
// Close.
type Fleet struct {
	cfg    Config
	meshes []*mesh

	// placements maps application name → *placement for every
	// application currently submitted or resident anywhere in the fleet.
	placements sync.Map

	// rngState drives the lock-free sampling sequence (splitmix64).
	rngState atomic.Uint64

	// shepherds tracks the per-arrival goroutines that watch mesh
	// outcomes and run the spill path; Close waits for them.
	shepherds sync.WaitGroup

	closed atomic.Bool

	rebalanceMu   sync.Mutex
	rebalanceStop chan struct{}
	rebalanceDone chan struct{}

	stats fleetCounters
}

// fleetCounters aggregates fleet-level events (mesh-level stats live in
// each manager). All atomic: bumped from shepherds and the rebalancer.
type fleetCounters struct {
	submitted       atomic.Uint64
	spills          atomic.Uint64
	spillAdmits     atomic.Uint64
	overflowRejects atomic.Uint64
	relocations     atomic.Uint64
	relocFailbacks  atomic.Uint64
	relocDrops      atomic.Uint64
	meshEvictions   atomic.Uint64
	drained         atomic.Uint64
	drainDrops      atomic.Uint64
}

// Stats is a point-in-time snapshot of the fleet's routing counters.
type Stats struct {
	// Submitted counts arrivals accepted by Submit (duplicates and
	// post-Close submissions excluded).
	Submitted uint64
	// Spills counts cross-mesh overflow attempts (one per sibling tried).
	Spills uint64
	// SpillAdmits counts arrivals admitted by a sibling after their
	// routed mesh refused.
	SpillAdmits uint64
	// OverflowRejects counts arrivals rejected after every eligible mesh
	// refused.
	OverflowRejects uint64
	// Relocations counts residents moved hot→cold by the rebalancer.
	Relocations uint64
	// RelocFailbacks counts relocation attempts that failed on the cold
	// mesh and re-admitted the resident on its origin.
	RelocFailbacks uint64
	// RelocDrops counts residents lost because both the target and the
	// origin refused re-admission (the mesh filled up mid-move).
	RelocDrops uint64
	// MeshEvictions counts placements retired because a mesh's own
	// preemption planner evicted the resident (discovered by the
	// reconciliation sweep or by a rebalance move racing the eviction).
	MeshEvictions uint64
	// Drained counts residents a FailMesh drain re-admitted on a
	// surviving sibling; DrainDrops counts those every survivor refused.
	Drained    uint64
	DrainDrops uint64
}

// Stats snapshots the fleet's routing counters.
func (f *Fleet) Stats() Stats {
	return Stats{
		Submitted:       f.stats.submitted.Load(),
		Spills:          f.stats.spills.Load(),
		SpillAdmits:     f.stats.spillAdmits.Load(),
		OverflowRejects: f.stats.overflowRejects.Load(),
		Relocations:     f.stats.relocations.Load(),
		RelocFailbacks:  f.stats.relocFailbacks.Load(),
		RelocDrops:      f.stats.relocDrops.Load(),
		MeshEvictions:   f.stats.meshEvictions.Load(),
		Drained:         f.stats.drained.Load(),
		DrainDrops:      f.stats.drainDrops.Load(),
	}
}

// New builds a fleet over the given meshes. Each mesh gets its own
// pipeline sized per its MeshConfig; the managers are owned by the fleet
// from here on (Close shuts their pipelines down). At least one mesh is
// required.
func New(cfg Config, meshes ...MeshConfig) (*Fleet, error) {
	if len(meshes) == 0 {
		return nil, fmt.Errorf("fleet: at least one mesh is required")
	}
	if cfg.Policy == nil {
		cfg.Policy = DefaultPolicy
	}
	if cfg.Sample <= 0 {
		cfg.Sample = 2
	}
	f := &Fleet{cfg: cfg}
	f.rngState.Store(uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 1)
	for i, mc := range meshes {
		if mc.Manager == nil {
			return nil, fmt.Errorf("fleet: mesh %d has no manager", i)
		}
		workers := mc.Workers
		if workers < 1 {
			workers = 1
		}
		queue := mc.Queue
		if queue < 1 {
			queue = workers
		}
		pipe := manager.NewPipeline(mc.Manager, workers, queue)
		if mc.Batch > 1 {
			pipe.SetBatch(mc.Batch)
		}
		f.meshes = append(f.meshes, &mesh{
			id:      i,
			m:       mc.Manager,
			pipe:    pipe,
			load:    mc.Manager.LoadEstimate(),
			workers: workers,
		})
	}
	return f, nil
}

// Meshes returns the number of member meshes.
func (f *Fleet) Meshes() int { return len(f.meshes) }

// Manager returns mesh i's manager, for per-mesh reporting.
func (f *Fleet) Manager(i int) *manager.Manager { return f.meshes[i].m }

// errOutcome delivers a fleet-level rejection without involving any mesh.
func errOutcome(app *model.Application, meshID int, err error) Outcome {
	return Outcome{
		Outcome: manager.Outcome{App: app.Name, Err: err,
			Priority: app.QoS.Priority},
		Mesh: meshID,
	}
}

// Submit routes the application to the best-scoring sampled mesh and
// enqueues it there, returning a channel that delivers exactly one fleet
// Outcome. On a retryable (capacity) rejection the arrival spills to the
// remaining meshes in score order — synchronously, one at a time — before
// the final rejection is delivered; structural rejections are final
// immediately. Duplicate names anywhere in the fleet are refused without
// touching a mesh.
func (f *Fleet) Submit(app *model.Application, lib *model.Library) (<-chan Outcome, error) {
	if f.closed.Load() {
		return nil, fmt.Errorf("fleet: closed")
	}
	pl := &placement{}
	if _, dup := f.placements.LoadOrStore(app.Name, pl); dup {
		return nil, fmt.Errorf("fleet: application %q already submitted", app.Name)
	}
	target := f.route(app)
	if target == nil {
		f.placements.Delete(app.Name)
		return nil, fmt.Errorf("fleet: no mesh in service")
	}
	pl.mesh.Store(int32(target.id))
	target.inFlight.Add(1)
	ch, err := target.pipe.Submit(app, lib)
	if err != nil {
		target.inFlight.Add(-1)
		f.placements.Delete(app.Name)
		return nil, err
	}
	f.stats.submitted.Add(1)
	done := make(chan Outcome, 1)
	f.shepherds.Add(1)
	go f.shepherd(app, lib, pl, target, ch, done)
	return done, nil
}

// TrySubmit is Submit without the blocking: it reports false — shedding
// the arrival — when the routed mesh's bounded queue is full, the name
// is a duplicate, no mesh is in service or the fleet closed. A
// full-queue refusal is counted as shed in the routed mesh's manager
// stats (see manager.Pipeline.TrySubmit); the arrival does not probe
// siblings, because under saturation every extra probe is another
// blocked submitter — the streaming front-end's shed-or-DLQ machinery
// owns the retry policy instead.
func (f *Fleet) TrySubmit(app *model.Application, lib *model.Library) (<-chan Outcome, bool) {
	if f.closed.Load() {
		return nil, false
	}
	pl := &placement{}
	if _, dup := f.placements.LoadOrStore(app.Name, pl); dup {
		return nil, false
	}
	target := f.route(app)
	if target == nil {
		f.placements.Delete(app.Name)
		return nil, false
	}
	pl.mesh.Store(int32(target.id))
	target.inFlight.Add(1)
	ch, ok := target.pipe.TrySubmit(app, lib)
	if !ok {
		target.inFlight.Add(-1)
		f.placements.Delete(app.Name)
		return nil, false
	}
	f.stats.submitted.Add(1)
	done := make(chan Outcome, 1)
	f.shepherds.Add(1)
	go f.shepherd(app, lib, pl, target, ch, done)
	return done, true
}

// Utilization is the mean reserved-capacity estimate across in-service
// meshes, in [0, 1] — the fleet-level signal the streaming front-end's
// dead-letter queue gates retries on. With every mesh failed it reports
// 1 (saturated), so nothing retries into a dead fleet.
func (f *Fleet) Utilization() float64 {
	var sum float64
	n := 0
	for _, ms := range f.meshes {
		if ms.failed.Load() {
			continue
		}
		sum += ms.load.Utilization()
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// Admit is the synchronous form of Submit: route, admit (spilling as
// needed) and return the single fleet outcome.
func (f *Fleet) Admit(app *model.Application, lib *model.Library) Outcome {
	ch, err := f.Submit(app, lib)
	if err != nil {
		return errOutcome(app, -1, err)
	}
	return <-ch
}

// shepherd watches the routed mesh's outcome and runs the overflow path:
// at most one final Outcome lands on done no matter how many meshes were
// tried. It owns the placement entry until the outcome is delivered.
func (f *Fleet) shepherd(app *model.Application, lib *model.Library,
	pl *placement, routed *mesh, ch <-chan manager.Outcome, done chan<- Outcome) {
	defer f.shepherds.Done()
	out := <-ch
	routed.inFlight.Add(-1)
	if out.Admitted {
		pl.state.Store(placeResident)
		done <- Outcome{Outcome: out, Mesh: routed.id}
		return
	}
	if !manager.IsRetryableRejection(out.Err) {
		// Structural: every mesh would refuse identically. Reject once.
		f.placements.Delete(app.Name)
		done <- Outcome{Outcome: out, Mesh: routed.id}
		return
	}
	// Capacity rejection: overflow to the remaining meshes, best score
	// first. Spill admissions run synchronously on the shepherd — the
	// arrival already lost its fast path, so the extra latency buys the
	// certainty that the outcome channel sees exactly one final verdict.
	spills := 0
	last := out
	lastMesh := routed.id
	refScore := f.cfg.Policy(f.stat(routed), app)
	for _, sib := range f.spillOrder(app, routed.id) {
		if m := f.cfg.SpillMargin; m > 0 &&
			f.cfg.Policy(f.stat(sib), app) >= refScore-m {
			// No meaningful headroom over the mesh that just refused:
			// trying would burn a mapping round to learn the same answer.
			continue
		}
		spills++
		f.stats.spills.Add(1)
		sib.inFlight.Add(1)
		o := sib.m.Admit(app, lib)
		sib.inFlight.Add(-1)
		last, lastMesh = o, sib.id
		if o.Admitted {
			pl.mesh.Store(int32(sib.id))
			pl.state.Store(placeResident)
			f.stats.spillAdmits.Add(1)
			done <- Outcome{Outcome: o, Mesh: sib.id, Spills: spills}
			return
		}
		if !manager.IsRetryableRejection(o.Err) {
			break
		}
	}
	f.stats.overflowRejects.Add(1)
	f.placements.Delete(app.Name)
	done <- Outcome{Outcome: last, Mesh: lastMesh, Spills: spills}
}

// Stop removes a resident application from whichever mesh it lives on.
// It returns manager.ErrRelocating (wrapped) while the rebalancer holds
// the resident mid-move; callers retry, exactly as with a single
// manager's preemption-claimed admissions.
func (f *Fleet) Stop(name string) error {
	v, ok := f.placements.Load(name)
	if !ok {
		return fmt.Errorf("fleet: application %q is not running", name)
	}
	pl := v.(*placement)
	if !pl.state.CompareAndSwap(placeResident, placeStopped) {
		switch pl.state.Load() {
		case placePending:
			return fmt.Errorf("fleet: application %q is still being admitted", name)
		case placeRelocating:
			return fmt.Errorf("fleet: application %q is %w", name, manager.ErrRelocating)
		default:
			return fmt.Errorf("fleet: application %q is not running", name)
		}
	}
	err := f.meshes[pl.mesh.Load()].m.Stop(name)
	if errors.Is(err, manager.ErrRelocating) {
		// The mesh's own preemption planner holds the resident: it will
		// either return to the running set (relocated) or be evicted.
		// Either way the app may still be resident right now, so the
		// placement must survive — forgetting it here would free the name
		// for resubmission while the original still holds reservations,
		// breaking the exactly-one-mesh invariant. Hand the claim back and
		// let the caller retry, exactly as with a single manager.
		pl.state.Store(placeResident)
		return err
	}
	// Success, or the mesh no longer knows the name (evicted between our
	// claim and the mesh Stop): in both cases the app holds no
	// reservations on its placement mesh, so the entry can go.
	f.placements.Delete(name)
	return err
}

// MeshOf reports which mesh the named application currently resides on
// (-1 when it is not resident anywhere). One staleness window exists: a
// resident evicted by its mesh's own preemption planner keeps its
// placement — and so reads as resident here — until the next
// reconciliation sweep (every RebalanceOnce round) or a Stop call
// observes the eviction and retires the entry.
func (f *Fleet) MeshOf(name string) int {
	v, ok := f.placements.Load(name)
	if !ok {
		return -1
	}
	pl := v.(*placement)
	if pl.state.Load() != placeResident && pl.state.Load() != placeRelocating {
		return -1
	}
	return int(pl.mesh.Load())
}

// Close stops the rebalancer, closes every mesh pipeline (draining queued
// admissions), and waits for in-flight shepherds to deliver their
// outcomes. Residents keep their reservations; stop them individually
// first if a clean ledger matters.
func (f *Fleet) Close() {
	if !f.closed.CompareAndSwap(false, true) {
		return
	}
	f.StopRebalancer()
	for _, ms := range f.meshes {
		ms.pipe.Close()
	}
	f.shepherds.Wait()
}
