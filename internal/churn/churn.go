// Package churn drives the concurrent admission pipeline with an online
// workload: applications from a recurring catalogue arrive through a
// bounded work queue, run for a while and leave, while N workers map
// arrivals in parallel against platform snapshots. The cmd/churn driver
// and the repair acceptance tests share this scenario loop; it reports
// admission statistics and verifies the reservation ledger is exactly
// clean after full churn.
package churn

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/fleet"
	"rtsm/internal/journal"
	"rtsm/internal/manager"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// Options parameterises one churn scenario. The zero value is not
// runnable; use Defaults (or the cmd/churn flags) as a starting point.
type Options struct {
	// Workers is the number of admission worker goroutines; Queue the
	// work-queue depth (0 = same as workers).
	Workers int
	Queue   int
	// Apps is the number of application arrivals.
	Apps int
	// Mesh is the platform's width and height; Seed feeds the platform
	// generator.
	Mesh int
	Seed int64
	// Meshes federates the scenario across this many independent meshes
	// behind a fleet placement router (see internal/fleet): each mesh is
	// a separate Mesh×Mesh platform with its own manager, region locks
	// and pipeline (Workers and Queue are split evenly, at least one
	// each), arrivals are routed by sampled load scoring, and capacity
	// rejections spill to sibling meshes before the final verdict.
	// 0 or 1 keeps the single-manager pipeline — the pre-fleet path.
	Meshes int
	// Rebalance starts the fleet's background rebalancer with this
	// period, draining best-effort residents from hot meshes to cold
	// ones while the churn runs. 0 leaves it off. Only meaningful with
	// Meshes > 1.
	Rebalance time.Duration
	// Catalogue is the number of distinct application structures in
	// rotation; MaxUtil and PeriodNs shape them.
	Catalogue int
	MaxUtil   float64
	PeriodNs  int64
	// Resident is how many applications are kept running at once
	// (0 = 2x workers).
	Resident int
	// RegionSize shards the platform's commit path: the mesh is
	// partitioned into square regions of this side length, each with its
	// own reservation version and lock, and arrivals are pinned
	// round-robin to per-region stream endpoints so admissions landing
	// in different regions commit against disjoint locks. 0 keeps the
	// single-region platform with the global SRC0/SINK0 endpoints — the
	// pre-sharding behaviour.
	RegionSize int
	// Reuse enables mapping-template reuse; Repair the incremental
	// remapping engine; Retries bounds re-mapping rounds per arrival.
	Reuse   bool
	Repair  bool
	Retries int
	// Batch lets a pipeline worker drain up to this many queued arrivals
	// into one batched admission round: one shared base snapshot,
	// speculative mapping per arrival, and a single multi-application
	// commit of the arrivals whose plans land in disjoint regions
	// (overlaps fall back to per-item commits; the effective drain size
	// adapts to the observed conflict rate). ≤ 1 keeps the per-item
	// pipeline. Negative is a configuration error.
	Batch int
	// PrioMix assigns admission classes to arrivals as
	// "bestEffort:standard:critical" integer weights, e.g. "70:20:10".
	// Arrival i's class is drawn deterministically from the weights by
	// arrival index, so identical options produce the identical
	// priority-tagged stream. Empty keeps every arrival BestEffort (the
	// pre-priority behaviour).
	PrioMix string
	// Preempt enables the manager's preemption planner: full-mesh
	// arrivals above BestEffort displace lower-class residents,
	// relocating them when possible. Only meaningful with a PrioMix that
	// produces more than one class.
	Preempt bool
	// FaultRate injects run-time tile faults at this expected rate per
	// arrival (e.g. 0.01 fails one pseudo-random processing tile per
	// hundred arrivals): the tile's residents are evacuated and
	// relocated or dropped while the churn keeps running, and every
	// failed tile is restored before the final pristine check. 0 = off.
	FaultRate float64
	// FaultBias is the RegionBias applied to fault-evacuation
	// relocations: positive values steer refits away from crowded
	// regions, biasing evacuees toward hot-spare capacity. 0 keeps the
	// mapper's configured pricing.
	FaultBias float64
	// Journal streams the manager's hash-chained admission journal to
	// this writer (see internal/journal); nil leaves journaling off.
	// Single-mesh scenarios only — a fleet would interleave the member
	// meshes' chains into one unverifiable stream (Result.ConfigErr).
	Journal io.Writer
	// ErrWriter receives stop errors during the run; nil discards them.
	ErrWriter io.Writer
}

// Defaults mirrors the cmd/churn defaults: a moderate 4-worker scenario.
func Defaults() Options {
	return Options{
		Workers:   4,
		Apps:      400,
		Mesh:      8,
		Seed:      123,
		Catalogue: 64,
		MaxUtil:   0.15,
		PeriodNs:  40_000,
		Reuse:     true,
		Repair:    true,
		Preempt:   true,
		Retries:   manager.DefaultMaxRetries,
	}
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Queue <= 0 {
		o.Queue = o.Workers
		if o.Batch > 1 {
			// Batches only form when the queue can hold them; give each
			// worker a full drain's worth of slots by default.
			o.Queue = o.Workers * o.Batch
		}
	}
	if o.Resident <= 0 {
		o.Resident = 2 * o.Workers
	}
	if o.Catalogue < 1 {
		o.Catalogue = 1
	}
	return o
}

// ParsePrioMix parses "bestEffort:standard:critical" integer weights
// (e.g. "70:20:10"; missing trailing fields default to 0). An empty
// string is the all-BestEffort mix.
func ParsePrioMix(s string) ([model.NumPriorities]int, error) {
	var w [model.NumPriorities]int
	if s == "" {
		w[model.BestEffort] = 1
		return w, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) > model.NumPriorities {
		return w, fmt.Errorf("churn: priority mix %q has %d fields, max %d", s, len(parts), model.NumPriorities)
	}
	total := 0
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return w, fmt.Errorf("churn: priority mix %q: field %d is not a non-negative integer", s, i)
		}
		w[i] = n
		total += n
	}
	if total == 0 {
		return w, fmt.Errorf("churn: priority mix %q has zero total weight", s)
	}
	return w, nil
}

// classOf deterministically assigns arrival i a class by spreading the
// weights over a repeating cycle of weight-sum slots.
func classOf(i int, w [model.NumPriorities]int) model.Priority {
	total := 0
	for _, n := range w {
		total += n
	}
	slot := i % total
	for c, n := range w {
		if slot < n {
			return model.Priority(c)
		}
		slot -= n
	}
	return model.BestEffort
}

// Arrival builds the i-th arrival of the scenario: application structures
// rotate through the catalogue, names stay unique, and with a PrioMix
// the admission class rotates through the configured weights (the name
// carries the class for debuggability). endpointRegions is the number of
// per-region stream-endpoint pairs the scenario's platform carries (its
// RegionCount as laid out by SyntheticRegionPlatform); with more than
// one, arrivals are pinned round-robin to SRC<r>/SINK<r>, so
// consecutive arrivals land in different regions.
func (o Options) Arrival(i, endpointRegions int) (*model.Application, *model.Library) {
	w, err := ParsePrioMix(o.PrioMix)
	if err != nil {
		// Fall back to the all-BestEffort mix; Run rejects the invalid
		// string up front (Result.ConfigErr), so this is only reachable
		// by calling Arrival directly.
		w, _ = ParsePrioMix("")
	}
	return o.arrival(i, endpointRegions, w)
}

// arrival is Arrival with the priority weights already parsed, so the
// scenario loop parses the mix once per run instead of once per arrival.
func (o Options) arrival(i, endpointRegions int, w [model.NumPriorities]int) (*model.Application, *model.Library) {
	s := i % o.Catalogue
	opts := workload.SynthOptions{
		Shape:     workload.ShapeChain,
		Processes: 3 + s%3,
		Seed:      int64(s),
		MaxUtil:   o.MaxUtil,
		PeriodNs:  o.PeriodNs,
	}
	if endpointRegions > 1 {
		r := i % endpointRegions
		opts.SrcTile = fmt.Sprintf("SRC%d", r)
		opts.SinkTile = fmt.Sprintf("SINK%d", r)
	}
	name := fmt.Sprintf("app-%d", i)
	if o.PrioMix != "" {
		opts.Priority = classOf(i, w)
		name = fmt.Sprintf("app-%d-%s", i, opts.Priority)
	}
	app, lib := workload.Synthetic(opts)
	app.Name = name
	return app, lib
}

// Result is the outcome of one churn run.
type Result struct {
	// Stats is the manager's counters — summed across meshes for fleet
	// runs (PerMesh holds the unsummed members).
	Stats   manager.Stats
	Elapsed time.Duration
	// Regions is the platform's region count: 1 for the global
	// single-lock commit path, more when the scenario sharded it. Fleet
	// runs report the sum over all member meshes.
	Regions int
	// PerMesh holds each member mesh's own counters for fleet runs
	// (len == Options.Meshes); nil for single-manager runs.
	PerMesh []manager.Stats
	// Fleet holds the placement router's counters (spills, overflow
	// rejects, relocations) for fleet runs; zero otherwise.
	Fleet fleet.Stats
	// Clean reports that the ledger returned exactly to pristine after
	// full churn; Drift details the difference when it did not.
	Clean bool
	Drift arch.ResidualDiff
	// FaultRecoverTotal and FaultRecoverMax aggregate the per-fault
	// time-to-recover of the FaultRate injections (fault counts live in
	// Stats: FaultsInjected, FaultRelocated, FaultDropped, Restores).
	FaultRecoverTotal time.Duration
	FaultRecoverMax   time.Duration
	// JournalErr is non-nil when the journal writer reported a failure
	// during the run or on close.
	JournalErr error
	// LedgerErr is non-nil when CheckInvariants failed during teardown.
	LedgerErr error
	// ConfigErr is non-nil when the options were unusable (e.g. an
	// invalid PrioMix); nothing ran in that case.
	ConfigErr error
}

// AdmissionsPerSec is the run's admission throughput.
func (r Result) AdmissionsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Stats.Admitted) / r.Elapsed.Seconds()
}

// MeanFaultRecover is the average per-fault time-to-recover, zero when
// no fault was injected.
func (r Result) MeanFaultRecover() time.Duration {
	if r.Stats.FaultsInjected == 0 {
		return 0
	}
	return r.FaultRecoverTotal / time.Duration(r.Stats.FaultsInjected)
}

// Run pushes Apps arrivals through a pipeline with the configured worker
// count, keeping up to Resident applications running at once, then stops
// everything and checks the ledger.
func Run(o Options) Result {
	o = o.withDefaults()
	weights, werr := ParsePrioMix(o.PrioMix)
	if werr != nil {
		return Result{ConfigErr: werr}
	}
	if o.Batch < 0 {
		return Result{ConfigErr: fmt.Errorf("churn: batch size %d is negative", o.Batch)}
	}
	if o.Meshes > 1 {
		if o.Journal != nil {
			return Result{ConfigErr: fmt.Errorf("churn: journaling is per-manager; a fleet run would interleave %d hash chains", o.Meshes)}
		}
		return runFleet(o, weights)
	}
	var plat *arch.Platform
	endpointRegions := 1
	if o.RegionSize > 0 {
		plat = workload.SyntheticRegionPlatform(o.Mesh, o.Mesh, o.Seed, o.RegionSize)
		endpointRegions = plat.RegionCount()
	} else {
		plat = workload.SyntheticPlatform(o.Mesh, o.Mesh, o.Seed)
	}
	pristine := plat.Residual()
	m := manager.New(plat, core.Config{})
	m.SetMappingReuse(o.Reuse)
	m.SetRepair(o.Repair)
	m.SetPreemption(o.Preempt)
	m.SetMaxRetries(o.Retries)
	m.SetFaultBias(o.FaultBias)
	var jw *journal.Writer
	if o.Journal != nil {
		jw = journal.NewWriter(o.Journal, journal.Options{})
		m.SetJournal(jw)
	}
	faults := newFaultInjector(o.FaultRate, o.Seed, []*arch.Platform{plat}, []*manager.Manager{m})
	pipe := manager.NewPipeline(m, o.Workers, o.Queue)
	if o.Batch > 1 {
		pipe.SetBatch(o.Batch)
	}

	stopErr := func(name string, err error) {
		if o.ErrWriter != nil {
			fmt.Fprintf(o.ErrWriter, "churn: stop %s: %v\n", name, err)
		}
	}
	start := time.Now()
	pending := make(chan (<-chan manager.Outcome), o.Resident)
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		var residents []string
		// stop departs one resident. A victim mid-relocation cannot be
		// stopped yet — requeue it so it departs (or turns out evicted)
		// on a later attempt instead of leaking as an immortal resident.
		stop := func(name string) {
			err := m.Stop(name)
			switch {
			case err == nil:
			case errors.Is(err, manager.ErrRelocating):
				residents = append(residents, name)
			default:
				// Typically "not running": the resident was preempted
				// and evicted; its reservations are already released.
				stopErr(name, err)
			}
		}
		for ch := range pending {
			out := <-ch
			if !out.Admitted {
				continue
			}
			residents = append(residents, out.App)
			if len(residents) > o.Resident {
				oldest := residents[0]
				residents = residents[1:]
				stop(oldest)
			}
		}
		for len(residents) > 0 {
			name := residents[0]
			residents = residents[1:]
			stop(name)
		}
	}()
	for i := 0; i < o.Apps; i++ {
		ch, err := pipe.Submit(o.arrival(i, endpointRegions, weights))
		if err != nil {
			stopErr(fmt.Sprintf("submit app-%d", i), err)
			break
		}
		pending <- ch
		faults.step()
	}
	close(pending)
	pipe.Close()
	<-collectorDone
	// Full capacity must be back before the pristine check: a
	// still-failed tile reads as exhausted in the residual.
	faults.restoreAll()
	elapsed := time.Since(start)

	r := Result{Stats: m.Stats(), Elapsed: elapsed, Regions: plat.RegionCount()}
	faults.record(&r)
	if jw != nil {
		if err := jw.Close(); err != nil {
			r.JournalErr = err
		}
	}
	if err := m.CheckInvariants(); err != nil {
		r.LedgerErr = err
		return r
	}
	final := m.Residual()
	r.Clean = final.Equal(pristine)
	if !r.Clean {
		r.Drift = pristine.Diff(final)
	}
	return r
}

// runFleet is Run's federated variant: the same arrival stream and
// resident cap, but admissions go through a fleet of Meshes independent
// platforms behind the placement router. Workers and queue slots are
// split evenly across the member pipelines, so a fleet run spends the
// same worker budget as the single-mesh run it is compared against.
func runFleet(o Options, weights [model.NumPriorities]int) Result {
	perWorkers := o.Workers / o.Meshes
	if perWorkers < 1 {
		perWorkers = 1
	}
	perQueue := o.Queue / o.Meshes
	if perQueue < 1 {
		perQueue = 1
	}
	specs := make([]workload.MeshSpec, o.Meshes)
	for i := range specs {
		// Distinct seeds give each mesh its own tile-type shuffle: the
		// fleet is homogeneous in geometry but heterogeneous in layout.
		specs[i] = workload.MeshSpec{
			W: o.Mesh, H: o.Mesh,
			Seed:       o.Seed + int64(i)*101,
			RegionSize: o.RegionSize,
		}
	}
	plats := workload.SyntheticFleetPlatforms(specs)
	endpointRegions := 1
	if o.RegionSize > 0 {
		// Same geometry on every mesh, so the endpoint layout — and the
		// round-robin pinning derived from it — is fleet-wide: a spilled
		// arrival finds its SRC<r>/SINK<r> pair on any sibling.
		endpointRegions = plats[0].RegionCount()
	}
	pristine := make([]arch.Residual, len(plats))
	cfgs := make([]fleet.MeshConfig, len(plats))
	mgrs := make([]*manager.Manager, len(plats))
	for i, plat := range plats {
		pristine[i] = plat.Residual()
		m := manager.New(plat, core.Config{})
		m.SetMappingReuse(o.Reuse)
		m.SetRepair(o.Repair)
		m.SetPreemption(o.Preempt)
		m.SetMaxRetries(o.Retries)
		m.SetFaultBias(o.FaultBias)
		mgrs[i] = m
		cfgs[i] = fleet.MeshConfig{
			Manager: m,
			Workers: perWorkers,
			Queue:   perQueue,
			Batch:   o.Batch,
		}
	}
	f, err := fleet.New(fleet.Config{Seed: o.Seed}, cfgs...)
	if err != nil {
		return Result{ConfigErr: err}
	}
	if o.Rebalance > 0 {
		f.StartRebalancer(o.Rebalance)
	}
	faults := newFaultInjector(o.FaultRate, o.Seed, plats, mgrs)

	stopErr := func(name string, err error) {
		if o.ErrWriter != nil {
			fmt.Fprintf(o.ErrWriter, "churn: stop %s: %v\n", name, err)
		}
	}
	start := time.Now()
	pending := make(chan (<-chan fleet.Outcome), o.Resident)
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		var residents []string
		// stop departs one resident through the fleet, which finds the
		// mesh it lives on. Mid-relocation residents are requeued exactly
		// as in the single-mesh run.
		stop := func(name string) {
			err := f.Stop(name)
			switch {
			case err == nil:
			case errors.Is(err, manager.ErrRelocating):
				residents = append(residents, name)
			default:
				stopErr(name, err)
			}
		}
		for ch := range pending {
			out := <-ch
			if !out.Admitted {
				continue
			}
			residents = append(residents, out.App)
			if len(residents) > o.Resident {
				oldest := residents[0]
				residents = residents[1:]
				stop(oldest)
			}
		}
		for len(residents) > 0 {
			name := residents[0]
			residents = residents[1:]
			stop(name)
		}
	}()
	for i := 0; i < o.Apps; i++ {
		ch, err := f.Submit(o.arrival(i, endpointRegions, weights))
		if err != nil {
			stopErr(fmt.Sprintf("submit app-%d", i), err)
			break
		}
		pending <- ch
		faults.step()
	}
	close(pending)
	f.Close()
	<-collectorDone
	faults.restoreAll()
	elapsed := time.Since(start)

	r := Result{Elapsed: elapsed, Fleet: f.Stats()}
	faults.record(&r)
	for i := 0; i < f.Meshes(); i++ {
		st := f.Manager(i).Stats()
		r.PerMesh = append(r.PerMesh, st)
		r.Stats.Add(st)
		r.Regions += plats[i].RegionCount()
	}
	for i := 0; i < f.Meshes(); i++ {
		if err := f.Manager(i).CheckInvariants(); err != nil {
			r.LedgerErr = fmt.Errorf("mesh %d: %w", i, err)
			return r
		}
	}
	r.Clean = true
	for i, plat := range plats {
		final := plat.Residual()
		if !final.Equal(pristine[i]) {
			r.Clean = false
			r.Drift = pristine[i].Diff(final)
			break
		}
	}
	return r
}
