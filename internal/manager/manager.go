// Package manager implements the on-line resource manager the paper's
// setting presumes (§1.3: "the spatial mapping is performed always when a
// new streaming application is started"): applications arrive and leave at
// run time, each arrival is mapped against the platform's actual residual
// resources, admitted if a feasible mapping exists, and holds its
// reservations until it stops. This is the component a deployment would
// run on the control processor; the examples and experiment E12 exercise
// it.
//
// Admission is a concurrent pipeline. The expensive part of an admission —
// the four-step spatial mapping — runs outside all platform locks, against
// a point-in-time Snapshot of the platform's residual state, so many
// arrivals can be mapped in parallel. Only the commit takes locks, and
// only the locks of the mesh regions the mapping's reservation plan
// touches (core.Plan.Regions, acquired in canonical order): it
// re-validates the plan against the live platform and, when a competing
// admission claimed the resources since the snapshot was taken,
// re-snapshots and repairs or re-maps — optimistic concurrency with
// bounded retries. On a partitioned platform (arch.PartitionRegions),
// admissions whose plans land in disjoint regions therefore commit fully
// in parallel; the unpartitioned single-region platform degenerates to
// the classic one-global-lock commit. Use Pipeline for a bounded work
// queue feeding N admission workers.
package manager

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/journal"
	"rtsm/internal/model"
)

// DefaultMaxRetries bounds how many times one admission re-maps after a
// commit conflict or a stale infeasible verdict before giving up.
const DefaultMaxRetries = 3

// Admission records one running application.
type Admission struct {
	App    *model.Application
	Result *core.Result
	// Seq is the admission order, for deterministic reporting.
	Seq int
	// Priority is the admission's QoS class, fixed at admission time from
	// the application's spec. It decides who may preempt whom: a full-mesh
	// arrival of a higher class may displace this admission.
	Priority model.Priority

	// lib is the implementation library the application was admitted
	// with, kept so a preempted admission can be relocated (re-placed)
	// without the original caller's involvement.
	lib *model.Library

	// loadUtilMilli and loadEnergyMilli cache the admission's
	// contribution to the manager's LoadEstimate, set by loadCharge at
	// commit so loadRelease subtracts exactly what was added.
	loadUtilMilli   int64
	loadEnergyMilli int64

	// plan is the reservation plan of a replay-rebuilt resident, whose
	// Result (and lib) did not survive the crash: journaled deltas are
	// all that is known about it. Stop and the fault evacuation release
	// this plan verbatim; live admissions leave it nil and derive their
	// removal plan from Result on demand.
	plan *core.Plan
}

// Library returns the implementation library the application was admitted
// with, so a fleet rebalancer can re-admit the application on a sibling
// mesh without the original caller's involvement.
func (a *Admission) Library() *model.Library { return a.lib }

// RejectionError reports why an application was not admitted.
type RejectionError struct {
	App    string
	Reason string
	// Retryable distinguishes capacity verdicts from structural ones. A
	// retryable rejection means this mesh is out of room (no feasible
	// mapping at current occupancy, commit retries exhausted under
	// contention) — the identical application could well be admitted by a
	// sibling mesh or by this one later. Non-retryable rejections are
	// properties of the application itself (unknown pinned tiles, no
	// implementations for a process) and will fail identically
	// everywhere, so spilling them across a fleet is wasted work.
	Retryable bool
}

// Error renders the rejection with the application name and reason.
func (e *RejectionError) Error() string {
	return fmt.Sprintf("manager: %q rejected: %s", e.App, e.Reason)
}

// IsRetryableRejection reports whether err is a rejection that another
// mesh (or a later attempt) could plausibly admit. The fleet router's
// spill path keys off this: capacity rejections overflow to the next-best
// sibling, structural ones reject immediately.
func IsRetryableRejection(err error) bool {
	var rej *RejectionError
	return errors.As(err, &rej) && rej.Retryable
}

// Outcome is the full per-admission report of one Admit call: how it
// ended, how many mapping rounds it took and where the time went.
type Outcome struct {
	App string
	// Admitted is true when the application now holds reservations.
	Admitted bool
	// Attempts counts mapping rounds: 1 for a clean admission, more when
	// commit conflicts or stale snapshots forced a re-map.
	Attempts int
	// Wait is the time spent queued before a pipeline worker picked the
	// request up (zero for direct Admit/Start calls).
	Wait time.Duration
	// Map is the total time spent in full four-step mapping, outside the
	// platform lock, summed over attempts.
	Map time.Duration
	// Repair is the total time spent in incremental repair of stale
	// mappings, also outside the platform lock.
	Repair time.Duration
	// Commit is the total time spent in the serialized commit section.
	Commit time.Duration
	// Repaired is true when the committed mapping came from core.Repair
	// rather than a full four-step map.
	Repaired bool
	// Priority is the admission's QoS class (from the application's spec,
	// clamped to the valid range).
	Priority model.Priority
	// Preempted lists the names of lower-priority victims this admission
	// displaced to get in — each was relocated when possible and evicted
	// otherwise (see Stats.Relocations/Evictions for the split). Empty
	// for ordinary admissions.
	Preempted []string
	// Admission is the resulting reservation record, nil unless admitted.
	Admission *Admission
	// Err is nil when admitted and a *RejectionError (or duplicate-name
	// error) otherwise.
	Err error
}

// Stats aggregates admission outcomes over the manager's lifetime.
type Stats struct {
	Admitted uint64
	Rejected uint64
	// Conflicts counts commit attempts that found the platform changed in
	// a way that invalidated the speculative mapping.
	Conflicts uint64
	// Retries counts extra mapping rounds run because of conflicts or
	// stale snapshots (Attempts beyond the first, summed over arrivals).
	Retries uint64
	// TemplateHits counts admissions committed from a reused mapping
	// template without running the mapper (see SetMappingReuse).
	TemplateHits uint64
	// StaleTemplates counts template instantiations where a pool existed
	// but no remembered placement fit the live platform.
	StaleTemplates uint64
	// ConflictRetries counts mapping rounds re-entered after a commit
	// conflict (the retried subset of Conflicts).
	ConflictRetries uint64
	// RepairedConflicts and RepairedTemplates count conflict-retry and
	// stale-template rounds resolved by core.Repair: the round's mapping
	// came from refitting the stale one, no full four-step remap ran.
	// (Whether the commit then wins its own race is a separate event; a
	// lost commit shows up as a further ConflictRetries round.) Together
	// with FullRemaps they partition ConflictRetries + StaleTemplates.
	RepairedConflicts uint64
	RepairedTemplates uint64
	// RepairAttempts counts core.Repair invocations, successful or not.
	RepairAttempts uint64
	// FullRemaps counts conflict-retry and stale-template rounds that fell
	// back to the full four-step map (repair disabled, refused or
	// infeasible).
	FullRemaps uint64
	// Snapshots counts base snapshots actually captured for admissions
	// and their retries; SnapshotsShared counts admissions served from an
	// already-captured epoch snapshot instead of taking their own (see
	// epoch.go). Their sum is the number of snapshot acquisitions the
	// admission path performed.
	Snapshots       uint64
	SnapshotsShared uint64
	// CoWFaults counts regions faulted in by the copy-on-write engine —
	// private region copies made on first write, on the live platform
	// and on every snapshot and working clone derived from it.
	CoWFaults uint64
	// Preemptions counts lower-priority victims displaced so a
	// higher-priority arrival could be admitted on a full mesh. Every
	// preempted victim ends up in exactly one of Relocations (kept
	// running on a repaired placement, the preferred outcome) or
	// Evictions (released for good because no relocation fit).
	Preemptions uint64
	// Relocations counts preempted victims kept running: their stale
	// mapping was refit via core.Relocate against the post-eviction
	// residual and recommitted.
	Relocations uint64
	// Evictions counts preempted victims that could not be relocated and
	// lost their reservations.
	Evictions uint64
	// Batches counts batched admission rounds that reached the merged
	// multi-application commit with at least two mergeable plans.
	// BatchedAdmissions counts admissions committed inside such a merged
	// commit. BatchSpills counts arrivals that could not join the merged
	// commit (footprint overlap inside the batch, failed merged
	// validation) but whose speculative plan still committed per-item
	// against the live platform — the cheap exit. BatchFallbacks counts
	// arrivals drained into a batch that re-entered the full per-item
	// path instead: no speculative plan (infeasible against the shared
	// base, structural error) or a spill whose plan no longer fit. With
	// batching off all four stay zero.
	Batches           uint64
	BatchedAdmissions uint64
	BatchSpills       uint64
	BatchFallbacks    uint64
	// FaultsInjected counts FailTile/FailLink calls that failed a live
	// resource; Restores counts resources returned to service. Every
	// resident evacuated off a failed resource ends up in exactly one of
	// FaultRelocated (kept running on a refit placement) or FaultDropped
	// (no relocation fit; its reservations are gone).
	FaultsInjected uint64
	FaultRelocated uint64
	FaultDropped   uint64
	Restores       uint64
	// ByClass splits admitted/rejected per priority class, indexed by
	// model.Priority.
	ByClass [model.NumPriorities]ClassStats
	// Wait, Map, Repair and Commit accumulate the respective Outcome
	// durations.
	Wait   time.Duration
	Map    time.Duration
	Repair time.Duration
	Commit time.Duration
}

// ClassStats is the per-priority-class share of the admission counters.
type ClassStats struct {
	Admitted uint64
	Rejected uint64
	// Shed counts arrivals this class lost to TrySubmit refusals on a
	// saturated pipeline queue. Shed arrivals never reach the mapper, so
	// they appear in neither Admitted nor Rejected. Drops at a streaming
	// front-end's own stages are counted in its report, not here.
	Shed uint64
	// Latency accumulates the class's end-to-end admission latency
	// (queue wait + mapping + repair + commit) over all its arrivals,
	// admitted and rejected; divide by their count for the mean.
	Latency time.Duration
}

// AdmissionRate reports the fraction of the class's arrivals that were
// admitted; the second value is false when the class saw no arrivals.
func (s Stats) AdmissionRate(p model.Priority) (float64, bool) {
	c := s.ByClass[clampPriority(p)]
	total := c.Admitted + c.Rejected
	if total == 0 {
		return 0, false
	}
	return float64(c.Admitted) / float64(total), true
}

// Add accumulates o into s, field by field. Fleet-level reporting uses
// it to sum member-mesh statistics into one aggregate view.
func (s *Stats) Add(o Stats) {
	s.Admitted += o.Admitted
	s.Rejected += o.Rejected
	s.Conflicts += o.Conflicts
	s.Retries += o.Retries
	s.TemplateHits += o.TemplateHits
	s.StaleTemplates += o.StaleTemplates
	s.ConflictRetries += o.ConflictRetries
	s.RepairedConflicts += o.RepairedConflicts
	s.RepairedTemplates += o.RepairedTemplates
	s.RepairAttempts += o.RepairAttempts
	s.FullRemaps += o.FullRemaps
	s.Snapshots += o.Snapshots
	s.SnapshotsShared += o.SnapshotsShared
	s.CoWFaults += o.CoWFaults
	s.Preemptions += o.Preemptions
	s.Relocations += o.Relocations
	s.Evictions += o.Evictions
	s.Batches += o.Batches
	s.BatchedAdmissions += o.BatchedAdmissions
	s.BatchSpills += o.BatchSpills
	s.BatchFallbacks += o.BatchFallbacks
	s.FaultsInjected += o.FaultsInjected
	s.FaultRelocated += o.FaultRelocated
	s.FaultDropped += o.FaultDropped
	s.Restores += o.Restores
	for c := range s.ByClass {
		s.ByClass[c].Admitted += o.ByClass[c].Admitted
		s.ByClass[c].Rejected += o.ByClass[c].Rejected
		s.ByClass[c].Shed += o.ByClass[c].Shed
		s.ByClass[c].Latency += o.ByClass[c].Latency
	}
	s.Wait += o.Wait
	s.Map += o.Map
	s.Repair += o.Repair
	s.Commit += o.Commit
}

// RepairRate reports the fraction of retry-or-stale rounds resolved by
// incremental repair instead of a full remap; the second value is false
// when no such round happened.
func (s Stats) RepairRate() (float64, bool) {
	denom := s.ConflictRetries + s.StaleTemplates
	if denom == 0 {
		return 0, false
	}
	return float64(s.RepairedConflicts+s.RepairedTemplates) / float64(denom), true
}

// Manager owns a platform and the set of admitted applications. All
// methods are safe for concurrent use.
//
// Three lock families guard the manager's state, acquired in at most the
// order epochMu → mu, and never while holding a region lock:
//
//   - locks, one mutex per mesh region, serialize the platform's
//     reservation state. A commit or release holds exactly the regions
//     its plan touches; whole-platform reads (Residual, Load,
//     CheckInvariants) hold all of them, while the copy-on-write
//     snapshot capture visits one region lock at a time.
//   - mu serializes the admission bookkeeping: the running and pending
//     sets, the sequence counter, the configuration flags and the
//     statistics.
//   - epochMu serializes the shared epoch snapshot (see epoch.go).
type Manager struct {
	cfg core.Config

	// locks shards the platform's reservation state by region; sized
	// from the platform's partition at construction.
	locks *arch.RegionLocks

	// faults counts copy-on-write region faults platform-wide; the
	// platform and all its snapshots and clones share this meter.
	faults atomic.Uint64

	// epochMu guards the shared epoch snapshot of epoch.go.
	epochMu   sync.Mutex
	epochSnap *arch.Snapshot

	mu      sync.Mutex
	plat    *arch.Platform
	running map[string]*Admission
	pending map[string]struct{}
	// preempting holds admissions claimed by the preemption planner:
	// still reserving resources (until their union-locked release) or
	// mid-relocation, but no longer stoppable — Stop returns
	// ErrRelocating until the victim returns to running or is evicted.
	preempting map[string]*Admission
	seq        int
	stats      Stats
	maxRetries int
	templates  *templateCache // nil = mapping reuse disabled
	repair     bool           // repair stale mappings instead of re-mapping
	preemption bool           // displace lower classes for full-mesh arrivals

	// load is the lock-free utilization summary fleet routers sample;
	// maintained by loadCharge/loadRelease on the commit and stop paths.
	load LoadEstimate

	// jw is the durable admission journal, nil when journaling is off.
	// Wired once by SetJournal before the first admission and read
	// without a lock from every commit path.
	jw *journal.Writer

	// faultBias overrides the mapper's region-bias price when relocating
	// fault victims (0 = inherit cfg.RegionBias); see SetFaultBias.
	faultBias float64
}

// New returns a manager over the given platform. The platform is owned by
// the manager from here on: reservations of admitted applications live on
// it, and all access to it is serialized behind the manager's region
// locks. Partition the platform (arch.PartitionRegions) before handing it
// over — the lock set is sized from RegionCount here, and repartitioning
// a managed platform would break the region↔lock correspondence.
func New(plat *arch.Platform, cfg core.Config) *Manager {
	m := &Manager{
		plat:       plat,
		cfg:        cfg,
		locks:      arch.NewRegionLocks(plat.RegionCount()),
		running:    make(map[string]*Admission),
		pending:    make(map[string]struct{}),
		preempting: make(map[string]*Admission),
		maxRetries: DefaultMaxRetries,
		repair:     true,
		preemption: true,
	}
	plat.SetCoWFaultMeter(&m.faults)
	m.initLoadCapacity()
	return m
}

// SetPreemption enables or disables the preemption planner. When on (the
// default), an arrival of priority above BestEffort that would be
// rejected for lack of resources may displace minimal-cost lower-priority
// admissions: each victim is relocated via core.Relocate when the
// post-eviction residual allows it and evicted otherwise. When off, every
// class competes for free capacity only — the pre-priority behaviour.
func (m *Manager) SetPreemption(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.preemption = on
}

// SetRepair enables or disables the incremental remapping engine. When on
// (the default), a commit conflict or a stale template is repaired —
// core.Repair pins everything that still fits and re-places only the
// conflicting processes — and the full four-step map runs only when repair
// refuses or comes back infeasible. When off, every retry re-maps from
// scratch, the pre-repair behaviour.
func (m *Manager) SetRepair(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.repair = on
}

// SetMaxRetries bounds the optimistic-concurrency retry loop (0 disables
// retrying: one mapping round per arrival).
func (m *Manager) SetMaxRetries(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.maxRetries = n
}

// SetMappingReuse enables or disables the mapping template cache: when
// on, an arrival whose structure (Fingerprint) matches a previously
// admitted application first tries to commit that application's mapping —
// re-validated transactionally against the live platform — and only runs
// the full mapper when the template no longer fits. Reuse trades mapping
// optimality under load for admission latency; it is off by default.
func (m *Manager) SetMappingReuse(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if on && m.templates == nil {
		m.templates = newTemplateCache()
	} else if !on {
		m.templates = nil
	}
}

// SetJournal wires the durable admission journal: every reservation
// change — admission, departure, preemption release, relocation,
// eviction, fault, restore — is appended inside the same region-locked
// critical section that applies it, so per-region journal order equals
// commit order; that, plus the per-plan aggregated deltas each event
// carries, is what lets Replay rebuild the platform bit for bit. Wire
// the journal before the first admission (the field is read without a
// lock on the hot path); nil disables journaling.
func (m *Manager) SetJournal(w *journal.Writer) { m.jw = w }

// SetFaultBias sets the region-bias price the fault evacuation's
// relocation rounds use in the mapper's placement steps: a positive
// bias makes an evacuated resident prefer tiles inside regions its
// surviving placement already occupies — the hot-spare pattern, where
// spare capacity held in a resident's own regions absorbs its failed
// tiles without widening the lock footprint. Zero (the default)
// inherits the manager's configured RegionBias. Set before injecting
// faults; the field is read without a lock.
func (m *Manager) SetFaultBias(bias float64) { m.faultBias = bias }

// journalPlan appends one reservation-bearing event carrying the plan's
// aggregated deltas. Callers hold the region locks of the plan's
// footprint — emitting inside the critical section is what keeps
// journal order equal to commit order per region.
func (m *Manager) journalPlan(t journal.EventType, app string, prio model.Priority, plan *core.Plan) {
	if m.jw == nil {
		return
	}
	tiles, links := plan.Deltas()
	jt, jl := journal.FromDeltas(tiles, links)
	m.jw.Append(journal.Event{Type: t, App: app, Priority: int(prio), Tiles: jt, Links: jl})
}

// journalEvent appends a delta-free event (fault, restore, evict).
func (m *Manager) journalEvent(e journal.Event) {
	if m.jw == nil {
		return
	}
	m.jw.Append(e)
}

// removalPlan returns the plan releasing everything the admission
// reserves: the stored delta plan for a replay-rebuilt resident, or one
// aggregated from the Result for a live admission.
func (m *Manager) removalPlan(ad *Admission) (*core.Plan, error) {
	if ad.plan != nil {
		return ad.plan, nil
	}
	return core.NewRemovalPlan(m.plat, ad.Result)
}

// Platform exposes the managed platform. It is safe to read only while no
// admissions are in flight; concurrent inspectors should use Snapshot or
// Residual instead.
func (m *Manager) Platform() *arch.Platform { return m.plat }

// Snapshot returns a point-in-time copy-on-write snapshot of the managed
// platform. The capture coordinates per region — no caller and no commit
// ever waits on all region locks at once — and the returned snapshot is
// frozen: treat its Plat as read-only, and derive arch.Snapshot.Writable
// before mutating.
func (m *Manager) Snapshot() *arch.Snapshot {
	return m.plat.SnapshotCoW(m.locks)
}

// Residual returns the platform's current free-capacity view, read under
// all region locks.
func (m *Manager) Residual() arch.Residual {
	m.locks.LockAll()
	defer m.locks.UnlockAll()
	return m.plat.Residual()
}

// Stats returns a copy of the accumulated admission statistics.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.CoWFaults = m.faults.Load()
	return st
}

// noteShed records one load-shed arrival of the given class: it was
// dropped before any mapping ran. Pipeline.TrySubmit calls this on a
// full-queue refusal.
func (m *Manager) noteShed(p model.Priority) {
	m.mu.Lock()
	m.stats.ByClass[clampPriority(p)].Shed++
	m.mu.Unlock()
}

// Start maps the application against the current platform state and
// admits it when feasible. Application names identify admissions and must
// be unique among running applications. Start is Admit without the
// outcome report.
func (m *Manager) Start(app *model.Application, lib *model.Library) (*Admission, error) {
	out := m.Admit(app, lib)
	if out.Err != nil {
		return nil, out.Err
	}
	return out.Admission, nil
}

// Admit runs one admission through the pipeline — snapshot, speculative
// map, serialized validate-and-commit, bounded retry — and reports the
// outcome. The admission's priority is the application's QoS class
// (app.QoS.Priority): above BestEffort it may preempt lower-priority
// admissions when the mesh is full (see SetPreemption). Rejections are
// reported in Outcome.Err, not returned.
func (m *Manager) Admit(app *model.Application, lib *model.Library) Outcome {
	return m.admit(app, lib, 0)
}

// repairTrigger classifies why a round starts from a stale mapping, for
// the repair-vs-full-remap accounting.
type repairTrigger int

const (
	triggerNone     repairTrigger = iota
	triggerConflict               // a commit conflict invalidated the round's mapping
	triggerTemplate               // no pooled template placement fit the live platform
)

// footprintFresh reports whether no commit or release has touched any of
// the footprint's regions since the snapshot was taken — the region-local
// staleness probe. When it holds, the live reservation state inside the
// footprint is identical to the snapshot the mapping was computed and
// verified against, so the commit can skip re-validation. The caller must
// hold the footprint's region locks.
func footprintFresh(plat *arch.Platform, snap *arch.Snapshot, footprint []arch.RegionID) bool {
	if len(snap.RegionVersions) != plat.RegionCount() {
		return false // repartitioned platform: versions not comparable
	}
	for _, r := range footprint {
		if plat.RegionVersion(r) != snap.RegionVersions[r] {
			return false
		}
	}
	return true
}

// registerPendingLocked claims an application name for one in-flight admission
// (duplicate detection against running, preempting and pending sets). It
// reports false with the error already set in out when the name is
// taken; on success the caller owns the pending entry until finishLocked
// releases it. Callers must hold m.mu.
func (m *Manager) registerPendingLocked(name string, out *Outcome) bool {
	if _, dup := m.running[name]; dup {
		out.Err = fmt.Errorf("manager: application %q already running", name)
		return false
	}
	if _, dup := m.preempting[name]; dup {
		out.Err = fmt.Errorf("manager: application %q already running", name)
		return false
	}
	if _, dup := m.pending[name]; dup {
		out.Err = fmt.Errorf("manager: application %q is already being admitted", name)
		return false
	}
	m.pending[name] = struct{}{}
	return true
}

func (m *Manager) admit(app *model.Application, lib *model.Library, wait time.Duration) Outcome {
	prio := clampPriority(app.QoS.Priority)
	out := Outcome{App: app.Name, Wait: wait, Priority: prio}
	m.mu.Lock()
	if !m.registerPendingLocked(app.Name, &out) {
		m.mu.Unlock()
		return out
	}
	m.mu.Unlock()
	return m.admitRegistered(app, lib, out)
}

// admitRegistered is the admission pipeline past name registration: the
// caller (admit, or the batched path re-routing a fallback) has already
// claimed the application's pending entry, which finishLocked releases.
func (m *Manager) admitRegistered(app *model.Application, lib *model.Library, out Outcome) Outcome {
	return m.admitFrom(app, lib, out, nil)
}

// admitFrom is admitRegistered with an optional seed: a speculative
// mapping that already exists but just lost a live commit validation (a
// batch spill whose plan no longer fits). A seeded admission enters the
// retry loop exactly as a per-item commit conflict would — repair the
// seed against a fresh snapshot instead of probing templates or mapping
// from scratch — so the batch's speculative work is recycled even when
// its commit is refused. The caller accounts the seed's mapping round in
// out.Attempts.
func (m *Manager) admitFrom(app *model.Application, lib *model.Library, out Outcome, seed *core.Result) Outcome {
	prio := out.Priority
	m.mu.Lock()
	tc := m.templates
	repairOn := m.repair
	preemptOn := m.preemption && prio > model.BestEffort
	maxRetries := m.maxRetries
	m.mu.Unlock()

	mapper := &core.Mapper{Lib: lib, Cfg: m.cfg}

	// repairFrom is the stale mapping the next round refits instead of
	// mapping from scratch; trigger records what made it stale.
	var repairFrom *core.Result
	trigger := triggerNone
	var snap *arch.Snapshot

	var fp string
	if seed != nil {
		retry := out.Attempts <= maxRetries
		m.mu.Lock()
		m.stats.Conflicts++
		if retry {
			m.stats.ConflictRetries++
		}
		m.mu.Unlock()
		if !retry {
			m.mu.Lock()
			m.finishLocked(&out, nil, &RejectionError{App: app.Name,
				Reason:    "batched plan lost its commit validation and retries are exhausted",
				Retryable: true})
			m.mu.Unlock()
			return out
		}
		snap = m.freshSnapshot()
		trigger = triggerConflict
		if repairOn {
			repairFrom = seed
		}
		if tc != nil {
			if f, err := Fingerprint(app, lib); err == nil {
				fp = f // cache the eventual mapping; the pool was probed in the batch phase
			}
		}
	}

	// Fast path: structurally identical application admitted before —
	// try committing its mapping directly. Each template's reservation
	// plan is validated under just its own region locks, so template
	// commits in disjoint regions proceed in parallel; validation against
	// the live platform makes a stale template harmless — it can be
	// refused, not applied wrongly.
	if seed == nil && tc != nil {
		if f, err := Fingerprint(app, lib); err == nil {
			fp = f
			if pool, start := tc.get(fp); len(pool) > 0 {
				commitStart := time.Now()
				// Each failed validation already computed the template's
				// violation list; remember the least-conflicted template —
				// fewest conflicted regions, then fewest violations — as
				// the cheapest one to repair.
				leastConflicted := pool[start]
				leastRegions, leastViolations := -1, -1
				for k := 0; k < len(pool); k++ {
					tpl := pool[(start+k)%len(pool)]
					plan, perr := core.NewPlan(m.plat, tpl)
					if perr != nil {
						continue
					}
					footprint := plan.Regions()
					m.locks.Lock(footprint)
					verr := plan.Validate(m.plat)
					if verr == nil {
						plan.Commit(m.plat)
						m.journalPlan(journal.EvAdmit, app.Name, prio, plan)
						m.locks.Unlock(footprint)
						out.Commit += time.Since(commitStart)
						m.mu.Lock()
						m.seq++
						ad := &Admission{App: app, Result: tpl, Seq: m.seq, Priority: prio, lib: lib}
						m.running[app.Name] = ad
						m.stats.TemplateHits++
						m.finishLocked(&out, ad, nil)
						m.mu.Unlock()
						return out
					}
					m.locks.Unlock(footprint)
					var conflict *core.ConflictError
					if errors.As(verr, &conflict) {
						nr, nv := len(conflict.Regions), len(conflict.Violations)
						if leastViolations < 0 || nr < leastRegions ||
							(nr == leastRegions && nv < leastViolations) {
							leastConflicted, leastRegions, leastViolations = tpl, nr, nv
						}
					}
				}
				// No remembered placement fits the current residual
				// state. Instead of discarding the pool, repair a
				// template against a fresh snapshot: the placements that
				// still fit stay, only the conflicting processes are
				// re-placed.
				m.mu.Lock()
				m.stats.StaleTemplates++
				m.mu.Unlock()
				snap = m.freshSnapshot()
				out.Commit += time.Since(commitStart)
				trigger = triggerTemplate
				if repairOn {
					repairFrom = leastConflicted
				}
			}
		}
	}

	if snap == nil {
		snap = m.baseSnapshot()
	}

	// Counters accumulated outside the locks, folded into Stats at the
	// next bookkeeping section.
	var repairAttempts, fullRemaps uint64
	for {
		out.Attempts++
		var res *core.Result
		var mapErr error
		repaired := false
		if repairFrom != nil {
			repairStart := time.Now()
			rep, err := mapper.Repair(repairFrom, snap)
			out.Repair += time.Since(repairStart)
			repairAttempts++
			repairFrom = nil
			if err == nil && rep.Feasible {
				res = rep
				repaired = true
			}
		}
		if res == nil {
			// Full four-step map: the first round of a normal admission,
			// or the fallback when repair is off, refused or infeasible.
			if trigger != triggerNone {
				fullRemaps++
			}
			mapStart := time.Now()
			res, mapErr = mapper.Map(app, snap.Plat)
			out.Map += time.Since(mapStart)
		}

		commitStart := time.Now()
		m.mu.Lock()
		m.stats.RepairAttempts += repairAttempts
		m.stats.FullRemaps += fullRemaps
		repairAttempts, fullRemaps = 0, 0
		if repaired {
			// This retry/stale round was served by repair; no full remap
			// ran, whatever the commit below decides.
			switch trigger {
			case triggerConflict:
				m.stats.RepairedConflicts++
			case triggerTemplate:
				m.stats.RepairedTemplates++
			}
		}
		m.mu.Unlock()

		switch {
		case mapErr != nil:
			// Structural errors (unknown tiles, no implementations) do
			// not depend on residual state; no point retrying.
			out.Commit += time.Since(commitStart)
			m.mu.Lock()
			m.finishLocked(&out, nil, &RejectionError{App: app.Name, Reason: mapErr.Error()})
			m.mu.Unlock()
			return out
		case !res.Feasible:
			// Infeasible against the snapshot. If the platform changed
			// since — e.g. an application stopped and freed resources —
			// the verdict may be stale; retry on fresh state. The global
			// version counter is atomic, so the staleness probe needs no
			// lock.
			if m.plat.Version() != snap.Version && out.Attempts <= maxRetries {
				snap = m.freshSnapshot()
				out.Commit += time.Since(commitStart)
				trigger = triggerNone
				continue
			}
			reason := "no feasible mapping with current occupancy"
			if n := len(res.Trace.Notes); n > 0 {
				reason = res.Trace.Notes[n-1]
			}
			out.Commit += time.Since(commitStart)
			// Full mesh, no retryable staleness: a priority arrival may
			// displace lower-priority admissions instead of giving up. The
			// mapper's infeasible verdict carries no region attribution,
			// so every lower-priority victim is a candidate.
			if preemptOn && m.preemptAdmit(&out, app, lib, mapper, prio, nil) {
				return out
			}
			m.mu.Lock()
			m.finishLocked(&out, nil, &RejectionError{App: app.Name, Reason: reason, Retryable: true})
			m.mu.Unlock()
			return out
		default:
			// Sharded commit: aggregate the reservation plan without any
			// lock, then validate and commit holding only the region
			// locks of the plan's footprint. Admissions whose footprints
			// are disjoint run this section concurrently.
			plan, perr := core.NewPlan(m.plat, res)
			if perr != nil {
				out.Commit += time.Since(commitStart)
				m.mu.Lock()
				m.finishLocked(&out, nil, &RejectionError{App: app.Name, Reason: perr.Error()})
				m.mu.Unlock()
				return out
			}
			footprint := plan.Regions()
			m.locks.Lock(footprint)
			// Region-local staleness probe: if no commit has touched the
			// footprint's regions since the snapshot, the live state there
			// is exactly what the mapper already verified the mapping
			// against, so the per-resource re-validation is redundant.
			var err error
			if !footprintFresh(m.plat, snap, footprint) {
				err = plan.Validate(m.plat)
			}
			if err == nil {
				plan.Commit(m.plat)
				m.journalPlan(journal.EvAdmit, app.Name, prio, plan)
				m.locks.Unlock(footprint)
				out.Commit += time.Since(commitStart)
				m.mu.Lock()
				m.seq++
				ad := &Admission{App: app, Result: res, Seq: m.seq, Priority: prio, lib: lib}
				m.running[app.Name] = ad
				if repaired {
					out.Repaired = true
				}
				m.finishLocked(&out, ad, nil)
				m.mu.Unlock()
				if tc != nil && fp != "" {
					tc.put(fp, res)
				}
				return out
			}
			m.locks.Unlock(footprint)
			var conflict *core.ConflictError
			isConflict := errors.As(err, &conflict)
			retry := isConflict && out.Attempts <= maxRetries
			if isConflict {
				m.mu.Lock()
				m.stats.Conflicts++
				if retry {
					m.stats.ConflictRetries++
				}
				m.mu.Unlock()
			}
			if retry {
				// A competing admission won the resources between
				// snapshot and commit: repair the mapping we just
				// computed against fresh state (or re-map from scratch
				// when repair is off).
				snap = m.freshSnapshot()
				out.Commit += time.Since(commitStart)
				trigger = triggerConflict
				if repairOn {
					repairFrom = res
				}
				continue
			}
			out.Commit += time.Since(commitStart)
			// Out of retries (or a non-retryable shortfall): before
			// rejecting, a priority arrival may preempt. The conflict's
			// region attribution scopes victim selection to admissions
			// whose footprints overlap where this plan ran out of room.
			if preemptOn && isConflict &&
				m.preemptAdmit(&out, app, lib, mapper, prio, conflict.Regions) {
				return out
			}
			m.mu.Lock()
			m.finishLocked(&out, nil, &RejectionError{App: app.Name, Reason: err.Error(), Retryable: true})
			m.mu.Unlock()
			return out
		}
	}
}

// finishLocked records the end of an admission attempt. Callers hold m.mu.
func (m *Manager) finishLocked(out *Outcome, ad *Admission, err error) {
	delete(m.pending, out.App)
	if ad != nil {
		out.Admitted = true
		out.Admission = ad
		m.stats.Admitted++
		m.stats.ByClass[clampPriority(out.Priority)].Admitted++
		m.loadCharge(ad)
	} else {
		out.Err = err
		m.stats.Rejected++
		m.stats.ByClass[clampPriority(out.Priority)].Rejected++
	}
	if out.Attempts > 0 {
		m.stats.Retries += uint64(out.Attempts - 1)
	}
	m.stats.Wait += out.Wait
	m.stats.Map += out.Map
	m.stats.Repair += out.Repair
	m.stats.Commit += out.Commit
	m.stats.ByClass[clampPriority(out.Priority)].Latency +=
		out.Wait + out.Map + out.Repair + out.Commit
}

// ErrRelocating reports a Stop that raced a preemption: the named
// application is claimed by the preemption planner (about to be displaced
// or mid-relocation) and cannot be stopped until it either returns to the
// running set or is evicted. Callers should retry shortly; errors.Is
// recognises it through the wrapping.
var ErrRelocating = errors.New("being relocated by the preemption planner")

// Stop releases the named application's resources, holding only the
// region locks its reservations touch, so departures in disjoint regions
// proceed in parallel with each other and with commits.
func (m *Manager) Stop(name string) error {
	m.mu.Lock()
	if _, pend := m.pending[name]; pend {
		m.mu.Unlock()
		return fmt.Errorf("manager: application %q is still being admitted", name)
	}
	if _, rel := m.preempting[name]; rel {
		m.mu.Unlock()
		return fmt.Errorf("manager: application %q is %w", name, ErrRelocating)
	}
	ad, ok := m.running[name]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("manager: application %q is not running", name)
	}
	delete(m.running, name)
	m.loadRelease(ad)
	m.mu.Unlock()
	plan, err := m.removalPlan(ad)
	if err != nil {
		return nil // lenient planning never errors; keep the compiler honest
	}
	footprint := plan.Regions()
	m.locks.Lock(footprint)
	plan.Release(m.plat)
	m.journalPlan(journal.EvDepart, name, ad.Priority, plan)
	m.locks.Unlock(footprint)
	return nil
}

// AppState classifies where an application stands in one manager's
// lifecycle, for callers — like the fleet's placement reconciliation —
// that must distinguish "gone for good" from "temporarily out of the
// running set while the preemption planner holds it".
type AppState int

const (
	// AppUnknown: the manager holds no record of the name — never
	// admitted, stopped, or evicted by the preemption planner.
	AppUnknown AppState = iota
	// AppPending: submitted, admission outcome not yet decided.
	AppPending
	// AppRunning: resident with live reservations.
	AppRunning
	// AppPreempting: claimed by the preemption planner; it will either
	// return to running (relocated) or become unknown (evicted).
	AppPreempting
)

// StateOf reports the named application's lifecycle state. The answer is
// atomic with respect to admissions, stops and preemption claims: a live
// application is always in exactly one of the pending, running or
// preempting sets, so AppUnknown means the manager truly does not hold
// the application.
func (m *Manager) StateOf(name string) AppState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pending[name]; ok {
		return AppPending
	}
	if _, ok := m.running[name]; ok {
		return AppRunning
	}
	if _, ok := m.preempting[name]; ok {
		return AppPreempting
	}
	return AppUnknown
}

// Running lists admitted applications in admission order.
func (m *Manager) Running() []*Admission {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Admission, 0, len(m.running))
	for _, ad := range m.running {
		out = append(out, ad)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// TotalEnergy sums the per-period energy of all running applications.
// Periods may differ between applications; the sum is meaningful as a
// power-proportional figure when periods are equal (as in the
// experiments) and otherwise serves as a coarse load indicator.
func (m *Manager) TotalEnergy() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var e float64
	for _, ad := range m.running {
		if ad.Result == nil {
			continue // replay-rebuilt resident: energy did not survive the crash
		}
		e += ad.Result.Energy.Total()
	}
	return e
}

// Load summarises platform occupancy: fraction of tiles powered, mean
// utilisation of powered tiles, and fraction of total link capacity
// reserved.
type Load struct {
	TilesPowered int
	TilesTotal   int
	MeanUtil     float64
	LinkReserved float64 // fraction of aggregate link capacity
}

// Load computes the current occupancy summary under all region locks.
func (m *Manager) Load() Load {
	m.locks.LockAll()
	defer m.locks.UnlockAll()
	var l Load
	var utilSum float64
	for _, t := range m.plat.Tiles {
		if t.Type == arch.TypeSource || t.Type == arch.TypeSink {
			continue
		}
		l.TilesTotal++
		if t.Occupants > 0 {
			l.TilesPowered++
			utilSum += t.ReservedUtil
		}
	}
	if l.TilesPowered > 0 {
		l.MeanUtil = utilSum / float64(l.TilesPowered)
	}
	var cap, res int64
	for _, link := range m.plat.Links {
		cap += link.CapBps
		res += link.ReservedBps
	}
	if cap > 0 {
		l.LinkReserved = float64(res) / float64(cap)
	}
	return l
}

// CheckInvariants verifies the platform's reservation ledger is sane: no
// tile or link over-committed, nothing negative. The stress tests call it
// while admissions are in flight.
func (m *Manager) CheckInvariants() error {
	m.locks.LockAll()
	defer m.locks.UnlockAll()
	const eps = 1e-9
	for _, t := range m.plat.Tiles {
		if t.ReservedMem < 0 || t.ReservedMem > t.MemBytes {
			return fmt.Errorf("tile %q memory ledger out of range: %d of %d", t.Name, t.ReservedMem, t.MemBytes)
		}
		if t.ReservedUtil < -eps || t.ReservedUtil > 1+eps {
			return fmt.Errorf("tile %q utilisation out of range: %v", t.Name, t.ReservedUtil)
		}
		if t.Occupants < 0 || (t.MaxOccupants > 0 && t.Occupants > t.MaxOccupants) {
			return fmt.Errorf("tile %q occupancy out of range: %d", t.Name, t.Occupants)
		}
		if t.NICapBps > 0 && (t.ReservedInBps < 0 || t.ReservedInBps > t.NICapBps ||
			t.ReservedOutBps < 0 || t.ReservedOutBps > t.NICapBps) {
			return fmt.Errorf("tile %q NI ledger out of range: in=%d out=%d cap=%d",
				t.Name, t.ReservedInBps, t.ReservedOutBps, t.NICapBps)
		}
	}
	for _, l := range m.plat.Links {
		if l.ReservedBps < 0 || l.ReservedBps > l.CapBps {
			return fmt.Errorf("link %d ledger out of range: %d of %d", l.ID, l.ReservedBps, l.CapBps)
		}
	}
	return nil
}
