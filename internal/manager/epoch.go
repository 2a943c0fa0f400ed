package manager

import "rtsm/internal/arch"

// Epoch snapshots: the admission pipeline's snapshot acquisition. A
// copy-on-write capture (arch.Platform.SnapshotCoW) is already
// O(regions) instead of O(mesh); epoch sharing removes even that from
// the common case. Concurrent admissions inside one pipeline "epoch"
// map against a single frozen base snapshot instead of each taking
// their own — safe because the snapshot is immutable (every mapper
// works on a copy-on-write child). An epoch is shared only while
// nothing has committed since its capture, so sharing adds no
// staleness; commit-time validation against the per-region versions
// still catches races between captures and commits. Retries always
// capture fresh state (and publish it as the new epoch), since
// re-deciding against the very snapshot that just lost a race would be
// wasted work.

// countSnapshot records a base-snapshot capture (or an epoch share) in
// the statistics.
func (m *Manager) countSnapshot(shared bool) {
	m.mu.Lock()
	if shared {
		m.stats.SnapshotsShared++
	} else {
		m.stats.Snapshots++
	}
	m.mu.Unlock()
}

// baseSnapshot returns the snapshot a new admission starts mapping
// against: the current epoch's shared base while the live platform is
// still at its version, a freshly captured one (which becomes the new
// epoch) otherwise.
func (m *Manager) baseSnapshot() *arch.Snapshot {
	m.epochMu.Lock()
	defer m.epochMu.Unlock()
	if s := m.epochSnap; s != nil &&
		len(s.RegionVersions) == m.plat.RegionCount() &&
		m.plat.Version() == s.Version {
		m.countSnapshot(true)
		return s
	}
	s := m.Snapshot()
	m.epochSnap = s
	m.countSnapshot(false)
	return s
}

// freshSnapshot captures the platform's current state for a retry round
// — a commit conflict, a stale infeasible verdict or a stale template
// pool — and publishes it as the new epoch so admissions arriving next
// share the freshest view.
func (m *Manager) freshSnapshot() *arch.Snapshot {
	s := m.Snapshot()
	m.countSnapshot(false)
	m.epochMu.Lock()
	if m.epochSnap == nil || m.epochSnap.Version < s.Version {
		m.epochSnap = s
	}
	m.epochMu.Unlock()
	return s
}
