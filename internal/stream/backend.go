package stream

import (
	"rtsm/internal/fleet"
	"rtsm/internal/manager"
	"rtsm/internal/model"
)

// Backend is what the server admits into: a single mesh behind a
// manager pipeline, or a whole fleet. Submit blocks for backpressure
// and TrySubmit sheds instead; both return a wait closure that delivers
// the arrival's single outcome, so the server's per-arrival watcher is
// backend-agnostic without any channel-adapter goroutines.
type Backend interface {
	// Submit enqueues with blocking backpressure; err is non-nil only
	// when the backend cannot take the arrival at all (closed,
	// duplicate name).
	Submit(app *model.Application, lib *model.Library) (func() manager.Outcome, error)
	// TrySubmit enqueues without blocking; false sheds the arrival
	// (full queue — counted in the backend's per-class shed stats — or
	// a closed backend).
	TrySubmit(app *model.Application, lib *model.Library) (func() manager.Outcome, bool)
	// Utilization is the backend's reserved-capacity estimate in [0, 1];
	// the DLQ gates retries on it.
	Utilization() float64
	// Stop departs a resident, freeing its reservations.
	Stop(name string) error
	// Stats is the backend's aggregated admission counters.
	Stats() manager.Stats
	// Close shuts the backend down, draining queued admissions.
	Close()
}

// PipelineBackend adapts a single manager + pipeline pair to Backend.
type PipelineBackend struct {
	m    *manager.Manager
	pipe *manager.Pipeline
}

// NewPipelineBackend wraps a manager and its pipeline. The backend owns
// neither until Close, which closes the pipeline (the manager needs no
// teardown).
func NewPipelineBackend(m *manager.Manager, pipe *manager.Pipeline) *PipelineBackend {
	return &PipelineBackend{m: m, pipe: pipe}
}

// Submit implements Backend.
func (b *PipelineBackend) Submit(app *model.Application, lib *model.Library) (func() manager.Outcome, error) {
	ch, err := b.pipe.Submit(app, lib)
	if err != nil {
		return nil, err
	}
	return func() manager.Outcome { return <-ch }, nil
}

// TrySubmit implements Backend.
func (b *PipelineBackend) TrySubmit(app *model.Application, lib *model.Library) (func() manager.Outcome, bool) {
	ch, ok := b.pipe.TrySubmit(app, lib)
	if !ok {
		return nil, false
	}
	return func() manager.Outcome { return <-ch }, true
}

// Utilization implements Backend.
func (b *PipelineBackend) Utilization() float64 { return b.m.LoadEstimate().Utilization() }

// Stop implements Backend.
func (b *PipelineBackend) Stop(name string) error { return b.m.Stop(name) }

// Stats implements Backend.
func (b *PipelineBackend) Stats() manager.Stats { return b.m.Stats() }

// Close implements Backend.
func (b *PipelineBackend) Close() { b.pipe.Close() }

// FleetBackend adapts a multi-mesh fleet to Backend.
type FleetBackend struct {
	f *fleet.Fleet
}

// NewFleetBackend wraps a fleet; Close closes it.
func NewFleetBackend(f *fleet.Fleet) *FleetBackend { return &FleetBackend{f: f} }

// Submit implements Backend.
func (b *FleetBackend) Submit(app *model.Application, lib *model.Library) (func() manager.Outcome, error) {
	ch, err := b.f.Submit(app, lib)
	if err != nil {
		return nil, err
	}
	return func() manager.Outcome { return (<-ch).Outcome }, nil
}

// TrySubmit implements Backend.
func (b *FleetBackend) TrySubmit(app *model.Application, lib *model.Library) (func() manager.Outcome, bool) {
	ch, ok := b.f.TrySubmit(app, lib)
	if !ok {
		return nil, false
	}
	return func() manager.Outcome { return (<-ch).Outcome }, true
}

// Utilization implements Backend.
func (b *FleetBackend) Utilization() float64 { return b.f.Utilization() }

// Stop implements Backend.
func (b *FleetBackend) Stop(name string) error { return b.f.Stop(name) }

// Stats implements Backend: the member meshes' counters summed.
func (b *FleetBackend) Stats() manager.Stats {
	var st manager.Stats
	for i := 0; i < b.f.Meshes(); i++ {
		st.Add(b.f.Manager(i).Stats())
	}
	return st
}

// Close implements Backend.
func (b *FleetBackend) Close() { b.f.Close() }
