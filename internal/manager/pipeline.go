package manager

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rtsm/internal/model"
)

// Request is one admission to run through a Pipeline.
type Request struct {
	App *model.Application
	Lib *model.Library
}

type job struct {
	req  Request
	prio model.Priority
	// enqueued is stamped by the queue itself (prioQueue.enqueueLocked)
	// with the queue's own clock, so wait accounting and aging promotion
	// read the same time source.
	enqueued time.Time
	done     chan Outcome
}

// Pipeline is a bounded admission work queue in front of a Manager: up to
// `depth` requests wait in the queue and `workers` goroutines run the
// speculative mapping phase concurrently. Submit blocks when the queue is
// full, giving callers natural backpressure; TrySubmit sheds load instead.
//
// The queue is priority-aware: requests are classed by their
// application's QoS priority (model.Priority, tagged on the spec) into
// per-class FIFOs, and workers serve the highest class first. Aging keeps
// this starvation-free — a request promotes by one class per SetAging
// interval spent queued, so under a continuous high-priority stream a
// best-effort request still reaches the top class after a bounded wait
// and is then served before any later arrival. With every request
// untagged (BestEffort, the zero value) the queue degenerates to the
// plain FIFO of the pre-priority pipeline.
//
// With SetBatch, workers drain up to K queued requests per round instead
// of one and run them through the manager's batched admission path: one
// shared base snapshot, speculative mapping per request, and a single
// multi-application commit of the requests whose reservation plans land
// in disjoint mesh regions (see Manager stats Batches/BatchedAdmissions/
// BatchFallbacks). K adapts to the observed merge-conflict rate.
//
// Departures need no queue — call Manager.Stop directly, it only takes
// the short commit lock.
type Pipeline struct {
	m *Manager
	q *prioQueue

	// closing serializes Close itself (idempotence); it is NOT held
	// across queue operations. Submitters never take it: close detection
	// lives in the queue, so a Submit blocked on a full queue wakes and
	// returns the close error the moment Close lands, instead of
	// stalling Close behind a reader lock held across the blocking push
	// (the pipeline-shutdown stall this layout fixes).
	closing sync.Mutex
	closed  bool
	wg      sync.WaitGroup

	// batchMax is the configured drain ceiling (≤ 1 = batching off);
	// batchCur is the adaptive current K shared by all workers, halved
	// when a batch sees merge or validation fallbacks and grown by one
	// per fully merged batch.
	batchMax    atomic.Int32
	batchCur    atomic.Int32
	batchLinger atomic.Int64 // nanoseconds popBatch waits for a batch to fill
}

// DefaultBatchLinger is how long a draining worker waits for a batch to
// fill once the queue runs dry — the latency half of the batcher's
// size-or-latency trigger. See Pipeline.SetBatchLinger.
const DefaultBatchLinger = 200 * time.Microsecond

// NewPipeline starts a pipeline with the given number of admission
// workers and queue slots. workers < 1 is treated as 1; depth < 1 keeps a
// single queue slot (every Submit hands off almost directly to a worker).
// Aging defaults to DefaultAging; tune it with SetAging. Batching is off
// until SetBatch.
func NewPipeline(m *Manager, workers, depth int) *Pipeline {
	if workers < 1 {
		workers = 1
	}
	p := &Pipeline{m: m, q: newPrioQueue(depth, DefaultAging)}
	p.batchLinger.Store(int64(DefaultBatchLinger))
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// SetAging adjusts the queue time that promotes a waiting request by one
// priority class (d ≤ 0 disables aging: strict class order, best-effort
// requests may starve).
func (p *Pipeline) SetAging(d time.Duration) { p.q.setAging(d) }

// SetBatch sets the maximum number of queued requests a worker drains
// into one batched admission round (k ≤ 1 disables batching, the
// default). The effective drain size starts at k and adapts to the
// observed conflict rate: a round with merge or validation fallbacks
// halves it (floor 2, so batching keeps probing), a fully merged round
// grows it back by one toward k.
func (p *Pipeline) SetBatch(k int) {
	if k < 0 {
		k = 0
	}
	p.batchMax.Store(int32(k))
	p.batchCur.Store(int32(k))
}

// SetBatchLinger sets how long a draining worker waits for a batch to
// fill once the queue runs dry (the latency half of the size-or-latency
// trigger; 0 drains only what is already queued).
func (p *Pipeline) SetBatchLinger(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.batchLinger.Store(int64(d))
}

// adaptBatch updates the shared adaptive drain size after one batched
// round: multiplicative decrease once fallbacks dominate the round
// (half or more of the drained jobs re-mapped — the speculative work is
// mostly wasted at that point), additive increase after a fallback-free
// round. Spill commits count as neither: they recycled their
// speculative plan, so they cost the batch almost nothing.
func (p *Pipeline) adaptBatch(drained, fallbacks int) {
	max := p.batchMax.Load()
	if max <= 1 {
		return
	}
	cur := p.batchCur.Load()
	switch {
	case fallbacks*2 >= drained:
		next := cur / 2
		if next < 2 {
			next = 2
		}
		p.batchCur.CompareAndSwap(cur, next)
	case fallbacks == 0 && cur < max:
		p.batchCur.CompareAndSwap(cur, cur+1)
	}
}

func (p *Pipeline) worker() {
	defer p.wg.Done()
	for {
		k := int(p.batchCur.Load())
		if k <= 1 {
			j, ok := p.q.pop()
			if !ok {
				return
			}
			wait := p.q.clock().Sub(j.enqueued)
			j.done <- p.m.admit(j.req.App, j.req.Lib, wait)
			continue
		}
		jobs := p.q.popBatch(k, time.Duration(p.batchLinger.Load()))
		if len(jobs) == 0 {
			return
		}
		if len(jobs) == 1 {
			j := jobs[0]
			wait := p.q.clock().Sub(j.enqueued)
			j.done <- p.m.admit(j.req.App, j.req.Lib, wait)
			continue
		}
		fallbacks := p.m.admitBatch(jobs, p.q.clock())
		p.adaptBatch(len(jobs), fallbacks)
	}
}

// Submit enqueues an admission request, blocking while the queue is full,
// and returns a channel that delivers the Outcome. The request is queued
// at the application's own QoS class. The channel is buffered: a caller
// that abandons it leaks nothing and blocks no worker. A Submit blocked
// on a full queue returns the close error as soon as Close lands; it
// never outwaits the shutdown.
func (p *Pipeline) Submit(app *model.Application, lib *model.Library) (<-chan Outcome, error) {
	j := newJob(app, lib)
	if !p.q.push(j) {
		return nil, errPipelineClosed
	}
	return j.done, nil
}

// TrySubmit is Submit without the blocking: it reports false when the
// queue is full or the pipeline closed, so callers can shed load. A
// full-queue refusal (not a shutdown) is counted as shed for the
// request's class in the manager's Stats, so shed arrivals stay visible
// in the ledger even though they never reach a worker.
func (p *Pipeline) TrySubmit(app *model.Application, lib *model.Library) (<-chan Outcome, bool) {
	j := newJob(app, lib)
	if ok, closed := p.q.tryPush(j); !ok {
		if !closed {
			p.m.noteShed(j.prio)
		}
		return nil, false
	}
	return j.done, true
}

// errPipelineClosed is the stable close error Submit returns.
var errPipelineClosed = fmt.Errorf("manager: pipeline is closed")

func newJob(app *model.Application, lib *model.Library) *job {
	return &job{
		req:  Request{App: app, Lib: lib},
		prio: clampPriority(app.QoS.Priority),
		done: make(chan Outcome, 1),
	}
}

// Close stops accepting requests, drains the queue and waits for all
// workers to finish. Outcomes of already-submitted requests are still
// delivered. Close never waits on submitters: closing the queue wakes
// every Submit blocked on a full queue (each returns the close error),
// so Close completes even under a continuous submit storm.
func (p *Pipeline) Close() {
	p.closing.Lock()
	if p.closed {
		p.closing.Unlock()
		return
	}
	p.closed = true
	p.closing.Unlock()
	// Workers drain the queue after close(): pop keeps delivering queued
	// jobs and only reports done once the queue is empty.
	p.q.close()
	p.wg.Wait()
}
