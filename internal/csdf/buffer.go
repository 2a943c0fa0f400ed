package csdf

import (
	"fmt"
	"sort"
)

// BufferOptions configures buffer-capacity computation.
type BufferOptions struct {
	// TargetPeriod is the required steady-state time per graph iteration.
	// Zero asks only for deadlock freedom with the smallest buffers found.
	TargetPeriod float64
	// MaxRounds bounds the grow loop (0 means a generous default).
	MaxRounds int
	// Tighten enables the shrink pass that walks capacities back down per
	// channel after the target is met, trading analysis time for smaller
	// buffers.
	Tighten bool
	// Exec configures the self-timed runs used as the feasibility oracle.
	Exec ExecOptions
}

// BufferResult is the outcome of BufferSizes.
type BufferResult struct {
	// Capacities holds the computed capacity of every channel that was
	// not already bounded in the input graph.
	Capacities map[ChannelID]int64
	// Exec is the execution result with the final capacities installed.
	Exec *ExecResult
	// Met reports whether the target period was achieved. When false the
	// graph is computation-bound: growing buffers further cannot help, and
	// the mapping is infeasible at this throughput.
	Met bool
}

// BufferSizes computes channel capacities under which the graph sustains
// the target period, in the spirit of Wiggers, Bekooij and Smit (DAC 2007),
// which the paper's step 4 references for its buffer-capacity analysis.
//
// This implementation is a simulation-guided conservative search rather
// than the closed-form linear bounds of the cited work: capacities start at
// per-channel lower bounds, self-timed execution identifies the channel
// whose back-pressure blocks progress most, that channel grows, and the
// loop repeats until the target period holds. An optional tightening pass
// then shrinks each capacity to the smallest value that still meets the
// target. The result is therefore sufficient (safe) but not always the
// theoretical minimum; the substitution is recorded in EXPERIMENTS.md.
//
// Channels already bounded in the input graph keep their capacity and are
// treated as hard constraints.
func BufferSizes(g *Graph, opts BufferOptions) (*BufferResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 256
	}
	work := cloneForBuffers(g)
	free := make([]ChannelID, 0, len(g.Channels)) // channels we may size
	for _, c := range g.Channels {
		if c.Capacity == 0 {
			free = append(free, c.ID)
			work.Channels[c.ID].Capacity = lowerBound(c)
		}
	}

	meets := func(r *ExecResult) bool {
		if r.Deadlocked {
			return false
		}
		if opts.TargetPeriod <= 0 {
			return true
		}
		return r.Period <= opts.TargetPeriod
	}

	var last *ExecResult
	bestPeriod := -1.0
	sinceImprove := 0
	for round := 0; ; round++ {
		r, err := work.Execute(opts.Exec)
		if err != nil {
			return nil, err
		}
		last = r
		if meets(r) {
			break
		}
		if round >= opts.MaxRounds {
			break
		}
		// Growing buffers monotonically improves the period; if several
		// consecutive growths changed nothing, the graph is
		// computation-bound and further growth is pointless.
		if !r.Deadlocked {
			if bestPeriod < 0 || r.Period < bestPeriod {
				bestPeriod = r.Period
				sinceImprove = 0
			} else {
				sinceImprove++
				if sinceImprove >= 8 {
					break
				}
			}
		}
		grow := pickGrowth(r, free)
		if grow < 0 {
			// No sizable channel is exerting back-pressure: the graph is
			// computation-bound (or deadlocked structurally); growing
			// buffers cannot help.
			break
		}
		work.Channels[grow].Capacity += growthStep(g.Channels[grow], work.Channels[grow].Capacity)
	}

	if last.Deadlocked && noFullBlocks(last, free) {
		return nil, fmt.Errorf("csdf: graph %q deadlocks regardless of buffer sizes: %s", g.Name, last.DeadlockReport)
	}

	if opts.Tighten && meets(last) {
		last = tighten(work, free, opts, meets, last)
	}

	out := &BufferResult{Capacities: make(map[ChannelID]int64, len(free)), Exec: last, Met: meets(last)}
	for _, cid := range free {
		out.Capacities[cid] = work.Channels[cid].Capacity
	}
	return out, nil
}

// lowerBound is the smallest capacity under which both endpoints of the
// channel can complete at least their largest single phase.
func lowerBound(c *Channel) int64 {
	lb := c.Prod.Max()
	if m := c.Cons.Max(); m > lb {
		lb = m
	}
	if c.Initial > lb {
		lb = c.Initial
	}
	if lb == 0 {
		lb = 1
	}
	return lb
}

// growthStep doubles the capacity (at least one largest burst), so the
// grow loop converges in logarithmically many oracle runs; the tighten
// pass walks the overshoot back down.
func growthStep(c *Channel, cur int64) int64 {
	s := c.Prod.Max()
	if m := c.Cons.Max(); m > s {
		s = m
	}
	if cur > s {
		s = cur
	}
	if s <= 0 {
		s = 1
	}
	return s
}

func pickGrowth(r *ExecResult, free []ChannelID) ChannelID {
	best := ChannelID(-1)
	var bestBlocks int64
	for _, cid := range free {
		if b := r.FullBlocks[cid]; b > bestBlocks {
			best, bestBlocks = cid, b
		}
	}
	return best
}

func noFullBlocks(r *ExecResult, free []ChannelID) bool {
	for _, cid := range free {
		if r.FullBlocks[cid] > 0 {
			return false
		}
	}
	return true
}

// tighten shrinks each sizable channel to the smallest capacity that keeps
// the oracle satisfied, visiting the largest capacities first.
func tighten(work *Graph, free []ChannelID, opts BufferOptions, meets func(*ExecResult) bool, last *ExecResult) *ExecResult {
	order := append([]ChannelID(nil), free...)
	sort.Slice(order, func(i, j int) bool {
		ci, cj := work.Channels[order[i]].Capacity, work.Channels[order[j]].Capacity
		if ci != cj {
			return ci > cj
		}
		return order[i] < order[j]
	})
	for _, cid := range order {
		lo := lowerBound(work.Channels[cid])
		hi := work.Channels[cid].Capacity
		for lo < hi {
			mid := lo + (hi-lo)/2
			work.Channels[cid].Capacity = mid
			r, err := work.Execute(opts.Exec)
			if err == nil && meets(r) {
				hi = mid
				last = r
			} else {
				lo = mid + 1
			}
		}
		work.Channels[cid].Capacity = hi
	}
	// Re-run once so the returned ExecResult reflects the final state.
	if r, err := work.Execute(opts.Exec); err == nil {
		last = r
	}
	return last
}

// cloneForBuffers copies the graph with fresh Channel structs so capacity
// edits do not leak into the caller's graph. Actors are shared (immutable
// during analysis).
func cloneForBuffers(g *Graph) *Graph {
	q := &Graph{Name: g.Name, Actors: g.Actors, in: g.in, out: g.out}
	q.Channels = make([]*Channel, len(g.Channels))
	for i, c := range g.Channels {
		cc := *c
		q.Channels[i] = &cc
	}
	return q
}
