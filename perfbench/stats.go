package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the numpy default), or 0 for an empty sample. xs is
// left as it is.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// windowedQuantile splits xs, in the order the requests were sent, into
// up to maxWindows equal windows of at least minWindow samples, takes the
// q-quantile of each and returns their median. A tail percentile of one
// window swings with whatever else ran on the host at that moment; the
// median over windows does not, yet every window still has
// (1-q)*minWindow samples beyond its quantile.
func windowedQuantile(xs []float64, q float64) float64 {
	const maxWindows, minWindow = 6, 200
	k := min(maxWindows, max(1, len(xs)/minWindow))
	per := make([]float64, 0, k)
	for w := 0; w < k; w++ {
		per = append(per, quantile(xs[w*len(xs)/k:(w+1)*len(xs)/k], q))
	}
	return median(per)
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// maxOf returns the largest element of xs, or 0 for an empty sample.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ms and us convert a duration to fractional milliseconds and
// microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio divides, reading 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// usage is the process's cumulative CPU time and heap allocation at one
// instant; the difference of two brackets a measured phase.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: mem.TotalAlloc,
	}
}

// heapSampler records the live heap (bytes the last GC marked
// reachable) once per GC cycle, so work or caches moved into memory
// show up as a larger live heap rather than hiding in allocation counts.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	live []float64 // MiB, one per GC cycle seen
}

var heapMetrics = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := make([]metrics.Sample, len(heapMetrics))
	copy(s, heapMetrics)
	metrics.Read(s)
	last := s[0].Value.Uint64()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != last {
				last = c
				h.live = append(h.live, float64(s[1].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler to exit and returns the 90th
// percentile of the live heap over the GC cycles seen, in MiB. A high
// quantile rather than the maximum: the maximum is one GC that happened
// to land on the most work in flight, and it swings run to run.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return quantile(h.live, 0.90)
}

// phaseCost brackets one measured phase: CPU, allocation and the live
// heap. Begin collects garbage first so every phase starts from the same
// heap state.
type phaseCost struct {
	start usage
	heap  *heapSampler
}

func beginPhase() *phaseCost {
	runtime.GC()
	p := &phaseCost{heap: startHeapSampler(time.Millisecond)}
	p.start = readUsage()
	return p
}

// end returns CPU time and allocated bytes since begin, and the 90th
// percentile live heap in MiB.
func (p *phaseCost) end() (cpu time.Duration, alloc uint64, heapMB float64) {
	u := readUsage()
	return u.cpu - p.start.cpu, u.alloc - p.start.alloc, p.heap.Stop()
}

// splitmix64 is the seed mixer: every input the benchmark generates is
// derived from the workload seed through it, so one seed fixes a run's
// inputs and nearby seeds give unrelated ones.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive mixes a seed with a stream label into a non-negative int64.
func derive(seed int64, label uint64) int64 {
	return int64(splitmix64(uint64(seed)^splitmix64(label)) >> 1)
}
