package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval the benchmark timed around its own call into a
// layer. Spans of one request share Req, the arrival index; Parent is the
// ID of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// layer is the span name up to its first dot: "front.decode" belongs to
// the front layer.
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory while it is on; the traced phase turns it
// on and the untraced phases leave it off, so recording costs nothing
// where end-to-end metrics are measured.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// enabled reports whether spans are being recorded; a nil tracer never
// records.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// add records one span and returns its ID. parent may be 0 when the
// causing span is not known yet; link fills it in later.
func (t *tracer) add(name string, req, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// link sets the parent of every unlinked span whose name appears in
// parentOf to the span of the parent name with the same request id.
// Spans recorded on the server side (decode, backend) learn their
// request's root only once the client finishes it.
func (t *tracer) link(parentOf map[string]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct {
		name string
		req  int
	}
	byKey := make(map[key]int, len(t.spans))
	for _, s := range t.spans {
		byKey[key{s.Name, s.Req}] = s.ID
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != 0 {
			continue
		}
		if p, ok := parentOf[s.Name]; ok {
			s.Parent = byKey[key{p, s.Req}]
		}
	}
}

// requestSelf is one request's self time per layer and its round trip
// (the root span's duration), all in nanoseconds.
type requestSelf struct {
	req   int
	root  int64
	layer map[string]int64
}

// selfTimes walks the tree under every span named root and computes each
// span's self time: its duration minus the part of it its children
// cover. Self times are summed per layer.
func (t *tracer) selfTimes(root string) []requestSelf {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	var out []requestSelf
	for i := range t.spans {
		r := &t.spans[i]
		if r.Name != root || r.Parent != 0 {
			continue
		}
		rs := requestSelf{req: r.Req, root: r.dur(), layer: map[string]int64{}}
		stack := []int{i}
		for len(stack) > 0 {
			s := &t.spans[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			kids := children[s.ID]
			rs.layer[s.layer()] += s.dur() - covered(s, t.spans, kids)
			stack = append(stack, kids...)
		}
		out = append(out, rs)
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// the parent.
func covered(parent *span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, parent.Start
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			total += v.b - v.a
			end = v.b
		}
	}
	return total
}

// maxSelfSumErr checks that, per request, the layers' self times add up
// to the round trip within tol, and returns the largest relative gap.
// A larger gap means spans overlap or leak out of their parents: the
// per-layer numbers would not account for the time users saw.
func maxSelfSumErr(reqs []requestSelf, tol float64) (float64, error) {
	worst := 0.0
	for _, r := range reqs {
		var sum int64
		for _, v := range r.layer {
			sum += v
		}
		gap := ratio(float64(sum-r.root), float64(r.root))
		if gap < 0 {
			gap = -gap
		}
		worst = max(worst, gap)
		if gap > tol {
			return worst, fmt.Errorf("request %d: layer self times sum to %d ns, round trip %d ns (%.1f%% apart, limit %.0f%%)",
				r.req, sum, r.root, 100*gap, 100*tol)
		}
	}
	return worst, nil
}

// layerSelfMs collects one layer's per-request self times in ms.
func layerSelfMs(reqs []requestSelf, layer string) []float64 {
	out := make([]float64, 0, len(reqs))
	for _, r := range reqs {
		out = append(out, float64(r.layer[layer])/1e6)
	}
	return out
}

// snapshot returns a copy of every span with this name.
func (t *tracer) snapshot(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durationsMs returns the durations in ms of every span with this name.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.snapshot(name) {
		out = append(out, float64(s.dur())/1e6)
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
