package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rtsm/internal/core"
	"rtsm/internal/front"
	"rtsm/internal/journal"
	"rtsm/internal/manager"
	"rtsm/internal/model"
	"rtsm/internal/stream"
	"rtsm/internal/workload"
)

// admitParams is what distinguishes the /admit workloads. Everything
// else is cmd/serve's -listen default: 12x12 mesh, region size 3, 4
// workers, queue 64, a 60:30:10 class mix, utilisation 0.12, period
// 40 us.
type admitParams struct {
	name string
	// rate is the open-loop arrival rate per second.
	rate int
	// catalogue is the number of distinct application structures in
	// rotation; 0 makes every arrival a structure of its own.
	catalogue int
	// resident caps the admissions kept running; beyond it the oldest
	// is stopped (0 stops each admission as soon as its verdict is in).
	resident int
	// journal streams the hash-chained journal to a file, fsyncing on
	// acks through the *os.File, as -listen -journal does.
	journal bool
	// limit is the round-trip latency slo_attainment counts against.
	limit time.Duration
}

var (
	coldParams = admitParams{name: "admit-cold", rate: 30, resident: 4, limit: 50 * time.Millisecond}
	warmParams = admitParams{name: "admit-warm", rate: 200, catalogue: 4, resident: 0, journal: true,
		limit: 10 * time.Millisecond}
)

const (
	meshSide    = 12
	regionSide  = 3
	workers     = 4
	queueDepth  = 64
	maxUtil     = 0.12
	periodNs    = 40_000
	classCycle  = 100 // 60 BestEffort, 30 Standard, 10 Critical per cycle
	bestEffortN = 60
	standardN   = 30

	// platformSeed is cmd/serve's default: the mesh is part of the
	// workload's definition, the seed varies the applications.
	platformSeed = 123

	admitSetupReps = 9
	// warmup is the unmeasured traffic sent before measuring.
	warmup = 2 * time.Second
	// maxConns caps the client's keep-alive connections at the host's
	// two CPUs.
	maxConns = 2
	// maxInFlight bounds the request goroutines; past it the scheduler
	// itself stalls, which shows as generator lateness.
	maxInFlight = 4096
	// maxReplays bounds how many computed mappings the traced phase keeps
	// for the step-4 replay.
	maxReplays = 200
	// selfSumTol is how far the layers' self times may sum from the
	// round trip, per request.
	selfSumTol = 0.05
)

func spanPath(cfg runConfig, name string) string {
	return filepath.Join(cfg.workdir, "spans-"+name+".jsonl")
}

// classOf spreads the 60:30:10 class mix over a repeating cycle, as the
// churn generator does.
func classOf(i int) model.Priority {
	switch s := i % classCycle; {
	case s < bestEffortN:
		return model.BestEffort
	case s < bestEffortN+standardN:
		return model.Standard
	default:
		return model.Critical
	}
}

func appName(i int) string { return fmt.Sprintf("app-%d-%s", i, classOf(i)) }

// appIndex recovers the arrival index from an application name; -1 when
// the name carries none.
func appIndex(name string) int {
	rest, ok := strings.CutPrefix(name, "app-")
	if !ok {
		return -1
	}
	num, _, _ := strings.Cut(rest, "-")
	i, err := strconv.Atoi(num)
	if err != nil {
		return -1
	}
	return i
}

// outcomeRec is one backend outcome seen by the traced decorator.
type outcomeRec struct {
	wait, mapT, repair, commit time.Duration
	attempts                   int
}

// replayRec is an admission whose mapping was computed for it (by the
// four-step map or by repair), kept for the step-4 replay; mapT is its
// map plus repair time.
type replayRec struct {
	app  *model.Application
	res  *core.Result
	mapT time.Duration
}

// stack is the service cmd/serve -listen builds: platform, manager,
// pipeline, stream server, HTTP door and, for admit-warm, the journal,
// plus the collector that recycles residents beyond the cap.
type stack struct {
	cfg    runConfig
	p      admitParams
	tr     *tracer
	epRegs int

	m     *manager.Manager
	srv   *stream.Server
	door  *front.Door
	jw    *journal.Writer
	jio   *journalIO
	jpath string

	collected chan struct{}

	mu       sync.Mutex
	outcomes []outcomeRec
	replays  []replayRec
}

func buildStack(cfg runConfig, p admitParams, tr *tracer, jpath string) (*stack, error) {
	s := &stack{cfg: cfg, p: p, tr: tr, collected: make(chan struct{})}
	plat := workload.SyntheticRegionPlatform(meshSide, meshSide, platformSeed, regionSide)
	s.epRegs = plat.RegionCount()
	s.m = manager.New(plat, core.Config{})
	s.m.SetMappingReuse(true)
	s.m.SetRepair(true)
	if p.journal {
		f, err := os.Create(jpath)
		if err != nil {
			return nil, fmt.Errorf("open journal: %w", err)
		}
		s.jpath = jpath
		s.jio = &journalIO{f: f, tr: tr}
		s.jw = journal.NewWriter(s.jio, journal.Options{Syncer: s.jio})
		s.m.SetJournal(s.jw)
	}
	pipe := manager.NewPipeline(s.m, workers, queueDepth)
	backend := &tracedBackend{Backend: stream.NewPipelineBackend(s.m, pipe), s: s}
	srv, err := stream.New(stream.Options{Backend: backend})
	if err != nil {
		pipe.Close()
		_ = s.closeJournal() // the set-up error is the one to report
		return nil, err
	}
	s.srv = srv
	door, err := front.Listen(front.Options{Server: srv, Seed: derive(cfg.seed, 4), Decode: s.decode})
	if err != nil {
		srv.Shutdown()
		_ = s.closeJournal() // the set-up error is the one to report
		return nil, err
	}
	s.door = door
	go s.collect()
	return s, nil
}

// collect drains the stream's results and stops the oldest resident
// beyond the cap, as cmd/serve -listen does.
func (s *stack) collect() {
	defer close(s.collected)
	var residents []string
	for res := range s.srv.Results() {
		if res.Verdict != stream.VerdictAdmitted {
			continue
		}
		residents = append(residents, res.App)
		if len(residents) <= s.p.resident {
			continue
		}
		name := residents[0]
		residents = residents[1:]
		if err := s.m.Stop(name); errors.Is(err, manager.ErrRelocating) {
			residents = append(residents, name) // retry later
		}
	}
}

// arrival builds arrival i: a chain of 3-5 processes whose structure
// seed derives from the workload seed and the catalogue slot, pinned
// round-robin to the per-region stream endpoints.
func (s *stack) arrival(i int) (*model.Application, *model.Library) {
	slot := i
	if s.p.catalogue > 0 {
		slot = i % s.p.catalogue
	}
	r := i % s.epRegs
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape:     workload.ShapeChain,
		Processes: 3 + slot%3,
		Seed:      derive(s.cfg.seed, uint64(slot)<<8|2),
		MaxUtil:   maxUtil,
		PeriodNs:  periodNs,
		SrcTile:   fmt.Sprintf("SRC%d", r),
		SinkTile:  fmt.Sprintf("SINK%d", r),
		Priority:  classOf(i),
	})
	app.Name = appName(i)
	if s.cfg.dupNames {
		app.Name = "app-dup"
	}
	return app, lib
}

type admitBody struct {
	Index int `json:"index"`
}

// decode is the door's Decoder: the request carries only the arrival
// index, and the benchmark builds the application from it.
func (s *stack) decode(r *http.Request) (*model.Application, *model.Library, error) {
	t0 := time.Now()
	var body admitBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		return nil, nil, fmt.Errorf("bad body: %w", err)
	}
	if body.Index < 0 {
		return nil, nil, fmt.Errorf("negative index %d", body.Index)
	}
	app, lib := s.arrival(body.Index)
	if s.tr.enabled() {
		s.tr.add("front.decode", body.Index, 0, t0, time.Now())
	}
	return app, lib, nil
}

// tracedBackend times every backend submission until its outcome
// returns, and keeps the stage times the outcome carries. Untraced it
// passes straight through.
type tracedBackend struct {
	stream.Backend
	s *stack
}

func (b *tracedBackend) Submit(app *model.Application, lib *model.Library) (func() manager.Outcome, error) {
	if !b.s.tr.enabled() {
		return b.Backend.Submit(app, lib)
	}
	t0 := time.Now()
	wait, err := b.Backend.Submit(app, lib)
	if err != nil {
		return nil, err
	}
	return b.s.timed(app, t0, wait), nil
}

func (b *tracedBackend) TrySubmit(app *model.Application, lib *model.Library) (func() manager.Outcome, bool) {
	if !b.s.tr.enabled() {
		return b.Backend.TrySubmit(app, lib)
	}
	t0 := time.Now()
	wait, ok := b.Backend.TrySubmit(app, lib)
	if !ok {
		return nil, false
	}
	return b.s.timed(app, t0, wait), true
}

// timed wraps an outcome wait: the manager span runs from submission to
// the outcome, and the core span inside it covers the outcome's mapping
// and repair time, placed after its queue wait.
func (s *stack) timed(app *model.Application, t0 time.Time, wait func() manager.Outcome) func() manager.Outcome {
	return func() manager.Outcome {
		out := wait()
		t1 := time.Now()
		req := appIndex(app.Name)
		id := s.tr.add("manager", req, 0, t0, t1)
		mapping := out.Map + out.Repair
		if mapping > 0 {
			c0 := t0.Add(out.Wait)
			s.tr.add("core", req, id, c0, c0.Add(mapping))
		}
		// A result computed for this admission (not a template hit) is
		// kept for the step-4 replay.
		computed := out.Admitted && out.Attempts > 0 && out.Admission != nil
		s.mu.Lock()
		s.outcomes = append(s.outcomes, outcomeRec{
			wait: out.Wait, mapT: out.Map, repair: out.Repair, commit: out.Commit,
			attempts: out.Attempts,
		})
		if computed && len(s.replays) < maxReplays {
			s.replays = append(s.replays, replayRec{app: app, res: out.Admission.Result, mapT: mapping})
		}
		s.mu.Unlock()
		return out
	}
}

// journalIO is the journal file as the journal writer sees it: it counts
// writes, bytes and fsyncs, and times each write while tracing.
type journalIO struct {
	f  *os.File
	tr *tracer

	writes, bytes, syncs atomic.Int64
	mu                   sync.Mutex
	writeUs              []float64
}

func (j *journalIO) Write(p []byte) (int, error) {
	traced := j.tr.enabled()
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	n, err := j.f.Write(p)
	if traced {
		d := time.Since(t0)
		j.mu.Lock()
		j.writeUs = append(j.writeUs, us(d))
		j.mu.Unlock()
	}
	j.writes.Add(1)
	j.bytes.Add(int64(n))
	return n, err
}

func (j *journalIO) Sync() error {
	j.syncs.Add(1)
	return j.f.Sync()
}

func (s *stack) closeJournal() error {
	if s.jw == nil {
		return nil
	}
	err := s.jw.Close()
	if cerr := s.jio.f.Close(); err == nil {
		err = cerr
	}
	s.jw = nil
	return err
}

// teardown drains the door, shuts the stream down, waits for the
// collector and closes the journal, returning the final stream report.
func (s *stack) teardown() (stream.Report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := s.door.Drain(ctx)
	rep := s.srv.Shutdown()
	<-s.collected
	if err := s.closeJournal(); err != nil {
		return rep, fmt.Errorf("close journal: %w", err)
	}
	if derr != nil {
		return rep, derr
	}
	return rep, nil
}

// ledgers is a snapshot of the counters a phase's per-layer metrics are
// differences of.
type ledgers struct {
	door                    front.Stats
	stream                  stream.Report
	mgr                     manager.Stats
	jWrites, jBytes, jSyncs int64
}

func (s *stack) ledgers() ledgers {
	c := ledgers{door: s.door.Stats(), stream: s.srv.Report(), mgr: s.m.Stats()}
	if s.jio != nil {
		c.jWrites, c.jBytes, c.jSyncs = s.jio.writes.Load(), s.jio.bytes.Load(), s.jio.syncs.Load()
	}
	return c
}

// reqRec is one /admit request as the client saw it.
type reqRec struct {
	idx             int
	due, sent, done time.Time
	status          int
	resp            front.AdmitResponse
	err             error
}

func (r *reqRec) latency() time.Duration { return r.done.Sub(r.due) }

func (r *reqRec) ok() bool {
	return r.err == nil && r.status == http.StatusOK && r.resp.Verdict == stream.VerdictAdmitted.String()
}

// generator is the open-loop load: one scheduling goroutine sends
// arrival k at start + k/rate over at most maxConns keep-alive
// connections, whatever the replies are doing.
type generator struct {
	client *http.Client
	url    string
	next   int
	// status tallies every response of the run by HTTP status (0 for a
	// transport error), to match against the door's own ledger.
	status map[int]int
}

func newGenerator(addr string) *generator {
	conns := min(maxConns, runtime.NumCPU())
	return &generator{
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		url:    "http://" + addr + "/admit",
		status: map[int]int{},
	}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// phase offers rate arrivals per second for d and returns once every
// request has its reply. With tracing on it records each request's root
// span, from the due time to the end of the reply.
func (g *generator) phase(rate int, d time.Duration, tr *tracer) []reqRec {
	n := max(1, int(float64(rate)*d.Seconds()))
	interval := time.Second / time.Duration(rate)
	recs := make([]reqRec, n)
	first := g.next
	g.next += n
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		sleepUntil(due)
		sem <- struct{}{}
		wg.Add(1)
		go func(k int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			recs[k] = g.send(first+k, due)
		}(k, due)
	}
	wg.Wait()
	for i := range recs {
		r := &recs[i]
		g.status[r.status]++
		if tr.enabled() && r.err == nil {
			tr.add("front", r.idx, 0, r.due, r.done)
		}
	}
	return recs
}

// sleepUntil blocks the calling goroutine's thread in nanosleep until
// due. The runtime's own timers wake a sleeper up to a millisecond late
// here (measured p50 0.63 ms, p90 1.0 ms for 5 ms sleeps), which would
// double the latency measured from the due time on a 1 ms service;
// nanosleep wakes it about 0.1 ms late.
func sleepUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
			return
		}
	}
}

func (g *generator) send(idx int, due time.Time) reqRec {
	r := reqRec{idx: idx, due: due}
	body := strconv.AppendInt([]byte(`{"index":`), int64(idx), 10)
	body = append(body, '}')
	req, err := http.NewRequest(http.MethodPost, g.url, bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	r.sent = time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		r.done = time.Now()
		r.err = err
		return r
	}
	r.status = resp.StatusCode
	if err := json.NewDecoder(resp.Body).Decode(&r.resp); err != nil {
		r.err = fmt.Errorf("decode reply: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	r.done = time.Now()
	return r
}

// checkReplies verifies that each 200 reply admitted the application the
// generator asked for.
func checkReplies(recs []reqRec) error {
	for i := range recs {
		r := &recs[i]
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		if want := appName(r.idx); r.resp.App != want || r.resp.Verdict != stream.VerdictAdmitted.String() {
			return checkFailed("arrival %d: reply admitted %q (verdict %s), want %q admitted", r.idx, r.resp.App, r.resp.Verdict, want)
		}
	}
	return nil
}

// logFailures prints the distinct failure kinds of a phase to stderr,
// so a run that counted failures says what they were.
func logFailures(recs []reqRec) {
	kinds := map[string]int{}
	for i := range recs {
		r := &recs[i]
		if r.ok() {
			continue
		}
		k := fmt.Sprintf("status %d: %s", r.status, r.resp.Error)
		if r.err != nil {
			k = r.err.Error()
		}
		kinds[k]++
	}
	for k, n := range kinds {
		fmt.Fprintf(os.Stderr, "perfbench: %d request(s) failed: %s\n", n, k)
	}
}

func countOK(recs []reqRec) int {
	n := 0
	for i := range recs {
		if recs[i].ok() {
			n++
		}
	}
	return n
}

func latenciesMs(recs []reqRec) []float64 {
	out := make([]float64, len(recs))
	for i := range recs {
		out[i] = ms(recs[i].latency())
	}
	return out
}

func runAdmit(cfg runConfig, p admitParams) (rep report, err error) {
	rep = report{e2e: map[string]float64{}, layer: map[string]float64{}}
	tr := newTracer()
	jpath := filepath.Join(cfg.workdir, fmt.Sprintf("journal-%s-%d.jsonl", p.name, os.Getpid()))
	defer os.Remove(jpath)

	var setups []float64
	var s *stack
	for r := 0; r < admitSetupReps; r++ {
		if s != nil {
			if _, err := s.teardown(); err != nil {
				return rep, err
			}
		}
		t0 := time.Now()
		s, err = buildStack(cfg, p, tr, jpath)
		if err != nil {
			return rep, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.e2e["setup_s"] = median(setups)

	g := newGenerator(s.door.Addr())
	defer g.close()
	var checkErr error
	note := func(err error) {
		if checkErr == nil {
			checkErr = err
		}
	}
	note(checkReplies(g.phase(p.rate, warmup, nil)))

	if !cfg.trace {
		cost := beginPhase()
		recs := g.phase(p.rate, cfg.seconds, nil)
		cpu, alloc, heapMB := cost.end()
		note(checkReplies(recs))
		logFailures(recs)
		n := float64(len(recs))
		ok, within := 0, 0
		for i := range recs {
			if recs[i].ok() {
				ok++
				if recs[i].latency() <= p.limit {
					within++
				}
			}
		}
		lat := latenciesMs(recs)
		rep.attempted, rep.failed = len(recs), len(recs)-ok
		rep.e2e["latency_p50_ms"] = quantile(lat, 0.50)
		rep.e2e["latency_p90_ms"] = windowedQuantile(lat, 0.90)
		rep.e2e["slo_attainment"] = float64(within) / n
		rep.e2e["success_ratio"] = float64(ok) / n
		rep.e2e["cpu_ms_per_req"] = ms(cpu) / n
		rep.e2e["alloc_kb_per_req"] = float64(alloc) / 1024 / n
		rep.e2e["heap_live_p90_mb"] = heapMB
	} else {
		plain := g.phase(p.rate, cfg.seconds/2, nil)
		note(checkReplies(plain))
		before := s.ledgers()
		tr.on.Store(true)
		traced := g.phase(p.rate, cfg.seconds/2, tr)
		tr.on.Store(false)
		after := s.ledgers()
		note(checkReplies(traced))
		logFailures(plain)
		logFailures(traced)
		rep.attempted = len(plain) + len(traced)
		rep.failed = rep.attempted - countOK(plain) - countOK(traced)
		if err := s.layerMetrics(rep.layer, plain, traced, before, after); err != nil {
			note(err)
		}
	}

	final, err := s.teardown()
	if err != nil {
		return rep, err
	}
	note(s.checkFinal(final, g.status))
	if cfg.trace {
		// Written whatever the checks said: a failed self-time sum is
		// diagnosed from the spans.
		if err := tr.write(spanPath(cfg, p.name)); err != nil {
			return rep, err
		}
	}
	return rep, checkErr
}

// checkFinal runs the output checks that need the drained stack: the
// stream's exactly-one-outcome ledger, the door's ledger against the
// client's own counts, the manager's reservation invariants and, with a
// journal, the hash chain over the written file.
func (s *stack) checkFinal(rep stream.Report, status map[int]int) error {
	if !rep.LedgerOK() {
		return checkFailed("stream ledger broken: admitted %d + rejected %d + shed %d + expired %d != submitted %d",
			rep.Admitted, rep.Rejected, rep.Shed(), rep.Expired, rep.Submitted)
	}
	ds := s.door.Stats()
	total := 0
	for _, n := range status {
		total += n
	}
	want := front.Stats{
		Requests: uint64(total - status[0]), Admitted: uint64(status[http.StatusOK]),
		Busy: uint64(status[http.StatusServiceUnavailable]), Rejected: uint64(status[http.StatusUnprocessableEntity]),
		Timeout: uint64(status[http.StatusGatewayTimeout]), BadRequest: uint64(status[http.StatusBadRequest]),
		Retries: ds.Retries, Draining: ds.Draining,
	}
	if status[0] > 0 || ds != want {
		return checkFailed("door ledger %+v does not match the client's counts %+v (%d transport errors)", ds, want, status[0])
	}
	if err := s.m.CheckInvariants(); err != nil {
		return checkFailed("manager invariants: %v", err)
	}
	if s.jpath != "" {
		f, err := os.Open(s.jpath)
		if err != nil {
			return fmt.Errorf("reopen journal: %w", err)
		}
		defer f.Close()
		events, tail, err := journal.Verify(f)
		if err != nil {
			return checkFailed("journal: %v", err)
		}
		if tail != 0 || len(events) == 0 {
			return checkFailed("journal: %d sealed events, %d unsealed after close", len(events), tail)
		}
	}
	return nil
}

// layerMetrics computes the per-layer metrics of the traced phase and
// runs the trace's own checks: spans must nest so that, per request, the
// layers' self times sum to the round trip.
func (s *stack) layerMetrics(out map[string]float64, plain, traced []reqRec, before, after ledgers) error {
	tr := s.tr
	// The stream span is the door's reported stream latency, starting
	// where the request's decode ended. The door reports only the last
	// submission's latency, so for a request it retried the span runs on
	// to the end of the last backend outcome, and the door's backoff
	// counts as stream time.
	decodeEnd := map[int]int64{}
	for _, sp := range tr.snapshot("front.decode") {
		decodeEnd[sp.Req] = sp.End
	}
	backendEnd := map[int]int64{}
	for _, sp := range tr.snapshot("manager") {
		backendEnd[sp.Req] = max(backendEnd[sp.Req], sp.End)
	}
	roots := map[int]int{}
	for _, sp := range tr.snapshot("front") {
		roots[sp.Req] = sp.ID
	}
	for i := range traced {
		r := &traced[i]
		end, ok := decodeEnd[r.idx]
		if r.err != nil || r.status != http.StatusOK || !ok {
			continue
		}
		stop := max(end+r.resp.LatencyNs, backendEnd[r.idx])
		tr.add("stream", r.idx, roots[r.idx], tr.epoch.Add(time.Duration(end)), tr.epoch.Add(time.Duration(stop)))
	}
	tr.link(map[string]string{"front.decode": "front", "manager": "stream"})
	selfs := tr.selfTimes("front")
	worst, err := maxSelfSumErr(selfs, selfSumTol)
	if err != nil {
		return checkFailed("%v", err)
	}
	out["trace.self_sum_err_max"] = worst
	out["trace.overhead_ratio"] = ratio(median(latenciesMs(traced)), median(latenciesMs(plain)))

	late := make([]float64, 0, len(traced))
	for i := range traced {
		if !traced[i].sent.IsZero() {
			late = append(late, ms(traced[i].sent.Sub(traced[i].due)))
		}
	}
	out["gen.late_ms_p99"] = quantile(late, 0.99)
	out["gen.late_ms_max"] = maxOf(late)

	n := float64(len(traced))
	out["front.self_ms_p50"] = median(layerSelfMs(selfs, "front"))
	decode := tr.durationsMs("front.decode")
	for i := range decode {
		decode[i] *= 1000
	}
	out["front.decode_us_p50"] = median(decode)
	out["front.retries_per_req"] = float64(after.door.Retries-before.door.Retries) / n
	out["front.busy"] = float64(after.door.Busy - before.door.Busy)
	out["front.rejected"] = float64(after.door.Rejected - before.door.Rejected)
	out["front.timeout"] = float64(after.door.Timeout - before.door.Timeout)

	streamSelf := layerSelfMs(selfs, "stream")
	out["stream.self_ms_p50"] = quantile(streamSelf, 0.50)
	out["stream.self_ms_p99"] = quantile(streamSelf, 0.99)
	out["stream.shed_ratio"] = ratio(float64(after.stream.Shed()-before.stream.Shed()),
		float64(after.stream.Submitted-before.stream.Submitted))
	out["stream.dlq_recovered"] = float64(after.stream.Recovered - before.stream.Recovered)
	out["stream.dlq_expired"] = float64(after.stream.Expired - before.stream.Expired)
	out["stream.breaker_opens"] = float64(after.stream.BreakerOpens - before.stream.BreakerOpens)

	svc := tr.durationsMs("manager")
	out["manager.service_ms_p50"] = quantile(svc, 0.50)
	out["manager.service_ms_p99"] = quantile(svc, 0.99)
	s.mu.Lock()
	outcomes := s.outcomes
	replays := s.replays
	s.mu.Unlock()
	var wait, mapT, repair, commit []float64
	attempts := 0
	for _, o := range outcomes {
		wait = append(wait, ms(o.wait))
		commit = append(commit, ms(o.commit))
		if o.mapT > 0 {
			mapT = append(mapT, ms(o.mapT))
		}
		if o.repair > 0 {
			repair = append(repair, ms(o.repair))
		}
		attempts += o.attempts
	}
	out["manager.queue_wait_ms_p50"] = quantile(wait, 0.50)
	out["manager.queue_wait_ms_p99"] = quantile(wait, 0.99)
	out["manager.map_ms_p50"] = median(mapT)
	out["manager.repair_ms_p50"] = median(repair)
	out["manager.commit_ms_p50"] = median(commit)
	out["manager.attempts_per_req"] = ratio(float64(attempts), float64(len(outcomes)))
	admits := float64(after.mgr.Admitted - before.mgr.Admitted)
	out["manager.template_hit_ratio"] = ratio(float64(after.mgr.TemplateHits-before.mgr.TemplateHits), admits)
	out["manager.conflicts_per_admit"] = ratio(float64(after.mgr.Conflicts-before.mgr.Conflicts), admits)
	out["manager.full_remaps_per_admit"] = ratio(float64(after.mgr.FullRemaps-before.mgr.FullRemaps), admits)
	out["manager.preemptions"] = float64(after.mgr.Preemptions - before.mgr.Preemptions)
	out["arch.snapshots_per_admit"] = ratio(float64(after.mgr.Snapshots-before.mgr.Snapshots), admits)
	out["arch.cow_faults_per_admit"] = ratio(float64(after.mgr.CoWFaults-before.mgr.CoWFaults), admits)

	out["core.map_ms_p50"] = median(tr.durationsMs("core"))
	var replayMs []float64
	var replaySum, mapSum float64
	refine := 0
	for _, r := range replays {
		d, err := replayStep4(r.app, r.res)
		if err != nil {
			return err
		}
		replayMs = append(replayMs, d)
		replaySum += d
		mapSum += ms(r.mapT)
		refine += r.res.Refinements
	}
	out["core.refinements_per_map"] = ratio(float64(refine), float64(len(replays)))
	out["csdf.buffer_sizing_ms_p50"] = median(replayMs)
	out["csdf.step4_share"] = ratio(replaySum, mapSum)

	if s.jio != nil {
		out["journal.bytes_per_admit"] = ratio(float64(after.jBytes-before.jBytes), admits)
		out["journal.writes_per_admit"] = ratio(float64(after.jWrites-before.jWrites), admits)
		s.jio.mu.Lock()
		out["journal.write_us_p50"] = median(s.jio.writeUs)
		s.jio.mu.Unlock()
		out["journal.fsyncs"] = float64(after.jSyncs - before.jSyncs)
	}
	return nil
}
