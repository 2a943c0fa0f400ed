package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"rtsm/internal/arch"
	"rtsm/internal/churn"
	"rtsm/internal/core"
	"rtsm/internal/front"
	"rtsm/internal/journal"
	"rtsm/internal/manager"
	"rtsm/internal/model"
	"rtsm/internal/stream"
	"rtsm/internal/workload"
)

// Options configures a chaos run. The shape mirrors stream.SoakOptions
// — same synthetic mesh, same churn catalogue — but arrivals travel
// over real HTTP through a front.Door, and the script can kill the
// incarnation mid-run.
type Options struct {
	// Arrivals is the total HTTP admission requests across all
	// incarnations (default 2000).
	Arrivals int
	// Mesh, RegionSize and Seed shape the synthetic platform (defaults
	// 8, 3, 1).
	Mesh       int
	RegionSize int
	Seed       int64
	// Workers and Queue size the backend pipeline (defaults 4, 64).
	Workers int
	Queue   int
	// Catalogue, MaxUtil, PeriodNs and PrioMix shape the arrivals as in
	// internal/churn.
	Catalogue int
	MaxUtil   float64
	PeriodNs  int64
	PrioMix   string
	// Resident caps concurrently running admissions; the collector stops
	// the oldest beyond it (default 4× Workers).
	Resident int
	// Clients is the HTTP submission concurrency within a script segment
	// (default 4). Steps are barriers regardless.
	Clients int
	// Server tunes the stream stages (Backend is overridden).
	Server stream.Options
	// RequestTimeout and Retries tune the door (front.Options defaults
	// apply when zero).
	RequestTimeout time.Duration
	Retries        int
	// JournalPath roots the durable journal segments; required when the
	// script contains crash steps, optional otherwise.
	JournalPath string
	// SyncEvery is the journal's periodic-fsync policy.
	SyncEvery int
}

func (o Options) withDefaults() Options {
	if o.Arrivals <= 0 {
		o.Arrivals = 2000
	}
	if o.Mesh <= 0 {
		o.Mesh = 8
	}
	if o.RegionSize == 0 {
		o.RegionSize = 3
	}
	if o.RegionSize < 0 {
		o.RegionSize = 0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers < 1 {
		o.Workers = 4
	}
	if o.Queue < 1 {
		o.Queue = 64
	}
	if o.Catalogue < 1 {
		o.Catalogue = 6
	}
	if o.MaxUtil <= 0 {
		o.MaxUtil = 0.12
	}
	if o.PeriodNs <= 0 {
		o.PeriodNs = 40_000
	}
	if o.Resident <= 0 {
		o.Resident = 4 * o.Workers
	}
	if o.Clients < 1 {
		o.Clients = 4
	}
	return o
}

// Report is a chaos run's aggregate accounting across incarnations.
type Report struct {
	// Arrivals is the HTTP requests actually issued; Incarnations is
	// 1 + the number of crash steps executed.
	Arrivals     int
	Incarnations int
	// Drains, Crashes and Spikes count executed steps; FaultsInjected
	// and Restores count fault-step resource flips that took effect.
	Drains, Crashes, Spikes  int
	FaultsInjected, Restores int
	// Stream is the aggregate ledger: every incarnation's shutdown
	// report summed. The exactly-one-outcome identity is linear, so
	// LedgerOK on the sum checks the whole run.
	Stream stream.Report
	// Door is the aggregate HTTP accounting across incarnations.
	Door front.Stats
	// ReplayChecks counts crash recoveries whose replayed platform was
	// bit-identical to the pre-crash sealed checkpoint; TornDiscarded
	// sums the unsealed events recovery truncated.
	ReplayChecks  int
	TornDiscarded int
	// CriticalShed is the aggregate Critical-class shed count — the
	// harness's protected invariant, 0 on a healthy run.
	CriticalShed uint64
	// LedgerOK is the aggregate exactly-one-outcome identity.
	LedgerOK bool
}

// incarnation is one server lifetime: backend, spike wrapper, stream
// server, door and collector, torn down as a unit on drain or crash.
type incarnation struct {
	backend   stream.Backend
	spike     *spikeBackend
	srv       *stream.Server
	door      *front.Door
	collector chan struct{}
}

// runner carries the state that survives incarnations.
type runner struct {
	o        Options
	co       churn.Options
	pristine *arch.Platform // never-mutated twin for crash replays
	epRegs   int

	m    *manager.Manager
	jw   *journal.Writer
	jf   *os.File
	segs int // journal segments so far (for NextSegmentPath)

	mu        sync.Mutex
	residents []string // collector's recycle queue, survives rebuilds

	rep Report
}

// Run executes a script against a fresh mesh and returns the aggregate
// report. An error means the run could not execute (bad script, journal
// IO, HTTP transport failure) — invariant violations are reported in
// Report, not as errors, so callers can print the full accounting.
func Run(script Script, o Options) (Report, error) {
	o = o.withDefaults()
	for _, st := range script.Steps {
		if st.At > o.Arrivals {
			return Report{}, fmt.Errorf("chaos: step @%d beyond the %d-arrival run", st.At, o.Arrivals)
		}
	}
	if script.Crashes() > 0 && o.JournalPath == "" {
		return Report{}, fmt.Errorf("chaos: crash steps need -journal (JournalPath)")
	}

	plat := workload.SyntheticRegionPlatform(o.Mesh, o.Mesh, o.Seed, o.RegionSize)
	r := &runner{
		o:        o,
		pristine: plat.Clone(),
		epRegs:   1,
		co: churn.Options{
			Catalogue: o.Catalogue, MaxUtil: o.MaxUtil,
			PeriodNs: o.PeriodNs, PrioMix: o.PrioMix,
		},
	}
	if o.RegionSize > 0 {
		r.epRegs = plat.RegionCount()
	}
	if o.JournalPath != "" {
		f, err := os.Create(o.JournalPath)
		if err != nil {
			return Report{}, fmt.Errorf("chaos: journal: %w", err)
		}
		r.jf = f
		r.jw = journal.NewWriter(f, journal.Options{Syncer: f, SyncEvery: o.SyncEvery})
		r.segs = 1
	}
	r.m = manager.New(plat, core.Config{})
	r.m.SetMappingReuse(true)
	r.m.SetRepair(true)
	if r.jw != nil {
		r.m.SetJournal(r.jw)
	}
	r.rep.Incarnations = 1

	inc, err := r.boot()
	if err != nil {
		return r.rep, err
	}

	next := 0
	steps := append([]Step(nil), script.Steps...)
	for len(steps) > 0 {
		st := steps[0]
		steps = steps[1:]
		if err := r.submitRange(inc, next, st.At); err != nil {
			return r.rep, err
		}
		next = maxInt(next, st.At)
		if inc, err = r.execute(inc, st); err != nil {
			return r.rep, err
		}
	}
	if err := r.submitRange(inc, next, o.Arrivals); err != nil {
		return r.rep, err
	}

	r.teardown(inc)
	if r.jw != nil {
		if err := r.jw.Close(); err != nil {
			return r.rep, fmt.Errorf("chaos: journal: %w", err)
		}
		if err := r.jf.Close(); err != nil {
			return r.rep, fmt.Errorf("chaos: journal: %w", err)
		}
	}
	r.rep.CriticalShed = r.rep.Stream.ShedByClass[model.Critical]
	r.rep.LedgerOK = r.rep.Stream.LedgerOK()
	return r.rep, nil
}

// boot builds one incarnation over the current manager: pipeline,
// spike wrapper, stream server, door and collector.
func (r *runner) boot() (*incarnation, error) {
	pipe := manager.NewPipeline(r.m, r.o.Workers, r.o.Queue)
	spike := &spikeBackend{Backend: stream.NewPipelineBackend(r.m, pipe)}
	sopts := r.o.Server
	sopts.Backend = spike
	srv, err := stream.New(sopts)
	if err != nil {
		return nil, err
	}
	door, err := front.Listen(front.Options{
		Server:         srv,
		Decode:         r.decoder(),
		RequestTimeout: r.o.RequestTimeout,
		Retries:        r.o.Retries,
		Seed:           r.o.Seed,
	})
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	inc := &incarnation{backend: spike.Backend, spike: spike, srv: srv, door: door, collector: make(chan struct{})}
	go r.collect(inc)
	return inc, nil
}

// collect recycles residents beyond the cap, exactly as the soak
// collector does, but against a queue that survives rebuilds.
func (r *runner) collect(inc *incarnation) {
	defer close(inc.collector)
	for res := range inc.srv.Results() {
		if res.Verdict != stream.VerdictAdmitted {
			continue
		}
		r.mu.Lock()
		r.residents = append(r.residents, res.App)
		var stopName string
		if len(r.residents) > r.o.Resident {
			stopName = r.residents[0]
			r.residents = r.residents[1:]
		}
		r.mu.Unlock()
		if stopName == "" {
			continue
		}
		err := inc.backend.Stop(stopName)
		if errors.Is(err, manager.ErrRelocating) {
			r.mu.Lock()
			r.residents = append(r.residents, stopName) // retry later
			r.mu.Unlock()
		}
	}
}

// decoder maps {"index": n} bodies to the deterministic churn arrival
// with that index.
func (r *runner) decoder() front.Decoder {
	return func(req *http.Request) (*model.Application, *model.Library, error) {
		var body struct {
			Index int `json:"index"`
		}
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
			return nil, nil, fmt.Errorf("bad body: %w", err)
		}
		if body.Index < 0 {
			return nil, nil, fmt.Errorf("negative index %d", body.Index)
		}
		app, lib := r.co.Arrival(body.Index, r.epRegs)
		return app, lib, nil
	}
}

// submitRange issues arrivals [lo, hi) over HTTP with Clients-way
// concurrency, returning once every response has arrived (the step
// barrier).
func (r *runner) submitRange(inc *incarnation, lo, hi int) error {
	if hi <= lo {
		return nil
	}
	client := &http.Client{}
	url := "http://" + inc.door.Addr() + "/admit"
	idx := make(chan int)
	errc := make(chan error, r.o.Clients)
	var wg sync.WaitGroup
	for w := 0; w < r.o.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				body, _ := json.Marshal(struct {
					Index int `json:"index"`
				}{i})
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					select {
					case errc <- fmt.Errorf("chaos: POST /admit %d: %w", i, err):
					default:
					}
					continue
				}
				resp.Body.Close()
			}
		}()
	}
	for i := lo; i < hi; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	r.rep.Arrivals += hi - lo
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// execute runs one step, possibly replacing the incarnation.
func (r *runner) execute(inc *incarnation, st Step) (*incarnation, error) {
	switch st.Op {
	case OpFailTile, OpRestoreTile:
		tiles := procTiles(r.m.Platform())
		if len(tiles) == 0 {
			return inc, fmt.Errorf("chaos: no processing tiles to fail")
		}
		id := tiles[st.N%len(tiles)]
		if st.Op == OpFailTile {
			if rep := r.m.FailTile(id); rep.Failed {
				r.rep.FaultsInjected++
			}
		} else if r.m.RestoreTile(id) {
			r.rep.Restores++
		}
	case OpFailLink, OpRestoreLink:
		links := r.m.Platform().Links
		if len(links) == 0 {
			return inc, fmt.Errorf("chaos: no links to fail")
		}
		id := links[st.N%len(links)].ID
		if st.Op == OpFailLink {
			if rep := r.m.FailLink(id); rep.Failed {
				r.rep.FaultsInjected++
			}
		} else if r.m.RestoreLink(id) {
			r.rep.Restores++
		}
	case OpSpike:
		inc.spike.arm(st.Dur, st.N)
		r.rep.Spikes++
	case OpDrain:
		r.teardown(inc)
		r.rep.Drains++
		return r.boot()
	case OpCrash:
		return r.crash(inc)
	}
	return inc, nil
}

// teardown drains one incarnation gracefully — door first (readiness
// flips, in-flight HTTP finishes), then the stream server — and folds
// its ledger into the aggregate.
func (r *runner) teardown(inc *incarnation) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = inc.door.Drain(ctx)
	rep := inc.srv.Shutdown()
	<-inc.collector
	addReport(&r.rep.Stream, rep)
	addStats(&r.rep.Door, inc.door.Stats())
}

// crash is the kill -9 simulation: quiesce, seal a durable checkpoint,
// commit torn work past the seal, discard the live state, recover from
// the journal and verify the replay bit-for-bit, then serve the rest of
// the run from the recovered manager.
func (r *runner) crash(inc *incarnation) (*incarnation, error) {
	// Quiesce: the door and server drain so no pipeline work races the
	// checkpoint. This models the load balancer pulling the instance
	// before the machine dies; the torn phase below is the work that
	// slipped in after the last seal.
	r.teardown(inc)
	r.rep.Crashes++

	// Seal the durable checkpoint and capture it bit-for-bit.
	r.jw.Flush()
	if err := r.jw.Err(); err != nil {
		return nil, fmt.Errorf("chaos: journal at crash: %w", err)
	}
	sealed := r.m.Platform().Clone()
	sealedNames := runningNames(r.m)

	// Torn phase: admissions committed and synced but never sealed —
	// exactly what a crash strands past the last seal.
	torn := 0
	for i := 0; i < 20 && torn < 3; i++ {
		// Churn arrivals from an index range no HTTP arrival uses, so the
		// torn residents' names never collide with recovered ones.
		app, lib := r.co.Arrival(r.o.Arrivals+r.rep.Crashes*100+i, r.epRegs)
		app.Name = fmt.Sprintf("torn-%d-%s", r.rep.Crashes, app.Name)
		if out := r.m.Admit(app, lib); out.Admitted {
			torn++
		}
	}
	r.jw.Sync()
	if err := r.jw.Err(); err != nil {
		return nil, fmt.Errorf("chaos: journal at crash: %w", err)
	}
	// The crash: the writer is abandoned (never Closed — no final seal)
	// and every live structure is dropped. Only the files survive.
	if err := r.jf.Close(); err != nil {
		return nil, fmt.Errorf("chaos: journal at crash: %w", err)
	}
	r.jw, r.jf, r.m = nil, nil, nil

	// Recovery: truncate the torn tail, verify the chain, replay into a
	// pristine platform and check it equals the sealed checkpoint.
	paths := journal.SegmentPaths(r.o.JournalPath)
	rec, err := journal.RecoverFiles(paths...)
	if err != nil {
		return nil, fmt.Errorf("chaos: recover: %w", err)
	}
	r.rep.TornDiscarded += torn
	replayBase := r.pristine.Clone()
	rm, err := manager.ReplayEvents(replayBase, core.Config{}, rec.Events)
	if err != nil {
		return nil, fmt.Errorf("chaos: replay: %w", err)
	}
	if err := arch.PlatformsIdentical(sealed, replayBase); err != nil {
		return nil, fmt.Errorf("chaos: replayed platform differs from sealed checkpoint: %w", err)
	}
	got, want := runningNames(rm), sealedNames
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return nil, fmt.Errorf("chaos: replayed resident set differs:\n got %v\nwant %v", got, want)
	}
	if err := rm.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("chaos: replayed manager invariants: %w", err)
	}
	r.rep.ReplayChecks++

	// Restart: resume journaling in a fresh segment continuing the
	// verified chain, and serve from the recovered manager.
	next := journal.NextSegmentPath(r.o.JournalPath, r.segs)
	f, err := os.Create(next)
	if err != nil {
		return nil, fmt.Errorf("chaos: restart journal: %w", err)
	}
	jw, err := journal.NewResumedWriter(f, rec.Chain, rec.Seq, journal.Options{Syncer: f, SyncEvery: r.o.SyncEvery})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("chaos: restart journal: %w", err)
	}
	r.jf, r.jw, r.segs = f, jw, r.segs+1
	rm.SetMappingReuse(true)
	rm.SetRepair(true)
	rm.SetJournal(jw)
	r.m = rm
	r.mu.Lock()
	r.residents = runningNames(rm) // the recovered resident set is the recycle queue now
	r.mu.Unlock()
	r.rep.Incarnations++
	return r.boot()
}

// spikeBackend wraps a stream.Backend and injects latency into the next
// armed number of outcome waits — a deterministic stand-in for a mesh
// whose mapping rounds suddenly slowed down. Only Submit and TrySubmit
// are overridden; the rest passes straight through.
type spikeBackend struct {
	stream.Backend
	mu    sync.Mutex
	delay time.Duration
	left  int
}

func (b *spikeBackend) arm(d time.Duration, n int) {
	b.mu.Lock()
	b.delay, b.left = d, n
	b.mu.Unlock()
}

func (b *spikeBackend) take() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.left <= 0 {
		return 0
	}
	b.left--
	return b.delay
}

func (b *spikeBackend) wrap(wait func() manager.Outcome) func() manager.Outcome {
	d := b.take()
	if d <= 0 {
		return wait
	}
	return func() manager.Outcome {
		out := wait()
		time.Sleep(d)
		return out
	}
}

// Submit implements stream.Backend.
func (b *spikeBackend) Submit(app *model.Application, lib *model.Library) (func() manager.Outcome, error) {
	wait, err := b.Backend.Submit(app, lib)
	if err != nil {
		return nil, err
	}
	return b.wrap(wait), nil
}

// TrySubmit implements stream.Backend.
func (b *spikeBackend) TrySubmit(app *model.Application, lib *model.Library) (func() manager.Outcome, bool) {
	wait, ok := b.Backend.TrySubmit(app, lib)
	if !ok {
		return nil, false
	}
	return b.wrap(wait), true
}

// procTiles lists the failable processing tiles (endpoints anchor the
// workload and are never failed).
func procTiles(plat *arch.Platform) []arch.TileID {
	var ids []arch.TileID
	for _, t := range plat.Tiles {
		switch t.Type {
		case arch.TypeSource, arch.TypeSink, arch.TypeNone:
			continue
		}
		ids = append(ids, t.ID)
	}
	return ids
}

// runningNames is the manager's resident set, sorted.
func runningNames(m *manager.Manager) []string {
	var names []string
	for _, ad := range m.Running() {
		names = append(names, ad.App.Name)
	}
	sort.Strings(names)
	return names
}

// addReport folds one incarnation's ledger into the aggregate. Counter
// fields sum; point-in-time fields (breaker state, DLQ depth, admit
// rate, window) keep the latest incarnation's values.
func addReport(dst *stream.Report, r stream.Report) {
	dst.Submitted += r.Submitted
	dst.Admitted += r.Admitted
	dst.Recovered += r.Recovered
	dst.Rejected += r.Rejected
	dst.Expired += r.Expired
	for c := range dst.ShedByClass {
		dst.ShedByClass[c] += r.ShedByClass[c]
		dst.RecoveredByClass[c] += r.RecoveredByClass[c]
		dst.ExpiredByClass[c] += r.ExpiredByClass[c]
	}
	dst.ShedBuffer += r.ShedBuffer
	dst.ShedBreaker += r.ShedBreaker
	dst.ShedQueue += r.ShedQueue
	dst.ShedDeadline += r.ShedDeadline
	dst.BreakerOpens += r.BreakerOpens
	dst.RateCuts += r.RateCuts
	dst.RateRaises += r.RateRaises
	dst.BreakerState = r.BreakerState
	dst.DLQDepth = r.DLQDepth
	dst.DLQDepthByClass = r.DLQDepthByClass
	dst.AdmitRate = r.AdmitRate
	dst.Window = r.Window
	dst.Service = r.Service
}

// addStats folds one incarnation's door accounting into the aggregate.
func addStats(dst *front.Stats, s front.Stats) {
	dst.Requests += s.Requests
	dst.Admitted += s.Admitted
	dst.Busy += s.Busy
	dst.Rejected += s.Rejected
	dst.Timeout += s.Timeout
	dst.BadRequest += s.BadRequest
	dst.Retries += s.Retries
	dst.Draining += s.Draining
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
