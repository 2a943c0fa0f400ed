// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) plus the extended benchmark suite its conclusions call
// for (§5). Each experiment returns a human-readable report;
// cmd/experiments prints them and the repository-root benchmarks time
// them. The experiment IDs (E1–E12) and their measured outcomes are
// recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"rtsm/internal/arch"
	"rtsm/internal/baseline"
	"rtsm/internal/core"
	"rtsm/internal/energy"
	"rtsm/internal/gap"
	"rtsm/internal/manager"
	"rtsm/internal/model"
	"rtsm/internal/sim"
	"rtsm/internal/workload"
)

// DefaultMode is the HIPERLAN/2 mode the worked example runs in when the
// paper does not pin one (the b-dependent rows of Table 1 are shown for
// all modes by Table1).
var DefaultMode = workload.Hiperlan2Modes[3] // QPSK3/4

// MapHiperlan2 runs the paper's worked example once and returns the
// result; every figure/table experiment builds on it.
func MapHiperlan2(mode workload.Hiperlan2Mode, cfg core.Config) (*core.Result, error) {
	app := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)
	plat := workload.Hiperlan2Platform()
	m := &core.Mapper{Lib: lib, Cfg: cfg}
	return m.Map(app, plat)
}

// Fig1 renders the HIPERLAN/2 receiver KPN of the paper's Figure 1.
func Fig1() string {
	app := workload.Hiperlan2(DefaultMode)
	var b strings.Builder
	fmt.Fprintf(&b, "E1 / Figure 1 — decomposition of a HIPERLAN/2 receiver (%s)\n\n", DefaultMode.Name)
	for _, c := range app.Channels {
		src := app.Process(c.Src).Name
		dst := app.Process(c.Dst).Name
		note := ""
		if app.Process(c.Src).Control || app.Process(c.Dst).Control {
			note = "   (control, outside the data stream)"
		}
		fmt.Fprintf(&b, "  %-10s --%3d--> %-10s%s\n", src, c.TokensPerPeriod, dst, note)
	}
	fmt.Fprintf(&b, "\n  one OFDM symbol every %d ns; b = %d for %s\n",
		app.QoS.PeriodNs, DefaultMode.DemapBits, DefaultMode.Name)
	return b.String()
}

// Table1 renders the implementation catalogue of the paper's Table 1.
func Table1(mode workload.Hiperlan2Mode) string {
	lib := workload.Hiperlan2Library(mode)
	var b strings.Builder
	fmt.Fprintf(&b, "E2 / Table 1 — available implementations (mode %s, b=%d)\n\n", mode.Name, mode.DemapBits)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Process\tPE type\tInput\tOutput\tWCET [cc]\tAvg. energy [nJ/symbol]")
	for _, pname := range []string{"Pfx.rem.", "Frq.off.", "Inv.OFDM", "Rem."} {
		for _, im := range lib.For(pname) {
			in := "-"
			if pat, ok := im.In["in"]; ok {
				in = pat.String()
			}
			out := "-"
			if pat, ok := im.Out["out"]; ok {
				out = pat.String()
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%.0f\n",
				pname, im.TileType, in, out, im.WCET.String(), im.EnergyPerPeriod)
		}
	}
	w.Flush()
	return b.String()
}

// Fig2 renders the MPSoC floor plan of the paper's Figure 2.
func Fig2() string {
	plat := workload.Hiperlan2Platform()
	var b strings.Builder
	b.WriteString("E3 / Figure 2 — MPSOC layout (3×3 mesh, tile placement chosen to\nreproduce Table 2 exactly; see EXPERIMENTS.md)\n\n")
	b.WriteString(plat.String())
	return b.String()
}

// Table2 reruns the mapper and renders the step-2 iteration trace in the
// layout of the paper's Table 2.
func Table2() (string, *core.Result, error) {
	res, err := MapHiperlan2(DefaultMode, core.Config{})
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	b.WriteString("E4 / Table 2 — processor assignment iterations in step 2\n")
	b.WriteString("(rows beyond the third are the trailing evaluations the paper\nsummarises as \"No further choices\")\n\n")
	b.WriteString(res.Trace.RenderStep2Table([]string{"ARM1", "ARM2", "MONTIUM1", "MONTIUM2"}))
	return b.String(), res, nil
}

// Fig3 renders the final mapped CSDF graph of the paper's Figure 3,
// including the computed buffer capacities B_i.
func Fig3() (string, *core.Result, error) {
	res, err := MapHiperlan2(DefaultMode, core.Config{})
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	b.WriteString("E5 / Figure 3 — final CSDF graph of the mapped receiver\n\n")
	b.WriteString(res.Graph.String())
	b.WriteString("\nStream buffers B_i (tokens), charged to the consuming tile:\n")
	app := res.Mapping.App
	for _, c := range app.StreamChannels() {
		fmt.Fprintf(&b, "  B(%s) = %d\n", c.Name, res.Mapping.Buffers[c.ID])
	}
	fmt.Fprintf(&b, "\nVerified: period %.0f ns (required %d), latency %d ns, feasible=%v\n",
		res.Analysis.Period, app.QoS.PeriodNs, res.Analysis.Latency, res.Feasible)
	return b.String(), res, nil
}

// RuntimeReport holds the E6 measurements, the counterpart of the paper's
// §4.5 implementation metrics (<4 ms on a 100 MHz ARM926, 110 kB peak
// data memory, 137 kB code).
type RuntimeReport struct {
	Iterations int
	MeanPerMap time.Duration
	MinPerMap  time.Duration
	MaxPerMap  time.Duration
}

// MapperRuntime times repeated full mapping runs of the worked example.
func MapperRuntime(iterations int) (*RuntimeReport, error) {
	if iterations <= 0 {
		iterations = 100
	}
	app := workload.Hiperlan2(DefaultMode)
	lib := workload.Hiperlan2Library(DefaultMode)
	plat := workload.Hiperlan2Platform()
	m := core.NewMapper(lib)
	rep := &RuntimeReport{Iterations: iterations, MinPerMap: time.Hour}
	var total time.Duration
	for i := 0; i < iterations; i++ {
		start := time.Now()
		res, err := m.Map(app, plat)
		el := time.Since(start)
		if err != nil {
			return nil, err
		}
		if !res.Feasible {
			return nil, fmt.Errorf("experiments: E6 run %d infeasible", i)
		}
		total += el
		if el < rep.MinPerMap {
			rep.MinPerMap = el
		}
		if el > rep.MaxPerMap {
			rep.MaxPerMap = el
		}
	}
	rep.MeanPerMap = total / time.Duration(iterations)
	return rep, nil
}

func (r *RuntimeReport) String() string {
	return fmt.Sprintf(`E6 / §4.5 — mapper cost for the HIPERLAN/2 example
  this implementation (host CPU):  mean %v, min %v, max %v over %d runs
  paper (ARM926 @ 100 MHz):        < 4 ms
  shape check: both are a small constant cost at application start.`,
		r.MeanPerMap, r.MinPerMap, r.MaxPerMap, r.Iterations)
}

// ModeRow is one row of the E7 run-time vs design-time comparison.
type ModeRow struct {
	Mode       string
	RunTime    float64 // nJ/symbol, run-time mapping for the actual mode
	DesignTime float64 // nJ/symbol, frozen worst-case mapping
	SavingPct  float64
}

// RuntimeVsDesignTime quantifies the introduction's motivating claims for
// run-time mapping in three parts: (a) per-mode energy against the frozen
// worst-case mapping on an empty platform, (b) behaviour when another
// application already occupies a tile the frozen mapping assumed free, and
// (c) the resources a worst-case configuration holds reserved compared to
// what the actual mode needs.
func RuntimeVsDesignTime() ([]ModeRow, string, error) {
	worstMode := workload.Hiperlan2Modes[len(workload.Hiperlan2Modes)-1]
	worstApp := workload.Hiperlan2(worstMode)
	worstLib := workload.Hiperlan2Library(worstMode)
	var rows []ModeRow
	for _, mode := range workload.Hiperlan2Modes {
		plat := workload.Hiperlan2Platform()
		app := workload.Hiperlan2(mode)
		lib := workload.Hiperlan2Library(mode)
		dynamic, err := core.NewMapper(lib).Map(app, plat)
		if err != nil {
			return nil, "", fmt.Errorf("E7 %s: %w", mode.Name, err)
		}
		static, err := baseline.DesignTime(worstLib, lib, core.Config{}, worstApp, app, plat, plat)
		if err != nil {
			return nil, "", fmt.Errorf("E7 %s design-time: %w", mode.Name, err)
		}
		row := ModeRow{
			Mode:       mode.Name,
			RunTime:    dynamic.Energy.Total(),
			DesignTime: static.Energy.Total(),
		}
		if row.DesignTime > 0 {
			row.SavingPct = 100 * (row.DesignTime - row.RunTime) / row.DesignTime
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	b.WriteString("E7 — run-time mapping vs frozen design-time worst-case mapping\n\n")
	b.WriteString("(a) energy per mode on an empty platform\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Mode\tRun-time [nJ/sym]\tDesign-time [nJ/sym]\tSaving")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f%%\n", r.Mode, r.RunTime, r.DesignTime, r.SavingPct)
	}
	w.Flush()
	b.WriteString("    (parity is the honest result here: on an empty Figure-2 platform\n")
	b.WriteString("    the worst-case placement already coincides with the optimum)\n")

	// (b) Occupancy: a resident kernel holds MONTIUM1. The frozen
	// placement collides; the run-time mapper uses the spare MONTIUM3 a
	// slightly larger platform provides.
	occupied := hiperlan2PlatformWithSpareMontium()
	m1 := occupied.TileByName("MONTIUM1")
	m1.Occupants = 1
	m1.ReservedUtil = 0.5
	mode := workload.Hiperlan2Modes[2]
	app := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)
	b.WriteString("\n(b) MONTIUM1 occupied by a resident application (platform extended\n")
	b.WriteString("    with a spare MONTIUM3):\n")
	if _, err := baseline.DesignTime(worstLib, lib, core.Config{}, worstApp, app,
		hiperlan2PlatformWithSpareMontium(), occupied); err != nil {
		fmt.Fprintf(&b, "    design-time frozen mapping: REJECTED (%v)\n", err)
	} else {
		b.WriteString("    design-time frozen mapping: admitted (unexpected)\n")
	}
	if dyn, err := core.NewMapper(lib).Map(app, occupied); err == nil && dyn.Feasible {
		fmt.Fprintf(&b, "    run-time mapping:           admitted at %.1f nJ/symbol\n", dyn.Energy.Total())
	} else {
		fmt.Fprintf(&b, "    run-time mapping:           infeasible (%v)\n", err)
	}

	// (c) Reservation waste: what a worst-case (QAM64) configuration
	// holds versus what BPSK1/2 actually needs.
	worstRes, err := MapHiperlan2(worstMode, core.Config{})
	if err != nil {
		return nil, "", err
	}
	actualRes, err := MapHiperlan2(workload.Hiperlan2Modes[0], core.Config{})
	if err != nil {
		return nil, "", err
	}
	wBps, wBuf := reservedResources(worstRes)
	aBps, aBuf := reservedResources(actualRes)
	b.WriteString("\n(c) resources held reserved, worst-case configuration vs actual mode\n")
	fmt.Fprintf(&b, "    NoC lane bandwidth: %d MB/s (QAM64 sizing) vs %d MB/s (BPSK1/2 actual)\n",
		wBps/1_000_000, aBps/1_000_000)
	fmt.Fprintf(&b, "    stream buffer memory: %d B vs %d B\n", wBuf, aBuf)
	return rows, b.String(), nil
}

// hiperlan2PlatformWithSpareMontium is the Figure 2 platform plus a third
// Montium on a previously unlabelled tile, for the occupancy scenario.
func hiperlan2PlatformWithSpareMontium() *arch.Platform {
	p := workload.Hiperlan2Platform()
	p.AttachTile(arch.TileSpec{
		Name: "MONTIUM3", Type: arch.TypeMontium, At: arch.Pt(1, 0),
		ClockHz: 200_000_000, MemBytes: 16 << 10, NICapBps: 800_000_000,
		MaxOccupants: 1,
	})
	return p
}

// reservedResources sums the link bandwidth and stream buffer memory a
// mapping holds reserved on its working platform.
func reservedResources(res *core.Result) (bps int64, bufBytes int64) {
	for _, l := range res.Platform.Links {
		bps += l.ReservedBps
	}
	app := res.Mapping.App
	for _, c := range app.StreamChannels() {
		bufBytes += res.Mapping.Buffers[c.ID] * c.TokenBytes
	}
	return bps, bufBytes
}

// QualityRow is one instance of the E8 heuristic-vs-optimal comparison.
type QualityRow struct {
	Seed      int64
	Heuristic float64
	Optimal   float64
	GapPct    float64
}

// Quality compares the heuristic against the exact branch-and-bound
// optimum on small synthetic instances, pricing both with the identical
// Manhattan-estimate objective.
func Quality(instances int) ([]QualityRow, string, error) {
	if instances <= 0 {
		instances = 10
	}
	params := energy.DefaultParams()
	var rows []QualityRow
	for seed := int64(0); len(rows) < instances && seed < int64(4*instances); seed++ {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 5, Seed: seed})
		plat := workload.SyntheticPlatform(3, 3, seed)
		solver := &gap.Solver{Lib: lib, Params: params}
		opt, err := solver.Optimal(app, plat)
		if err != nil {
			// Some seeds draw, say, a Montium-only process onto a
			// Montium-poor platform: no adherent assignment exists for
			// anyone. Skip those; the comparison needs solvable
			// instances.
			continue
		}
		res, err := core.NewMapper(lib).Map(app, plat)
		if err != nil {
			return nil, "", fmt.Errorf("E8 seed %d heuristic: %w", seed, err)
		}
		h := solver.Evaluate(app, plat, res.Mapping.Impl, res.Mapping.Tile)
		row := QualityRow{Seed: seed, Heuristic: h, Optimal: opt.Energy}
		if opt.Energy > 0 {
			row.GapPct = 100 * (h - opt.Energy) / opt.Energy
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	b.WriteString("E8 — heuristic vs exact optimum (5-process chains, 3×3 platforms)\n\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Seed\tHeuristic [nJ]\tOptimal [nJ]\tGap")
	var sum, worst float64
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.1f%%\n", r.Seed, r.Heuristic, r.Optimal, r.GapPct)
		sum += r.GapPct
		if r.GapPct > worst {
			worst = r.GapPct
		}
	}
	w.Flush()
	fmt.Fprintf(&b, "\nmean gap %.1f%%, worst gap %.1f%% over %d instances\n",
		sum/float64(len(rows)), worst, len(rows))
	return rows, b.String(), nil
}

// ScalingRow is one point of the E9 scalability sweep.
type ScalingRow struct {
	Label     string
	Processes int
	Tiles     int
	MeanTime  time.Duration
	Feasible  bool
}

// Scaling measures mapper wall time against mesh size and process count,
// the run-time budget question behind the paper's "fast and simple
// methods" requirement (§1.3).
func Scaling() ([]ScalingRow, string, error) {
	var rows []ScalingRow
	run := func(label string, procs, w, h int, seed int64) error {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: procs, Seed: seed})
		plat := workload.SyntheticPlatform(w, h, seed)
		m := core.NewMapper(lib)
		const reps = 5
		var total time.Duration
		feasible := false
		for i := 0; i < reps; i++ {
			start := time.Now()
			res, err := m.Map(app, plat)
			total += time.Since(start)
			if err != nil {
				return fmt.Errorf("E9 %s: %w", label, err)
			}
			feasible = res.Feasible
		}
		rows = append(rows, ScalingRow{
			Label:     label,
			Processes: procs,
			Tiles:     len(plat.Tiles),
			MeanTime:  total / reps,
			Feasible:  feasible,
		})
		return nil
	}
	for _, mesh := range []int{3, 4, 6, 8, 10, 12} {
		if err := run(fmt.Sprintf("mesh %d×%d, 12 procs", mesh, mesh), 12, mesh, mesh, 77); err != nil {
			return nil, "", err
		}
	}
	for _, procs := range []int{4, 8, 16, 32, 64} {
		if err := run(fmt.Sprintf("6×6 mesh, %d procs", procs), procs, 6, 6, 78); err != nil {
			return nil, "", err
		}
	}
	var b strings.Builder
	b.WriteString("E9 — mapper wall time vs platform and application size\n\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Instance\tProcesses\tTiles\tMean time\tFeasible")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%v\t%v\n", r.Label, r.Processes, r.Tiles, r.MeanTime, r.Feasible)
	}
	w.Flush()
	return rows, b.String(), nil
}

// AblationRow is one configuration of the E10 design-choice study.
type AblationRow struct {
	Name        string
	Feasible    bool
	Energy      float64
	Step2Iter   int
	Refinements int
	// SynthEnergy and SynthFeasible aggregate the configuration over the
	// synthetic instance set (mean energy of feasible runs, count of
	// feasible runs).
	SynthEnergy   float64
	SynthFeasible int
	SynthTotal    int
}

// Ablation evaluates the mapper's design choices one at a time on the
// HIPERLAN/2 case plus the baselines, quantifying what each mechanism
// buys.
func Ablation() ([]AblationRow, string, error) {
	mode := DefaultMode
	app := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"paper default (desirability + first-improvement + sorted routing)", core.Config{}},
		{"best-improvement step 2", core.Config{Strategy: core.BestImprovement}},
		{"arbitrary step-1 order", core.Config{ArbitraryOrder: true}},
		{"no local search (greedy only)", core.Config{NoStep2: true}},
		{"unsorted channel routing", core.Config{UnsortedChannels: true}},
		{"XY routing", core.Config{Router: core.XYOnly}},
		{"traffic-weighted step-2 cost", core.Config{CommCost: core.TrafficWeighted}},
		{"no refinement loop", core.Config{NoRefinement: true}},
	}
	const synthSeeds = 8
	var rows []AblationRow
	for _, c := range configs {
		plat := workload.Hiperlan2Platform()
		m := &core.Mapper{Lib: lib, Cfg: c.cfg}
		res, err := m.Map(app, plat)
		if err != nil {
			return nil, "", fmt.Errorf("E10 %s: %w", c.name, err)
		}
		row := AblationRow{
			Name:        c.name,
			Feasible:    res.Feasible,
			Energy:      res.Energy.Total(),
			Step2Iter:   len(res.Trace.Step2),
			Refinements: res.Refinements,
		}
		// The HIPERLAN/2 instance is tiny; the synthetic aggregate is
		// where ordering and routing choices separate.
		for seed := int64(0); seed < synthSeeds; seed++ {
			sApp, sLib := workload.Synthetic(workload.SynthOptions{
				Shape: workload.ShapeLayered, Processes: 10, Seed: seed})
			sPlat := workload.SyntheticPlatform(4, 4, seed)
			sm := &core.Mapper{Lib: sLib, Cfg: c.cfg}
			sRes, err := sm.Map(sApp, sPlat)
			row.SynthTotal++
			if err != nil || !sRes.Feasible {
				continue
			}
			row.SynthFeasible++
			row.SynthEnergy += sRes.Energy.Total()
		}
		if row.SynthFeasible > 0 {
			row.SynthEnergy /= float64(row.SynthFeasible)
		}
		rows = append(rows, row)
	}
	// Baselines on the same instances.
	type baselineFn func(lib *model.Library, app *model.Application, plat *arch.Platform) (*core.Result, error)
	baselines := []struct {
		name string
		run  baselineFn
	}{
		{"baseline: bin packing + clustering [8]", func(lib *model.Library, app *model.Application, plat *arch.Platform) (*core.Result, error) {
			return baseline.BinPack(lib, core.Config{}, app, plat, 2)
		}},
		{"baseline: random adequate (seed 1)", func(lib *model.Library, app *model.Application, plat *arch.Platform) (*core.Result, error) {
			return baseline.Random(lib, core.Config{}, app, plat, 1)
		}},
	}
	for _, bl := range baselines {
		row := AblationRow{Name: bl.name}
		if res, err := bl.run(lib, app, workload.Hiperlan2Platform()); err == nil {
			row.Feasible = res.Feasible
			row.Energy = res.Energy.Total()
		}
		for seed := int64(0); seed < synthSeeds; seed++ {
			sApp, sLib := workload.Synthetic(workload.SynthOptions{
				Shape: workload.ShapeLayered, Processes: 10, Seed: seed})
			sPlat := workload.SyntheticPlatform(4, 4, seed)
			row.SynthTotal++
			res, err := bl.run(sLib, sApp, sPlat)
			if err != nil || !res.Feasible {
				continue
			}
			row.SynthFeasible++
			row.SynthEnergy += res.Energy.Total()
		}
		if row.SynthFeasible > 0 {
			row.SynthEnergy /= float64(row.SynthFeasible)
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "E10 — ablations and baselines (HIPERLAN/2 %s + %d layered synthetic instances)\n\n",
		mode.Name, rows[0].SynthTotal)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Configuration\tHL2 ok\tHL2 [nJ]\tRefine\tSynth ok\tSynth mean [nJ]")
	for _, r := range rows {
		synth := "-"
		if r.SynthTotal > 0 {
			synth = fmt.Sprintf("%d/%d", r.SynthFeasible, r.SynthTotal)
		}
		fmt.Fprintf(w, "%s\t%v\t%.1f\t%d\t%s\t%.1f\n",
			r.Name, r.Feasible, r.Energy, r.Refinements, synth, r.SynthEnergy)
	}
	w.Flush()
	return rows, b.String(), nil
}

// ValidateAll cross-checks the mapper's feasibility verdicts against the
// discrete-event simulator (E11) on the HIPERLAN/2 modes and a set of
// synthetic instances.
func ValidateAll() (string, error) {
	var b strings.Builder
	b.WriteString("E11 — step-4 verdicts vs discrete-event simulation\n\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Instance\tMapper\tSimulator period [ns]\tAgree")
	agree, total := 0, 0
	check := func(label string, app *model.Application, res *core.Result) error {
		if !res.Feasible {
			fmt.Fprintf(w, "%s\tinfeasible\t-\t-\n", label)
			return nil
		}
		rep, err := sim.Validate(app, res)
		if err != nil {
			return err
		}
		ok := rep.MeetsThroughput
		total++
		if ok {
			agree++
		}
		fmt.Fprintf(w, "%s\tfeasible\t%.0f\t%v\n", label, rep.PeriodNs, ok)
		return nil
	}
	for _, mode := range workload.Hiperlan2Modes {
		res, err := MapHiperlan2(mode, core.Config{})
		if err != nil {
			return "", err
		}
		if err := check("hiperlan2-"+mode.Name, workload.Hiperlan2(mode), res); err != nil {
			return "", err
		}
	}
	for seed := int64(0); seed < 6; seed++ {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeLayered, Processes: 8, Seed: seed})
		plat := workload.SyntheticPlatform(4, 4, seed)
		res, err := core.NewMapper(lib).Map(app, plat)
		if err != nil {
			return "", err
		}
		if err := check(app.Name, app, res); err != nil {
			return "", err
		}
	}
	w.Flush()
	fmt.Fprintf(&b, "\n%d/%d feasible mappings confirmed by simulation\n", agree, total)
	return b.String(), nil
}

// All runs every experiment and concatenates the reports in ID order.
func All() (string, error) {
	var parts []string
	parts = append(parts, Fig1())
	parts = append(parts, Table1(DefaultMode))
	parts = append(parts, Fig2())
	t2, _, err := Table2()
	if err != nil {
		return "", err
	}
	parts = append(parts, t2)
	f3, _, err := Fig3()
	if err != nil {
		return "", err
	}
	parts = append(parts, f3)
	rt, err := MapperRuntime(50)
	if err != nil {
		return "", err
	}
	parts = append(parts, rt.String())
	_, e7, err := RuntimeVsDesignTime()
	if err != nil {
		return "", err
	}
	parts = append(parts, e7)
	_, e8, err := Quality(10)
	if err != nil {
		return "", err
	}
	parts = append(parts, e8)
	_, e9, err := Scaling()
	if err != nil {
		return "", err
	}
	parts = append(parts, e9)
	_, e10, err := Ablation()
	if err != nil {
		return "", err
	}
	parts = append(parts, e10)
	e11, err := ValidateAll()
	if err != nil {
		return "", err
	}
	parts = append(parts, e11)
	_, e12, err := Admission()
	if err != nil {
		return "", err
	}
	parts = append(parts, e12)
	return strings.Join(parts, "\n"+strings.Repeat("─", 72)+"\n\n"), nil
}

// Names lists the experiment selectors cmd/experiments accepts.
func Names() []string {
	out := []string{"fig1", "table1", "fig2", "table2", "fig3", "runtime",
		"runtime-vs-designtime", "quality", "scaling", "ablation", "validate",
		"admission", "all"}
	sort.Strings(out)
	return out
}

// AdmissionRow is one configuration of the E12 saturation experiment.
type AdmissionRow struct {
	Config   string
	Mesh     int
	Admitted int
	Offered  int
	MeanUtil float64
	Energy   float64
}

// Admission (E12) saturates platforms with a stream of synthetic
// application arrivals through the run-time manager and reports how many
// each mapper configuration admits before the platform rejects further
// load — the multi-application scenario of the paper's introduction, made
// quantitative.
func Admission() ([]AdmissionRow, string, error) {
	const offered = 24
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"paper default", core.Config{}},
		{"greedy only (no step 2)", core.Config{NoStep2: true}},
		{"traffic-weighted step 2", core.Config{CommCost: core.TrafficWeighted}},
	}
	var rows []AdmissionRow
	for _, mesh := range []int{4, 6} {
		for _, c := range configs {
			mgr := manager.New(workload.SyntheticPlatform(mesh, mesh, 500), c.cfg)
			admitted := 0
			for i := 0; i < offered; i++ {
				app, lib := workload.Synthetic(workload.SynthOptions{
					Shape:     workload.ShapeChain,
					Processes: 3 + i%3,
					Seed:      int64(1000 + i),
					MaxUtil:   0.3,
				})
				app.Name = fmt.Sprintf("arrival-%d", i)
				if _, err := mgr.Start(app, lib); err == nil {
					admitted++
				}
			}
			load := mgr.Load()
			rows = append(rows, AdmissionRow{
				Config:   c.name,
				Mesh:     mesh,
				Admitted: admitted,
				Offered:  offered,
				MeanUtil: load.MeanUtil,
				Energy:   mgr.TotalEnergy(),
			})
		}
	}
	var b strings.Builder
	b.WriteString("E12 — admission under load (sequential arrivals, no departures)\n\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Platform\tConfiguration\tAdmitted\tMean tile util\tTotal energy [nJ/period]")
	for _, r := range rows {
		fmt.Fprintf(w, "%d×%d\t%s\t%d/%d\t%.0f%%\t%.1f\n",
			r.Mesh, r.Mesh, r.Config, r.Admitted, r.Offered, 100*r.MeanUtil, r.Energy)
	}
	w.Flush()
	return rows, b.String(), nil
}
