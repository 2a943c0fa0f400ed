// Command churn drives the concurrent admission pipeline with an online
// workload: hundreds of streaming applications from a recurring catalogue
// arrive through a bounded work queue, run for a while and leave, while N
// workers map arrivals in parallel against platform snapshots. It reports
// admission throughput and latency — including how much of the conflict
// and stale-template load the incremental repair engine absorbed — and
// verifies the reservation ledger is exactly clean after full churn. The
// scenario loop itself lives in internal/churn so the tests can drive it.
//
// Examples:
//
//	go run ./cmd/churn                       # 4 workers, 400 arrivals
//	go run ./cmd/churn -workers 8 -apps 1000 # heavier
//	go run ./cmd/churn -compare              # sequential vs pipeline
//	go run ./cmd/churn -repair=false         # full remap on every retry
//	go run ./cmd/churn -regionsize 4         # region-sharded commit path
//	go run ./cmd/churn -priomix 70:20:10     # mixed admission classes, preemption on
//	go run ./cmd/churn -priomix 70:20:10 -preempt=false  # priority queue only
//	go run ./cmd/churn -regionsize 4 -batch 8  # merged multi-application commits
//	go run ./cmd/churn -meshes 4             # fleet: 4 federated meshes, routed admission
//	go run ./cmd/churn -meshes 4 -rebalance 5ms  # with background hot->cold rebalancing
//	go run ./cmd/churn -faultrate 0.02       # fail a tile per ~50 arrivals, measure recovery
//	go run ./cmd/churn -journal run.jsonl    # stream the hash-chained admission journal
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rtsm/internal/churn"
	"rtsm/internal/manager"
	"rtsm/internal/model"
)

var (
	workers   = flag.Int("workers", 4, "admission worker goroutines")
	queue     = flag.Int("queue", 0, "work queue depth (0 = same as workers)")
	apps      = flag.Int("apps", 400, "number of application arrivals")
	mesh      = flag.Int("mesh", 8, "platform mesh width and height")
	meshes    = flag.Int("meshes", 1, "federate across N independent meshes behind the fleet router (1 = single-manager path)")
	rebal     = flag.Duration("rebalance", 0, "fleet rebalancer period, draining best-effort residents hot->cold (0 = off; needs -meshes > 1)")
	seed      = flag.Int64("seed", 123, "platform generator seed")
	catalogue = flag.Int("catalogue", 64, "distinct application structures in rotation")
	util      = flag.Float64("util", 0.15, "max per-implementation utilisation")
	period    = flag.Int64("period", 40_000, "QoS period in ns")
	resident  = flag.Int("resident", 0, "applications kept running at once (0 = 2x workers)")
	regions   = flag.Int("regionsize", 0, "shard the commit path: mesh-region side length (0 = one global region)")
	reuse     = flag.Bool("reuse", true, "reuse mapping templates for recurring structures")
	repair    = flag.Bool("repair", true, "repair stale mappings instead of re-mapping from scratch")
	batch     = flag.Int("batch", 0, "drain up to K queued arrivals into one merged multi-application commit (<=1 = per-item admission)")
	priomix   = flag.String("priomix", "", "mixed admission classes as bestEffort:standard:critical weights, e.g. 70:20:10 (empty = all best-effort)")
	preempt   = flag.Bool("preempt", true, "let full-mesh priority arrivals preempt lower classes (relocation before eviction)")
	faultrate = flag.Float64("faultrate", 0, "inject run-time tile faults at this expected rate per arrival, evacuating and relocating residents (0 = off)")
	faultbias = flag.Float64("faultbias", 0, "region-bias pricing for fault-evacuation refits: positive steers evacuees toward hot-spare capacity")
	journalTo = flag.String("journal", "", "stream the hash-chained admission journal to this file (single-mesh runs only)")
	retries   = flag.Int("retries", manager.DefaultMaxRetries, "max re-mapping rounds per arrival")
	compare   = flag.Bool("compare", false, "also run the sequential path and report the speedup")
)

func options() churn.Options {
	return churn.Options{
		Workers:    *workers,
		Queue:      *queue,
		Apps:       *apps,
		Mesh:       *mesh,
		Meshes:     *meshes,
		Rebalance:  *rebal,
		Seed:       *seed,
		Catalogue:  *catalogue,
		MaxUtil:    *util,
		PeriodNs:   *period,
		Resident:   *resident,
		RegionSize: *regions,
		Reuse:      *reuse,
		Repair:     *repair,
		Batch:      *batch,
		PrioMix:    *priomix,
		Preempt:    *preempt,
		FaultRate:  *faultrate,
		FaultBias:  *faultbias,
		Retries:    *retries,
		ErrWriter:  os.Stderr,
	}
}

func report(label string, r churn.Result) {
	st := r.Stats
	total := st.Admitted + st.Rejected
	fmt.Printf("%s:\n", label)
	if len(r.PerMesh) > 0 {
		fs := r.Fleet
		fmt.Printf("  fleet             %d meshes, %d spills (%d admitted by a sibling), %d overflow rejects\n",
			len(r.PerMesh), fs.Spills, fs.SpillAdmits, fs.OverflowRejects)
		if fs.Relocations+fs.RelocFailbacks+fs.RelocDrops > 0 {
			fmt.Printf("  rebalancer        %d residents moved hot->cold, %d failbacks, %d drops\n",
				fs.Relocations, fs.RelocFailbacks, fs.RelocDrops)
		}
		if fs.MeshEvictions > 0 {
			fmt.Printf("  reconciler        %d placements retired after mesh-local evictions\n",
				fs.MeshEvictions)
		}
		for i, ms := range r.PerMesh {
			fmt.Printf("  mesh %-12d %d admitted, %d rejected, %d conflicts, %d template hits\n",
				i, ms.Admitted, ms.Rejected, ms.Conflicts, ms.TemplateHits)
		}
	}
	fmt.Printf("  commit sharding   %d region(s)\n", r.Regions)
	arrivalsLabel := "arrivals"
	if len(r.PerMesh) > 0 {
		// Spilled arrivals are counted on every mesh they tried, so the
		// summed mesh-level view exceeds the true arrival count.
		arrivalsLabel = "mesh attempts"
	}
	fmt.Printf("  %-17s %d (%d admitted, %d rejected, %.1f%% admitted)\n",
		arrivalsLabel, total, st.Admitted, st.Rejected, 100*float64(st.Admitted)/float64(max(total, 1)))
	fmt.Printf("  throughput        %.1f admissions/sec over %v\n", r.AdmissionsPerSec(), r.Elapsed.Round(time.Millisecond))
	fmt.Printf("  optimistic retry  %d commit conflicts, %d re-mapping rounds\n", st.Conflicts, st.Retries)
	fmt.Printf("  template reuse    %d of %d admissions (%.1f%%)\n",
		st.TemplateHits, st.Admitted, 100*float64(st.TemplateHits)/float64(max(st.Admitted, 1)))
	fmt.Printf("  incremental repair %d of %d retry/stale rounds repaired (%d of %d conflict retries, %d of %d stale templates; %d fell back to full remap)\n",
		st.RepairedConflicts+st.RepairedTemplates, st.ConflictRetries+st.StaleTemplates,
		st.RepairedConflicts, st.ConflictRetries, st.RepairedTemplates, st.StaleTemplates, st.FullRemaps)
	if acq := st.Snapshots + st.SnapshotsShared; acq > 0 {
		fmt.Printf("  snapshots         %d captured, %d shared from an epoch (%.1f%%), %d CoW region faults\n",
			st.Snapshots, st.SnapshotsShared, 100*float64(st.SnapshotsShared)/float64(acq), st.CoWFaults)
	}
	if st.Batches > 0 || st.BatchedAdmissions > 0 || st.BatchSpills > 0 || st.BatchFallbacks > 0 {
		fmt.Printf("  batched admission %d merged commits, %d of %d admissions batched (%.1f%%), %d spill commits, %d fallbacks to per-item\n",
			st.Batches, st.BatchedAdmissions, st.Admitted,
			100*float64(st.BatchedAdmissions)/float64(max(st.Admitted, 1)), st.BatchSpills, st.BatchFallbacks)
	}
	if rate, ok := st.RepairRate(); ok {
		fmt.Printf("  repair rate       %.1f%%\n", 100*rate)
	}
	for c := 0; c < model.NumPriorities; c++ {
		cls := st.ByClass[c]
		if cls.Admitted+cls.Rejected == 0 {
			continue
		}
		rate, _ := st.AdmissionRate(model.Priority(c))
		fmt.Printf("  class %-11s %d arrivals, %.1f%% admitted\n",
			model.Priority(c), cls.Admitted+cls.Rejected, 100*rate)
	}
	if st.Preemptions > 0 {
		fmt.Printf("  preemption        %d victims displaced (%d relocated, %d evicted)\n",
			st.Preemptions, st.Relocations, st.Evictions)
	}
	if st.FaultsInjected > 0 {
		fmt.Printf("  faults            %d injected (%d residents relocated, %d dropped), recover mean %v, max %v\n",
			st.FaultsInjected, st.FaultRelocated, st.FaultDropped,
			r.MeanFaultRecover().Round(time.Microsecond), r.FaultRecoverMax.Round(time.Microsecond))
	}
	if r.JournalErr != nil {
		fmt.Printf("  journal           WRITE FAILED: %v\n", r.JournalErr)
	}
	if total > 0 {
		fmt.Printf("  mean latencies    wait %v, map %v, repair %v, commit %v\n",
			(st.Wait / time.Duration(total)).Round(time.Microsecond),
			(st.Map / time.Duration(total)).Round(time.Microsecond),
			(st.Repair / time.Duration(total)).Round(time.Microsecond),
			(st.Commit / time.Duration(total)).Round(time.Microsecond))
	}
	if r.LedgerErr != nil {
		fmt.Printf("  ledger            INVARIANT VIOLATED: %v\n", r.LedgerErr)
		return
	}
	fmt.Printf("  ledger clean      %v\n", r.Clean)
	if !r.Clean {
		fmt.Printf("  ledger drift      %d tiles, %d links changed\n", len(r.Drift.Tiles), len(r.Drift.Links))
	}
}

// validateFlags fails fast on flag combinations that would silently run
// a different scenario than the one asked for, instead of surfacing as a
// confusing report later. Defaults never trip it.
func validateFlags() error {
	if *batch < 0 {
		return fmt.Errorf("churn: -batch %d is negative (use 0 or 1 for per-item admission)", *batch)
	}
	if *meshes < 1 {
		return fmt.Errorf("churn: -meshes %d; need at least one mesh", *meshes)
	}
	if *rebal > 0 && *meshes <= 1 {
		return fmt.Errorf("churn: -rebalance moves residents between meshes; give -meshes a value above 1")
	}
	if *compare && *meshes > 1 {
		return fmt.Errorf("churn: -compare benchmarks the single-mesh pipeline; run fleet scaling via BenchmarkFleetAdmission (see EXPERIMENTS.md) instead")
	}
	if *faultrate < 0 {
		return fmt.Errorf("churn: -faultrate %g is negative", *faultrate)
	}
	if *journalTo != "" && *meshes > 1 {
		return fmt.Errorf("churn: -journal records one manager's hash chain; a fleet run would interleave %d of them", *meshes)
	}
	if *journalTo != "" && *compare {
		return fmt.Errorf("churn: -journal and -compare would write two runs' chains into one file; journal one run at a time")
	}
	return nil
}

func main() {
	flag.Parse()
	if err := validateFlags(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts := options()
	if _, err := churn.ParsePrioMix(opts.PrioMix); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *journalTo != "" {
		jf, err := os.Create(*journalTo)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer jf.Close()
		opts.Journal = jf
	}
	if opts.Resident <= 0 {
		// Resolve the default here so the -compare run keeps the same
		// resident population as the pipeline run.
		opts.Resident = 2 * max(opts.Workers, 1)
	}

	target := fmt.Sprintf("a %d×%d mesh", opts.Mesh, opts.Mesh)
	if opts.Meshes > 1 {
		target = fmt.Sprintf("a fleet of %d %d×%d meshes", opts.Meshes, opts.Mesh, opts.Mesh)
	}
	fmt.Printf("churn: %d arrivals from a %d-structure catalogue onto %s\n\n",
		opts.Apps, opts.Catalogue, target)
	pipe := churn.Run(opts)
	if pipe.ConfigErr != nil {
		fmt.Fprintln(os.Stderr, pipe.ConfigErr)
		os.Exit(2)
	}
	label := fmt.Sprintf("pipeline (%d workers, reuse %v, repair %v)", opts.Workers, opts.Reuse, opts.Repair)
	if opts.Meshes > 1 {
		label = fmt.Sprintf("fleet (%d meshes, %d workers, reuse %v, repair %v)", opts.Meshes, opts.Workers, opts.Reuse, opts.Repair)
	}
	report(label, pipe)
	ok := pipe.Clean && pipe.LedgerErr == nil && pipe.JournalErr == nil

	if *compare {
		seqOpts := opts
		seqOpts.Workers = 1
		seqOpts.Queue = 1
		seqOpts.Resident = opts.Resident
		seqOpts.Reuse = false
		seqOpts.Repair = false
		fmt.Println()
		seq := churn.Run(seqOpts)
		report("sequential (1 worker, no reuse, no repair)", seq)
		ok = ok && seq.Clean && seq.LedgerErr == nil
		if seq.AdmissionsPerSec() > 0 {
			fmt.Printf("\nspeedup: %.2fx admissions/sec\n", pipe.AdmissionsPerSec()/seq.AdmissionsPerSec())
		}
	}
	if !ok {
		os.Exit(1)
	}
}
