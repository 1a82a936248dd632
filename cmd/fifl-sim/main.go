// Command fifl-sim runs one FIFL federation end to end and reports the
// per-round assessments: detection decisions, reputations, contributions
// and rewards, plus the global model's accuracy trajectory. It is the
// quickest way to watch the mechanism at work.
//
// Usage:
//
//	fifl-sim -workers 10 -signflip 2 -ps 4 -rounds 30
//	fifl-sim -workers 8 -poison 2 -pd 0.6 -task digits -audit
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"fifl/internal/chain"
	"fifl/internal/core"
	"fifl/internal/dataset"
	"fifl/internal/experiments"
	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/metrics"
	"fifl/internal/persist"
	"fifl/internal/rng"
	"fifl/internal/trace"
	"fifl/internal/transport/codec"
)

// churnEvent is one membership change in the -churn schedule, applied at
// the boundary before its round runs.
type churnEvent struct {
	round int
	op    string // "join", "leave", "rejoin", "evict"
	id    int    // target identity for leave/rejoin/evict; -1 for join
}

// parseChurnSpec turns the -churn "round:op[:id]" spelling into an
// ordered schedule. join admits a brand-new honest worker (IDs are
// assigned sequentially by the registry); leave/evict/rejoin name an
// existing identity. Events stay in input order within a round.
func parseChurnSpec(spec string) ([]churnEvent, error) {
	if spec == "" {
		return nil, nil
	}
	var events []churnEvent
	for _, raw := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(raw), ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("-churn: bad event %q (want round:op or round:op:id)", raw)
		}
		var ev churnEvent
		if _, err := fmt.Sscanf(fields[0], "%d", &ev.round); err != nil || ev.round < 0 {
			return nil, fmt.Errorf("-churn: bad round in %q", raw)
		}
		ev.op = fields[1]
		ev.id = -1
		switch ev.op {
		case "join":
			if len(fields) == 3 {
				return nil, fmt.Errorf("-churn: join assigns its own ID, drop the :id in %q", raw)
			}
		case "leave", "rejoin", "evict":
			if len(fields) != 3 {
				return nil, fmt.Errorf("-churn: %s needs a worker ID in %q", ev.op, raw)
			}
			if _, err := fmt.Sscanf(fields[2], "%d", &ev.id); err != nil || ev.id < 0 {
				return nil, fmt.Errorf("-churn: bad worker ID in %q", raw)
			}
		default:
			return nil, fmt.Errorf("-churn: unknown op %q (join, leave, rejoin, evict)", ev.op)
		}
		events = append(events, ev)
	}
	slices.SortStableFunc(events, func(a, b churnEvent) int { return a.round - b.round })
	return events, nil
}

// applyChurn replays one schedule event through the coordinator's
// lifecycle methods at a round boundary. mk rebuilds the worker for a
// stable ID from the federation recipe (experiments.ElasticWorker).
func applyChurn(coord *core.Coordinator, ev churnEvent, mk func(int) (fl.Worker, error)) error {
	switch ev.op {
	case "join":
		id := coord.Members().NumKnown()
		w, err := mk(id)
		if err != nil {
			return err
		}
		got, err := coord.AdmitWorker(w)
		if err != nil {
			return err
		}
		if got != id {
			return fmt.Errorf("churn: admission assigned ID %d, expected %d", got, id)
		}
		fmt.Printf("churn: round %d  worker %d joined (reputation bootstrapped)\n", ev.round, id)
	case "leave":
		if err := coord.DepartWorker(ev.id); err != nil {
			return err
		}
		fmt.Printf("churn: round %d  worker %d departed\n", ev.round, ev.id)
	case "rejoin":
		w, err := mk(ev.id)
		if err != nil {
			return err
		}
		if err := coord.ReadmitWorker(ev.id, w); err != nil {
			return err
		}
		fmt.Printf("churn: round %d  worker %d rejoined (history retained)\n", ev.round, ev.id)
	case "evict":
		if err := coord.EvictWorker(ev.id); err != nil {
			return err
		}
		fmt.Printf("churn: round %d  worker %d evicted (banned permanently)\n", ev.round, ev.id)
	}
	return nil
}

// parseLagSpec turns the -async-lag "worker:lag,worker:lag" spelling into
// a per-worker lag slice for fl.StaticLag. Unlisted workers are fresh.
func parseLagSpec(spec string, workers int) ([]int, error) {
	lags := make([]int, workers)
	if spec == "" {
		return lags, nil
	}
	for _, pair := range strings.Split(spec, ",") {
		var w, l int
		if _, err := fmt.Sscanf(strings.TrimSpace(pair), "%d:%d", &w, &l); err != nil {
			return nil, fmt.Errorf("-async-lag: bad pair %q (want worker:lag)", pair)
		}
		if w < 0 || w >= workers {
			return nil, fmt.Errorf("-async-lag: worker %d out of range [0,%d)", w, workers)
		}
		if l < 0 {
			return nil, fmt.Errorf("-async-lag: negative lag %d for worker %d", l, w)
		}
		lags[w] = l
	}
	return lags, nil
}

// exitf reports why fifl-sim stops and exits with code: 2 for a bad flag,
// 1 for a run that failed.
func exitf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fifl-sim: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	var (
		workers   = flag.Int("workers", 10, "federation size N")
		servers   = flag.Int("servers", 4, "server cluster size M")
		rounds    = flag.Int("rounds", 30, "communication iterations")
		nFlip     = flag.Int("signflip", 0, "number of sign-flipping attackers")
		ps        = flag.Float64("ps", 4, "sign-flip intensity p_s")
		nPoison   = flag.Int("poison", 0, "number of data-poison attackers")
		pd        = flag.Float64("pd", 0.6, "mislabel fraction p_d")
		sy        = flag.Float64("sy", 0.05, "detection threshold S_y")
		task      = flag.String("task", "mlp", "task: mlp, digits (LeNet) or images (mini-ResNet)")
		seed      = flag.Uint64("seed", 1, "root seed")
		perWkr    = flag.Int("samples", 200, "local samples per worker")
		audit     = flag.Bool("audit", false, "verify the blockchain ledger and audit a reputation at the end")
		evalEach  = flag.Int("eval", 5, "evaluate global model every this many rounds (0 = after the final round only)")
		traceFile = flag.String("trace", "", "write a JSONL run trace to this file (.csv extension switches to CSV)")
		drop      = flag.Float64("drop", 0, "per-round upload loss probability")
		quorum    = flag.Int("quorum", 0, "minimum arrivals for a round to commit (0 = no quorum)")
		retries   = flag.Int("retries", 0, "retransmission attempts for lost uploads")
		backoff   = flag.Duration("retry-backoff", 50*time.Millisecond, "base backoff between retransmissions")
		dumpMet   = flag.Bool("metrics", false, "dump the run's metrics in Prometheus text format at the end")
		ckptFile  = flag.String("checkpoint", "", "write a durable checkpoint to this file after each round (atomic replace); if the file exists, resume from it first (same flags as the run that wrote it)")
		ckptEvery = flag.Int("checkpoint-every", 1, "checkpoint every this many rounds (with -checkpoint)")
		mechName  = flag.String("mechanism", "fifl", "reward mechanism: "+strings.Join(core.MechanismNames(), ", ")+" (baselines pay by sample count and ignore detection; shapley-mc is the sampled estimator for large N)")
		compress  = flag.String("compression", "none", "simulated wire compression for gradient uploads and model downloads: none, f32, topk, int8 or int16")
		async     = flag.Bool("async", false, "asynchronous rounds: each advance folds a round-robin cohort with bounded-staleness weights instead of the collect-all barrier")
		maxStale  = flag.Int("max-staleness", 2, "async staleness bound: submissions trained against a model more than this many advances old are rejected and penalized")
		advEvery  = flag.Int("advance-every", 0, "async count cadence: workers folded per advance window (0 = workers/2, min 1)")
		asyncLag  = flag.String("async-lag", "", "async straggler injection: comma-separated worker:lag pairs, e.g. \"3:1,7:4\" — worker 7 always submits 4 advances stale")
		shardsN   = flag.Int("shards", 0, "hierarchical mode: partition the workers into this many edge-aggregator cohorts under one root coordinator (0 = flat)")
		churnSpec = flag.String("churn", "", "membership schedule: comma-separated round:op[:id] events applied at the boundary before the round, e.g. \"3:join,5:leave:1,7:rejoin:1,8:evict:0\" (flat synchronous mode only)")
	)
	flag.Parse()

	if *nFlip+*nPoison >= *workers {
		exitf(2, "attackers must be fewer than workers")
	}
	if *perWkr < 1 || *servers < 1 {
		exitf(2, "-samples and -servers must be at least 1, got %d and %d", *perWkr, *servers)
	}
	if *rounds < 1 {
		exitf(2, "-rounds must be at least 1, got %d", *rounds)
	}
	if *evalEach < 0 {
		exitf(2, "-eval must be non-negative, got %d", *evalEach)
	}
	if *drop < 0 || *drop > 1 {
		exitf(2, "-drop must be in [0,1], got %g", *drop)
	}
	if *quorum > *workers {
		exitf(2, "-quorum %d exceeds -workers %d", *quorum, *workers)
	}
	if *retries < 0 || *backoff < 0 {
		exitf(2, "-retries and -retry-backoff must be non-negative")
	}
	churn, err := parseChurnSpec(*churnSpec)
	if err != nil {
		exitf(2, "%v", err)
	}
	if len(churn) > 0 {
		// Elastic membership rides the flat synchronous coordinator: the
		// registry re-seats cohort slots between rounds, which the async
		// collector's rotation state and the shard drivers' static cohort
		// ranges do not yet follow.
		switch {
		case *async:
			exitf(2, "-churn and -async are mutually exclusive")
		case *shardsN > 0:
			exitf(2, "-churn and -shards are mutually exclusive")
		case *mechName != "fifl":
			exitf(2, "-churn supports only the fifl mechanism")
		}
	}
	mech, err := core.MechanismByName(*mechName)
	if err != nil {
		exitf(2, "%v", err)
	}
	if err := core.ValidateMechanismScale(mech, *workers); err != nil {
		exitf(2, "%v", err)
	}
	cmode, err := codec.ParseCompression(*compress)
	if err != nil {
		exitf(2, "%v", err)
	}
	if *ckptEvery < 1 {
		exitf(2, "-checkpoint-every must be at least 1, got %d", *ckptEvery)
	}
	if *shardsN < 0 || *shardsN > *workers {
		exitf(2, "-shards must be in [0,%d], got %d", *workers, *shardsN)
	}
	if *shardsN > 0 {
		// Sharded federation keeps the root's eight-stage pipeline intact by
		// unfolding per-shard evidence into per-worker events; the knobs that
		// reshape the flat collect path don't compose with that.
		switch {
		case *async:
			exitf(2, "-shards and -async are mutually exclusive (edge aggregation is a synchronous barrier)")
		case *quorum > 0 || *retries > 0:
			exitf(2, "-quorum and -retries are flat-engine options, not supported with -shards")
		case *mechName != "fifl":
			exitf(2, "-shards supports only the fifl mechanism")
		}
	}

	sc := experiments.QuickScale()
	sc.Seed = *seed
	sc.TrainWorkers = *workers
	sc.TrainRounds = *rounds
	sc.SamplesPerWorker = *perWkr
	sc.Servers = *servers
	sc.EvalEvery = *evalEach
	for _, ev := range churn {
		// Each join event consumes one reserved data partition past the
		// initial cohort; sizing them here keeps a joiner's data identical
		// whether it is built at admission or when a resume reseats it.
		if ev.op == "join" {
			sc.ExtraJoinSlots++
		}
	}

	kinds := make([]experiments.WorkerKind, *workers)
	for i := range kinds {
		kinds[i] = experiments.Honest()
	}
	for i := 0; i < *nFlip; i++ {
		kinds[*workers-1-i] = experiments.SignFlip(*ps)
	}
	for i := 0; i < *nPoison; i++ {
		kinds[*workers-1-*nFlip-i] = experiments.Poison(*pd)
	}

	var dk experiments.DatasetKind
	switch *task {
	case "mlp":
		dk = experiments.TaskDigitsMLP
	case "digits":
		dk = experiments.TaskDigits
	case "images":
		dk = experiments.TaskImages
	default:
		exitf(2, "unknown task %q", *task)
	}

	sc.DropRate = *drop
	sc.Compression = cmode
	var opts []fl.Option
	if *quorum > 0 {
		opts = append(opts, fl.WithQuorum(*quorum))
	}
	if *retries > 0 {
		opts = append(opts, fl.WithRetry(*retries, *backoff))
	}
	var coordOpts []core.CoordinatorOption
	coordOpts = append(coordOpts, core.WithMechanism(mech))

	// An existing -checkpoint file makes this run a resume: the same flags
	// rebuild the same federation (seed, sizes and attacker mix must match
	// the run that wrote it; the restore cross-checks what it can and
	// rejects mismatches), and the checkpoint fast-forwards it to the saved
	// state instead of starting from round 0.
	var snap *persist.Snapshot
	if *ckptFile != "" {
		s, err := persist.ReadFile(*ckptFile)
		switch {
		case err == nil:
			snap = s
		case !errors.Is(err, os.ErrNotExist):
			exitf(1, "reading %s: %v", *ckptFile, err)
		}
	}
	var (
		coord      *core.Coordinator
		run        *experiments.ShardedRun
		evalEngine *fl.Engine
		evalTest   *dataset.Dataset
		mkWorker   func(int) (fl.Worker, error)
	)
	src := rng.New(sc.Seed).Split("sim")
	if *shardsN > 0 {
		// -shards partitions the workers under in-process edge aggregators:
		// each cohort collects and screens locally, pre-aggregates its
		// survivors and forwards codec-framed evidence to the root, whose
		// pipeline unfolds it into the same per-worker events a flat run
		// produces. Checkpoints carry one extra section per shard.
		var err error
		if snap != nil {
			run, err = experiments.RestoreShardedRun(snap, sc, dk, kinds, *shardsN, *sy, true, src, coordOpts...)
		} else {
			run, err = experiments.BuildShardedRun(sc, dk, kinds, *shardsN, *sy, true, src, coordOpts...)
		}
		if err != nil {
			exitf(1, "%v", err)
		}
		coord = run.Coord
		evalEngine, evalTest = run.Root, run.Fed.Test
		if err := run.Start(context.Background()); err != nil {
			exitf(1, "starting shards: %v", err)
		}
	} else {
		fed := experiments.BuildFederation(sc, dk, kinds, src, opts...)
		evalEngine, evalTest = fed.Engine, fed.Test
		mkWorker = func(id int) (fl.Worker, error) {
			// A fresh source with the federation's root reproduces the same
			// (seed, label)-derived streams BuildFederation used, so a worker
			// built here is bit-identical to its construction-time twin.
			return experiments.ElasticWorker(sc, dk, kinds, id, rng.New(sc.Seed).Split("sim"))
		}
		if snap != nil && len(snap.ActiveCohort) > 0 {
			// Seat the cohort the checkpoint names, in its slot order; the
			// restore refuses any other seating.
			cohort := make([]fl.Worker, len(snap.ActiveCohort))
			for slot, id := range snap.ActiveCohort {
				w, err := mkWorker(id)
				if err != nil {
					exitf(1, "resuming from %s: %v", *ckptFile, err)
				}
				cohort[slot] = w
			}
			fed.Engine.Workers = cohort
		}

		// -async swaps only the Collect stage: the same detection, reputation,
		// contribution and reward pipeline assesses bounded-staleness advance
		// windows instead of synchronous barriers.
		if *async {
			if *advEvery == 0 {
				*advEvery = *workers / 2
				if *advEvery < 1 {
					*advEvery = 1
				}
			}
			lags, err := parseLagSpec(*asyncLag, *workers)
			if err != nil {
				exitf(2, "%v", err)
			}
			col, err := fl.NewAsyncCollector(fed.Engine, fl.AsyncConfig{
				MaxStaleness: *maxStale,
				AdvanceEvery: *advEvery,
				Lag:          fl.StaticLag(lags),
			})
			if err != nil {
				exitf(2, "%v", err)
			}
			coordOpts = append(coordOpts, core.WithCollector(col))
		}

		if snap != nil {
			var err error
			if coord, err = core.RestoreCoordinatorSnapshot(snap, experiments.DefaultCoordinatorConfig(*sy, true), fed.Engine, coordOpts...); err != nil {
				exitf(1, "resuming from %s: %v", *ckptFile, err)
			}
		} else {
			coord = experiments.DefaultCoordinator(fed, *sy, true, coordOpts...)
		}
	}
	startRound := coord.NextRound()
	if snap != nil {
		fmt.Printf("resumed from %s at round %d\n", *ckptFile, startRound)
	}

	mode := "sync"
	switch {
	case *async:
		mode = fmt.Sprintf("async(max-staleness=%d advance-every=%d)", *maxStale, *advEvery)
	case *shardsN > 0:
		mode = fmt.Sprintf("sharded(%d)", *shardsN)
	}
	fmt.Printf("federation: N=%d M=%d task=%s rounds=%d mode=%s mechanism=%s compression=%s (attackers: %d sign-flip ps=%g, %d poison pd=%g)\n\n",
		*workers, *servers, *task, *rounds, mode, coord.Mechanism().Name(), cmode, *nFlip, *ps, *nPoison, *pd)

	recorder := trace.NewRecorder()
	pending := churn
	for t := startRound; t < *rounds; t++ {
		// Membership changes land at round boundaries, mirroring the
		// transport server's queue-and-apply contract. Events before a
		// resumed run's first round are already in its checkpoint.
		for len(pending) > 0 && pending[0].round <= t {
			ev := pending[0]
			pending = pending[1:]
			if ev.round < startRound {
				continue
			}
			if err := applyChurn(coord, ev, mkWorker); err != nil {
				exitf(1, "round %d: churn %s: %v", t, ev.op, err)
			}
		}
		rep, err := coord.RunRoundContext(context.Background(), t)
		if err != nil {
			exitf(1, "round %d: %v", t, err)
		}
		for _, rec := range rep.TraceRecords() {
			recorder.RecordWorker(rec)
		}
		accepted := 0
		for _, a := range rep.Detection.Accept {
			if a {
				accepted++
			}
		}
		line := fmt.Sprintf("round %3d  accepted %d/%d  servers %v", t, accepted, len(rep.Detection.Accept), rep.Servers)
		if rep.Staleness != nil {
			stale, pending := 0, 0
			for _, st := range rep.Statuses {
				switch st {
				case faults.StatusStale:
					stale++
				case faults.StatusPending:
					pending++
				}
			}
			line += fmt.Sprintf("  stale %d  pending %d", stale, pending)
		}
		if !rep.Committed {
			line += "  QUORUM MISSED (round degraded)"
		}
		if (sc.EvalEvery > 0 && t%sc.EvalEvery == 0) || t == *rounds-1 {
			acc, loss := evalEngine.Evaluate(evalTest, 256)
			recorder.RecordMetrics(trace.RoundMetrics{Round: t, Accuracy: acc, Loss: loss})
			line += fmt.Sprintf("  acc=%.3f loss=%.3f", acc, loss)
		}
		fmt.Println(line)
		if *ckptFile != "" && (t+1)%*ckptEvery == 0 {
			// Sharded snapshots append one section per shard on top of the
			// root coordinator's state.
			snapshot := coord.Snapshot
			if run != nil {
				snapshot = run.Snapshot
			}
			snap, err := snapshot()
			if err != nil {
				exitf(1, "round %d: snapshot: %v", t, err)
			}
			if err := persist.WriteFile(*ckptFile, snap); err != nil {
				exitf(1, "round %d: writing checkpoint: %v", t, err)
			}
		}
	}
	if run != nil {
		if err := run.Finish(); err != nil {
			exitf(1, "shard aggregator: %v", err)
		}
	}

	if *traceFile != "" {
		out, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if strings.HasSuffix(*traceFile, ".csv") {
			err = recorder.WriteCSV(out)
		} else {
			err = recorder.WriteJSONL(out)
		}
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace written to %s (%d worker records)\n", *traceFile, recorder.Len())
	}

	fmt.Println("\nfinal per-worker state:")
	fmt.Printf("%-4s %-10s %-9s %12s %12s\n", "id", "kind", "state", "reputation", "cum.reward")
	cum := coord.CumulativeRewards()
	members := coord.Members()
	for id := range cum {
		// Joiners sit past the initial slots; their data partitions were
		// reserved via ExtraJoinSlots and they train honestly.
		kind := "joiner"
		if id < len(kinds) {
			kind = kinds[id].Kind
		}
		st, err := members.State(id)
		if err != nil {
			exitf(1, "%v", err)
		}
		fmt.Printf("%-4d %-10s %-9s %12.4f %12.4f\n", id, kind, st, coord.Rep.Reputation(id), cum[id])
	}

	if *audit {
		if err := coord.Ledger.Verify(); err != nil {
			fmt.Fprintf(os.Stderr, "ledger verification FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nledger verified: %d blocks intact\n", coord.Ledger.Len())
		culprit, err := coord.AuditReputation(*rounds-1, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "audit error: %v\n", err)
			os.Exit(1)
		}
		if culprit == "" {
			fmt.Println("reputation audit for worker 0: ledger record matches recomputation")
		} else {
			fmt.Printf("reputation audit for worker 0: TAMPERED, culprit %s banned\n", culprit)
		}
		recs := coord.Ledger.Query(chain.KindReward, *rounds-1, -1)
		fmt.Printf("last round reward records on chain: %d\n", len(recs))
	}

	if *dumpMet {
		// The in-process federation records into the process-wide default
		// registry; counters are deterministic for a fixed seed, latency
		// histograms are wall-clock and observability-only.
		fmt.Println("\n# --- metrics ---")
		if err := metrics.Default.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
