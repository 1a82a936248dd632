// Command fifl-node runs one node of a real, multi-process FIFL
// federation over the wire protocol in internal/transport: a coordinator
// process serves the HTTP API, and each worker process rebuilds its
// federation slot from the shared seed, dials in and trains.
//
// Every node derives its data, model and training streams from the shared
// -seed, so a networked federation reproduces the in-process engine
// bit for bit (see the transport package's loopback equivalence test).
//
// Usage (three terminals):
//
//	fifl-node -role coordinator -workers 2 -rounds 5 -listen :7070
//	fifl-node -role worker -id 0 -coordinator http://127.0.0.1:7070
//	fifl-node -role worker -id 1 -coordinator http://127.0.0.1:7070 -audit
//
// Hierarchical mode runs a 1-level sharded federation: a root process
// serves the shard protocol and each shard process hosts one worker
// cohort behind an edge aggregator (three terminals, 4 workers in 2
// cohorts):
//
//	fifl-node -role root -workers 4 -shards 2 -rounds 5 -listen :7070
//	fifl-node -role shard -id 0 -workers 4 -shards 2 -shard-of http://127.0.0.1:7070
//	fifl-node -role shard -id 1 -workers 4 -shards 2 -shard-of http://127.0.0.1:7070
//
// The federation flags it shares with fifl-sim (-seed, -workers,
// -rounds, -quorum, -async, -shards, -compression and the rest) are
// declared and checked in internal/cli; the rest are fifl-node's own.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"fifl/internal/cli"
	"fifl/internal/core"
	"fifl/internal/experiments"
	"fifl/internal/fl"
	"fifl/internal/persist"
	"fifl/internal/rng"
	"fifl/internal/shard"
	"fifl/internal/transport"
)

var (
	role = flag.String("role", "", "node role: coordinator, worker, root or shard")
	cfg  = cli.Register(flag.CommandLine, cli.Defaults{Workers: 2, Samples: 120, Rounds: 5, Servers: 1, Sy: 0.02, Eval: 1})

	// Coordinator flags.
	listen   = flag.String("listen", ":7070", "coordinator listen address")
	wtmo     = flag.Duration("worker-timeout", 15*time.Second, "per-worker round deadline; a silent worker is recorded as timed out")
	linger   = flag.Duration("linger", 10*time.Second, "how long the coordinator keeps serving reports and the ledger after the last round")
	ckptDir  = flag.String("checkpoint", "", "durable checkpoint directory; the coordinator snapshots after each committed round and resumes from an existing checkpoint on start")
	haltAt   = flag.Int("halt-after", 0, "stop after this many rounds with the checkpoint written and block until killed (0 = off; for crash-recovery testing)")
	advIntvl = flag.Duration("advance-interval", 5*time.Second, "async time cadence: an advance waits at most this long for its submission count (0 = count trigger only)")

	// Worker flags.
	coordURL = flag.String("coordinator", "http://127.0.0.1:7070", "coordinator base URL")
	id       = flag.Int("id", 0, "this worker's federation slot")
	join     = flag.Bool("join", false, "join a running federation as a new participant via /v1/join instead of taking a pre-seated slot; -id is ignored and the coordinator assigns the identity (pass the same -workers total-slot universe as every other node)")
	auditN   = flag.Int("audit-every", 0, "carry every this many rounds on dense lossless frames regardless of -compression, keeping audit rounds bit-identical (0 = never)")
	audit    = flag.Bool("audit", false, "download and verify the coordinator's audit ledger at the end")
	retries  = flag.Int("retry", 0, "HTTP retry attempts before a request is abandoned (0 = default 3); raise this so a worker rides through a coordinator restart")
	rbackoff = flag.Duration("retry-backoff", 0, "base delay between HTTP retries, doubling each attempt (0 = default 100ms)")

	// Hierarchical (sharded) mode flags.
	shardOf = flag.String("shard-of", "http://127.0.0.1:7070", "shard role: the root's base URL")

	// Shared debug flags.
	pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = off)")
)

// sharedFlags are read by every role; roleFlags lists what each role reads
// beyond them. A flag the chosen role does not read is an error, not a
// silently ignored setting.
var (
	sharedFlags = []string{"role", "seed", "workers", "samples", "pprof"}
	roleFlags   = map[string][]string{
		"coordinator": {"listen", "rounds", "servers", "quorum", "worker-timeout", "sy", "eval", "linger",
			"checkpoint", "checkpoint-every", "halt-after", "async", "max-staleness", "advance-every", "advance-interval"},
		"worker": {"coordinator", "id", "join", "compression", "audit-every", "audit", "retry", "retry-backoff"},
		"root":   {"listen", "rounds", "servers", "shards", "quorum", "sy", "eval", "linger"},
		"shard":  {"shard-of", "id", "shards"},
	}
)

// checkRoleFlags rejects an unknown role and the first flag set on fs
// that role does not read.
func checkRoleFlags(fs *flag.FlagSet, role string) error {
	reads, ok := roleFlags[role]
	if !ok {
		return errors.New("-role must be coordinator, worker, root or shard")
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && !slices.Contains(sharedFlags, f.Name) && !slices.Contains(reads, f.Name) {
			err = fmt.Errorf("-%s is not read by -role %s", f.Name, role)
		}
	})
	return err
}

// checkFlagValues rejects the first flag value the role cannot run with,
// before anything is built or listens: the shared rules of cli.Config,
// then fifl-node's own. It runs after checkRoleFlags, so a flag the role
// does not read still holds its default, which passes.
func checkFlagValues(fs *flag.FlagSet) error {
	if err := cfg.Check(fs, "advance-interval"); err != nil {
		return err
	}
	switch {
	case *haltAt < 0:
		return fmt.Errorf("-halt-after must be non-negative, got %d", *haltAt)
	case (*role == "root" || *role == "shard") && cfg.Shards < 1:
		return fmt.Errorf("-shards must be at least 1 for -role %s, got %d", *role, cfg.Shards)
	case *role == "shard" && (*id < 0 || *id >= cfg.Shards):
		return fmt.Errorf("-id must be in [0,%d) for %d shards, got %d", cfg.Shards, cfg.Shards, *id)
	case *role == "worker" && !*join && (*id < 0 || *id >= cfg.Workers):
		return fmt.Errorf("-id must be in [0,%d) (below -workers), got %d", cfg.Workers, *id)
	}
	return nil
}

func main() {
	flag.Parse()
	err := checkRoleFlags(flag.CommandLine, *role)
	if err == nil {
		err = checkFlagValues(flag.CommandLine)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fifl-node:", err)
		os.Exit(2)
	}

	if *pprofAddr != "" {
		go func() {
			// The blank net/http/pprof import registers its handlers on
			// http.DefaultServeMux; the federation API uses its own mux, so
			// profiling stays on a separate, opt-in listener.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "fifl-node: pprof listener:", err)
			}
		}()
		fmt.Printf("pprof: serving on http://%s/debug/pprof/\n", *pprofAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	so := serveOpts{
		Listen: *listen, WorkerTimeout: *wtmo, Linger: *linger,
		CheckpointDir: *ckptDir, HaltAfter: *haltAt, AdvanceInterval: *advIntvl,
	}
	switch *role {
	case "coordinator":
		err = runCoordinator(ctx, *cfg, so)
	case "worker":
		err = runWorker(ctx, *cfg, workerOpts{
			CoordURL: *coordURL, ID: *id, Join: *join, AuditEvery: *auditN, Audit: *audit,
			Retries: *retries, RetryBackoff: *rbackoff,
		})
	case "root":
		err = runRoot(ctx, *cfg, so)
	case "shard":
		err = runShard(ctx, *cfg, *shardOf, *id)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fifl-node:", err)
		if errors.As(err, new(flagError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// flagError is a flag value that a role can refuse only once it has read
// its inputs, such as -servers against the checkpoint it resumes. It
// exits 2, like the flag checks that run before any role starts.
type flagError struct{ error }

// serveOpts bundles fifl-node's own flags of the two serving roles,
// coordinator and root. A root reads only some of them (roleFlags); the
// others keep their defaults, which leave checkpoints and halting off.
type serveOpts struct {
	Listen          string
	WorkerTimeout   time.Duration
	Linger          time.Duration
	CheckpointDir   string
	HaltAfter       int
	AdvanceInterval time.Duration
}

// workerOpts bundles the worker role's own flags.
type workerOpts struct {
	CoordURL     string
	ID           int
	Join         bool
	AuditEvery   int
	Audit        bool
	Retries      int
	RetryBackoff time.Duration
}

// recipeFor is the federation recipe every node rebuilds from the shared
// flags.
func recipeFor(c cli.Config) transport.Recipe {
	return transport.Recipe{Seed: c.Seed, Workers: c.Workers, SamplesPerWorker: c.Samples}
}

func runCoordinator(ctx context.Context, c cli.Config, o serveOpts) error {
	// Read any existing checkpoint before building anything: the flags
	// must fit it, and a checkpoint written mid-churn can know more
	// identities than the recipe's initial cohort and seat only a subset
	// of them in the active cohort, which sizes the hub.
	var (
		snap     *persist.Snapshot
		ckptPath string
		err      error
	)
	if o.CheckpointDir != "" {
		if err := os.MkdirAll(o.CheckpointDir, 0o755); err != nil {
			return err
		}
		ckptPath = filepath.Join(o.CheckpointDir, "checkpoint.fifl")
		if snap, err = cli.ReadCheckpoint(ckptPath); err != nil {
			return err
		}
		if err := c.CheckResume(snap); err != nil {
			return flagError{err}
		}
	}
	recipe := recipeFor(c)
	build, err := recipe.Builder()
	if err != nil {
		return err
	}
	nKnown := recipe.Workers
	if snap != nil {
		nKnown = len(snap.Reputations)
	}
	hub, err := transport.NewHub(nKnown)
	if err != nil {
		return err
	}
	// The engine's cohort follows the checkpoint's slot order, not the
	// dense 0..n-1 identity.
	engineWorkers := hub.Workers()
	if snap != nil && len(snap.ActiveCohort) > 0 {
		if engineWorkers, err = hub.WorkersFor(snap.ActiveCohort); err != nil {
			return err
		}
	}
	opts := []fl.Option{fl.WithWorkerTimeout(o.WorkerTimeout)}
	if c.Quorum > 0 {
		opts = append(opts, fl.WithQuorum(c.Quorum))
	}
	engine, err := fl.NewEngine(fl.Config{Servers: c.Servers, GlobalLR: 0.05},
		build, engineWorkers, rng.New(recipe.Seed).Split("netfed"), opts...)
	if err != nil {
		return err
	}
	// -async swaps only the Collect stage: the hub accepts uploads for any
	// already-broadcast round whenever they land, and each advance drains
	// the queue on the count/time cadence. The collector must be built
	// before the hub replays any checkpoint (EnableAsync precedes traffic).
	var coordOpts []core.CoordinatorOption
	if c.Async {
		col, err := transport.NewAsyncCollector(hub, engine, transport.AsyncConfig{
			MaxStaleness:    c.MaxStaleness,
			AdvanceEvery:    c.AdvanceEvery,
			AdvanceInterval: o.AdvanceInterval,
		})
		if err != nil {
			return err
		}
		coordOpts = append(coordOpts, core.WithCollector(col))
		fmt.Printf("coordinator: async mode, max-staleness %d, advance every %d submissions or %v\n",
			c.MaxStaleness, c.AdvanceEvery, o.AdvanceInterval)
	}

	// With a snapshot in hand this process is a restart: rebuild the
	// coordinator from it and seed the hub so reconnecting workers
	// long-poll straight into the resumed round.
	var (
		coord      *core.Coordinator
		startRound int
	)
	if snap != nil {
		coord, err = core.RestoreCoordinatorSnapshot(snap, coordinatorConfig(c.Sy), engine, coordOpts...)
		if err != nil {
			return fmt.Errorf("restoring %s: %w", ckptPath, err)
		}
		if err := hub.Restore(snap); err != nil {
			return fmt.Errorf("restoring %s: %w", ckptPath, err)
		}
		startRound = snap.NextRound
		fmt.Printf("coordinator: resumed from %s at round %d\n", ckptPath, startRound)
	}
	if coord == nil {
		if coord, err = newCoordinator(c, engine, coordOpts...); err != nil {
			return err
		}
	}
	srv, err := transport.NewServer(coord, hub)
	if err != nil {
		return err
	}
	return serve(ctx, c, o, serving{
		name:     "coordinator",
		waiting:  fmt.Sprintf("%d workers to register", recipe.Workers),
		ready:    "federation ready",
		srv:      srv,
		coord:    coord,
		start:    startRound,
		ckptPath: ckptPath,
	})
}

// coordinatorConfig is the coordinator configuration both serving roles
// run. It is fifl-node's own, not experiments.DefaultCoordinatorConfig:
// it has no Clamp and no SmoothBH, and its ledger bytes depend on that.
func coordinatorConfig(sy float64) core.CoordinatorConfig {
	return core.CoordinatorConfig{
		Detection:      core.Detector{Threshold: sy},
		Reputation:     core.DefaultReputationConfig(),
		Contribution:   core.ContributionConfig{BaselineWorker: -1},
		RewardPerRound: 1,
		RecordToLedger: true,
	}
}

// newCoordinator starts a coordinator over engine with the initial server
// cluster [0, Servers).
func newCoordinator(c cli.Config, engine *fl.Engine, opts ...core.CoordinatorOption) (*core.Coordinator, error) {
	initial := make([]int, c.Servers)
	for i := range initial {
		initial[i] = i
	}
	return core.NewCoordinator(coordinatorConfig(c.Sy), engine, initial, opts...)
}

// serving is one serving role's coordinator behind its server, with what
// differs between the roles: the log prefix, what readiness waits for, and
// the coordinator's resume round and checkpoint file (none for a root).
type serving struct {
	name     string // log prefix
	waiting  string // what WaitReady waits for
	ready    string // printed once it is ready
	srv      *transport.Server
	coord    *core.Coordinator
	start    int    // the first round to run
	ckptPath string // checkpoint file; "" = none
}

// serve is the serving roles' one path: listen, wait for every peer, run
// the rounds through the server with a status line each and an
// evaluation where -eval asks for one, then mark the federation done and
// keep serving its reports and ledger for the linger period.
func serve(ctx context.Context, c cli.Config, o serveOpts, r serving) error {
	defer r.srv.Close()
	httpSrv := &http.Server{Addr: o.Listen, Handler: r.srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(sctx)
	}()
	fmt.Printf("%s: listening on %s, waiting for %s\n", r.name, o.Listen, r.waiting)

	if err := r.srv.WaitReady(ctx); err != nil {
		select {
		case serveErr := <-errc:
			return fmt.Errorf("serving %s: %w", o.Listen, serveErr)
		default:
			return fmt.Errorf("waiting for %s: %w", r.waiting, err)
		}
	}
	fmt.Printf("%s: %s\n", r.name, r.ready)

	test, err := recipeFor(c).TestSet(500)
	if err != nil {
		return err
	}
	for t := r.start; t < c.Rounds; t++ {
		// Queued join/leave handshakes land at round boundaries, mirroring
		// the in-process contract that the cohort is stable within a round.
		// A root mounts no membership endpoints, so it never has any.
		if n := r.srv.ProcessMembership(); n > 0 {
			fmt.Printf("round %2d: applied %d membership change(s), cohort now %d worker(s)\n",
				t, n, len(r.coord.WorkerIDs()))
		}
		rep, err := r.srv.RunRound(ctx, t)
		if err != nil {
			return fmt.Errorf("round %d: %w", t, err)
		}
		arrived := 0
		for _, s := range rep.Statuses {
			if s.Arrived() {
				arrived++
			}
		}
		fmt.Printf("round %2d: %d/%d uploads arrived, committed=%v, reputations=%.3f\n",
			t, arrived, len(rep.Statuses), rep.Committed, rep.Reputations)
		if c.Evaluates(t) {
			acc, loss := r.coord.Engine.Evaluate(test, 64)
			fmt.Printf("round %2d: global accuracy %.3f, loss %.4f\n", t, acc, loss)
		}
		halting := o.HaltAfter > 0 && t+1 >= o.HaltAfter
		if r.ckptPath != "" && ((t+1)%c.CheckpointEvery == 0 || halting) {
			snap, err := r.coord.Snapshot()
			if err != nil {
				return fmt.Errorf("round %d: snapshot: %w", t, err)
			}
			if err := persist.WriteFile(r.ckptPath, snap); err != nil {
				return fmt.Errorf("round %d: writing checkpoint: %w", t, err)
			}
			fmt.Printf("round %2d: checkpoint written to %s\n", t, r.ckptPath)
		}
		if halting {
			// Crash-recovery testing hook: the checkpoint for this round is
			// on disk and no further round starts, so a SIGKILL here and a
			// restart from -checkpoint reproduce the uninterrupted run bit
			// for bit (workers ride through on their retry budget).
			fmt.Printf("%s: halt-after %d — blocking until killed\n", r.name, o.HaltAfter)
			<-ctx.Done()
			return nil
		}
	}
	r.srv.MarkDone()
	fmt.Printf("%s: done — ledger holds %d blocks; serving reports for %s\n",
		r.name, r.coord.Ledger.Len(), o.Linger)
	select {
	case <-time.After(o.Linger):
	case <-ctx.Done():
	}
	return nil
}

func runWorker(ctx context.Context, c cli.Config, o workerOpts) error {
	recipe := recipeFor(c)
	if o.Join {
		// The join handshake blocks until the coordinator applies queued
		// membership at a round boundary, then assigns the next stable ID.
		// The assigned ID names this worker's slot in the shared -workers
		// universe, so its data partition is the one every node agrees on.
		id, err := transport.JoinFederation(ctx, o.CoordURL, recipe.SamplesPerWorker)
		if err != nil {
			return fmt.Errorf("joining %s: %w", o.CoordURL, err)
		}
		if id >= recipe.Workers {
			return fmt.Errorf("joined as worker %d but -workers reserves only %d slots; every node must pass the same total including joiners", id, recipe.Workers)
		}
		fmt.Printf("worker: joined %s as worker %d\n", o.CoordURL, id)
		o.ID = id
	}
	w, err := recipe.Worker(o.ID)
	if err != nil {
		return err
	}
	id, coordURL, audit := o.ID, o.CoordURL, o.Audit
	client, err := transport.DialWorker(ctx, transport.ClientConfig{
		BaseURL:       coordURL,
		Worker:        w,
		Compression:   c.Compression,
		AuditEvery:    o.AuditEvery,
		RetryAttempts: o.Retries,
		RetryBackoff:  o.RetryBackoff,
	})
	if err != nil {
		return err
	}
	fmt.Printf("worker %d: registered with %s (%d local samples, compression %s)\n", id, coordURL, w.NumSamples(), c.Compression)
	trained, err := client.Run(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("worker %d: federation done after training %d rounds\n", id, trained)
	if last := client.LastRound(); last >= 0 {
		rep, err := client.FetchReport(ctx, last)
		if err != nil {
			return err
		}
		fmt.Printf("worker %d: final reputation %.4f, reward %.4f (round %d, status %s)\n",
			id, rep.Reputations[id], rep.Rewards[id], rep.Round, rep.Statuses[id])
	}
	if audit {
		blocks, err := client.VerifyLedger(ctx)
		if err != nil {
			return fmt.Errorf("ledger audit: %w", err)
		}
		fmt.Printf("worker %d: audit ledger verified, %d blocks intact\n", id, blocks)
	}
	return nil
}

// runRoot serves the shard protocol: edge aggregators register worker
// cohorts, and the root's coordinator runs the full FIFL pipeline over
// their pre-aggregated evidence, unfolded into per-worker events.
func runRoot(ctx context.Context, c cli.Config, o serveOpts) error {
	recipe := recipeFor(c)
	build, err := recipe.Builder()
	if err != nil {
		return err
	}
	// The root never trains: its engine slots are per-worker virtual
	// stand-ins carrying only the sample counts the recipe implies.
	all, err := recipe.AllWorkers()
	if err != nil {
		return err
	}
	samples := make([]int, len(all))
	for i, w := range all {
		samples[i] = w.NumSamples()
	}
	root, err := fl.NewEngine(fl.Config{Servers: c.Servers, GlobalLR: 0.05},
		build, shard.VirtualWorkers(samples), rng.New(recipe.Seed).Split("shard-root"), fl.WithQuorum(c.Quorum))
	if err != nil {
		return err
	}
	hub, err := shard.NewShardHub(recipe.Workers, c.Shards, root.Metrics())
	if err != nil {
		return err
	}
	bridge, err := shard.NewBridge(hub, root, c.Quorum)
	if err != nil {
		return err
	}
	coord, err := newCoordinator(c, root, core.WithCollector(bridge))
	if err != nil {
		return err
	}
	bridge.BindServers(coord.Servers)
	srv, err := shard.NewServer(coord, hub)
	if err != nil {
		return err
	}
	return serve(ctx, c, o, serving{
		name:    "root",
		waiting: fmt.Sprintf("%d shards covering %d workers", c.Shards, recipe.Workers),
		ready:   "all cohorts registered",
		srv:     srv,
		coord:   coord,
	})
}

// runShard hosts one worker cohort behind an edge aggregator: it rebuilds
// its slots from the shared recipe, registers the cohort with the root
// and obeys the directive stream until the federation finishes.
func runShard(ctx context.Context, c cli.Config, rootURL string, id int) error {
	recipe := recipeFor(c)
	// Every node derives the same near-equal contiguous cohort layout from
	// (workers, shards), so the root's tiling check accepts the hellos.
	sizes := experiments.ShardCohorts(recipe.Workers, c.Shards)
	first := 0
	for s := 0; s < id; s++ {
		first += sizes[s]
	}
	workers, err := recipe.Cohort(first, sizes[id])
	if err != nil {
		return err
	}
	build, err := recipe.Builder()
	if err != nil {
		return err
	}
	engine, err := fl.NewEngine(fl.Config{Servers: 1, GlobalLR: 0.05},
		build, workers, rng.New(recipe.Seed).SplitN("shard", id))
	if err != nil {
		return err
	}
	agg, err := shard.NewAggregator(id, first, engine,
		shard.HTTPLink{Base: rootURL, PollWait: 5 * time.Second})
	if err != nil {
		return err
	}
	if err := agg.Hello(ctx); err != nil {
		return fmt.Errorf("registering with %s: %w", rootURL, err)
	}
	fmt.Printf("shard %d: registered cohort [%d,%d) with %s\n", id, first, first+sizes[id], rootURL)
	if err := agg.Run(ctx); err != nil {
		return err
	}
	fmt.Printf("shard %d: federation done\n", id)
	return nil
}
