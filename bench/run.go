package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"syscall"
	"time"

	"fifl/internal/chain"
	"fifl/internal/core"
	"fifl/internal/faults"
	"fifl/internal/persist"
	"fifl/internal/rng"
	"fifl/internal/score"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports; its JSON form is the last line
// of the program's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	digest string
}

// recordsPerUpload is what the Record stage writes per worker per round:
// upload status, verdict, reputation, contribution and reward.
const recordsPerUpload = 5

// setupRepeats is how often an untraced run sets the federation up; the
// median is reported so one slow start does not decide setup_s.
const setupRepeats = 5

// run carries one workload run: its inputs, the probe every timing is
// calibrated with, the operation tally, the failed gate checks and the
// metrics gathered so far.
type run struct {
	sp   spec
	seed uint64
	tr   *tracer
	pb   *probe
	log  io.Writer

	attempted, failed int
	gate              []string
	metrics           map[string]metric

	// Measurements the per-layer report reuses.
	okUploads    int
	badUploads   int
	verifyUS     float64 // per block
	verifyFromUS float64 // per block
	writeMBs     float64
	queryUS      float64 // median look-up
	collectUS    float64 // score fold, per block
	finalizeMS   float64
	mismatches   int
}

// op tallies one operation.
func (r *run) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// check records a failed gate condition.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.gate = append(r.gate, fmt.Sprintf(format, args...))
	}
}

// set reports a metric and prints it.
func (r *run) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.log, "  %-44s %16.6g %-6s %s\n", name, v, unit, note)
}

// timing is a series of calibrated durations with their raw total, so a
// report can show both.
type timing struct {
	cal []float64 // calibrated, ms
	raw time.Duration
}

// time runs fn under the probe and adds it to the series.
func (t *timing) time(pb *probe, fn func()) (calibrated time.Duration) {
	raw, cal := pb.timed(fn)
	t.cal = append(t.cal, ms(cal))
	t.raw += raw
	return cal
}

func (t timing) total() time.Duration { return time.Duration(sum(t.cal) * float64(time.Millisecond)) }

// slowdown is raw over calibrated time across the series: how much slower
// than the reference the machine ran while it was taken.
func (t timing) slowdown() float64 {
	if c := t.total(); c > 0 {
		return float64(t.raw) / float64(c)
	}
	return 1
}

func (t timing) note(what string) string {
	return fmt.Sprintf("%s; machine at %.2fx the reference time", what, t.slowdown())
}

// quiet starts a series of measurements from a collected heap and a fresh
// probe window, so that where the garbage collector stands when the series
// begins is the same on every run.
func (r *run) quiet() {
	runtime.GC()
	r.pb.settle()
}

// usage is the process's CPU time and peak resident set so far.
func usage() (cpu time.Duration, maxRSSKiB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, int64(ru.Maxrss)
}

// checkRound tallies one round's uploads: all fail if the round errored,
// one fails if its upload was not OK or its verdict is not the planted
// one. It also checks Eq. 15 on the report: shares recompute exactly from
// the reported reputations and contributions, and rewards are the budget
// times the shares.
func (r *run) checkRound(t int, rep *core.RoundReport, err error) {
	n := r.sp.workers
	if err != nil {
		r.check(false, "round %d: %v", t, err)
		for i := 0; i < n; i++ {
			r.op(false)
		}
		r.badUploads += n
		return
	}
	for i := 0; i < n; i++ {
		arrived := i < len(rep.Statuses) && rep.Statuses[i] == faults.StatusOK
		if arrived {
			r.okUploads++
		} else {
			r.badUploads++
		}
		verdict := i < len(rep.Detection.Accept) && (!r.sp.planted() || rep.Detection.Accept[i] != isAttacker(i))
		r.op(arrived && verdict)
	}
	want, err := core.RewardShares(rep.Reputations, rep.Contributions.C)
	if err != nil {
		r.check(false, "round %d: recomputing Eq. 15: %v", t, err)
		return
	}
	budget := coordConfig().RewardPerRound
	for i := range want {
		if rep.Shares[i] != want[i] || rep.Rewards[i] != budget*rep.Shares[i] {
			r.check(false, "round %d worker %d: share %g reward %g, Eq. 15 gives %g", t, i, rep.Shares[i], rep.Rewards[i], want[i])
			return
		}
	}
}

// phase is what a stretch of rounds cost.
type phase struct {
	timing                 // per-round latency
	first    int           // round number of the first sample
	rawLat   []float64     // per-round raw latency, ms
	cpu      time.Duration // of the process, without the probe's own
	alloc    uint64        // bytes
	mallocs  uint64        // objects
	up, down int64         // bytes towards and away from the coordinator
	frames   int64         // shard link frames
	requests int64         // worker-client HTTP requests
	blocks   int           // ledger blocks appended
}

// slowdownOf is how much slower than the reference the machine ran during
// round t, 1 for a round outside the phase.
func (p phase) slowdownOf(t int) float64 {
	if i := t - p.first; i >= 0 && i < len(p.cal) && p.cal[i] > 0 {
		return p.rawLat[i] / p.cal[i]
	}
	return 1
}

// counters reads the federation's running totals into a phase.
func counters(fed *federation) phase {
	var p phase
	p.up, p.down = fed.traffic()
	if fed.link != nil {
		p.frames = fed.link.frames.Load()
	}
	if fed.http != nil {
		p.requests = fed.http.requests.Load()
	}
	p.blocks = fed.coord.Ledger.Len()
	return p
}

// rounds drives count closed-loop rounds starting at round from, one
// after the other, checking each report between rounds (outside the
// latency samples).
func (r *run) rounds(ctx context.Context, fed *federation, from, count int) phase {
	var before, after runtime.MemStats
	p := phase{first: from}
	r.quiet()
	runtime.ReadMemStats(&before)
	cpu0, _ := usage()
	probe0 := r.pb.spent
	c0 := counters(fed)
	for t := from; t < from+count; t++ {
		var (
			rep *core.RoundReport
			err error
		)
		raw0 := p.raw
		p.time(r.pb, func() { rep, err = fed.runRound(ctx, t) })
		p.rawLat = append(p.rawLat, ms(p.raw-raw0))
		r.checkRound(t, rep, err)
	}
	cpu1, _ := usage()
	runtime.ReadMemStats(&after)
	p.cpu = cpu1 - cpu0 - (r.pb.spent - probe0) // the probe is one busy thread
	p.alloc = after.TotalAlloc - before.TotalAlloc
	p.mallocs = after.Mallocs - before.Mallocs
	c1 := counters(fed)
	p.up, p.down = c1.up-c0.up, c1.down-c0.down
	p.frames, p.requests, p.blocks = c1.frames-c0.frames, c1.requests-c0.requests, c1.blocks-c0.blocks
	return p
}

// setup builds the federation and runs its first round, which is where
// arenas, signing buffers and connections are first used.
func (r *run) setup(ctx context.Context, tr *tracer, t *timing) (*federation, error) {
	var (
		fed *federation
		rep *core.RoundReport
		err error
	)
	r.pb.settle()
	t.time(r.pb, func() {
		if fed, err = buildFederation(ctx, r.sp, r.seed, tr); err == nil {
			rep, err = fed.runRound(ctx, 0)
		}
	})
	if fed == nil {
		return nil, fmt.Errorf("building %s: %w", r.sp.name, err)
	}
	r.checkRound(0, rep, err)
	return fed, nil
}

// exportLedger returns the ledger's binary export and how long writing it
// took.
func exportLedger(l *chain.Ledger) ([]byte, time.Duration, error) {
	buf := bytes.NewBuffer(make([]byte, 0, l.Len()*256+4096))
	start := time.Now()
	err := l.WriteBinary(buf)
	return buf.Bytes(), time.Since(start), err
}

// runWorkload runs one workload end to end and reports its metrics: the
// end-to-end set when tr is nil, the per-layer set from a traced run
// otherwise.
func runWorkload(ctx context.Context, sp spec, seed uint64, tr *tracer, traceDir string, log io.Writer) (*result, error) {
	build, err := builderFor(sp, seed)
	if err != nil {
		return nil, err
	}
	n, W, R := sp.workers, sp.warm, sp.rounds
	r := &run{sp: sp, seed: seed, tr: tr, pb: newProbe(n * build().NumParams()), log: log, metrics: map[string]metric{}}
	fmt.Fprintf(log, "workload %s: %s, %s, n=%d, warm=%d rounds, timed=%d rounds, seed=%d, traced=%t\n",
		sp.name, modeName(sp.mode), sp.model, n, W, R, seed, tr != nil)

	// The traced run first measures an untraced reference over the first
	// quarter of the timed rounds, which is what tracing overhead and the
	// per-round object count are taken against.
	var ref phase
	if tr != nil {
		fed, err := r.setup(ctx, nil, &timing{})
		if err != nil {
			return nil, err
		}
		r.rounds(ctx, fed, 1, W-1)
		ref = r.rounds(ctx, fed, W, (R+3)/4)
		if err := fed.close(); err != nil {
			return nil, fmt.Errorf("closing reference federation: %w", err)
		}
	}

	// Set-up, repeated on the untraced run; the last federation is the
	// one measured.
	var (
		fed    *federation
		setups timing
	)
	repeats := setupRepeats
	if tr != nil {
		repeats = 1
	}
	for k := 0; k < repeats; k++ {
		if fed != nil {
			if err := fed.close(); err != nil {
				return nil, fmt.Errorf("closing set-up federation: %w", err)
			}
		}
		f, err := r.setup(ctx, tr, &setups)
		if err != nil {
			return nil, err
		}
		fed = f
	}
	defer func() {
		if fed != nil {
			_ = fed.close() // error path only; the success path closes below
		}
	}()

	// Warm-up to the checkpoint height, then the checkpoints: the stall a
	// snapshot imposes on training at that height.
	r.rounds(ctx, fed, 1, W-1)
	warmBlocks := fed.coord.Ledger.Len()
	var (
		ckpt  bytes.Buffer
		ckpts timing
	)
	r.quiet()
	for k := 0; k < sp.reads.checkpoint; k++ {
		ckpt.Reset()
		ckpts.time(r.pb, func() { err = fed.coord.Checkpoint(&ckpt) })
		r.op(err == nil)
		r.check(err == nil, "checkpoint: %v", err)
	}

	// The timed rounds.
	p := r.rounds(ctx, fed, W, R)
	uploads := float64(n * R)

	// The read side. Whole-ledger operations run on the checkpoint's
	// ledger, which is short enough for the probe to bracket each call;
	// the final ledger is verified once, untimed, as part of the gate.
	led := fed.coord.Ledger
	blocks := led.Len()
	r.check(led.Verify() == nil, "Ledger.Verify failed on the final ledger")
	export, writeTime, err := exportLedger(led)
	r.check(err == nil, "WriteBinary: %v", err)
	r.writeMBs = perSecond(float64(len(export))/1e6, writeTime)

	var (
		restores timing
		restored *core.Coordinator
	)
	r.quiet()
	for k := 0; k < sp.reads.restore; k++ {
		engine, err := fed.freshEngine()
		if err != nil {
			return nil, fmt.Errorf("engine for restore: %w", err)
		}
		var c *core.Coordinator
		restores.time(r.pb, func() { c, err = core.RestoreCoordinator(bytes.NewReader(ckpt.Bytes()), coordConfig(), engine) })
		ok := err == nil && c.Ledger.Len() == warmBlocks && c.NextRound() == W
		r.op(ok)
		r.check(ok, "RestoreCoordinator: %v", err)
		if ok {
			restored = c
		}
	}
	if restored == nil {
		return nil, fmt.Errorf("no coordinator could be restored from the checkpoint: %v", r.gate)
	}

	var (
		verifies    timing
		verifyRates []float64 // blocks per second of each call
	)
	r.quiet()
	for k := 0; k < sp.reads.verify; k++ {
		d := verifies.time(r.pb, func() { err = restored.Ledger.Verify() })
		verifyRates = append(verifyRates, perSecond(float64(warmBlocks), d))
		r.verifyUS = us(d) / float64(warmBlocks)
		r.op(err == nil)
		r.check(err == nil, "Ledger.Verify: %v", err)
	}
	snap, err := persist.Read(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("reading the checkpoint back: %w", err)
	}
	for k := 0; k < sp.reads.verifyFrom; k++ {
		got := 0
		d := verifies.time(r.pb, func() { got, err = chain.VerifyFrom(bytes.NewReader(snap.Ledger)) })
		verifyRates = append(verifyRates, perSecond(float64(got), d))
		r.verifyFromUS = us(d) / float64(max(got, 1))
		r.op(err == nil && got == warmBlocks)
		r.check(err == nil && got == warmBlocks, "VerifyFrom: %d blocks, want %d: %v", got, warmBlocks, err)
	}

	var (
		audits     timing
		auditRates []float64 // blocks per second of each fold
	)
	r.quiet()
	for k := 0; k < sp.reads.audit; k++ {
		col := score.NewCollector(score.Config{})
		var rep *score.Report
		folded := audits.time(r.pb, func() { err = col.FromStream(bytes.NewReader(export)) })
		finalized := audits.time(r.pb, func() { _, rep = col.Finalize() })
		auditRates = append(auditRates, perSecond(float64(blocks), folded+finalized))
		r.collectUS = us(folded) / float64(blocks)
		r.finalizeMS = ms(finalized)
		ok := err == nil && rep.Blocks == blocks && rep.MismatchCount == 0 && rep.UnauditedRounds == 0 && rep.Rounds == W+R
		r.mismatches = rep.MismatchCount
		r.op(ok)
		r.check(ok, "score audit: %d blocks, %d rounds, %d mismatches, %d unaudited rounds: %v",
			rep.Blocks, rep.Rounds, rep.MismatchCount, rep.UnauditedRounds, err)
	}

	var queries timing
	qsrc := rng.New(seed).Split("queries")
	kinds := []chain.RecordKind{chain.KindUpload, chain.KindDetection, chain.KindReputation, chain.KindContribution, chain.KindReward}
	r.quiet()
	for k := 0; k < sp.reads.query; k++ {
		kind, it, w := kinds[qsrc.Intn(len(kinds))], qsrc.Intn(W+R), qsrc.Intn(n)
		var recs []chain.Record
		queries.time(r.pb, func() { recs = led.Query(kind, it, w) })
		ok := len(recs) == 1 && recs[0].Kind == kind && recs[0].Iteration == it && recs[0].WorkerID == w
		r.op(ok)
		r.check(ok, "Query(%s, %d, %d) returned %d records", kind, it, w, len(recs))
	}
	r.queryUS = median(queries.cal) * 1000

	// Gate on the final state and digest it.
	r.check(blocks == recordsPerUpload*n*(W+R), "ledger height %d, want %d", blocks, recordsPerUpload*n*(W+R))
	r.check(fed.coord.NextRound() == W+R, "coordinator at round %d, want %d", fed.coord.NextRound(), W+R)
	digest := stateDigest(fed.coord, export)

	_, rss := usage()
	if tr == nil {
		latP90, pct := tailPercentile(p.cal, 90)
		r.set("setup_s", median(setups.cal)/1000, "s", setups.note(fmt.Sprintf("median of %d set-ups, each with its first round", len(setups.cal))))
		r.set("uploads_per_s", perSecond(uploads, p.total()), "1/s", p.note(fmt.Sprintf("%d workers x %d rounds, raw %.6g", n, R, perSecond(uploads, p.raw))))
		r.set("round_ms_p50", median(p.cal), "ms", fmt.Sprintf("%d samples, raw %.6g", len(p.cal), median(p.rawLat)))
		r.set("round_ms_p90", latP90, "ms", fmt.Sprintf("p%d of %d samples", pct, len(p.cal)))
		r.set("cpu_ms_per_round", ms(p.cpu)/p.slowdown()/float64(R), "ms", fmt.Sprintf("user+sys, raw %.6g", ms(p.cpu)/float64(R)))
		r.set("alloc_kb_per_upload", float64(p.alloc)/1024/uploads, "KiB", "")
		r.set("peak_rss_mb", float64(rss)/1024, "MiB", "")
		r.set("wire_bytes_per_round", float64(p.up+p.down)/float64(R), "B", "")
		r.set("ledger_bytes_per_upload", float64(len(export))/float64(n*(W+R)), "B", fmt.Sprintf("%d-byte export of %d blocks", len(export), blocks))
		r.set("verify_blocks_per_s", median(verifyRates), "1/s", verifies.note(fmt.Sprintf("median of %d x Verify and %d x VerifyFrom of %d blocks", sp.reads.verify, sp.reads.verifyFrom, warmBlocks)))
		r.set("audit_blocks_per_s", median(auditRates), "1/s", audits.note(fmt.Sprintf("median of %d folds of %d blocks", sp.reads.audit, blocks)))
		r.set("checkpoint_ms_p50", median(ckpts.cal), "ms", ckpts.note(fmt.Sprintf("%d samples at %d blocks", len(ckpts.cal), warmBlocks)))
		r.set("restore_s", median(restores.cal)/1000, "s", restores.note(fmt.Sprintf("%d samples at %d blocks", len(restores.cal), warmBlocks)))
		r.set("query_us_p50", r.queryUS, "us", queries.note(fmt.Sprintf("%d samples on %d blocks", len(queries.cal), blocks)))
	} else {
		if err := r.perLayer(ctx, fed, ref, p, export, snap, traceDir); err != nil {
			return nil, err
		}
	}

	err = fed.close()
	fed = nil
	if err != nil {
		return nil, fmt.Errorf("closing federation: %w", err)
	}
	for _, g := range r.gate {
		fmt.Fprintf(log, "FAILED CHECK: %s\n", g)
	}
	fmt.Fprintf(log, "operations %d attempted, %d failed\nstate_digest %s %s\n", r.attempted, r.failed, sp.name, digest)
	return &result{
		Correct:   r.failed == 0 && len(r.gate) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
		digest:    digest,
	}, nil
}

// stateDigest is a SHA-256 over what a run leaves behind: the model
// parameters, every reputation, every cumulative reward and the ledger
// export. Two runs of one commit at one seed must agree on it.
func stateDigest(c *core.Coordinator, export []byte) string {
	h := sha256.New()
	var b [8]byte
	for _, vs := range [][]float64{c.Engine.ParamsRef(), c.Rep.Reputations(), c.CumulativeRewards()} {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	h.Write(export)
	return hex.EncodeToString(h.Sum(nil))
}

func modeName(m mode) string {
	switch m {
	case modeFlat:
		return "flat in-process"
	case modeSharded:
		return "2 edge aggregators over the shard codec"
	default:
		return "HTTP on 127.0.0.1"
	}
}
