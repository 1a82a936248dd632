package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fifl/internal/chain"
	"fifl/internal/core"
	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/persist"
	"fifl/internal/rng"
	"fifl/internal/transport/codec"
)

// Repetitions of a replayed kernel: millisecond-scale calls run a few
// times, microsecond-scale calls often; the median is reported.
const (
	slowReps = 5
	fastReps = 50
)

// codecDim is the gradient size every codec row is measured at: the wire
// recipe's 784-16-10 MLP.
const codecDim = 28*28*16 + 16 + 16*10 + 10

// medianOf times fn reps times under the probe and returns the median
// calibrated duration.
func (r *run) medianOf(reps int, fn func()) time.Duration {
	var t timing
	for i := 0; i < reps; i++ {
		t.time(r.pb, fn)
	}
	return time.Duration(median(t.cal) * float64(time.Millisecond))
}

// perSecond is n units per duration, 0 for a zero duration.
func perSecond(n float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return n / d.Seconds()
}

// perLayer reports the per-layer metrics of a traced run: stage and call
// spans from the trace, kernel numbers from a replay of one collected
// round through each layer's public functions, and the read-side numbers
// the run already took.
func (r *run) perLayer(ctx context.Context, fed *federation, ref, timed phase, export []byte, snap *persist.Snapshot, traceDir string) error {
	sp := r.sp
	n, W, R := sp.workers, sp.warm, sp.rounds
	rounds := float64(R)
	r.tr.link()
	spans := r.tr.timed(W, timed.slowdownOf)

	// core pipeline stages, over the timed rounds.
	for _, st := range fed.coord.Pipeline().StageNames() {
		r.set(spanStagePrefix+st+".ms_per_round", sum(spans.byName(spanStagePrefix+st))/rounds, "ms", "")
	}

	// Replay: collect one round on a flat in-process engine over the same
	// cohort and time each layer on it.
	ws, err := fed.replayWorkers()
	if err != nil {
		return fmt.Errorf("replay workers: %w", err)
	}
	engine, err := newEngine(fed.build, ws, r.seed)
	if err != nil {
		return fmt.Errorf("replay engine: %w", err)
	}
	var rr *fl.RoundResult
	collect := r.medianOf(slowReps, func() { rr, err = engine.CollectGradientsContext(ctx, 0) })
	if err != nil {
		return fmt.Errorf("replay collect: %w", err)
	}
	dim := len(engine.ParamsRef())
	cfg := coordConfig()
	cluster := []int{0, 1}

	var det *core.DetectionResult
	detect := r.medianOf(slowReps, func() { det, err = cfg.Detection.DetectRound(rr, cluster, servers) })
	if err != nil {
		return fmt.Errorf("replay detect: %w", err)
	}
	accepted, rejected, uncertain := 0, 0, 0
	for i := range det.Accept {
		switch {
		case det.Uncertain[i]:
			uncertain++
		case det.Accept[i]:
			accepted++
		default:
			rejected++
		}
	}
	var global gradvec.Vector
	aggregate := r.medianOf(slowReps, func() { global, err = engine.AggregateRound(rr, det.Accept) })
	if err != nil {
		return fmt.Errorf("replay aggregate: %w", err)
	}
	var contrib *core.Contributions
	contribution := r.medianOf(slowReps, func() { contrib = core.ComputeContributions(cfg.Contribution, global, rr.Grads) })
	tracker := core.NewReputationTracker(cfg.Reputation, n)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	events := det.Events()
	reputation := r.medianOf(fastReps, func() { err = tracker.Clone().UpdateIDs(ids, events) })
	if err != nil {
		return fmt.Errorf("replay reputation: %w", err)
	}
	reward := r.medianOf(fastReps, func() { _, err = core.RewardShares(tracker.Reputations(), contrib.C) })
	if err != nil {
		return fmt.Errorf("replay reward: %w", err)
	}
	apply := r.medianOf(fastReps, func() { engine.ApplyGlobal(global) })

	r.set("core.detect.ms", ms(detect), "ms", "Detector.DetectRound on one collected round")
	r.set("core.detect.accepted", float64(accepted), "count", "")
	r.set("core.detect.rejected", float64(rejected), "count", "")
	r.set("core.detect.uncertain", float64(uncertain), "count", "")
	r.set("core.contribution.ms", ms(contribution), "ms", "ComputeContributions")
	r.set("core.reputation.us", us(reputation), "us", "Clone + UpdateIDs")
	r.set("core.reward.us", us(reward), "us", "RewardShares")
	r.set("core.round.allocs", float64(ref.mallocs)/float64(len(ref.cal)), "count", "objects per untraced round")

	r.set("fl.collect.ms_per_round", ms(collect), "ms", "Engine.CollectGradientsContext, flat")
	r.set("fl.collect.uploads_ok", float64(r.okUploads), "count", "over every round of the run")
	r.set("fl.collect.uploads_failed", float64(r.badUploads), "count", "")
	r.set("fl.aggregate.ms", ms(aggregate), "ms", "Engine.AggregateRound")
	r.set("fl.aggregate.gb_per_s", perSecond(float64(accepted*dim*8)/1e9, aggregate), "GB/s", "accepted gradients read")
	r.set("fl.apply_global.us", us(apply), "us", "Engine.ApplyGlobal")

	// gradvec kernels at the workload's dimension over the whole cohort;
	// GB/s counts the operand vectors read.
	bench := rr.Grads[0]
	acc := gradvec.Zeros(dim)
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / float64(n)
	}
	sink := 0.0
	cohortGB := float64(n*dim*8) / 1e9
	for _, k := range []struct {
		name     string
		operands float64
		fn       func()
	}{
		{"dot", 2, func() {
			for _, g := range rr.Grads {
				sink += g.Dot(bench)
			}
		}},
		{"norm2", 1, func() {
			for _, g := range rr.Grads {
				sink += g.Norm2()
			}
		}},
		{"cossim", 2, func() {
			for _, g := range rr.Grads {
				sink += g.CosSim(bench)
			}
		}},
		{"sqdist", 2, func() {
			for _, g := range rr.Grads {
				sink += g.SqDist(bench)
			}
		}},
		{"addscaled", 2, func() {
			for _, g := range rr.Grads {
				acc.AddScaled(1e-3, g)
			}
		}},
		{"weightedsum", 1, func() { sink += gradvec.WeightedSum(rr.Grads, weights)[0] }},
	} {
		d := r.medianOf(slowReps, k.fn)
		r.set("gradvec."+k.name+".gb_per_s", perSecond(k.operands*cohortGB, d), "GB/s", "")
	}
	if math.IsNaN(sink) {
		return fmt.Errorf("gradvec replay produced NaN")
	}

	if err := r.chainLayer(fed, export, timed); err != nil {
		return err
	}
	if err := r.codecLayer(n, dim); err != nil {
		return err
	}

	// transport, from the counting RoundTripper, the server's traffic
	// counters and the two registries. Zero off the wire workload.
	var perRound, retries, replays, upBytes, downBytes float64
	if fed.http != nil {
		perRound = float64(timed.requests) / rounds
		retries = float64(fed.clientReg.Counter("fifl_client_retry_attempts_total").Value())
		replays = float64(fed.coord.Metrics().Counter("fifl_transport_submit_replays_total").Value())
		upBytes, downBytes = float64(timed.up)/rounds, float64(timed.down)/rounds
	}
	r.set("transport.http_requests_per_round", perRound, "count", "")
	r.set("transport.submit.ms_p50", median(spans.byName(spanHTTPSubmit)), "ms", "")
	r.set("transport.model_poll.ms_p50", median(spans.byName(spanHTTPModel)), "ms", "")
	r.set("transport.upload_bytes_per_round", upBytes, "B", "")
	r.set("transport.model_bytes_per_round", downBytes, "B", "")
	r.set("transport.retries", retries, "count", "")
	r.set("transport.replays", replays, "count", "")
	wait := 0.0
	if sp.mode == modeWire {
		wait = ms(spans.selfByName(spanStagePrefix+"Collect", spanLocalTrain)) / rounds
	}
	r.set("transport.collect_wait.ms_per_round", wait, "ms", "Collect minus the LocalTrain spans inside it")

	r.set("nn.local_train.ms_per_round", sum(spans.byName(spanLocalTrain))/rounds, "ms", "summed over workers")

	// shard, from the counting root link. Zero off the sharded workload.
	var frames, linkBytes float64
	if fed.link != nil {
		frames, linkBytes = float64(timed.frames)/rounds, float64(timed.up+timed.down)/rounds
	}
	r.set("shard.link.submit.us_p50", median(spans.byName(spanLinkSubmit))*1000, "us", "")
	r.set("shard.link.frames_per_round", frames, "count", "")
	r.set("shard.link.bytes_per_round", linkBytes, "B", "")
	r.set("shard.directive_wait.ms_per_round", sum(spans.byName(spanLinkDirective))/shards/rounds, "ms", "per aggregator")

	// persist, on the warm-up checkpoint; core.Snapshot on the final state.
	var encoded []byte
	encode := r.medianOf(slowReps, func() { encoded, err = persist.Encode(snap) })
	if err != nil {
		return fmt.Errorf("persist.Encode: %w", err)
	}
	decode := r.medianOf(slowReps, func() { _, err = persist.Decode(encoded) })
	if err != nil {
		return fmt.Errorf("persist.Decode: %w", err)
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	ckptPath := filepath.Join(traceDir, "checkpoint-"+sp.name+".tmp")
	writeFile := r.medianOf(slowReps, func() { err = persist.WriteFile(ckptPath, snap) })
	os.Remove(ckptPath)
	if err != nil {
		return fmt.Errorf("persist.WriteFile: %w", err)
	}
	snapshot := r.medianOf(3, func() { _, err = fed.coord.Snapshot() })
	if err != nil {
		return fmt.Errorf("Coordinator.Snapshot: %w", err)
	}
	r.set("persist.encode.ms", ms(encode), "ms", "")
	r.set("persist.decode.ms", ms(decode), "ms", "")
	r.set("persist.snapshot_bytes", float64(len(encoded)), "B", "")
	r.set("persist.write_file.ms", ms(writeFile), "ms", "includes fsync")
	r.set("core.snapshot.ms", ms(snapshot), "ms", "Coordinator.Snapshot at the final height")

	r.set("score.collect.us_per_block", r.collectUS, "us", "")
	r.set("score.finalize.ms", r.finalizeMS, "ms", "")
	r.set("score.audit_mismatches", float64(r.mismatches), "count", "")

	q := len(ref.cal)
	overhead := (sum(timed.cal[:q])/sum(ref.cal) - 1) * 100
	r.set("trace.overhead_pct", overhead, "%", fmt.Sprintf("first %d rounds, traced against untraced", q))

	path, err := r.tr.write(traceDir, sp.name)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.log, "trace: %d spans in %s\n", len(r.tr.spans), path)
	return nil
}

// chainLayer times the ledger's write side on scratch and final ledgers
// and reports the read-side numbers the run already took.
func (r *run) chainLayer(fed *federation, export []byte, timed phase) error {
	sp := r.sp
	n, W, R := sp.workers, sp.warm, sp.rounds
	led := fed.coord.Ledger
	blocks := led.Len()

	// One round's batch, shaped as the Record stage writes it.
	kinds := []chain.RecordKind{chain.KindUpload, chain.KindDetection, chain.KindReputation, chain.KindContribution, chain.KindReward}
	recs := make([]chain.Record, 0, recordsPerUpload*n)
	signers := make([]*chain.Signer, 0, recordsPerUpload*n)
	for i := 0; i < n; i++ {
		s := fed.coord.Signer(i % servers)
		for _, k := range kinds {
			recs = append(recs, chain.Record{Kind: k, Iteration: W + R, WorkerID: i, Value: 0.5})
			signers = append(signers, s)
		}
	}
	var (
		err   error
		alloc uint64
	)
	short := r.medianOf(slowReps, func() {
		l := chain.NewLedger()
		for s := 0; s < servers; s++ {
			if e := l.RegisterExecutor(fed.coord.Signer(s).Name, fed.coord.Signer(s).Public()); e != nil {
				err = e
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if e := l.AppendBatch(signers, recs); e != nil {
			err = e
		}
		runtime.ReadMemStats(&after)
		alloc = after.TotalAlloc - before.TotalAlloc
	})
	if err != nil {
		return fmt.Errorf("scratch append: %w", err)
	}
	// The same batch onto the run's own ledger at its final height. The
	// state digest and export were taken before this.
	tall := r.medianOf(slowReps, func() {
		if e := led.AppendBatch(signers, recs); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("tall append: %w", err)
	}
	signed := 0
	if err := chain.StreamBinary(bytes.NewReader(export), func(b chain.Block) error {
		if len(b.Signature) > 0 {
			signed++
		}
		return nil
	}); err != nil {
		return fmt.Errorf("scanning export: %w", err)
	}
	asrc := rng.New(r.seed).Split("audits")
	audit := r.medianOf(fastReps, func() {
		if _, e := led.Audit(chain.KindReputation, asrc.Intn(W+R), asrc.Intn(n), 0, math.MaxFloat64); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("Ledger.Audit: %w", err)
	}

	perRecord := float64(len(recs))
	r.set("chain.append.us_per_record", us(short)/perRecord, "us", "AppendBatch of one round at height 0")
	r.set("chain.append.us_per_record_tall", us(tall)/perRecord, "us", fmt.Sprintf("the same batch at height %d", blocks))
	r.set("chain.append.alloc_bytes_per_record", float64(alloc)/perRecord, "B", "")
	r.set("chain.records_per_round", float64(timed.blocks)/float64(R), "count", "")
	r.set("chain.signatures_per_round", float64(signed)/float64(W+R), "count", "blocks carrying a signature")
	r.set("chain.export_bytes_per_block", float64(len(export))/float64(blocks), "B", "")
	r.set("chain.verify.us_per_block", r.verifyUS, "us", "Ledger.Verify")
	r.set("chain.verify_from.us_per_block", r.verifyFromUS, "us", "chain.VerifyFrom")
	r.set("chain.write_binary.mb_per_s", r.writeMBs, "MB/s", "Ledger.WriteBinary")
	r.set("chain.query.us", r.queryUS, "us", "Ledger.Query")
	r.set("chain.audit.us", us(audit), "us", "Ledger.Audit")
	return nil
}

// codecLayer times upload frames in every wire encoding at the wire
// recipe's gradient size, and one shard evidence frame at the workload's.
func (r *run) codecLayer(n, dim int) error {
	grad := make([]float64, codecDim)
	rng.New(r.seed).Split("codec").FillNormal(grad, 0, 0.01)
	up := codec.Upload{Round: 3, Worker: 1, Samples: wireSamples, Grad: grad}
	for _, enc := range []codec.Compression{codec.CompressionNone, codec.CompressionF32, codec.CompressionTopK, codec.CompressionInt8, codec.CompressionInt16} {
		var (
			frame []byte
			err   error
		)
		encode := r.medianOf(fastReps, func() { frame, err = codec.EncodeUpload(up, enc) })
		if err != nil {
			return fmt.Errorf("EncodeUpload %s: %w", enc, err)
		}
		decode := r.medianOf(fastReps, func() { _, err = codec.DecodeUpload(frame) })
		if err != nil {
			return fmt.Errorf("DecodeUpload %s: %w", enc, err)
		}
		mb := float64(len(frame)) / 1e6
		r.set("codec.encode_upload.mb_per_s."+enc.String(), perSecond(mb, encode), "MB/s", "")
		r.set("codec.decode_upload.mb_per_s."+enc.String(), perSecond(mb, decode), "MB/s", "")
		r.set("codec.frame_bytes."+enc.String(), float64(len(frame)), "B", "")
	}

	// A detect-phase evidence frame of one of two cohorts: scores,
	// verdicts and the cohort's partial sum.
	cohort := (n + shards - 1) / shards
	ev := &codec.ShardDetectEvidence{
		Scores:  make([]float64, cohort),
		Accept:  make([]bool, cohort),
		Weight:  float64(cohort * fixedSamples),
		Partial: make([]float64, dim),
	}
	rng.New(r.seed).Split("shard-frame").FillNormal(ev.Partial, 0, 0.01)
	sub := codec.ShardSubmit{Shard: 1, Round: 3, Phase: codec.ShardPhaseDetect, Detect: ev}
	var (
		frame []byte
		err   error
	)
	encode := r.medianOf(fastReps, func() { frame, err = codec.EncodeShardSubmit(sub) })
	if err != nil {
		return fmt.Errorf("EncodeShardSubmit: %w", err)
	}
	decode := r.medianOf(fastReps, func() { _, err = codec.DecodeShardSubmit(frame) })
	if err != nil {
		return fmt.Errorf("DecodeShardSubmit: %w", err)
	}
	mb := float64(len(frame)) / 1e6
	r.set("codec.encode_shard_submit.mb_per_s", perSecond(mb, encode), "MB/s", fmt.Sprintf("%d-byte detect evidence", len(frame)))
	r.set("codec.decode_shard_submit.mb_per_s", perSecond(mb, decode), "MB/s", "")
	return nil
}
