#!/bin/sh
# Tier-1 gate: format, vet, build, race-test and fuzz-smoke the module.
#
# internal/experiments is excluded from the -race leg only: its figure
# tests run real training loops that exceed CI timeouts under the race
# detector's ~10x slowdown, and the package spawns no goroutines of its
# own — all concurrency lives in the packages below it (fl, parallel,
# tensor, netsim, transport), which are raced here. It is still covered
# by the plain test leg.
set -eux
cd "$(dirname "$0")"
START=$(date +%s)

# gofmt gate: fail on any unformatted file.
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: unformatted files:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

go vet ./...
go build ./...
go test ./internal/experiments/
# This leg also races the pipeline-vs-legacy differential and the elastic
# membership and churn tests; no later leg re-runs them by name.
go test -race -timeout 20m $(go list ./... | grep -v internal/experiments)

# Gradient-plane differential gate: the four-row screen, distance and fold
# kernels must write the bits of the per-row loops they replaced, and the
# parallel loops move their chunk edges — and so which rows fall in a
# four-row group and which in the 1–3 left over — with GOMAXPROCS, so the
# differentials run at one, two and three cores
# (TestScoreCohortMatchesReference, TestCohortDistancesMatchesReference,
# TestAddWeightedMatchesSerialFold). A wrong-length upload enters the
# round as a row of NaNs and rides the same four-row groups, so the
# wrong-length tests — the door's own and the end-to-end ones holding a
# malformed upload's verdict to a NaN-poisoned one's, flat and sharded —
# run at the same core counts. The training plane rides the same leg: a
# worker's five rounds of uploads on the wire MLP, LeNet and TinyResNet
# must hash to the committed constants (TestLocalTrainGolden), and ten
# repeats of a batch-64 LeNet backward pass — where Conv2D fans its batch
# out and merges one partial per chunk — must give equal bits
# (TestConvBackwardBitsRepeat). Beneath them, the three training matmuls,
# four outputs per pass, must write the bits of the one-accumulator loops
# they replaced over ragged shapes, zero-skipping, signed-zero, Inf and
# NaN operands and row counts on both sides of the 64-row inline
# threshold, where the chunk edges move with GOMAXPROCS
# (TestMatMulMatchesReference).
go test -cpu 1,2,3 -run 'MatchesReference|MatchesSerialFold|Cohort|WrongLength|LocalTrainGolden|ConvBackwardBitsRepeat' ./internal/gradvec ./internal/core ./internal/fl ./internal/shard ./internal/nn ./internal/tensor

# Ledger read-plane race gate: Verify fans the blocks out over the cores
# and must return the serial walk's verdict, so the chain package is raced
# at one core (the inline path) and with two and four goroutines claiming
# the chunks, with the appender, Verify, the indexed look-ups and the
# export running concurrently (TestVerifyMatchesSerialReference,
# TestConcurrentReadersAndAppender).
go test -race -cpu 1,2,4 ./internal/chain

# Shard link race gate: the hub releases a directive's payload when the
# wave answering it is consumed, concurrently with directive handlers and
# aggregators polling for the next one, so the hub, bridge and HTTP link
# tests run raced five times over.
go test -race -count 5 -run 'ShardHub|Bridge|HTTPLink|Release' ./internal/shard

# Ledger layer smoke: Verify, Query and WriteBinary at 8,000 and 100,000
# blocks must complete, so the chain.* layer numbers reproduce without the
# harness (for numbers: -cpu 1,2 and a real -benchtime).
go test -run '^$' -bench 'Verify|Query|WriteBinary' -benchtime=1x ./internal/chain

# Gradient kernel smoke: the per-row and four-row screen, distance and fold
# passes over a deep-flat cohort (64 rows of 78,378 parameters) must run,
# so the gradient-plane numbers reproduce without the harness (for
# numbers: -cpu 1 and a real -benchtime).
go test -run '^$' -bench Cohort -benchtime=1x ./internal/gradvec

# Training matmul smoke: the blocked kernels and the one-accumulator
# loops they replaced, at the wire MLP's, LeNet's FC and the MiniResNet
# head's shapes, must run, so the per-kernel numbers reproduce without
# the harness (for numbers: -cpu 1 and a real -benchtime).
go test -run '^$' -bench 'MatMul' -benchtime=1x ./internal/tensor

# Shard frame smoke: the exact-size encoders of a deep-model detect submit
# and directive, and the append-grown reference writer they replaced, must
# run (for numbers: -benchmem and a real -benchtime).
go test -run '^$' -bench 'EncodeShard' -benchtime=1x ./internal/transport/codec

# Harness gate: bench/ is its own module, invisible to go test ./... above,
# and its smoke test and correctness gate call straight into gradvec, core,
# fl and shard.
(cd bench && go test ./...)

# Allocation regression gate: the round hot path must stay within its
# steady-state allocation budget (after warm-up only the ledger blocks
# and the caller-owned report escape a round), and the staged pipeline
# must stay leaner than the frozen legacy monolith kept in
# internal/core/legacy_test.go. The -race leg above runs both too; this
# leg pins them on an uninstrumented build.
go test -run TestRoundSteadyStateAllocs .
go test -run TestPipelineAllocsFewerThanLegacy ./internal/core

# Fuzz smoke (-fuzz accepts exactly one package and target): every wire
# frame decoder — upload, the other worker-protocol frames, the shard
# frames — and the checkpoint decoder must survive 5s of hostile bytes
# without panicking and return the verdict and value of the per-field
# decoder it replaced; the ledger export reader — fed by /v1/ledger
# bodies and checkpoint ledger sections — must agree with its reference
# parser and re-export what it accepts, and Verify must return the serial
# reference's verdict on it, wherever the input puts its batches and seals.
go test -run='^$' -fuzz=FuzzDecodeUpload -fuzztime=5s ./internal/transport/codec
go test -run='^$' -fuzz=FuzzDecodeWorkerFrames -fuzztime=5s ./internal/transport/codec
go test -run='^$' -fuzz=FuzzDecodeShard -fuzztime=5s ./internal/transport/codec
go test -run='^$' -fuzz=FuzzReadCheckpoint -fuzztime=5s ./internal/persist
go test -run='^$' -fuzz=FuzzStreamBinary -fuzztime=5s ./internal/chain

# Observability smoke: a tiny simulated run must dump its metrics in the
# Prometheus text format with the expected round count.
BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT

go build -o "$BIN/fifl-sim" ./cmd/fifl-sim
go build -o "$BIN/fifl-node" ./cmd/fifl-node
"$BIN/fifl-sim" -workers 3 -rounds 1 -samples 40 -metrics | grep -q '^fifl_engine_rounds_total 1$'

# Flag-parity smoke: both commands check the shared federation flags with
# internal/cli's one rule set, so each bad value below exits 2 in both,
# with a message naming the flag and no output: nothing is built and
# nothing listens.
flag_parity() {
    # $1 = the flag the message names, $2 = fifl-node's role flags,
    # the rest = the bad value
    want=$1 role=$2
    shift 2
    for run in "$BIN/fifl-sim" "$BIN/fifl-node $role"; do
        code=0
        # shellcheck disable=SC2086
        $run "$@" > "$BIN/parity.out" 2> "$BIN/parity.err" || code=$?
        if [ "$code" != 2 ] || [ -s "$BIN/parity.out" ] || ! grep -q -- "$want" "$BIN/parity.err"; then
            echo "$run $*: exit $code, want exit 2 naming $want and no output" >&2
            exit 1
        fi
    done
}
COORD="-role coordinator -listen 127.0.0.1:0"
flag_parity -quorum "$COORD" -quorum -1
flag_parity -sy "$COORD" -sy NaN
flag_parity -eval "$COORD" -eval -1
flag_parity -max-staleness "$COORD" -max-staleness 3
flag_parity -quorum "$COORD" -async -quorum 1
flag_parity -advance-every "$COORD" -workers 3 -async -advance-every 9
flag_parity -compression "-role worker" -compression bogus

# Training-plane oracle: three quick-scale figures that train real models
# end to end — fig7a (LeNet), fig12 (MLP) and fig8 (TinyResNet, fig8a and
# fig8b) — must regenerate the committed CSVs byte for byte, so a change
# to the layers, the local step or the data pipeline that moves one bit
# of a trajectory fails here.
go build -o "$BIN/fifl-experiments" ./cmd/fifl-experiments
mkdir "$BIN/csv"
for id in fig7a fig12 fig8; do
    "$BIN/fifl-experiments" -id "$id" -scale quick -csv "$BIN/csv" > /dev/null
done
for f in fig7a fig12 fig8a fig8b; do
    cmp "$BIN/csv/$f.csv" "results/$f.csv"
done

# Base-URL smoke: a shard link and a membership join given a coordinator
# URL that is not an absolute http(s) URL must exit non-zero with the one
# base-URL message every client of the coordinator server shares, not
# Go's opaque "unsupported protocol scheme".
if "$BIN/fifl-node" -role shard -workers 4 -shards 2 -samples 40 -id 0 \
    -shard-of not-a-url > "$BIN/badurl-shard.log" 2>&1; then
    echo "fifl-node -shard-of not-a-url exited 0" >&2
    exit 1
fi
grep -q 'not an absolute http(s) URL' "$BIN/badurl-shard.log"
if "$BIN/fifl-node" -role worker -join -coordinator not-a-url \
    > "$BIN/badurl-join.log" 2>&1; then
    echo "fifl-node -join -coordinator not-a-url exited 0" >&2
    exit 1
fi
grep -q 'not an absolute http(s) URL' "$BIN/badurl-join.log"

# Accountability smoke (§4.5): the forged-record story end to end — a
# compromised server appends a forged reputation record under its own
# seal, the task publisher's audit recomputation traces the forgery to it
# by signature, and the device is banned from server election.
go run ./examples/ledger_audit > "$BIN/ledger-audit.log"
grep -q 'culprit traced by signature: device-001' "$BIN/ledger-audit.log"
grep -q 'banned from server election: true' "$BIN/ledger-audit.log"

# Reputation audit smoke (§4.5): the audit replays every round through the
# rule the live round applied (upload status, whether the round met its
# quorum, and the verdict, mapped to one Eq. 8–10 event), so an honest
# run reports a match whatever its uploads' fate: lost uploads, rounds
# that missed the quorum, an async worker past the staleness bound, and a
# sharded run with losses.
for AUDIT_ARGS in "-drop 0.5 -seed 2" "-drop 0.5 -seed 3" \
    "-drop 0.2 -quorum 6 -seed 1" "-drop 0.2 -quorum 6 -seed 2" \
    "-async -async-lag 0:4" "-shards 2 -drop 0.5 -seed 2"; do
    # shellcheck disable=SC2086
    "$BIN/fifl-sim" -task mlp -workers 6 -rounds 8 -audit $AUDIT_ARGS > "$BIN/audit.log"
    grep -q 'ledger record matches recomputation' "$BIN/audit.log"
    if grep -q TAMPERED "$BIN/audit.log"; then
        echo "fifl-sim -audit $AUDIT_ARGS: honest ledger audited as tampered" >&2
        exit 1
    fi
done

# Ledger analytics gate: the seeded fixture run, checkpointed and scored
# offline, must reproduce the committed golden CSV byte for byte with a
# clean reward audit (same run as internal/score's TestGoldenLedgerEndToEnd).
go build -o "$BIN/fifl-score" ./cmd/fifl-score
"$BIN/fifl-sim" -workers 8 -signflip 1 -rounds 6 -samples 200 -seed 7 \
    -checkpoint "$BIN/score-ck" > /dev/null
"$BIN/fifl-score" -checkpoint "$BIN/score-ck" \
    -out "$BIN/scored.csv" -report "$BIN/score-report.txt"
cmp "$BIN/scored.csv" internal/score/testdata/golden.csv
grep -q '0 mismatches' "$BIN/score-report.txt"

# Sharded smoke: the hierarchical mode must run end to end, checkpoint,
# resume bit-identically when rerun over its existing -checkpoint file
# (the resumed run's final checkpoint scores byte for byte like the
# uninterrupted reference; the checkpoints themselves differ only in each
# shard's unread LastSeq cursor), and pass the offline reward audit
# unchanged — the per-shard evidence unfolds into the same ledger records
# a flat federation writes.
"$BIN/fifl-sim" -workers 8 -shards 4 -signflip 1 -rounds 6 -samples 60 -seed 9 \
    -checkpoint "$BIN/shard-ref.ckpt" > /dev/null
"$BIN/fifl-sim" -workers 8 -shards 4 -signflip 1 -rounds 3 -samples 60 -seed 9 \
    -checkpoint "$BIN/shard-half.ckpt" > /dev/null
"$BIN/fifl-sim" -workers 8 -shards 4 -signflip 1 -rounds 6 -samples 60 -seed 9 \
    -checkpoint "$BIN/shard-half.ckpt" > "$BIN/shard-resume.log"
grep -q 'resumed from' "$BIN/shard-resume.log"
grep -q 'mode=sharded(4)' "$BIN/shard-resume.log"
"$BIN/fifl-score" -checkpoint "$BIN/shard-ref.ckpt" \
    -out "$BIN/shard-ref.csv" -report "$BIN/shard-report.txt"
"$BIN/fifl-score" -checkpoint "$BIN/shard-half.ckpt" \
    -out "$BIN/shard-resumed.csv" -report /dev/null
cmp "$BIN/shard-ref.csv" "$BIN/shard-resumed.csv"
grep -q '0 mismatches' "$BIN/shard-report.txt"

# Churn smoke: an elastic-membership run (join, leave, rejoin, evict —
# every lifecycle transition) must run end to end, checkpoint, and
# resume bit-identically from a mid-run kill: the resumed run seats the
# cohort the checkpoint names, restores the registry — bans included —
# from FIFLCKP5, applies the post-checkpoint events live, and its final
# checkpoint must equal the uninterrupted reference's byte for byte. It
# is killed at two splits: after round 5 (a joiner seated, worker 1
# departed) and after round 7 (worker 1 rejoined into the last slot).
# The churned ledger (sparse per-round cohorts, a banned ID, a late
# joiner) must then pass fifl-score's offline reward audit cleanly.
CHURN="3:join,5:leave:1,6:rejoin:1,7:evict:4"
CHURN_COMMON="-workers 5 -samples 60 -seed 11 -churn $CHURN"
# shellcheck disable=SC2086
"$BIN/fifl-sim" $CHURN_COMMON -rounds 8 \
    -checkpoint "$BIN/churn-ref.ckpt" > "$BIN/churn-ref.log"
# shellcheck disable=SC2086
"$BIN/fifl-sim" $CHURN_COMMON -rounds 5 \
    -checkpoint "$BIN/churn-half.ckpt" > /dev/null
# shellcheck disable=SC2086
"$BIN/fifl-sim" $CHURN_COMMON -rounds 8 \
    -checkpoint "$BIN/churn-half.ckpt" > "$BIN/churn-resume.log"
grep -q 'resumed from' "$BIN/churn-resume.log"
grep -q 'worker 5 joined' "$BIN/churn-ref.log"
grep -q 'worker 1 rejoined' "$BIN/churn-resume.log"
grep -q 'worker 4 evicted' "$BIN/churn-resume.log"
grep -q 'banned' "$BIN/churn-resume.log"
cmp "$BIN/churn-ref.ckpt" "$BIN/churn-half.ckpt"
# shellcheck disable=SC2086
"$BIN/fifl-sim" $CHURN_COMMON -rounds 7 \
    -checkpoint "$BIN/churn-late.ckpt" > /dev/null
# shellcheck disable=SC2086
"$BIN/fifl-sim" $CHURN_COMMON -rounds 8 \
    -checkpoint "$BIN/churn-late.ckpt" > "$BIN/churn-late.log"
grep -q 'resumed from .* at round 7' "$BIN/churn-late.log"
grep -q 'worker 4 evicted' "$BIN/churn-late.log"
cmp "$BIN/churn-ref.ckpt" "$BIN/churn-late.ckpt"
"$BIN/fifl-score" -checkpoint "$BIN/churn-ref.ckpt" \
    -out "$BIN/churn.csv" -report "$BIN/churn-report.txt"
grep -q '0 mismatches' "$BIN/churn-report.txt"
grep -q '^5,' "$BIN/churn.csv"

# Coordinator smoke: /v1/metrics serves the exposition format and -pprof
# serves the profiling mux on its own listener, without any worker joining.
"$BIN/fifl-node" -role coordinator -workers 2 -rounds 1 -samples 40 \
    -listen 127.0.0.1:7391 -pprof 127.0.0.1:7392 &
NODE_PID=$!
trap 'kill "$NODE_PID" 2>/dev/null; rm -rf "$BIN"' EXIT
for _ in $(seq 1 50); do
    if curl -fsS http://127.0.0.1:7391/v1/healthz >/dev/null 2>&1; then break; fi
    sleep 0.2
done
# (plain grep, not -q: -q closes the pipe early and makes curl -f report
# a spurious write error)
curl -fsS http://127.0.0.1:7391/v1/healthz | grep '"status":"ok"' >/dev/null
curl -fsS http://127.0.0.1:7391/v1/metrics | grep '^# TYPE fifl_http_requests_total counter$' >/dev/null
curl -fsS http://127.0.0.1:7392/debug/pprof/cmdline >/dev/null
kill "$NODE_PID"
KR_CPID= KR_W0= KR_W1= KR_W2=
# shellcheck disable=SC2064
trap 'kill $KR_CPID $KR_W0 $KR_W1 $KR_W2 2>/dev/null || true; rm -rf "$BIN"' EXIT

# Kill-and-resume smoke: a networked 6-round federation whose coordinator
# is SIGKILLed after round 3's checkpoint and restarted from it must end
# with an audit ledger byte-identical to an uninterrupted run's. The
# workers stay up and ride through the outage on their retry budget
# (bit-identity requires the worker processes to survive — DESIGN.md
# §4.13).
KR_PORT=7393
KR_COMMON="-workers 3 -samples 60 -seed 11"
kr_coordinator() {
    # $1 = extra coordinator flags, $2 = log file
    # shellcheck disable=SC2086
    "$BIN/fifl-node" -role coordinator $KR_COMMON -rounds 6 -eval 0 \
        -listen 127.0.0.1:$KR_PORT -linger 60s $1 > "$2" 2>&1 &
    KR_CPID=$!
    for _ in $(seq 1 100); do
        if curl -fsS http://127.0.0.1:$KR_PORT/v1/healthz >/dev/null 2>&1; then break; fi
        sleep 0.2
    done
}
kr_workers() {
    # shellcheck disable=SC2086
    "$BIN/fifl-node" -role worker $KR_COMMON -id 0 -retry 60 -retry-backoff 250ms \
        -coordinator http://127.0.0.1:$KR_PORT > "$BIN/kr-w0.log" 2>&1 &
    KR_W0=$!
    # shellcheck disable=SC2086
    "$BIN/fifl-node" -role worker $KR_COMMON -id 1 -retry 60 -retry-backoff 250ms \
        -coordinator http://127.0.0.1:$KR_PORT > "$BIN/kr-w1.log" 2>&1 &
    KR_W1=$!
    # shellcheck disable=SC2086
    "$BIN/fifl-node" -role worker $KR_COMMON -id 2 -retry 60 -retry-backoff 250ms \
        -coordinator http://127.0.0.1:$KR_PORT > "$BIN/kr-w2.log" 2>&1 &
    KR_W2=$!
}

# Arm 1: uninterrupted reference run.
kr_coordinator "" "$BIN/kr-coord-ref.log"
kr_workers
wait "$KR_W0" "$KR_W1" "$KR_W2"
curl -fsS http://127.0.0.1:$KR_PORT/v1/ledger > "$BIN/kr-ledger-ref.bin"
kill "$KR_CPID" 2>/dev/null || true
wait "$KR_CPID" 2>/dev/null || true

# Arm 2: checkpoint each round, halt (blocked, checkpoint on disk) after
# round 3, SIGKILL, restart from the checkpoint, finish rounds 3..5.
kr_coordinator "-checkpoint $BIN/kr-ck -checkpoint-every 1 -halt-after 3" "$BIN/kr-coord-kill.log"
kr_workers
for _ in $(seq 1 200); do
    if grep -q 'blocking until killed' "$BIN/kr-coord-kill.log"; then break; fi
    sleep 0.2
done
grep -q 'blocking until killed' "$BIN/kr-coord-kill.log"
kill -9 "$KR_CPID"
wait "$KR_CPID" 2>/dev/null || true
kr_coordinator "-checkpoint $BIN/kr-ck -checkpoint-every 1" "$BIN/kr-coord-resume.log"
wait "$KR_W0" "$KR_W1" "$KR_W2"
curl -fsS http://127.0.0.1:$KR_PORT/v1/ledger > "$BIN/kr-ledger-resumed.bin"
kill "$KR_CPID" 2>/dev/null || true
wait "$KR_CPID" 2>/dev/null || true

grep -q 'resumed from' "$BIN/kr-coord-resume.log"
cmp "$BIN/kr-ledger-ref.bin" "$BIN/kr-ledger-resumed.bin"

# Async loopback smoke: bounded-staleness advances must run end to end.
# In-process: a rotation federation with one over-bound straggler must
# report stale and pending counts on the round line.
"$BIN/fifl-sim" -workers 6 -rounds 6 -samples 40 -seed 7 \
    -async -advance-every 3 -max-staleness 2 -async-lag "5:4" \
    > "$BIN/async-sim.log"
grep -q 'mode=async' "$BIN/async-sim.log"
grep -q 'stale 1' "$BIN/async-sim.log"
grep -q 'pending' "$BIN/async-sim.log"

# In-process async kill-and-resume: the same federation checkpointed after
# advance 3 — the checkpoint carrying the collector's model-history window
# — and resumed must end on a checkpoint byte-identical to the
# uninterrupted run's.
ASYNC_COMMON="-workers 6 -samples 40 -seed 7 -async -advance-every 3 -max-staleness 2 -async-lag 5:4"
# shellcheck disable=SC2086
"$BIN/fifl-sim" $ASYNC_COMMON -rounds 6 -checkpoint "$BIN/async-ref.ckpt" > /dev/null
# shellcheck disable=SC2086
"$BIN/fifl-sim" $ASYNC_COMMON -rounds 3 -checkpoint "$BIN/async-half.ckpt" > /dev/null
# shellcheck disable=SC2086
"$BIN/fifl-sim" $ASYNC_COMMON -rounds 6 \
    -checkpoint "$BIN/async-half.ckpt" > "$BIN/async-resume.log"
grep -q 'resumed from' "$BIN/async-resume.log"
cmp "$BIN/async-ref.ckpt" "$BIN/async-half.ckpt"

# Networked: any-time submits over HTTP, a worker-side report decode of
# the new statuses, and a client-verified audit ledger.
AS_PORT=7394
"$BIN/fifl-node" -role coordinator -workers 2 -rounds 3 -samples 40 -seed 11 \
    -eval 0 -listen 127.0.0.1:$AS_PORT -linger 20s \
    -async -max-staleness 2 -advance-every 1 -advance-interval 2s \
    > "$BIN/async-coord.log" 2>&1 &
AS_CPID=$!
# shellcheck disable=SC2064
trap 'kill $AS_CPID 2>/dev/null || true; rm -rf "$BIN"' EXIT
for _ in $(seq 1 100); do
    if curl -fsS http://127.0.0.1:$AS_PORT/v1/healthz >/dev/null 2>&1; then break; fi
    sleep 0.2
done
"$BIN/fifl-node" -role worker -workers 2 -samples 40 -seed 11 -id 0 \
    -coordinator http://127.0.0.1:$AS_PORT > "$BIN/async-w0.log" 2>&1 &
AS_W0=$!
"$BIN/fifl-node" -role worker -workers 2 -samples 40 -seed 11 -id 1 -audit \
    -coordinator http://127.0.0.1:$AS_PORT > "$BIN/async-w1.log" 2>&1 &
AS_W1=$!
wait "$AS_W0" "$AS_W1"
kill "$AS_CPID" 2>/dev/null || true
wait "$AS_CPID" 2>/dev/null || true
grep -q 'async mode' "$BIN/async-coord.log"
grep -q 'committed=true' "$BIN/async-coord.log"
grep -q 'audit ledger verified' "$BIN/async-w1.log"

# Multi-process sharded smoke: a root and two shard processes over
# 127.0.0.1 must finish a 3-round federation, and while the root lingers
# its ledger must hold 5 records per worker per round (5·4·3 = 60). The
# root is served by the same coordinator server as a flat coordinator:
# fifl-score must verify and audit its live ledger, and its /v1/metrics
# must count the shards' directive polls.
SH_PORT=7395
SH_COMMON="-workers 4 -shards 2 -samples 40 -seed 5"
SH_RPID= SH_S0= SH_S1=
# shellcheck disable=SC2064
trap 'kill $SH_RPID $SH_S0 $SH_S1 2>/dev/null || true; rm -rf "$BIN"' EXIT
# shellcheck disable=SC2086
"$BIN/fifl-node" -role root $SH_COMMON -rounds 3 -eval 0 \
    -listen 127.0.0.1:$SH_PORT -linger 30s > "$BIN/sh-root.log" 2>&1 &
SH_RPID=$!
for _ in $(seq 1 100); do
    if curl -fsS http://127.0.0.1:$SH_PORT/v1/healthz >/dev/null 2>&1; then break; fi
    sleep 0.2
done
# shellcheck disable=SC2086
"$BIN/fifl-node" -role shard $SH_COMMON -id 0 \
    -shard-of http://127.0.0.1:$SH_PORT > "$BIN/sh-0.log" 2>&1 &
SH_S0=$!
# shellcheck disable=SC2086
"$BIN/fifl-node" -role shard $SH_COMMON -id 1 \
    -shard-of http://127.0.0.1:$SH_PORT > "$BIN/sh-1.log" 2>&1 &
SH_S1=$!
wait "$SH_S0" "$SH_S1"
grep -q 'federation done' "$BIN/sh-0.log"
grep -q 'federation done' "$BIN/sh-1.log"
curl -fsS http://127.0.0.1:$SH_PORT/v1/healthz | grep '"ledger":60' >/dev/null
"$BIN/fifl-score" -url http://127.0.0.1:$SH_PORT -verify -out /dev/null \
    -report "$BIN/sh-score.txt"
grep -q '0 mismatches' "$BIN/sh-score.txt"
curl -fsS http://127.0.0.1:$SH_PORT/v1/metrics \
    | grep 'fifl_http_requests_total{endpoint="/v1/shard/directive"}' >/dev/null
kill "$SH_RPID" 2>/dev/null || true
wait "$SH_RPID" 2>/dev/null || true

set +x
echo "tier1: all gates passed in $(($(date +%s) - START))s"
