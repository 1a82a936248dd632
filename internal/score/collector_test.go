package score

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"fifl/internal/chain"
	"fifl/internal/core"
	"fifl/internal/faults"
)

// rec builds one ledger record.
func rec(kind chain.RecordKind, iter, worker int, v float64) chain.Record {
	return chain.Record{Kind: kind, Iteration: iter, WorkerID: worker, Value: v, Executor: "server-0"}
}

// addRound feeds one consistent round for the given workers: upload
// statuses, verdicts, reputations, contributions, and the rewards Eq. 15
// actually yields for those inputs (so the audit stays clean).
func addRound(t *testing.T, c *Collector, iter int, statuses []faults.UploadStatus, verdicts []float64, reps, contribs []float64) []float64 {
	t.Helper()
	shares, err := core.RewardShares(reps, contribs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range statuses {
		for _, r := range []chain.Record{
			rec(chain.KindUpload, iter, i, float64(statuses[i])),
			rec(chain.KindDetection, iter, i, verdicts[i]),
			rec(chain.KindReputation, iter, i, reps[i]),
			rec(chain.KindContribution, iter, i, contribs[i]),
			rec(chain.KindReward, iter, i, shares[i]),
		} {
			if err := c.AddRecord(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return shares
}

func TestCollectorFoldsSignals(t *testing.T) {
	c := NewCollector(Config{})
	// Round 0: all arrive, worker 2 rejected.
	addRound(t, c, 0,
		[]faults.UploadStatus{faults.StatusOK, faults.StatusRetried, faults.StatusOK},
		[]float64{1, 1, 0},
		[]float64{0.5, 0.6, 0.1},
		[]float64{0.2, 0.3, -0.1})
	// Round 1: worker 1 crashes (verdict 0), worker 2 rejected again.
	addRound(t, c, 1,
		[]faults.UploadStatus{faults.StatusOK, faults.StatusCrashed, faults.StatusOK},
		[]float64{1, 0, 0},
		[]float64{0.55, 0.5, 0.05},
		[]float64{0.25, 0, -0.2})

	set, rep := c.Finalize()
	if rep.Rounds != 2 || rep.Workers != 3 {
		t.Fatalf("rounds/workers = %d/%d", rep.Rounds, rep.Workers)
	}
	if rep.MismatchCount != 0 {
		t.Fatalf("clean rounds flagged %d mismatches: %+v", rep.MismatchCount, rep.Mismatches)
	}
	if rep.Records != 30 || rep.Kinds[chain.KindReward] != 6 {
		t.Fatalf("records/rewards = %d/%d", rep.Records, rep.Kinds[chain.KindReward])
	}

	w0, w1, w2 := &set.Workers[0], &set.Workers[1], &set.Workers[2]
	if w0.Rounds != 2 || w0.OK != 2 || w0.Accepts != 2 || w0.Flips != 0 {
		t.Fatalf("worker 0 fold: %+v", w0)
	}
	if w1.Retried != 1 || w1.Crashed != 1 || w1.Flips != 1 || w1.ArrivedRounds != 1 {
		t.Fatalf("worker 1 fold: %+v", w1)
	}
	if w2.LongestRejectStreak != 2 || w2.Accepts != 0 || w2.ConsensusDisagrees != 2 {
		t.Fatalf("worker 2 fold: %+v", w2)
	}
	if w0.RepFirst != 0.5 || w0.RepLast != 0.55 || w0.RepMin != 0.5 || w0.RepMax != 0.55 {
		t.Fatalf("worker 0 reputation trajectory: %+v", w0)
	}
	if math.Abs(w2.RepLast-w2.RepFirst-(-0.05)) > 1e-15 {
		t.Fatalf("worker 2 drift = %v", w2.RepLast-w2.RepFirst)
	}
	if w0.ContribTotal != 0.45 || w0.ContribMin != 0.2 || w0.ContribMax != 0.25 || w0.ContribN != 2 {
		t.Fatalf("worker 0 contributions: %+v", w0)
	}
	var totalReward float64
	for _, w := range set.Workers {
		totalReward += w.RewardTotal
	}
	if math.Abs(totalReward-set.TotalReward) > 1e-15 {
		t.Fatalf("TotalReward %v vs sum %v", set.TotalReward, totalReward)
	}
}

func TestCollectorFlagsTamperedReward(t *testing.T) {
	c := NewCollector(Config{})
	shares := addRound(t, c, 0,
		[]faults.UploadStatus{faults.StatusOK, faults.StatusOK},
		[]float64{1, 1},
		[]float64{0.5, 0.5},
		[]float64{0.4, 0.6})
	// Round 1: inflate worker 1's recorded reward past tolerance.
	reps := []float64{0.5, 0.5}
	contribs := []float64{0.4, 0.6}
	want, err := core.RewardShares(reps, contribs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reps {
		reward := want[i]
		if i == 1 {
			reward += 0.25
		}
		for _, r := range []chain.Record{
			rec(chain.KindUpload, 1, i, 0),
			rec(chain.KindDetection, 1, i, 1),
			rec(chain.KindReputation, 1, i, reps[i]),
			rec(chain.KindContribution, 1, i, contribs[i]),
			rec(chain.KindReward, 1, i, reward),
		} {
			if err := c.AddRecord(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, rep := c.Finalize()
	if rep.MismatchCount != 1 || len(rep.Mismatches) != 1 {
		t.Fatalf("mismatches = %d (%d kept)", rep.MismatchCount, len(rep.Mismatches))
	}
	m := rep.Mismatches[0]
	if m.Round != 1 || m.Worker != 1 || math.Abs(m.Recorded-m.Recomputed-0.25) > 1e-12 {
		t.Fatalf("mismatch = %+v", m)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1 mismatches") {
		t.Fatalf("report text missing the mismatch line:\n%s", buf.String())
	}
	_ = shares
}

func TestCollectorRejectsOutOfOrderRounds(t *testing.T) {
	c := NewCollector(Config{})
	if err := c.AddRecord(rec(chain.KindUpload, 2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRecord(rec(chain.KindUpload, 1, 0, 0)); err == nil {
		t.Fatal("iteration regression must be an error")
	}
}

func TestCollectorIncompleteRoundUnaudited(t *testing.T) {
	c := NewCollector(Config{})
	// Worker 0 has no reward record: the round cannot be audited.
	for _, r := range []chain.Record{
		rec(chain.KindUpload, 0, 0, 0),
		rec(chain.KindDetection, 0, 0, 1),
		rec(chain.KindReputation, 0, 0, 0.5),
		rec(chain.KindContribution, 0, 0, 0.5),
	} {
		if err := c.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	_, rep := c.Finalize()
	if rep.UnauditedRounds != 1 || rep.MismatchCount != 0 {
		t.Fatalf("unaudited/mismatches = %d/%d", rep.UnauditedRounds, rep.MismatchCount)
	}
}

func TestCollectorElectionRecordsSkipped(t *testing.T) {
	c := NewCollector(Config{})
	if err := c.AddRecord(rec(chain.KindElection, 5, 0, 1)); err != nil {
		t.Fatal(err)
	}
	set, rep := c.Finalize()
	if len(set.Workers) != 0 || rep.Rounds != 0 {
		t.Fatalf("election record created worker state: %+v", set)
	}
	if rep.Kinds[chain.KindElection] != 1 {
		t.Fatal("election record not counted")
	}
}

func TestCollectorUnknownKindError(t *testing.T) {
	c := NewCollector(Config{})
	if err := c.AddRecord(rec("bogus", 0, 0, 0)); err == nil {
		t.Fatal("unknown kind must be an error")
	}
}

// TestStreamScanSnapshotAgree: the same ledger folded via FromStream, a
// record scan of the in-memory ledger and a mid-stream
// Snapshot-at-the-end must agree exactly.
func TestStreamScanSnapshotAgree(t *testing.T) {
	l := chain.NewLedger()
	signer := chain.NewSigner("server-0", [32]byte{1})
	if err := l.RegisterExecutor(signer.Name, signer.Public()); err != nil {
		t.Fatal(err)
	}
	reps := [][]float64{{0.5, 0.6}, {0.55, 0.62}}
	contribs := [][]float64{{0.3, 0.7}, {0.4, 0.6}}
	for iter := 0; iter < 2; iter++ {
		shares, err := core.RewardShares(reps[iter], contribs[iter])
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			for _, r := range []chain.Record{
				rec(chain.KindUpload, iter, i, 0),
				rec(chain.KindDetection, iter, i, 1),
				rec(chain.KindReputation, iter, i, reps[iter][i]),
				rec(chain.KindContribution, iter, i, contribs[iter][i]),
				rec(chain.KindReward, iter, i, shares[i]),
			} {
				if _, err := l.Append(signer, r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var export bytes.Buffer
	if err := l.WriteBinary(&export); err != nil {
		t.Fatal(err)
	}

	streamed := NewCollector(Config{})
	if err := streamed.FromStream(bytes.NewReader(export.Bytes())); err != nil {
		t.Fatal(err)
	}
	scanned := NewCollector(Config{})
	if err := l.Scan("", scanned.AddRecord); err != nil {
		t.Fatal(err)
	}
	snapSet, snapRep := streamed.Snapshot()
	strSet, strRep := streamed.Finalize()
	scnSet, scnRep := scanned.Finalize()

	if !reflect.DeepEqual(strSet, scnSet) || !reflect.DeepEqual(strSet, snapSet) {
		t.Fatal("signal sets differ between stream, scan and snapshot folds")
	}
	if strRep.Blocks != l.Len() || scnRep.Blocks != 0 {
		t.Fatalf("block counts: stream %d, scan %d", strRep.Blocks, scnRep.Blocks)
	}
	if strRep.MismatchCount != 0 || strRep.Fairness != scnRep.Fairness || strRep.Fairness != snapRep.Fairness {
		t.Fatal("reports disagree between folds")
	}
	if !strRep.FairnessDefined {
		t.Fatal("fairness undefined on a clean two-worker ledger")
	}
}

// TestCollectorBrokenHashChain: AddBlock must reject a block that does
// not continue the previous hash.
func TestCollectorBrokenHashChain(t *testing.T) {
	c := NewCollector(Config{})
	b0 := chain.Block{Index: 0, Hash: [32]byte{1}, Record: rec(chain.KindUpload, 0, 0, 0)}
	b1 := chain.Block{Index: 1, PrevHash: [32]byte{9}, Hash: [32]byte{2}, Record: rec(chain.KindDetection, 0, 0, 1)}
	if err := c.AddBlock(b0); err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(b1); err == nil {
		t.Fatal("hash-chain break must be an error")
	}
}
