package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"fifl/internal/persist"
)

// coordState flattens everything the checkpoint equivalence bar covers so
// two coordinators can be compared with DeepEqual at float64 bit level.
type coordState struct {
	NextRound   int
	Params      []float64
	Reputations []float64
	Cumulative  []float64
	Servers     []int
	Ledger      []byte
	SLM         [][4]float64
}

func stateOf(t *testing.T, c *Coordinator) coordState {
	t.Helper()
	var led bytes.Buffer
	if err := c.Ledger.WriteBinary(&led); err != nil {
		t.Fatal(err)
	}
	n := c.Rep.N()
	triples := make([][4]float64, n)
	for i := 0; i < n; i++ {
		st, sn, su, rep := slm(c.Rep, i)
		triples[i] = [4]float64{st, sn, su, rep}
	}
	return coordState{
		NextRound:   c.NextRound(),
		Params:      append([]float64(nil), c.Engine.Params()...),
		Reputations: c.Rep.Reputations(),
		Cumulative:  c.CumulativeRewards(),
		Servers:     c.Servers(),
		Ledger:      led.Bytes(),
		SLM:         triples,
	}
}

func requireSameState(t *testing.T, want, got coordState, label string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		if !bytes.Equal(want.Ledger, got.Ledger) {
			t.Errorf("%s: ledger bytes differ (%d vs %d bytes)", label, len(want.Ledger), len(got.Ledger))
		}
		if !reflect.DeepEqual(want.Params, got.Params) {
			t.Errorf("%s: model params differ", label)
		}
		if !reflect.DeepEqual(want.Reputations, got.Reputations) {
			t.Errorf("%s: reputations differ: %v vs %v", label, want.Reputations, got.Reputations)
		}
		if !reflect.DeepEqual(want.Cumulative, got.Cumulative) {
			t.Errorf("%s: cumulative rewards differ: %v vs %v", label, want.Cumulative, got.Cumulative)
		}
		t.Fatalf("%s: restored federation diverged from the uninterrupted one", label)
	}
}

// roundTripSnapshot pushes a coordinator through the full serialized
// checkpoint path (Checkpoint → RestoreCoordinator) onto a fresh engine.
func roundTripSnapshot(t *testing.T, c *Coordinator, fresh *Coordinator) *Coordinator {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	restored, err := RestoreCoordinator(&buf, fresh.Cfg, fresh.Engine)
	if err != nil {
		t.Fatalf("RestoreCoordinator: %v", err)
	}
	return restored
}

// TestKillBetweenRoundsResumesBitIdentical is the headline durability
// guarantee: a 6-round federation checkpointed after round 3, torn down
// ("killed") and restored into a freshly rebuilt federation finishes with
// bit-identical reputations, cumulative rewards, model parameters and
// ledger serialization to an uninterrupted 6-round run.
func TestKillBetweenRoundsResumesBitIdentical(t *testing.T) {
	const rounds = 6

	// Uninterrupted reference run: 4 honest workers + 2 sign-flippers with
	// a full audit ledger.
	ref, _ := buildTestCoordinator(t, 4, 2, true)
	for r := 0; r < rounds; r++ {
		runRound(t, ref, r)
	}
	want := stateOf(t, ref)

	// Interrupted run: 3 rounds, checkpoint, discard everything.
	first, _ := buildTestCoordinator(t, 4, 2, true)
	for r := 0; r < 3; r++ {
		runRound(t, first, r)
	}
	var ckpt bytes.Buffer
	if err := first.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	first = nil

	// "Restart": rebuild the federation from the shared recipe and restore.
	fresh, _ := buildTestCoordinator(t, 4, 2, true)
	resumed, err := RestoreCoordinator(&ckpt, fresh.Cfg, fresh.Engine)
	if err != nil {
		t.Fatalf("RestoreCoordinator: %v", err)
	}
	if resumed.NextRound() != 3 {
		t.Fatalf("resumed at round %d, want 3", resumed.NextRound())
	}
	for r := resumed.NextRound(); r < rounds; r++ {
		runRound(t, resumed, r)
	}
	requireSameState(t, want, stateOf(t, resumed), "kill-and-resume")
}

// mcCoordinator rebuilds a test federation with the Monte-Carlo Shapley
// mechanism active — the one mechanism with its own random stream, so
// checkpoints must carry its position too.
func mcCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	base, _ := buildTestCoordinator(t, 4, 2, true)
	m, err := MechanismByName("shapley-mc")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(base.Cfg, base.Engine, []int{0, 1}, WithMechanism(m))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCheckpointResumeShapleyMC is the mechanism-stream durability bar: a
// federation paying out through Monte-Carlo Shapley, checkpointed after
// round 3 and restored into a fresh federation, must finish bit-identical
// to an uninterrupted run — which requires the estimator's RNG position
// to survive the round trip (a freshly seeded estimator would re-draw
// rounds 0–2's permutations and pay different rewards).
func TestCheckpointResumeShapleyMC(t *testing.T) {
	const rounds = 6

	ref := mcCoordinator(t)
	for r := 0; r < rounds; r++ {
		runRound(t, ref, r)
	}
	want := stateOf(t, ref)

	first := mcCoordinator(t)
	for r := 0; r < 3; r++ {
		runRound(t, first, r)
	}
	var ckpt bytes.Buffer
	if err := first.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	snap, err := persist.Read(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if snap.MechDraws == 0 {
		t.Fatal("checkpoint recorded no mechanism RNG draws after 3 shapley-mc rounds")
	}

	// Restoring without the mechanism must fail loudly instead of silently
	// dropping the recorded stream position.
	wrongMech := mcCoordinator(t)
	if _, err := RestoreCoordinatorSnapshot(snap, wrongMech.Cfg, wrongMech.Engine); err == nil {
		t.Fatal("restore with the default (non-resumable) mechanism accepted a shapley-mc checkpoint")
	}

	fresh := mcCoordinator(t)
	resumed, err := RestoreCoordinatorSnapshot(snap, fresh.Cfg, fresh.Engine, WithMechanism(fresh.Mechanism()))
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Mechanism().(ResumableMechanism).RNGDraws(); got != snap.MechDraws {
		t.Fatalf("restored mechanism stream at %d draws, checkpoint recorded %d", got, snap.MechDraws)
	}
	for r := resumed.NextRound(); r < rounds; r++ {
		runRound(t, resumed, r)
	}
	requireSameState(t, want, stateOf(t, resumed), "shapley-mc resume")
}

// TestCheckpointRestoreEmpty round-trips a coordinator that has not run a
// single round: the restored one must start from round 0 and then produce
// the same run as the original.
func TestCheckpointRestoreEmpty(t *testing.T) {
	c, _ := buildTestCoordinator(t, 3, 1, true)
	ref, _ := buildTestCoordinator(t, 3, 1, true)
	fresh, _ := buildTestCoordinator(t, 3, 1, true)
	restored := roundTripSnapshot(t, c, fresh)
	if restored.NextRound() != 0 {
		t.Fatalf("empty restore resumes at round %d, want 0", restored.NextRound())
	}
	for r := 0; r < 2; r++ {
		runRound(t, ref, r)
		runRound(t, restored, r)
	}
	requireSameState(t, stateOf(t, ref), stateOf(t, restored), "empty-state restore")
}

// TestCheckpointRestoreDegraded checkpoints right after a quorum-missed
// round — decayed reputations untouched, every worker carrying an
// uncertain SLM event — and proves the degraded state (including the
// period counters, which are the only trace such a round leaves on the
// reputation module) survives the round trip and the resumed run matches
// an uninterrupted one.
func TestCheckpointRestoreDegraded(t *testing.T) {
	const n, quorum, rounds = 4, 3, 4
	inj := blackout{From: 1, Until: 2} // round 1 loses every upload

	ref := buildQuorumCoordinator(t, n, quorum, inj, true)
	for r := 0; r < rounds; r++ {
		runRound(t, ref, r)
	}
	want := stateOf(t, ref)

	first := buildQuorumCoordinator(t, n, quorum, inj, true)
	runRound(t, first, 0)
	rep := runRound(t, first, 1)
	if rep.Committed {
		t.Fatal("round 1 committed; the blackout injector is not degrading it")
	}
	var ckpt bytes.Buffer
	if err := first.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	snap, err := persist.Read(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if snap.UncCounts[i] == 0 {
			t.Fatalf("degraded round left no uncertain count for worker %d in the snapshot", i)
		}
	}

	fresh := buildQuorumCoordinator(t, n, quorum, inj, true)
	resumed, err := RestoreCoordinatorSnapshot(snap, fresh.Cfg, fresh.Engine)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, _, su, _ := slm(resumed.Rep, i)
		if su <= 0 {
			t.Fatalf("worker %d lost its uncertainty mass across the restore", i)
		}
	}
	for r := resumed.NextRound(); r < rounds; r++ {
		runRound(t, resumed, r)
	}
	requireSameState(t, want, stateOf(t, resumed), "degraded-state restore")
}

// TestRestoreRejectsMismatchedFederation: a checkpoint must not restore
// onto an engine with a different shape.
func TestRestoreRejectsMismatchedFederation(t *testing.T) {
	c, _ := buildTestCoordinator(t, 4, 2, true)
	runRound(t, c, 0)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	smaller, _ := buildTestCoordinator(t, 3, 1, true)
	if _, err := RestoreCoordinatorSnapshot(snap, smaller.Cfg, smaller.Engine); err == nil {
		t.Fatal("restore onto a 4-worker engine from a 6-worker checkpoint succeeded")
	}

	// An engine that already ran a round has advanced its worker streams
	// past the checkpoint; the restore must refuse to rewind them.
	used, _ := buildTestCoordinator(t, 4, 2, true)
	runRound(t, used, 0)
	runRound(t, used, 1)
	if _, err := RestoreCoordinatorSnapshot(snap, used.Cfg, used.Engine); err == nil {
		t.Fatal("restore onto an engine with consumed RNG state succeeded")
	}
}

// TestRestoreRejectsTamperedLedger: flipping one byte of the embedded
// ledger export must fail the restore even when the outer snapshot CRC is
// recomputed to match (an attacker with filesystem access can fix the CRC;
// they cannot forge ed25519 signatures).
func TestRestoreRejectsTamperedLedger(t *testing.T) {
	c, _ := buildTestCoordinator(t, 3, 1, true)
	runRound(t, c, 0)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Ledger) == 0 {
		t.Fatal("no ledger bytes in the snapshot")
	}
	snap.Ledger[len(snap.Ledger)/2] ^= 0x01

	fresh, _ := buildTestCoordinator(t, 3, 1, true)
	if _, err := RestoreCoordinatorSnapshot(snap, fresh.Cfg, fresh.Engine); err == nil {
		t.Fatal("restore accepted a tampered ledger")
	}
}

// TestSnapshotRejectsNonFinite: a coordinator whose state was poisoned
// must not produce a checkpoint that silently persists the poison.
func TestSnapshotRejectsNonFinite(t *testing.T) {
	c, _ := buildTestCoordinator(t, 3, 1, false)
	c.cumulative[1] = math.NaN()
	if _, err := c.Snapshot(); err == nil {
		t.Fatal("Snapshot serialized a NaN cumulative reward")
	}
}
