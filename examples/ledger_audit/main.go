// Ledger audit: the paper's §4.5 accountability story end to end. A FIFL
// federation trains while every assessment is written to the hash-chain
// ledger, each round sealed with one signature per executing server. A
// malicious server then tries two manipulations: rewriting history
// (defeated by hash-chain verification) and appending a forged reputation
// record to whitewash an attacker (defeated by the task publisher's audit
// recomputation, which traces the forgery to its signer and bans the
// device from server election).
package main

import (
	"context"
	"fmt"
	"log"

	"fifl/internal/chain"
	"fifl/internal/experiments"
	"fifl/internal/rng"
)

func main() {
	sc := experiments.QuickScale()
	sc.TrainRounds = 12
	sc.TrainWorkers = 6

	kinds := make([]experiments.WorkerKind, sc.TrainWorkers)
	for i := range kinds {
		kinds[i] = experiments.Honest()
	}
	attacker := sc.TrainWorkers - 1
	kinds[attacker] = experiments.SignFlip(4)

	fed := experiments.BuildFederation(sc, experiments.TaskDigitsMLP, kinds, rng.New(5).Split("audit"))
	coord := experiments.DefaultCoordinator(fed, 0.02, true) // ledger on

	for t := 0; t < sc.TrainRounds; t++ {
		if _, err := coord.RunRoundContext(context.Background(), t); err != nil {
			log.Fatal(err)
		}
	}
	seals := 0
	for i := 0; i < coord.Ledger.Len(); i++ {
		if b, err := coord.Ledger.Block(i); err == nil && len(b.Signature) > 0 {
			seals++
		}
	}
	fmt.Printf("ran %d rounds; ledger holds %d blocks under %d seals\n", sc.TrainRounds, coord.Ledger.Len(), seals)
	fmt.Printf("attacker (worker %d) reputation on chain: %.3f\n\n", attacker, coord.Rep.Reputation(attacker))

	// 1. History is tamper-evident: verification checks every hash link and
	// every seal.
	if err := coord.Ledger.Verify(); err != nil {
		log.Fatalf("fresh ledger failed verification: %v", err)
	}
	fmt.Println("✔ full-chain verification passed (hash links + ed25519 seals)")

	// 2. A compromised server tries to whitewash the attacker by appending
	// a forged high-reputation record. Appends are the only write the
	// chain accepts — and they are sealed, so the forgery is attributable.
	forged := chain.Record{
		Kind:      chain.KindReputation,
		Iteration: sc.TrainRounds - 1,
		WorkerID:  attacker,
		Value:     0.95,
	}
	signer := coord.Signer(1)
	if _, err := coord.Ledger.Append(signer, forged); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmalicious server %q appended a forged reputation record (%.2f)\n", signer.Name, forged.Value)

	// 3. The task publisher audits: recompute the reputation from the
	// detection history and compare with the chain's latest record.
	culprit, err := coord.AuditReputation(sc.TrainRounds-1, attacker)
	if err != nil {
		log.Fatal(err)
	}
	if culprit == "" {
		log.Fatal("audit failed to notice the forgery")
	}
	fmt.Printf("✔ audit recomputation flagged the forgery; culprit traced by signature: %s\n", culprit)
	fmt.Printf("✔ device banned from server election: %v\n", coord.Banned(1))
}
