package main

import "fmt"

// Model names a spec selects its builder by.
const (
	modelToy    = "toy-mlp"     // nn.NewMLP(11, 24, [8], 4): 236 parameters
	modelResNet = "mini-resnet" // nn.NewMiniResNet: 78,378 parameters
	modelWire   = "wire-mlp"    // the transport recipe's 784-16-10 MLP: 12,730 parameters
)

// refSeconds is the --seconds value the operation counts below are stated
// at; other values scale the timed counts linearly.
const refSeconds = 10

// reads is how often the read phase repeats each ledger operation.
type reads struct {
	verify     int // Ledger.Verify on the ledger restored from the checkpoint
	verifyFrom int // chain.VerifyFrom on the checkpoint's ledger export
	audit      int // score.Collector.FromStream + Finalize on the final export
	checkpoint int // Coordinator.Checkpoint at the warm-up height
	restore    int // core.RestoreCoordinator from that checkpoint
	query      int // seeded single-record Ledger.Query look-ups on the final ledger
}

// spec is one named workload: the federation's shape and its fixed
// operation counts. Counts, never wall time, bound a run, so the ledger
// climbs the same heights on every commit.
type spec struct {
	name    string
	why     string
	mode    mode
	model   string
	workers int
	// warm is the number of untimed rounds before the checkpoint the read
	// phase restores; the first of them is part of set-up.
	warm int
	// rounds is the number of timed rounds at refSeconds.
	rounds int
	reads  reads
}

// specs are the five workloads. Sizes are chosen so that one untraced run
// takes 8-22 s on a 2-core box, and read counts so that each series of one
// operation lasts most of a second, long enough to straddle the machine's
// short speed changes; see README.md for the reasoning.
var specs = []spec{
	{
		name: "wide-toy", mode: modeFlat, model: modelToy, workers: 256, warm: 4, rounds: 100,
		reads: reads{verify: 5, verifyFrom: 5, audit: 9, checkpoint: 250, restore: 7, query: 800},
		why:   "256 workers on a 236-parameter model: ledger signing is the whole round, so Record-stage work shows here and gradient-plane work must not",
	},
	{
		name: "deep-flat", mode: modeFlat, model: modelResNet, workers: 64, warm: 10, rounds: 200,
		reads: reads{verify: 5, verifyFrom: 5, audit: 15, checkpoint: 300, restore: 9, query: 1500},
		why:   "64 workers at 78,378 parameters in one process: screening, distances and aggregation dominate, so gradvec, core.Detect and fl.AggregateRound work shows here",
	},
	{
		name: "deep-sharded", mode: modeSharded, model: modelResNet, workers: 64, warm: 10, rounds: 150,
		reads: reads{verify: 5, verifyFrom: 5, audit: 15, checkpoint: 300, restore: 9, query: 2000},
		why:   "the deep-flat cohort split over two edge aggregators through the shard codec, so a merge that helps the flat path and costs the shard path shows",
	},
	{
		name: "wire-loopback", mode: modeWire, model: modelWire, workers: 2, warm: 100, rounds: 1200,
		reads: reads{verify: 7, verifyFrom: 7, audit: 60, checkpoint: 1000, restore: 11, query: 15000},
		why:   "two training worker clients over real 127.0.0.1 HTTP: the only workload where transport, the upload codec, the long-poll hub and nn are on the blocking path",
	},
	{
		name: "ledger-read", mode: modeFlat, model: modelToy, workers: 64, warm: 25, rounds: 200,
		reads: reads{verify: 7, verifyFrom: 7, audit: 15, checkpoint: 200, restore: 9, query: 2000},
		why:   "short write side, then repeated verify, audit, checkpoint, restore and look-ups: the price of any ledger format change shows on the read side",
	},
}

// specByName finds a workload.
func specByName(name string) (spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the spec with its timed round count scaled to seconds.
func (sp spec) scaled(seconds int) spec {
	sp.rounds = sp.rounds * seconds / refSeconds
	if sp.rounds < 1 {
		sp.rounds = 1
	}
	return sp
}

// planted reports whether the cohort carries planted attackers with a
// known right verdict (the fixed-gradient cohorts do; the wire workload
// trains for real).
func (sp spec) planted() bool { return sp.mode != modeWire }
