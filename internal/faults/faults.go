// Package faults is the failure vocabulary of the federated-learning
// runtime. Real federations see crashes, stragglers and lost uploads —
// the paper's "uncertain events" (§4.2, Eq. 8–10) — and FIFL's reputation
// module exists precisely to price them. This package gives every part of
// the system one shared model of those failures: the runtime (internal/fl)
// consults a pluggable Injector to decide which uploads fail and how, and
// records each worker's fate as an UploadStatus that detection, reputation,
// the ledger and the traces all read.
//
// Everything here is deterministic: injectors draw from a caller-owned
// rng.Source and are consulted sequentially before any parallel fan-out,
// so the same seed always yields the same failure schedule regardless of
// scheduling order or core count.
package faults

import "fifl/internal/rng"

// UploadStatus classifies the fate of one worker's upload in one round.
type UploadStatus uint8

// Upload status values, ordered from success to hard failure.
const (
	// StatusOK: the upload arrived on the first transmission.
	StatusOK UploadStatus = iota
	// StatusRetried: the upload arrived, but only after at least one
	// retransmission.
	StatusRetried
	// StatusDropped: every transmission attempt was lost in transit.
	StatusDropped
	// StatusTimedOut: the worker exceeded the round deadline (a straggler
	// cut off by the per-worker timeout, or a retransmission schedule that
	// ran past the deadline).
	StatusTimedOut
	// StatusCrashed: the device was down this round and sent nothing.
	StatusCrashed
	// StatusStale: the upload arrived, but it was trained against a model
	// more than MaxStaleness advances old — the async bounded-staleness
	// rule rejects it from aggregation and the detection stage records a
	// negative event for it. Only async rounds produce this status.
	StatusStale
	// StatusPending: the worker had no submission in this async advance
	// window — it is presumed still training against an earlier broadcast.
	// Only async rounds produce this status.
	StatusPending
)

// Arrived reports whether an upload with this status reached the servers.
func (s UploadStatus) Arrived() bool { return s == StatusOK || s == StatusRetried }

// String renders the status for traces and logs.
func (s UploadStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusRetried:
		return "retried"
	case StatusDropped:
		return "dropped"
	case StatusTimedOut:
		return "timed_out"
	case StatusCrashed:
		return "crashed"
	case StatusStale:
		return "stale"
	case StatusPending:
		return "pending"
	default:
		return "unknown"
	}
}

// Fault is one injected failure affecting a single transmission attempt.
type Fault uint8

// Fault kinds, ordered by severity (Worst picks the higher value).
const (
	// FaultNone: the attempt succeeds.
	FaultNone Fault = iota
	// FaultDrop: this transmission attempt is lost in transit. Drops are
	// transient — the runtime may retransmit.
	FaultDrop
	// FaultStraggle: the worker is too slow this round and misses the
	// deadline. Not retryable within the round.
	FaultStraggle
	// FaultCrash: the device is down this round. Not retryable.
	FaultCrash
)

// String renders the fault kind.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultStraggle:
		return "straggle"
	case FaultCrash:
		return "crash"
	default:
		return "unknown"
	}
}

// Worst returns the more severe of two faults: Crash > Straggle > Drop >
// None. Used to combine an engine-level injector's decision with a
// worker's self-inflicted fault.
func Worst(a, b Fault) Fault {
	if b > a {
		return b
	}
	return a
}

// Injector decides simulated faults for the runtime. Fault is consulted
// once per transmission attempt: attempt 0 is the original upload,
// attempts 1..R are retransmissions. Implementations must be
// deterministic given the passed source — the runtime consults them
// sequentially (ascending worker, then ascending attempt) before any
// parallel fan-out, so a stateful injector sees a reproducible call
// order. Injectors are NOT safe for concurrent use.
type Injector interface {
	Fault(round, worker, attempt int, src *rng.Source) Fault
}

// Faulty is implemented by a worker that carries its own faults with it,
// so a fault follows the worker into whichever engine hosts it (the flat
// and sharded runtimes' differential tests crash a worker this way). The
// runtime combines the worker's answer with the engine injector's via
// Worst. Only round granularity: a worker's own faults apply to the whole
// round, not to individual retransmissions.
type Faulty interface {
	FaultAt(round int) Fault
}

// Bernoulli loses every transmission attempt independently with
// probability P — the runtime's classic DropRate model, now expressed in
// the shared vocabulary.
type Bernoulli struct {
	P float64 // per-attempt loss probability
}

// Fault draws one loss decision.
func (b Bernoulli) Fault(round, worker, attempt int, src *rng.Source) Fault {
	if b.P > 0 && src.Bernoulli(b.P) {
		return FaultDrop
	}
	return FaultNone
}

// Crash takes one worker down for a window of rounds: from round From
// (inclusive) until round Until (exclusive). Until <= From means the
// device never recovers. Draws nothing from the source, so composing it
// does not perturb other injectors' streams.
type Crash struct {
	Worker      int
	From, Until int
}

// Fault reports FaultCrash inside the window.
func (c Crash) Fault(round, worker, attempt int, src *rng.Source) Fault {
	if worker == c.Worker && round >= c.From && (c.Until <= c.From || round < c.Until) {
		return FaultCrash
	}
	return FaultNone
}

// Straggle makes one worker miss the deadline for a window of rounds
// (straggle-N-rounds): from round From (inclusive) until round Until
// (exclusive); Until <= From means it straggles forever.
type Straggle struct {
	Worker      int
	From, Until int
}

// Fault reports FaultStraggle inside the window.
func (s Straggle) Fault(round, worker, attempt int, src *rng.Source) Fault {
	if worker == s.Worker && round >= s.From && (s.Until <= s.From || round < s.Until) {
		return FaultStraggle
	}
	return FaultNone
}

// Compose combines injectors: every member is consulted on every attempt
// (keeping each member's random stream aligned regardless of the others'
// answers) and the worst fault wins.
type Compose []Injector

// Fault consults every member and returns the most severe answer.
func (c Compose) Fault(round, worker, attempt int, src *rng.Source) Fault {
	out := FaultNone
	for _, inj := range c {
		if inj == nil {
			continue
		}
		out = Worst(out, inj.Fault(round, worker, attempt, src))
	}
	return out
}
