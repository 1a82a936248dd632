// Package netsim models the communication fabric of the paper's §3.2
// architectures. It provides two things:
//
//   - an analytic per-round cost model (bytes moved and aggregation work
//     per node) quantifying the paper's claim that polycentric slicing
//     "reduces the bottlenecks through sharing communication and computing
//     overhead" — per-server load scales as 1/M while per-worker traffic
//     stays constant; and
//
//   - a concurrent, channel-based implementation of one polycentric
//     exchange round (workers split gradients into M slices, server
//     goroutines aggregate their slice, workers recombine broadcast
//     slices), used to validate that the wire protocol computes exactly
//     the aggregation the fl.Engine computes directly.
package netsim

import (
	"fmt"
	"math"
)

// Params describes a federation's communication round.
type Params struct {
	// Workers is N, Servers is M, ModelDim is the gradient length d.
	Workers, Servers, ModelDim int
	// BytesPerScalar sizes one gradient element on the wire; 0 means 8
	// (float64).
	BytesPerScalar int
	// LinkBps is each node's link bandwidth in bytes/second (symmetric);
	// 0 disables the time model.
	LinkBps float64
	// AggOpsPerSec is a server's aggregation throughput in
	// scalar-additions/second; 0 disables the time model.
	AggOpsPerSec float64
}

// RoundCost is the per-round load breakdown of one architecture.
type RoundCost struct {
	// PerWorkerUp and PerWorkerDown are the bytes each worker sends and
	// receives per round (upload of its slices, download of the global
	// slices).
	PerWorkerUp, PerWorkerDown int64
	// PerServerIn and PerServerOut are the bytes each server receives and
	// sends per round.
	PerServerIn, PerServerOut int64
	// PerServerAggOps counts scalar additions each server performs.
	PerServerAggOps int64
	// TotalBytes is the total traffic crossing the network per round.
	TotalBytes int64
	// RoundSeconds is the critical-path round time under the Params time
	// model (0 if the time model is disabled): all links run in parallel,
	// so the round is bounded by the busiest node.
	RoundSeconds float64
}

// Analyze computes the per-round cost of a federation with the given
// parameters. It panics on non-positive dimensions or M > N (servers are a
// subset of workers, S ⊆ W).
func Analyze(p Params) RoundCost {
	if p.Workers <= 0 || p.Servers <= 0 || p.ModelDim <= 0 {
		panic(fmt.Sprintf("netsim: non-positive parameters %+v", p))
	}
	if p.Servers > p.Workers {
		panic("netsim: servers must be a subset of workers (M <= N)")
	}
	bps := p.BytesPerScalar
	if bps == 0 {
		bps = 8
	}
	n := int64(p.Workers)
	d := int64(p.ModelDim)
	b := int64(bps)

	// Every worker uploads its full gradient once (as M slices summing to
	// d scalars) and downloads the full global gradient once (as M global
	// slices).
	perWorkerUp := d * b
	perWorkerDown := d * b
	// Server j receives slice j (≈ d/M scalars) from every worker and
	// broadcasts the aggregated global slice to every worker. Slice sizes
	// differ by at most one scalar; the model uses the ceiling.
	slice := (d + int64(p.Servers) - 1) / int64(p.Servers)
	perServerIn := n * slice * b
	perServerOut := n * slice * b
	perServerAgg := n * slice

	cost := RoundCost{
		PerWorkerUp:     perWorkerUp,
		PerWorkerDown:   perWorkerDown,
		PerServerIn:     perServerIn,
		PerServerOut:    perServerOut,
		PerServerAggOps: perServerAgg,
		TotalBytes:      2 * n * d * b, // all uploads + all downloads
	}
	if p.LinkBps > 0 && p.AggOpsPerSec > 0 {
		// Critical path: worker uplinks run in parallel with each other;
		// each server's ingest is bounded by its own link; aggregation
		// follows; then the broadcast. The slowest stage chain bounds the
		// round. Workers that are also servers share a link; the model
		// charges the busier role.
		workerLink := float64(perWorkerUp+perWorkerDown) / p.LinkBps
		serverLink := float64(perServerIn+perServerOut) / p.LinkBps
		agg := float64(perServerAgg) / p.AggOpsPerSec
		cost.RoundSeconds = math.Max(workerLink, serverLink) + agg
	}
	return cost
}
