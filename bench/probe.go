package main

import (
	"crypto/ed25519"
	"sort"
	"time"
)

// The box this benchmark is judged on shares its cores with other
// tenants: a fixed compute loop runs at one of two speeds about 25 % apart,
// switching every 1 to 30 s, so the raw wall time of a 10 s phase spreads
// by 11-16 % between runs of one commit, whatever statistic is taken
// within the run. The probe removes most of that: it is a fixed unit of
// work, timed right before and after every measured operation. An
// operation's calibrated time is its raw time divided by how much slower
// than the reference the probe ran around it. The unit is ed25519
// signatures, what the system itself spends most of its time on; for a
// cohort whose gradients do not fit in cache it also sums a stretch of a
// large buffer, because memory-bound rounds slow down with the machine's
// memory system and not with its arithmetic. The probe lives in the
// benchmark and calls only the standard library, so no change to the
// program can move it.
const (
	probeSigns = 24 // ed25519 signatures per unit
	// A unit streams a sixteenth of the cohort's gradient bytes, at most
	// probeStreamMax float64s (2 MiB), and nothing when that is below
	// probeStreamMin (64 KiB): a small cohort lives in cache, and streaming
	// would only evict it.
	probeStreamMax = 1 << 18
	probeStreamMin = 1 << 13
	// The unit's reference time is about what this box takes on average,
	// so that calibrated numbers stay near the raw ones: probeRefSigns for
	// the signatures plus probeRefFloat for every float64 streamed.
	probeRefSigns = 600 * time.Microsecond
	probeRefFloat = 1.2 // ns
	// probeShare is the probe's budget as a share of measured time, and
	// probeBurst the most units run after one operation.
	probeShare = 0.08
	probeBurst = 8
)

// probe times units of fixed work between measured operations.
type probe struct {
	priv   ed25519.PrivateKey
	msg    []byte
	buf    []float64 // streamed stream float64s at a time; nil for a cache-resident cohort
	stream int
	ref    float64 // reference unit time, ns

	recent [8]float64 // times of the last units, ns
	units  int
	debt   time.Duration
	spent  time.Duration // total time inside units
}

// newProbe returns a probe for a cohort holding cohortFloats gradient
// values.
func newProbe(cohortFloats int) *probe {
	p := &probe{priv: ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize)), msg: make([]byte, 80)}
	if p.stream = min(cohortFloats/16, probeStreamMax); p.stream < probeStreamMin {
		p.stream = 0
	}
	p.buf = make([]float64, 16*p.stream)
	for i := range p.buf {
		p.buf[i] = float64(i)
	}
	p.ref = float64(probeRefSigns) + probeRefFloat*float64(p.stream)
	p.settle()
	return p
}

// unit runs one unit of work and records how long it took.
func (p *probe) unit() {
	start := time.Now()
	for k := 0; k < probeSigns; k++ {
		p.msg[0] = ed25519.Sign(p.priv, p.msg)[0]
	}
	if p.stream > 0 {
		off := p.units % 16 * p.stream
		sum := 0.0
		for _, v := range p.buf[off : off+p.stream] {
			sum += v
		}
		p.msg[1] = byte(int(sum)) // keeps the loop alive
	}
	d := time.Since(start)
	p.recent[p.units%len(p.recent)] = float64(d)
	p.units++
	p.spent += d
}

// settle refills the window of recent units; call it after a stretch in
// which the probe did not run.
func (p *probe) settle() {
	for range p.recent {
		p.unit()
	}
}

// slowdown is how much slower than the reference the machine runs now: the
// mean of the middle half of the last eight units, which a unit that was
// preempted cannot move, over the reference.
func (p *probe) slowdown() float64 {
	s := p.recent
	sort.Float64s(s[:])
	return (s[2] + s[3] + s[4] + s[5]) / 4 / p.ref
}

// timed runs fn and returns its raw duration and its calibrated one: raw
// divided by the mean of the slowdown seen just before and just after.
// After fn it runs probe units worth probeShare of fn's time, at most
// probeBurst at once, so short operations share units and long ones do not
// stall behind the probe.
func (p *probe) timed(fn func()) (raw, calibrated time.Duration) {
	before := p.slowdown()
	start := time.Now()
	fn()
	raw = time.Since(start)
	p.debt += time.Duration(float64(raw) * probeShare)
	for n := 0; p.debt > 0 && n < probeBurst; n++ {
		was := p.spent
		p.unit()
		p.debt -= p.spent - was
	}
	if p.debt > 0 {
		p.debt = 0
	}
	return raw, time.Duration(float64(raw) / ((before + p.slowdown()) / 2))
}
