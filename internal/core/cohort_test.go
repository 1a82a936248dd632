package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/parallel"
)

// refScoreCohort and refCohortDistances are the per-row cohort loops the
// round ran before the four-row kernels, kept verbatim as the oracle:
// ScoreCohort and CohortDistances must write the same bits on every row.

func refScoreCohort(rr *fl.RoundResult, first int, bench gradvec.Vector, owners []int, threshold float64, scores []float64, accept []bool) {
	parallel.For(len(rr.Grads), func(i int) {
		g := rr.Grads[i]
		scores[i], accept[i] = math.NaN(), false
		switch {
		case g == nil:
		case bench == nil:
			accept[i] = rr.Usable(i)
		default:
			scores[i], _ = scoreAgainstBenchmark(bench, owners, first+i, g)
			// A -Inf score (malformed or NaN-poisoned upload) never clears
			// the threshold, so the uniform comparison rejects it.
			accept[i] = scores[i] >= threshold
		}
	})
}

func refCohortDistances(global gradvec.Vector, grads []gradvec.Vector, dists []float64) {
	parallel.For(len(grads), func(i int) {
		dists[i], _ = sqDistToGlobal(global, grads[i])
	})
}

// cohortSizes covers every remainder of a four-row group on one chunk (0–11
// rows) and, from 64 rows up, cohorts the parallel loop splits into
// chunks whose edges move with GOMAXPROCS.
var cohortSizes = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 64, 65, 66, 67, 71}

// cohortRows draws k rows of dimension n from every evidenceCases kind
// plus a missing, a short and a long upload, in shuffled order.
func cohortRows(r *rand.Rand, n, k int) []gradvec.Vector {
	pool := []gradvec.Vector{nil, make(gradvec.Vector, n+1)}
	if n > 0 {
		pool = append(pool, make(gradvec.Vector, n-1))
	}
	for _, tc := range evidenceCases(r, n) {
		pool = append(pool, tc.g)
	}
	rows := make([]gradvec.Vector, k)
	for i := range rows {
		rows[i] = pool[r.Intn(len(pool))]
	}
	return rows
}

// forProcs runs fn under GOMAXPROCS 1, 2 and 3.
func forProcs(t *testing.T, fn func(procs int)) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		fn(procs)
	}
}

// TestScoreCohortMatchesReference holds the four-row screen bit-equal to
// the per-row loop on mixed cohorts: every evidence kind in shuffled
// order, cohorts offset from worker 0, server owners inside and outside
// the cohort, one to three benchmark regions, and no benchmark at all.
func TestScoreCohortMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	forProcs(t, func(procs int) {
		for _, n := range []int{0, 1, 7, 1001} {
			for _, k := range cohortSizes {
				for _, first := range []int{0, 3} {
					for m := 1; m <= 3; m++ {
						rr := &fl.RoundResult{Grads: cohortRows(r, n, k), Dim: n}
						// Owners fall inside the cohort, or on a worker
						// outside it.
						owners := make([]int, m)
						for j := range owners {
							owners[j] = first - 1 + r.Intn(k+2)
						}
						bench := make(gradvec.Vector, n)
						for i := range bench {
							bench[i] = r.NormFloat64()
						}
						for _, b := range []gradvec.Vector{bench, nil} {
							name := fmt.Sprintf("procs=%d/n=%d/k=%d/first=%d/m=%d/nilbench=%v", procs, n, k, first, m, b == nil)
							wantS, wantA := make([]float64, k), make([]bool, k)
							refScoreCohort(rr, first, b, owners, 0.1, wantS, wantA)
							// Stale values from an earlier round must not
							// leak through the rows' scratch use.
							gotS, gotA := make([]float64, k), make([]bool, k)
							for i := range gotS {
								gotS[i], gotA[i] = 12345, true
							}
							ScoreCohort(rr, first, b, owners, 0.1, gotS, gotA)
							for i := range wantS {
								if math.Float64bits(gotS[i]) != math.Float64bits(wantS[i]) || gotA[i] != wantA[i] {
									t.Fatalf("%s: row %d = (%v, %v), per-row loop (%v, %v)", name, i, gotS[i], gotA[i], wantS[i], wantA[i])
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestCohortDistancesMatchesReference is the same differential for the
// Eq. 13 distances, against a finite, a huge and a non-finite G̃.
func TestCohortDistancesMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	forProcs(t, func(procs int) {
		for _, n := range []int{0, 1, 7, 1001} {
			globals := map[string]gradvec.Vector{"random": make(gradvec.Vector, n), "huge": make(gradvec.Vector, n)}
			for i := 0; i < n; i++ {
				globals["random"][i] = r.NormFloat64()
				globals["huge"][i] = 1e200 * (1 + r.Float64())
			}
			if n > 0 {
				inf := globals["random"].Clone()
				inf[n/2] = math.Inf(1)
				globals["inf"] = inf
			}
			for gn, global := range globals {
				for _, k := range cohortSizes {
					grads := cohortRows(r, n, k)
					want, got := make([]float64, k), make([]float64, k)
					refCohortDistances(global, grads, want)
					CohortDistances(global, grads, got)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("procs=%d/n=%d/global=%s/k=%d: row %d = %v, per-row loop %v", procs, n, gn, k, i, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

// TestCohortKernelsAllocateNothingPerRow pins that the four-row screen and
// distances gather their rows on the stack: on one core a 256-row cohort
// allocates exactly what an 8-row one does.
func TestCohortKernelsAllocateNothingPerRow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := rand.New(rand.NewSource(23))
	const n = 64
	allocs := func(k int) (score, dist float64) {
		rr := &fl.RoundResult{Grads: make([]gradvec.Vector, k), Dim: n}
		for i := range rr.Grads {
			rr.Grads[i] = make(gradvec.Vector, n)
			for j := range rr.Grads[i] {
				rr.Grads[i][j] = r.NormFloat64()
			}
		}
		owners := []int{0, 1}
		bench := rr.Grads[0].Clone()
		scores, accept, dists := make([]float64, k), make([]bool, k), make([]float64, k)
		score = testing.AllocsPerRun(20, func() { ScoreCohort(rr, 0, bench, owners, 0.1, scores, accept) })
		dist = testing.AllocsPerRun(20, func() { CohortDistances(bench, rr.Grads, dists) })
		return score, dist
	}
	s8, d8 := allocs(8)
	s256, d256 := allocs(256)
	if s256 != s8 {
		t.Errorf("ScoreCohort allocates %v objects at 256 rows, %v at 8", s256, s8)
	}
	if d256 != d8 {
		t.Errorf("CohortDistances allocates %v objects at 256 rows, %v at 8", d256, d8)
	}
}
