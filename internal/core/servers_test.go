package core

import "testing"

func TestSelectInitialServersTopAccuracy(t *testing.T) {
	acc := []float64{0.5, 0.9, 0.7, 0.95, 0.6}
	got := SelectInitialServers(acc, 2, nil)
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("servers = %v, want [3 1]", got)
	}
}

// identityCohort is the cohort of a federation that never churned:
// slot k holds worker k.
func identityCohort(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestReselectServersSkipsBanned(t *testing.T) {
	reps := []float64{0.9, 0.8, 0.7, 0.6}
	got := ReselectServersFrom(identityCohort(4), reps, 2, map[int]bool{0: true})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("servers = %v, want [1 2]", got)
	}
}

func TestTopMDeterministicTiebreak(t *testing.T) {
	reps := []float64{0.5, 0.5, 0.5}
	got := ReselectServersFrom(identityCohort(3), reps, 2, nil)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("ties must break by index: %v", got)
	}
}

func TestTopMClampsToAvailable(t *testing.T) {
	got := ReselectServersFrom(identityCohort(2), []float64{0.1, 0.2}, 5, map[int]bool{0: true})
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("servers = %v", got)
	}
}
