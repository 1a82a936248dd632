package core

import (
	"sort"
)

// SelectInitialServers implements the pre-training election of §4.5: every
// device runs a short local training and uploads its model; the task
// publisher picks the M devices with the highest verification accuracy as
// the initial server cluster. Candidates in the banned set are skipped.
// The returned indices are sorted by descending accuracy.
func SelectInitialServers(accuracies []float64, m int, banned map[int]bool) []int {
	return topM(accuracies, m, banned)
}

// ReselectServersFrom implements the per-iteration re-election (§4.5): the
// devices with the highest reputations form the next server cluster, and
// banned devices (caught tampering by the audit) are never selected again.
// The candidates are the worker IDs in ids (the round cohort, slot order)
// with reputations[k] scoring ids[k], and the returned cluster holds
// worker IDs. Ties break on the smaller ID, so with the identity cohort
// ids == [0..n-1] the election is exactly a top-m pick by index — the
// zero-churn bit-identity hinge.
func ReselectServersFrom(ids []int, reputations []float64, m int, banned map[int]bool) []int {
	order := make([]int, 0, len(ids)) // positions into ids
	for k, id := range ids {
		if banned != nil && banned[id] {
			continue
		}
		order = append(order, k)
	}
	sort.Slice(order, func(a, b int) bool {
		ka, kb := order[a], order[b]
		if reputations[ka] != reputations[kb] {
			return reputations[ka] > reputations[kb]
		}
		return ids[ka] < ids[kb]
	})
	if m > len(order) {
		m = len(order)
	}
	out := make([]int, m)
	for i := 0; i < m; i++ {
		out[i] = ids[order[i]]
	}
	return out
}

// topM returns the indices of the m largest scores, excluding banned ones,
// in descending score order with index as the tiebreaker so election is
// deterministic.
func topM(scores []float64, m int, banned map[int]bool) []int {
	idx := make([]int, 0, len(scores))
	for i := range scores {
		if banned != nil && banned[i] {
			continue
		}
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if scores[ia] != scores[ib] {
			return scores[ia] > scores[ib]
		}
		return ia < ib
	})
	if m > len(idx) {
		m = len(idx)
	}
	return idx[:m]
}
