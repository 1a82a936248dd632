package core

import (
	"sort"
)

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
