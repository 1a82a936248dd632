package transport

import "time"

// The reply budgets the external tests size their oversized replies by.
const (
	MaxMembershipBytes = maxMembershipBytes
	MaxMetricsBytes    = maxMetricsBytes
)

// SetReplyHeaderWait makes Exchange's default client wait d for a reply's
// headers, until the returned function restores the real wait.
func SetReplyHeaderWait(d time.Duration) (restore func()) {
	old := defaultClient
	defaultClient = headerBoundClient(d)
	return func() { defaultClient = old }
}
