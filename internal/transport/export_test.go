package transport

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"
)

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

// RejoinFederation and Client.Leave are the Go clients of a rejoin
// through /v1/join and of /v1/leave; the shipped worker only joins
// (JoinFederation), so only the tests drive these two.

// RejoinFederation re-admits a previously departed identity with its
// reputation and reward history intact, blocking (bounded only by ctx)
// until the next round boundary. A banned identity is refused with an
// error wrapping core.ErrBanned.
func RejoinFederation(ctx context.Context, baseURL string, worker, samples int) error {
	if worker < 0 {
		return fmt.Errorf("transport: RejoinFederation requires a non-negative worker, got %d", worker)
	}
	_, err := join(ctx, baseURL, worker, samples)
	return err
}

// Leave departs the federation voluntarily, blocking (bounded only by
// ctx) until the coordinator's next round boundary unseats this worker.
// The identity keeps its history and may return via RejoinFederation.
func (c *Client) Leave(ctx context.Context) error {
	status, body, err := Exchange(ctx, http.DefaultClient, http.MethodPost, c.cfg.BaseURL, "/v1/leave", "application/json",
		fmt.Appendf(nil, `{"worker":%d}`, c.cfg.Worker.ID()), maxMembershipBytes)
	if err != nil {
		return err
	}
	if status == http.StatusNoContent {
		return nil
	}
	return fmt.Errorf("transport: leave refused: HTTP %d: %s", status, bytes.TrimSpace(body))
}
