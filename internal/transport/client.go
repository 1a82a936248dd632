package transport

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"fifl/internal/chain"
	"fifl/internal/fl"
	"fifl/internal/metrics"
	"fifl/internal/transport/codec"
)

// maxLedgerBytes is the default response budget for /v1/ledger downloads:
// a full-run audit chain export dwarfs any single gradient frame, so the
// ledger gets its own, much larger cap.
const maxLedgerBytes = 1 << 30

// maxRetryWait caps one retry backoff sleep, and is the fallback when the
// exponential schedule overflows.
const maxRetryWait = 30 * time.Second

// maxBackoffShift bounds the exponent of the retry backoff schedule so a
// large RetryAttempts cannot overflow RetryBackoff << (attempt-1).
const maxBackoffShift = 16

// ClientConfig configures a worker's connection to a coordinator.
type ClientConfig struct {
	// BaseURL is the coordinator's root, e.g. "http://127.0.0.1:7070".
	// It must be an absolute http or https URL; DialWorker rejects
	// anything else up front instead of letting a typo surface later as an
	// opaque retry exhaustion.
	BaseURL string
	// Worker is the local participant: its ID names the federation slot,
	// NumSamples is registered at hello, and LocalTrain runs each round.
	Worker fl.Worker
	// HTTPClient overrides the transport (nil = a client with sane
	// timeouts for long polls).
	HTTPClient *http.Client
	// PollWait caps one model long poll (0 = 5s).
	PollWait time.Duration
	// RetryAttempts is how many times a failed HTTP request is retried
	// before giving up (0 = 3); RetryBackoff is the base delay between
	// attempts, doubling each retry (0 = 100ms). The schedule is clamped:
	// no single wait exceeds 30s regardless of the attempt count.
	RetryAttempts int
	RetryBackoff  time.Duration
	// MaxResponseBytes caps one response body read (0 = 64 MiB, with
	// /v1/ledger given a 1 GiB budget). A response past the cap fails with
	// an explicit "exceeds the response limit" error — terminal, not
	// retried — instead of a truncated read and a misleading CRC failure.
	MaxResponseBytes int64
	// Compression selects the wire layout for this worker's traffic,
	// negotiated once at dial time: uploads are encoded in it, and model
	// and report downloads are requested in it via the `enc` query
	// parameter (the server degrades topk to f32 for those dense
	// broadcasts). Every mode except codec.CompressionNone is lossy and
	// forfeits bit-identity with an in-process run — except on audit
	// rounds, see AuditEvery.
	Compression codec.Compression
	// AuditEvery is the bit-identity escape hatch: every AuditEvery-th
	// round (t % AuditEvery == 0) is carried dense float64 regardless of
	// Compression, so auditors can spot-check exact gradients on a
	// schedule. 0 disables auditing; 1 forces every round dense, making
	// the whole run bit-identical to an uncompressed one.
	AuditEvery int
	// Metrics selects the registry the client instruments itself into —
	// request counts/latencies per endpoint, retry attempts, bytes moved,
	// codec throughput (0 = the process-wide metrics.Default). Metrics are
	// observability-only and never feed a decision.
	Metrics *metrics.Registry
}

// Client is a worker's connection to a coordinator: it registers at hello,
// then repeats poll-train-submit until the coordinator broadcasts done.
type Client struct {
	cfg       ClientConfig
	http      *http.Client
	lastRound int
	cm        *clientMetrics
}

// DialWorker validates the configuration and registers the worker with the
// coordinator (the hello handshake). The returned client is single-
// goroutine: drive it with Run or RunRound.
func DialWorker(ctx context.Context, cfg ClientConfig) (*Client, error) {
	if cfg.Worker == nil {
		return nil, fmt.Errorf("transport: DialWorker requires a worker")
	}
	u, err := url.Parse(cfg.BaseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("transport: DialWorker requires an absolute coordinator URL (scheme://host[:port]), got %q", cfg.BaseURL)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("transport: DialWorker speaks http/https, got scheme %q in %q", u.Scheme, cfg.BaseURL)
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 5 * time.Second
	}
	if cfg.RetryAttempts <= 0 {
		cfg.RetryAttempts = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if !cfg.Compression.Valid() {
		return nil, fmt.Errorf("transport: DialWorker got invalid compression mode %s", cfg.Compression)
	}
	if cfg.AuditEvery < 0 {
		return nil, fmt.Errorf("transport: DialWorker requires a non-negative audit cadence, got %d", cfg.AuditEvery)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default
	}
	c := &Client{cfg: cfg, http: cfg.HTTPClient, lastRound: noRound, cm: newClientMetrics(reg)}
	if c.http == nil {
		c.http = &http.Client{Timeout: cfg.PollWait + 30*time.Second}
	}
	frame, err := codec.EncodeHello(codec.Hello{Worker: cfg.Worker.ID(), Samples: cfg.Worker.NumSamples()})
	if err != nil {
		return nil, err
	}
	if _, err := c.post(ctx, "/v1/round/submit", frame); err != nil {
		return nil, fmt.Errorf("transport: hello: %w", err)
	}
	return c, nil
}

// compressionFor returns the wire mode for the given round: the
// negotiated mode, except on audit rounds, which are always dense.
func (c *Client) compressionFor(round int) codec.Compression {
	if c.cfg.AuditEvery > 0 && round >= 0 && round%c.cfg.AuditEvery == 0 {
		return codec.CompressionNone
	}
	return c.cfg.Compression
}

// RunRound performs one poll-train-submit cycle. done reports that the
// coordinator broadcast the terminal frame; trained reports whether this
// call actually trained and submitted (false on an empty long poll).
func (c *Client) RunRound(ctx context.Context) (trained, done bool, err error) {
	q := url.Values{
		"after":  {strconv.Itoa(c.lastRound)},
		"worker": {strconv.Itoa(c.cfg.Worker.ID())},
		"wait":   {strconv.Itoa(int(c.cfg.PollWait / time.Millisecond))},
	}
	// The download mode predicts the next round as lastRound+1. A stale
	// prediction (the hub skipped ahead) only costs download fidelity for
	// one frame; the upload decision below uses the round the model frame
	// actually names, so audit-round uploads are always exact.
	if dl := c.compressionFor(c.lastRound + 1); dl != codec.CompressionNone {
		q.Set("enc", dl.String())
	}
	body, err := c.get(ctx, "/v1/model?"+q.Encode())
	if err != nil {
		return false, false, fmt.Errorf("transport: polling model: %w", err)
	}
	if body == nil { // empty poll window
		return false, false, nil
	}
	decStart := time.Now()
	m, err := codec.DecodeModel(body)
	c.cm.decodeSec.ObserveSince(decStart)
	c.cm.decodeBytes.Add(int64(len(body)))
	if err != nil {
		return false, false, fmt.Errorf("transport: model frame: %w", err)
	}
	if m.Done {
		return false, true, nil
	}
	grad := c.cfg.Worker.LocalTrain(m.Round, m.Params)
	encStart := time.Now()
	frame, err := codec.EncodeUpload(codec.Upload{
		Round:   m.Round,
		Worker:  c.cfg.Worker.ID(),
		Samples: c.cfg.Worker.NumSamples(),
		Grad:    grad,
	}, c.compressionFor(m.Round))
	if err != nil {
		return false, false, fmt.Errorf("transport: encoding upload for round %d: %w", m.Round, err)
	}
	c.cm.encodeSec.ObserveSince(encStart)
	c.cm.encodeBytes.Add(int64(len(frame)))
	if _, err := c.post(ctx, "/v1/round/submit", frame); err != nil {
		return false, false, fmt.Errorf("transport: submitting round %d: %w", m.Round, err)
	}
	c.lastRound = m.Round
	return true, false, nil
}

// Run repeats RunRound until the coordinator broadcasts done or the
// context is cancelled, returning the number of rounds trained.
func (c *Client) Run(ctx context.Context) (rounds int, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return rounds, err
		}
		trained, done, err := c.RunRound(ctx)
		if err != nil {
			return rounds, err
		}
		if trained {
			rounds++
		}
		if done {
			return rounds, nil
		}
	}
}

// LastRound returns the most recent round this client trained in, or -1
// before any round.
func (c *Client) LastRound() int { return c.lastRound }

// FetchReport downloads one round's assessment.
func (c *Client) FetchReport(ctx context.Context, round int) (codec.Report, error) {
	q := url.Values{"round": {strconv.Itoa(round)}}
	if dl := c.compressionFor(round); dl != codec.CompressionNone {
		q.Set("enc", dl.String())
	}
	body, err := c.get(ctx, "/v1/round/report?"+q.Encode())
	if err != nil {
		return codec.Report{}, fmt.Errorf("transport: fetching report %d: %w", round, err)
	}
	if body == nil {
		return codec.Report{}, fmt.Errorf("transport: empty report response for round %d", round)
	}
	return codec.DecodeReport(body)
}

// VerifyLedger downloads the coordinator's audit chain and verifies it —
// hash links and executor signatures — returning the block count. This is
// the worker-side tamper check of §4.5 over the wire.
func (c *Client) VerifyLedger(ctx context.Context) (blocks int, err error) {
	body, err := c.get(ctx, "/v1/ledger")
	if err != nil {
		return 0, fmt.Errorf("transport: fetching ledger: %w", err)
	}
	if body == nil {
		return 0, fmt.Errorf("transport: empty ledger response")
	}
	export, err := codec.DecodeLedger(body)
	if err != nil {
		return 0, err
	}
	return chain.VerifyFrom(bytes.NewReader(export))
}

// FetchLedgerFrom downloads the coordinator's chain export suffix starting
// at block index from (0 = the whole chain). The returned bytes are a
// chain binary export — full for from 0, partial otherwise — ready for
// chain.StreamBinary; a partial export past the chain tip carries zero
// blocks. Incremental fetches let an auditor tail a live chain paying for
// new blocks only.
func (c *Client) FetchLedgerFrom(ctx context.Context, from int) ([]byte, error) {
	if from < 0 {
		return nil, fmt.Errorf("transport: FetchLedgerFrom requires a non-negative index, got %d", from)
	}
	path := "/v1/ledger"
	if from > 0 {
		path += "?from=" + strconv.Itoa(from)
	}
	body, err := c.get(ctx, path)
	if err != nil {
		return nil, fmt.Errorf("transport: fetching ledger from %d: %w", from, err)
	}
	if body == nil {
		return nil, fmt.Errorf("transport: empty ledger response")
	}
	return codec.DecodeLedger(body)
}

// FetchLedger downloads a coordinator's chain export without joining the
// federation: no hello handshake, no worker slot — the shape a read-only
// analytics consumer (fifl-score, dashboards) needs. from and the response
// budget behave as in FetchLedgerFrom; maxBytes <= 0 uses the default
// 1 GiB ledger budget. The export is returned unverified; stream it with
// chain.StreamBinary (checking continuity) or chain.VerifyFrom.
func FetchLedger(ctx context.Context, baseURL string, from int, maxBytes int64) ([]byte, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("transport: FetchLedger requires an absolute coordinator URL, got %q", baseURL)
	}
	if from < 0 {
		return nil, fmt.Errorf("transport: FetchLedger requires a non-negative index, got %d", from)
	}
	if maxBytes <= 0 {
		maxBytes = maxLedgerBytes
	}
	path := baseURL + "/v1/ledger"
	if from > 0 {
		path += "?from=" + strconv.Itoa(from)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("transport: fetching ledger: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBytes+1))
	if err != nil {
		return nil, fmt.Errorf("transport: reading ledger response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return nil, fmt.Errorf("GET /v1/ledger: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	if int64(len(body)) > maxBytes {
		return nil, fmt.Errorf("GET /v1/ledger: response exceeds the %d-byte limit", maxBytes)
	}
	return codec.DecodeLedger(body)
}

// maxMetricsBytes bounds a /v1/metrics exposition download: even a large
// federation's registry is a few MiB of text.
const maxMetricsBytes = 64 << 20

// FetchMetrics downloads a coordinator's Prometheus text exposition from
// /v1/metrics — the read-only companion to FetchLedger for analytics
// consumers that overlay transport observations (upload latency) onto
// ledger-derived signals.
func FetchMetrics(ctx context.Context, baseURL string) ([]byte, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("transport: FetchMetrics requires an absolute coordinator URL, got %q", baseURL)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("transport: fetching metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxMetricsBytes+1))
	if err != nil {
		return nil, fmt.Errorf("transport: reading metrics response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return nil, fmt.Errorf("GET /v1/metrics: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	if int64(len(body)) > maxMetricsBytes {
		return nil, fmt.Errorf("GET /v1/metrics: response exceeds the %d-byte limit", maxMetricsBytes)
	}
	return body, nil
}

// get issues a GET with retries. It returns nil bytes for 204 No Content.
func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, path, nil)
}

// post issues a POST with retries.
func (c *Client) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	return c.do(ctx, http.MethodPost, path, body)
}

// endpointOf strips the query from a request path, yielding the metric
// label.
func endpointOf(path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		return path[:i]
	}
	return path
}

// responseLimit returns the byte budget for one response body on the
// given endpoint.
func (c *Client) responseLimit(endpoint string) int64 {
	if c.cfg.MaxResponseBytes > 0 {
		return c.cfg.MaxResponseBytes
	}
	if endpoint == "/v1/ledger" {
		return maxLedgerBytes
	}
	return maxUploadBytes
}

// retryWait returns the clamped exponential backoff before retry attempt
// (attempt >= 1): base << (attempt-1), with the shift bounded and the
// result capped at maxRetryWait so large attempt counts cannot overflow
// into a negative or absurd sleep.
func retryWait(base time.Duration, attempt int) time.Duration {
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	wait := base << shift
	if wait <= 0 || wait > maxRetryWait {
		return maxRetryWait
	}
	return wait
}

// do issues one HTTP request with exponential-backoff retries on transport
// errors and 5xx responses. 4xx responses are terminal: the coordinator
// rejected the request and a retransmission cannot fix it. A response body
// larger than the endpoint's budget is also terminal — the body is read
// with a limit+1 over-read probe so truncation is detected explicitly
// instead of surfacing as a downstream CRC failure.
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	endpoint := endpointOf(path)
	limit := c.responseLimit(endpoint)
	reqs, errsC, lat := c.cm.reqs[endpoint], c.cm.errs[endpoint], c.cm.lat[endpoint]
	if reqs == nil {
		reqs = c.cm.other
	}
	var lastErr error
	for attempt := 0; attempt <= c.cfg.RetryAttempts; attempt++ {
		if attempt > 0 {
			c.cm.retries.Inc()
			select {
			case <-time.After(retryWait(c.cfg.RetryBackoff, attempt)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/octet-stream")
		}
		start := time.Now()
		resp, err := c.http.Do(req)
		reqs.Inc()
		if err != nil {
			if errsC != nil {
				errsC.Inc()
			}
			lastErr = err
			continue
		}
		out, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
		resp.Body.Close()
		if lat != nil {
			lat.ObserveSince(start)
		}
		c.cm.bytesOut.Add(int64(len(body)))
		switch {
		case resp.StatusCode == http.StatusNoContent:
			return nil, nil
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			if err != nil {
				lastErr = err
				continue
			}
			if int64(len(out)) > limit {
				// Terminal: a bigger response will not fit on retry either.
				return nil, fmt.Errorf("%s %s: response exceeds the %d-byte limit", method, endpoint, limit)
			}
			c.cm.bytesIn.Add(int64(len(out)))
			return out, nil
		case resp.StatusCode >= 500:
			if errsC != nil {
				errsC.Inc()
			}
			lastErr = fmt.Errorf("%s %s: %s", method, path, resp.Status)
			continue
		default:
			if errsC != nil {
				errsC.Inc()
			}
			return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
		}
	}
	return nil, fmt.Errorf("%s %s failed after %d attempts: %w", method, path, c.cfg.RetryAttempts+1, lastErr)
}
