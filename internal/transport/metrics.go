package transport

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"fifl/internal/metrics"
)

// serverMetrics holds the coordinator endpoint's pre-resolved instruments:
// per-endpoint request counts and latencies, frame bytes in both
// directions, per-worker upload/model byte totals (the wire-accounting
// cross-check), long-poll occupancy and codec throughput. Byte and request
// counters are deterministic for a fixed run; latency histograms are
// wall-clock and observability-only.
type serverMetrics struct {
	reg *metrics.Registry

	bytesIn      *metrics.Counter
	bytesOut     *metrics.Counter
	longpoll     *metrics.Gauge
	pollTimeouts *metrics.Counter
	pollCancels  *metrics.Counter
	replays      *metrics.Counter

	decodeSec   *metrics.Histogram
	encodeSec   *metrics.Histogram
	decodeBytes *metrics.Counter
	encodeBytes *metrics.Counter

	// Dense-equivalent vs actual wire bytes for the compressible payloads
	// (gradients in, model parameters out): the pair quantifies what the
	// negotiated compression modes save. Equal totals mean dense frames.
	denseBytesIn  *metrics.Counter
	wireBytesIn   *metrics.Counter
	denseBytesOut *metrics.Counter
	wireBytesOut  *metrics.Counter

	// pwMu guards the per-worker instrument slices below: elastic
	// membership grows them between rounds while handlers read them
	// concurrently. Use the worker* accessors, never index directly.
	pwMu        sync.Mutex
	uploadBytes []*metrics.Counter // per worker; mirrors Server.upBytes
	modelBytes  []*metrics.Counter // per worker; mirrors Server.downBytes

	// Per-worker upload latency: seconds between a round's model broadcast
	// and the worker's fresh accepted submission, as a sum + count pair so
	// scrapers (and fifl-score) can recover the mean. Wall-clock,
	// observability-only.
	latencySum []*metrics.Gauge
	latencyN   []*metrics.Counter
}

// newServerMetrics resolves the server's instrument set. The per-worker
// instruments start empty: the worker protocol grows them to its
// federation (growTo), and a server speaking another protocol registers
// none.
func newServerMetrics(r *metrics.Registry) *serverMetrics {
	r.Help("fifl_http_requests_total", "HTTP requests served, by endpoint.")
	r.Help("fifl_http_request_errors_total", "HTTP responses with status >= 400, by endpoint.")
	r.Help("fifl_http_request_seconds", "HTTP request latency by endpoint (wall-clock, observability-only).")
	r.Help("fifl_http_frame_bytes_total", "Frame bytes moved over HTTP, by direction.")
	r.Help("fifl_http_longpoll_active", "Model long polls currently parked on the server.")
	r.Help("fifl_http_longpoll_empty_total", "Model long polls that resolved without news, by reason: 'timeout' (poll window elapsed, 204 sent) vs 'cancel' (client went away, nothing written).")
	r.Help("fifl_codec_encode_seconds", "Wire-codec encode latency (wall-clock, observability-only).")
	r.Help("fifl_codec_decode_seconds", "Wire-codec decode latency (wall-clock, observability-only).")
	r.Help("fifl_transport_upload_bytes_total", "Upload frame bytes accepted, by worker (matches Server.WorkerTraffic).")
	r.Help("fifl_transport_model_bytes_total", "Model frame bytes served, by worker (matches Server.WorkerTraffic).")
	r.Help("fifl_codec_dense_bytes_total", "Dense float64 equivalent of the compressible payloads moved, by direction.")
	r.Help("fifl_codec_wire_bytes_total", "Actual wire bytes of the compressible payloads moved, by direction.")
	r.Help("fifl_transport_upload_latency_seconds_total", "Total seconds between model broadcast and fresh accepted upload, by worker (wall-clock, observability-only).")
	r.Help("fifl_transport_upload_latency_uploads_total", "Fresh accepted uploads with an observed broadcast-to-submit latency, by worker.")
	return &serverMetrics{
		reg:          r,
		bytesIn:      r.Counter("fifl_http_frame_bytes_total", "direction", "in"),
		bytesOut:     r.Counter("fifl_http_frame_bytes_total", "direction", "out"),
		longpoll:     r.Gauge("fifl_http_longpoll_active"),
		pollTimeouts: r.Counter("fifl_http_longpoll_empty_total", "reason", "timeout"),
		pollCancels:  r.Counter("fifl_http_longpoll_empty_total", "reason", "cancel"),
		replays:      r.Counter("fifl_transport_submit_replays_total"),
		decodeSec:    r.Histogram("fifl_codec_decode_seconds", metrics.DefBuckets),
		encodeSec:    r.Histogram("fifl_codec_encode_seconds", metrics.DefBuckets),
		decodeBytes:  r.Counter("fifl_codec_decode_bytes_total"),
		encodeBytes:  r.Counter("fifl_codec_encode_bytes_total"),

		denseBytesIn:  r.Counter("fifl_codec_dense_bytes_total", "direction", "in"),
		wireBytesIn:   r.Counter("fifl_codec_wire_bytes_total", "direction", "in"),
		denseBytesOut: r.Counter("fifl_codec_dense_bytes_total", "direction", "out"),
		wireBytesOut:  r.Counter("fifl_codec_wire_bytes_total", "direction", "out"),
	}
}

// growTo extends the per-worker instrument slices to cover n workers —
// called for the federation's initial size and again when elastic
// membership admits identities past it.
func (sm *serverMetrics) growTo(n int) {
	sm.pwMu.Lock()
	defer sm.pwMu.Unlock()
	for i := len(sm.uploadBytes); i < n; i++ {
		w := strconv.Itoa(i)
		sm.uploadBytes = append(sm.uploadBytes, sm.reg.Counter("fifl_transport_upload_bytes_total", "worker", w))
		sm.modelBytes = append(sm.modelBytes, sm.reg.Counter("fifl_transport_model_bytes_total", "worker", w))
		sm.latencySum = append(sm.latencySum, sm.reg.Gauge("fifl_transport_upload_latency_seconds_total", "worker", w))
		sm.latencyN = append(sm.latencyN, sm.reg.Counter("fifl_transport_upload_latency_uploads_total", "worker", w))
	}
}

// workerUpload returns worker i's upload-bytes counter, or nil when i is
// outside the instrumented range.
func (sm *serverMetrics) workerUpload(i int) *metrics.Counter {
	sm.pwMu.Lock()
	defer sm.pwMu.Unlock()
	if i < 0 || i >= len(sm.uploadBytes) {
		return nil
	}
	return sm.uploadBytes[i]
}

// workerModel returns worker i's model-bytes counter, or nil when i is
// outside the instrumented range.
func (sm *serverMetrics) workerModel(i int) *metrics.Counter {
	sm.pwMu.Lock()
	defer sm.pwMu.Unlock()
	if i < 0 || i >= len(sm.modelBytes) {
		return nil
	}
	return sm.modelBytes[i]
}

// observeUploadLatency is the hub's upload observer: it charges one fresh
// accepted submission's broadcast-to-submit latency to the worker's
// sum/count pair. Called under the hub lock, so the pair moves together.
func (sm *serverMetrics) observeUploadLatency(worker int, seconds float64) {
	sm.pwMu.Lock()
	defer sm.pwMu.Unlock()
	if worker < 0 || worker >= len(sm.latencySum) {
		return
	}
	sm.latencySum[worker].Add(seconds)
	sm.latencyN[worker].Inc()
}

// observeEncode charges one codec encode to the throughput instruments.
func (sm *serverMetrics) observeEncode(start time.Time, frameLen int) {
	sm.encodeSec.ObserveSince(start)
	sm.encodeBytes.Add(int64(frameLen))
}

// observeDecode charges one codec decode to the throughput instruments.
func (sm *serverMetrics) observeDecode(start time.Time, frameLen int) {
	sm.decodeSec.ObserveSince(start)
	sm.decodeBytes.Add(int64(frameLen))
}

// countingWriter wraps a ResponseWriter to record the status code and the
// bytes written, for the instrumentation middleware.
type countingWriter struct {
	http.ResponseWriter
	status  int
	written int64
}

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.written += int64(n)
	return n, err
}

// instrument wraps a handler with per-endpoint request, error, latency and
// bytes-out accounting. Instruments are resolved once at wiring time.
func (sm *serverMetrics) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reqs := sm.reg.Counter("fifl_http_requests_total", "endpoint", endpoint)
	errs := sm.reg.Counter("fifl_http_request_errors_total", "endpoint", endpoint)
	lat := sm.reg.Histogram("fifl_http_request_seconds", metrics.DefBuckets, "endpoint", endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		h(cw, r)
		lat.ObserveSince(start)
		reqs.Inc()
		if cw.status >= http.StatusBadRequest {
			errs.Inc()
		}
		sm.bytesOut.Add(cw.written)
	}
}

// clientMetrics holds a worker client's pre-resolved instruments:
// per-endpoint request counts/errors/latencies, retry attempts, bytes in
// both directions and codec throughput.
type clientMetrics struct {
	reqs    map[string]*metrics.Counter
	errs    map[string]*metrics.Counter
	lat     map[string]*metrics.Histogram
	other   *metrics.Counter
	retries *metrics.Counter

	bytesIn  *metrics.Counter
	bytesOut *metrics.Counter

	encodeSec   *metrics.Histogram
	decodeSec   *metrics.Histogram
	encodeBytes *metrics.Counter
	decodeBytes *metrics.Counter
}

// clientEndpoints are the fixed paths a worker client speaks; resolving
// their instruments at dial time keeps do() allocation-free.
var clientEndpoints = []string{"/v1/round/submit", "/v1/model", "/v1/round/report", "/v1/ledger"}

// newClientMetrics resolves the client's instrument set.
func newClientMetrics(r *metrics.Registry) *clientMetrics {
	r.Help("fifl_client_requests_total", "HTTP requests issued by the worker client, by endpoint (retries included).")
	r.Help("fifl_client_retry_attempts_total", "HTTP retry attempts issued by the worker client.")
	cm := &clientMetrics{
		reqs:        make(map[string]*metrics.Counter, len(clientEndpoints)),
		errs:        make(map[string]*metrics.Counter, len(clientEndpoints)),
		lat:         make(map[string]*metrics.Histogram, len(clientEndpoints)),
		other:       r.Counter("fifl_client_requests_total", "endpoint", "other"),
		retries:     r.Counter("fifl_client_retry_attempts_total"),
		bytesIn:     r.Counter("fifl_client_bytes_total", "direction", "in"),
		bytesOut:    r.Counter("fifl_client_bytes_total", "direction", "out"),
		encodeSec:   r.Histogram("fifl_codec_encode_seconds", metrics.DefBuckets),
		decodeSec:   r.Histogram("fifl_codec_decode_seconds", metrics.DefBuckets),
		encodeBytes: r.Counter("fifl_codec_encode_bytes_total"),
		decodeBytes: r.Counter("fifl_codec_decode_bytes_total"),
	}
	for _, e := range clientEndpoints {
		cm.reqs[e] = r.Counter("fifl_client_requests_total", "endpoint", e)
		cm.errs[e] = r.Counter("fifl_client_request_errors_total", "endpoint", e)
		cm.lat[e] = r.Histogram("fifl_client_request_seconds", metrics.DefBuckets, "endpoint", e)
	}
	return cm
}
