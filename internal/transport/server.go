package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"fifl/internal/core"
	"fifl/internal/frame"
	"fifl/internal/transport/codec"
)

// MaxFrameBytes bounds one codec frame on either side of the wire: a
// request body the server reads (HandleFrame) and a frame reply a client
// reads through Exchange. It is header + gradient + CRC for the largest
// model this repo trains, with generous slack; a collect frame carrying
// several full server gradients must fit. Larger bodies are rejected
// before buffering.
const MaxFrameBytes = 64 << 20

// defaultPollWait is the server-side cap on a long poll.
const defaultPollWait = 10 * time.Second

// replyHeaderWait bounds how long defaultClient waits for a reply's
// headers. The server answers every request at once except a long poll,
// which it holds for at most defaultPollWait, so a longer silence is a
// stalled server, not a slow one. Only the headers are timed: a download
// that is making progress is never cut.
const replyHeaderWait = defaultPollWait + 30*time.Second

// defaultClient carries the requests of callers that bring no
// http.Client of their own (Exchange with a nil client).
var defaultClient = headerBoundClient(replyHeaderWait)

// headerBoundClient returns a client that fails a request whose reply
// headers take longer than wait to arrive.
func headerBoundClient(wait time.Duration) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.ResponseHeaderTimeout = wait
	return &http.Client{Transport: t}
}

// Protocol is the peer side of one wire protocol a Server speaks: the
// worker Hub, or a sharded root's shard.ShardHub. The Server owns the rest
// of a coordinator's HTTP front and mounts the protocol's own endpoints
// beside it (see NewServer and shard.NewServer).
type Protocol interface {
	// WaitReady blocks until every expected peer has registered.
	WaitReady(ctx context.Context) error
	// MarkDone tells every peer the federation is finished.
	MarkDone()
	// Close unblocks every waiting peer.
	Close()
	// Health returns the protocol's progress fields for /v1/healthz.
	Health() map[string]any
}

// Server is a coordinator's HTTP front. Every coordinator, flat or a
// sharded root, serves these, each request counted in the fifl_http_*
// series:
//
//	GET  /v1/round/report  — per-round assessment (statuses, reputations, rewards)
//	GET  /v1/ledger        — framed chain binary export
//	GET  /v1/healthz       — JSON liveness and the protocol's progress
//	GET  /v1/metrics       — Prometheus text exposition of the shared registry
//
// Beside them it mounts one wire protocol's endpoints. The worker protocol
// (NewServer) adds:
//
//	POST /v1/round/submit  — codec hello and upload frames
//	GET  /v1/model         — long-polled global-parameter broadcast
//	POST /v1/join, /v1/leave — elastic membership (membership.go)
type Server struct {
	coord *core.Coordinator
	proto Protocol
	mux   *http.ServeMux
	sm    *serverMetrics

	mu      sync.Mutex
	reports map[int]*core.RoundReport

	// The worker protocol's state; hub is nil on a server that speaks
	// another protocol.
	hub *Hub
	// waitModel is the hub's long-poll wait, indirected so tests can stand
	// in a misbehaving hub and prove handleModel's accounting survives it.
	waitModel func(ctx context.Context, after int, maxWait time.Duration) (round int, params []float64, done bool, status waitStatus)
	// Per-worker wire accounting for the netsim cross-check: bytes of
	// upload frames received and of non-done model frames served. Grown by
	// ProcessMembership when elastic joins extend the federation.
	upBytes   []int64
	downBytes []int64
	// Queued membership handshakes, applied at the next round boundary by
	// ProcessMembership (see membership.go).
	joins  []joinRequest
	leaves []leaveRequest
}

// NewCoordinatorServer builds the HTTP front shared by every coordinator
// over proto; the protocol mounts its own endpoints with HandleFrame and
// HandlePoll.
func NewCoordinatorServer(coord *core.Coordinator, proto Protocol) (*Server, error) {
	if coord == nil {
		return nil, fmt.Errorf("transport: a coordinator server requires a coordinator")
	}
	s := &Server{
		coord:   coord,
		proto:   proto,
		mux:     http.NewServeMux(),
		sm:      newServerMetrics(coord.Metrics()),
		reports: make(map[int]*core.RoundReport),
	}
	s.handle("GET /v1/round/report", s.handleReport)
	s.handle("GET /v1/ledger", s.handleLedger)
	s.handle("GET /v1/healthz", s.handleHealthz)
	s.handle("GET /v1/metrics", s.handleMetrics)
	return s, nil
}

// NewServer serves the worker protocol for a coordinator whose engine runs
// over hub's stubs. The engine needs a positive worker timeout: the
// deadline is what resolves a silent remote worker to StatusTimedOut.
func NewServer(coord *core.Coordinator, hub *Hub) (*Server, error) {
	if hub == nil {
		return nil, fmt.Errorf("transport: NewServer requires a hub")
	}
	s, err := NewCoordinatorServer(coord, hub)
	if err != nil {
		return nil, err
	}
	if known := coord.Members().NumKnown(); known != hub.n {
		return nil, fmt.Errorf("transport: coordinator knows %d worker identities, hub covers %d", known, hub.n)
	}
	if coord.Engine.WorkerTimeout() <= 0 {
		return nil, fmt.Errorf("transport: the engine needs a positive WithWorkerTimeout to bound remote workers")
	}
	s.hub = hub
	s.waitModel = hub.waitModel
	s.growAccounting()
	hub.SetUploadObserver(s.sm.observeUploadLatency)
	s.HandleFrame("POST /v1/round/submit", s.handleSubmit)
	s.HandlePoll("GET /v1/model", s.handleModel)
	s.handle("POST /v1/join", s.handleJoin)
	s.handle("POST /v1/leave", s.handleLeave)
	return s, nil
}

// handle mounts one endpoint; pattern is "METHOD /path", and the path
// names the endpoint in the request instruments.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	_, path, _ := strings.Cut(pattern, " ")
	s.mux.HandleFunc(pattern, s.sm.instrument(path, h))
}

// HandleFrame mounts an endpoint that takes one codec frame as its body.
// The body is read bounded by MaxFrameBytes: a larger one is 413, a
// short or unreadable one 400, and h runs only on a whole frame.
func (s *Server) HandleFrame(pattern string, h func(w http.ResponseWriter, r *http.Request, body []byte)) {
	s.handle(pattern, func(w http.ResponseWriter, r *http.Request) {
		body, err := frame.ReadFrame(r.Body, r.ContentLength, MaxFrameBytes)
		if errors.Is(err, frame.ErrFrameTooLarge) {
			http.Error(w, "transport: submission exceeds the frame size limit", http.StatusRequestEntityTooLarge)
			return
		}
		if err != nil {
			http.Error(w, "transport: reading submission: "+err.Error(), http.StatusBadRequest)
			return
		}
		s.sm.bytesIn.Add(int64(len(body)))
		h(w, r, body)
	})
}

// HandlePoll mounts a long-poll endpoint. h gets the request's ?wait=ms
// cap: a wait inside (0, defaultPollWait) is kept, any other the default.
func (s *Server) HandlePoll(pattern string, h func(w http.ResponseWriter, r *http.Request, wait time.Duration)) {
	s.handle(pattern, func(w http.ResponseWriter, r *http.Request) {
		ms, err := QueryInt(r, "wait", 0)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		wait := defaultPollWait
		if d := time.Duration(ms) * time.Millisecond; d > 0 && d < wait {
			wait = d
		}
		h(w, r, wait)
	})
}

// Exchange sends one request to a coordinator server and reads its reply:
// the one request path of every client of the server (the worker Client,
// FetchLedger, FetchMetrics, the membership calls and the shard link).
// base must be an absolute http(s) URL. body, if not nil, is sent as
// contentType to base+path through hc (nil = a client that bounds the wait
// for the reply's headers, see replyHeaderWait). The reply body is read
// whole, at most limit bytes, and closed. Exchange returns the reply's
// status, 0 when no reply arrived, and its body; a body past limit fails
// with an error wrapping frame.ErrFrameTooLarge. What a status means —
// re-poll, retry or refusal — is the caller's to decide.
func Exchange(ctx context.Context, hc *http.Client, method, base, path, contentType string, body []byte, limit int64) (status int, reply []byte, err error) {
	if err := checkBaseURL(base); err != nil {
		return 0, nil, err
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if hc == nil {
		hc = defaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err = frame.ReadFrame(resp.Body, resp.ContentLength, limit)
	if errors.Is(err, frame.ErrFrameTooLarge) {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: %s: response exceeds the %d-byte limit: %w",
			method, endpointOf(path), resp.Status, limit, err)
	}
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: reading the reply: %w", method, endpointOf(path), err)
	}
	return resp.StatusCode, reply, nil
}

// checkBaseURL accepts only an absolute http or https URL, so a typo fails
// up front with its own message instead of as an opaque "unsupported
// protocol scheme" or a retry exhaustion.
func checkBaseURL(base string) error {
	u, err := url.Parse(base)
	if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return fmt.Errorf("coordinator URL %q is not an absolute http(s) URL (scheme://host[:port])", base)
	}
	return nil
}

// Handler returns the server's HTTP handler, ready for http.Server or
// httptest.NewServer (the loopback mode the integration tests use).
func (s *Server) Handler() http.Handler { return s.mux }

// WaitReady blocks until every expected peer has registered.
func (s *Server) WaitReady(ctx context.Context) error { return s.proto.WaitReady(ctx) }

// RunRound executes one FIFL iteration through the coordinator: its
// Collect stage waits for the protocol's real submissions under its
// deadlines, and the coordinator assesses the arrivals exactly as it would
// in process. The report is retained for /v1/round/report.
func (s *Server) RunRound(ctx context.Context, t int) (*core.RoundReport, error) {
	rep, err := s.coord.RunRoundContext(ctx, t)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.reports[t] = rep
	s.mu.Unlock()
	return rep, nil
}

// MarkDone tells every peer the federation is finished: workers see the
// terminal model frame, shards the done directive, and their loops exit.
func (s *Server) MarkDone() { s.proto.MarkDone() }

// Close marks the federation done and unblocks every waiting peer.
func (s *Server) Close() {
	s.proto.MarkDone()
	s.proto.Close()
}

// WorkerTraffic returns the per-worker wire bytes measured so far: upload
// frames received and model frames served. The integration tests
// cross-check these against netsim's analytic model.
func (s *Server) WorkerTraffic() (up, down []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.upBytes...), append([]int64(nil), s.downBytes...)
}

// handleSubmit accepts hello and upload frames. A rejected frame gets an
// HTTP error and never reaches the engine — the per-worker deadline turns
// the missing arrival into StatusTimedOut.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, body []byte) {
	typ, err := codec.Type(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch typ {
	case codec.TypeHello:
		h, err := codec.DecodeHello(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.hub.hello(h.Worker, h.Samples); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case codec.TypeUpload:
		decStart := time.Now()
		u, err := codec.DecodeUpload(body)
		s.sm.observeDecode(decStart, len(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fresh, err := s.hub.submit(u.Round, u.Worker, u.Samples, u.Grad)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		// An idempotent replay (a client retry after a lost 204) is
		// acknowledged but not re-counted: the per-worker wire accounting
		// must stay bit-identical to a retry-free run.
		if fresh {
			s.mu.Lock()
			if u.Worker >= 0 && u.Worker < len(s.upBytes) {
				s.upBytes[u.Worker] += int64(len(body))
			}
			s.mu.Unlock()
			if c := s.sm.workerUpload(u.Worker); c != nil {
				c.Add(int64(len(body)))
			}
			s.sm.denseBytesIn.Add(int64(8 * len(u.Grad)))
			s.sm.wireBytesIn.Add(int64(len(body)))
		} else {
			s.sm.replays.Inc()
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, fmt.Sprintf("transport: %s frames do not belong on /v1/round/submit", typ), http.StatusBadRequest)
	}
}

// queryCompression parses the ?enc= parameter naming the wire layout the
// client wants its download in (empty = dense float64).
func queryCompression(r *http.Request) (codec.Compression, error) {
	c, err := codec.ParseCompression(r.URL.Query().Get("enc"))
	if err != nil {
		return 0, fmt.Errorf("transport: bad enc=%q: %w", r.URL.Query().Get("enc"), err)
	}
	return c, nil
}

// handleModel serves the global-parameter broadcast as a long poll:
// ?after=R blocks until a round newer than R is published (or the
// federation finishes) for at most wait, ?worker=i attributes the
// download for traffic accounting, and ?enc= selects the compression mode
// (topk degrades to f32 — parameters are dense). No news within the
// window is 204 No Content.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request, wait time.Duration) {
	after, err := QueryInt(r, "after", noRound)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	enc, err := queryCompression(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The decrement is deferred, not sequential: a panicking wait (or
	// anything the net/http recover machinery swallows below it) must not
	// leak a permanently-parked poll in the occupancy gauge.
	s.sm.longpoll.Add(1)
	defer s.sm.longpoll.Add(-1)
	round, params, done, status := s.waitModel(r.Context(), after, wait)
	switch status {
	case waitTimeout:
		// The client is still there: 204 tells it to re-poll.
		s.sm.pollTimeouts.Inc()
		w.WriteHeader(http.StatusNoContent)
		return
	case waitCancelled:
		// The client hung up mid-poll; writing a 204 to the dead connection
		// would just mint a misleading response in the access accounting.
		s.sm.pollCancels.Inc()
		return
	}
	encStart := time.Now()
	frame, err := codec.EncodeModel(codec.Model{Round: round, Done: done, Params: params}, enc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.sm.observeEncode(encStart, len(frame))
	if !done {
		s.sm.denseBytesOut.Add(int64(8 * len(params)))
		s.sm.wireBytesOut.Add(int64(len(frame)))
		if worker, err := QueryInt(r, "worker", -1); err == nil && worker >= 0 && worker < s.hub.size() {
			s.mu.Lock()
			if worker < len(s.downBytes) {
				s.downBytes[worker] += int64(len(frame))
			}
			s.mu.Unlock()
			if c := s.sm.workerModel(worker); c != nil {
				c.Add(int64(len(frame)))
			}
		}
	}
	WriteFrame(w, frame)
}

// handleReport serves one round's assessment (?round=t).
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	round, err := QueryInt(r, "round", -1)
	if err != nil || round < 0 {
		http.Error(w, "transport: /v1/round/report requires ?round=t", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	rep, exists := s.reports[round]
	s.mu.Unlock()
	if !exists {
		http.Error(w, fmt.Sprintf("transport: no report for round %d yet", round), http.StatusNotFound)
		return
	}
	enc, err := queryCompression(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	encStart := time.Now()
	frame, err := codec.EncodeReport(codec.Report{
		Round:       rep.Round,
		Committed:   rep.Committed,
		Statuses:    rep.Statuses,
		Reputations: rep.Reputations,
		Rewards:     rep.Rewards,
	}, enc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.sm.observeEncode(encStart, len(frame))
	WriteFrame(w, frame)
}

// handleLedger streams the audit chain as a framed binary export.
// ?from=N serves only the blocks with index >= N (plus the executor key
// table), so a follower that polls the chain — fifl-score -follow — pays
// for new blocks only instead of re-downloading the whole ledger against
// the client's 1 GiB response budget each time. from past the chain tip
// is not an error: it yields a zero-block export the poller recognizes as
// "no news".
func (s *Server) handleLedger(w http.ResponseWriter, r *http.Request) {
	from, err := QueryInt(r, "from", 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if from < 0 {
		http.Error(w, "transport: ?from must be non-negative", http.StatusBadRequest)
		return
	}
	if n := s.coord.Ledger.Len(); from > n {
		from = n
	}
	var buf bytes.Buffer
	if err := s.coord.Ledger.WriteBinaryFrom(&buf, from); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	encStart := time.Now()
	frame, err := codec.EncodeLedger(buf.Bytes())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.sm.observeEncode(encStart, len(frame))
	WriteFrame(w, frame)
}

// handleMetrics serves the shared registry — engine round phases,
// coordinator assessments, transport traffic — in the Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.coord.Metrics().WritePrometheus(w)
}

// handleHealthz reports liveness, the ledger height and the protocol's
// progress as JSON.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fields := s.proto.Health()
	fields["status"] = "ok"
	fields["ledger"] = s.coord.Ledger.Len()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(fields)
}

// WriteFrame sends a codec frame as an octet stream.
func WriteFrame(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	_, _ = w.Write(frame)
}

// QueryInt parses an optional integer query parameter.
func QueryInt(r *http.Request, key string, def int) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("transport: bad %s=%q: %w", key, raw, err)
	}
	return v, nil
}
