package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("requests_total", "endpoint", "/v1/model")
	c.Inc()
	c.Add(4)
	c.Add(-7) // counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) resolves to the same instrument.
	if r.Counter("requests_total", "endpoint", "/v1/model") != c {
		t.Fatal("lookup did not return the registered counter")
	}
	g := r.Gauge("occupancy")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("latency_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.005+0.01+0.05+0.5+5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	s := r.Snapshot().Histograms["latency_seconds"]
	// le semantics: 0.005 and 0.01 land in the 0.01 bucket, 0.05 in 0.1,
	// 0.5 in 1, 5 in +Inf.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
}

func TestConcurrentUpdatesAndReset(t *testing.T) {
	r := New()
	c := r.Counter("n")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("after concurrent updates: counter=%d gauge=%v hist=%d", c.Value(), g.Value(), h.Count())
	}
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("Reset did not zero the instruments")
	}
	c.Inc() // pointers stay valid after Reset
	if c.Value() != 1 {
		t.Fatal("counter dead after Reset")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("fifl_requests_total", "endpoint", "/v1/model").Add(3)
	r.Counter("fifl_requests_total", "endpoint", "/v1/ledger").Add(1)
	r.Help("fifl_requests_total", "HTTP requests served.")
	r.Gauge("fifl_longpoll_active").Set(2)
	h := r.Histogram("fifl_latency_seconds", []float64{0.1, 1}, "endpoint", "/v1/model")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP fifl_requests_total HTTP requests served.\n",
		"# TYPE fifl_requests_total counter\n",
		`fifl_requests_total{endpoint="/v1/ledger"} 1` + "\n",
		`fifl_requests_total{endpoint="/v1/model"} 3` + "\n",
		"# TYPE fifl_longpoll_active gauge\n",
		"fifl_longpoll_active 2\n",
		"# TYPE fifl_latency_seconds histogram\n",
		`fifl_latency_seconds_bucket{endpoint="/v1/model",le="0.1"} 1` + "\n",
		`fifl_latency_seconds_bucket{endpoint="/v1/model",le="1"} 2` + "\n",
		`fifl_latency_seconds_bucket{endpoint="/v1/model",le="+Inf"} 3` + "\n",
		`fifl_latency_seconds_sum{endpoint="/v1/model"} 2.55` + "\n",
		`fifl_latency_seconds_count{endpoint="/v1/model"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Deterministic: a second render is byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if out != b2.String() {
		t.Fatal("exposition output is not deterministic")
	}
	// Series of one family sort together under a single TYPE header.
	if strings.Count(out, "# TYPE fifl_requests_total") != 1 {
		t.Fatal("family header duplicated")
	}
}

func TestKeySanitizationAndEscaping(t *testing.T) {
	if got := Key("bad name!", "l", `va"l\ue`+"\n"); got != `bad_name_{l="va\"l\\ue\n"}` {
		t.Fatalf("Key = %q", got)
	}
	if got := Key("9lead"); got != "_9lead" {
		t.Fatalf("Key = %q", got)
	}
	if got := Key("plain"); got != "plain" {
		t.Fatalf("Key = %q", got)
	}
	// Unpaired trailing label is ignored.
	if got := Key("n", "only_key"); got != "n" {
		t.Fatalf("Key = %q", got)
	}
}

func TestSnapshotLookups(t *testing.T) {
	r := New()
	r.Counter("c", "a", "b").Add(7)
	r.Gauge("g").Set(1.25)
	h := r.Histogram("observe_since", nil)
	h.ObserveSince(time.Now().Add(-10 * time.Millisecond))
	s := r.Snapshot()
	if s.CounterValue("c", "a", "b") != 7 {
		t.Fatal("CounterValue lookup failed")
	}
	if s.GaugeValue("g") != 1.25 {
		t.Fatal("GaugeValue lookup failed")
	}
	hs := s.Histograms["observe_since"]
	if hs.Count != 1 || hs.Sum <= 0 {
		t.Fatalf("ObserveSince recorded count=%d sum=%v", hs.Count, hs.Sum)
	}
}

// GaugeValue looks up a gauge by name and labels (0 if absent).
func (s Snapshot) GaugeValue(name string, labels ...string) float64 {
	return s.Gauges[Key(name, labels...)]
}
