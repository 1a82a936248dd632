package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names the benchmark records. Stage spans are named
// "core.stage.<Stage>"; the rest come from the benchmark's own wrappers.
const (
	spanRound         = "round"
	spanStagePrefix   = "core.stage."
	spanLocalTrain    = "fl.Worker.LocalTrain"
	spanHTTPSubmit    = "http.submit"
	spanHTTPModel     = "http.model"
	spanHTTPOther     = "http.other"
	spanLinkSubmit    = "shard.link.Submit"
	spanLinkDirective = "shard.link.NextDirective"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent is the ID of the span
// that caused it (-1 for a round); spans of one round share Round.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Wrappers on several
// goroutines record into it, so add takes a lock; a nil tracer records
// nothing, which is how the untraced run pays nothing.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer's clock; a nil tracer does not read the time.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// add records a finished span; round < 0 means the caller does not know
// which round caused it and link places it by time.
func (t *tracer) add(name string, start, end int64, round int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: start, End: end, Parent: -1, Round: round})
	t.mu.Unlock()
}

// stage records a pipeline stage from core's trace hook, which fires after
// the stage with its elapsed time.
func (t *tracer) stage(round int, stage string, elapsed time.Duration) {
	end := t.now()
	t.add(spanStagePrefix+stage, end-int64(elapsed), end, round)
}

// link resolves parents once recording is over: it adds one round span
// over each round's stages, hangs the stages under it, and hangs every
// other span under the stage whose interval contains its start (spans that
// start between stages, such as a model long-poll issued before the next
// round opens, stay parentless).
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	var stages []int // indices of stage spans
	rounds := map[int]int{}
	for i := range t.spans {
		s := &t.spans[i]
		if !isStage(s.Name) {
			continue
		}
		stages = append(stages, i)
		ri, ok := rounds[s.Round]
		if !ok {
			ri = len(t.spans)
			t.spans = append(t.spans, span{ID: ri, Name: spanRound, Start: s.Start, End: s.End, Parent: -1, Round: s.Round})
			rounds[s.Round] = ri
			s = &t.spans[i] // append may have moved the slice
		}
		r := &t.spans[ri]
		if s.Start < r.Start {
			r.Start = s.Start
		}
		if s.End > r.End {
			r.End = s.End
		}
		s.Parent = ri
	}
	sort.Slice(stages, func(a, b int) bool { return t.spans[stages[a]].Start < t.spans[stages[b]].Start })
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == spanRound || isStage(s.Name) {
			continue
		}
		// Last stage starting at or before the span's start.
		k := sort.Search(len(stages), func(k int) bool { return t.spans[stages[k]].Start > s.Start }) - 1
		if k < 0 {
			continue
		}
		if p := t.spans[stages[k]]; s.Start <= p.End {
			s.Parent = p.ID
			if s.Round < 0 {
				s.Round = p.Round
			}
		}
	}
}

// timed returns a view of the linked trace holding only the spans of
// rounds from on, the timed ones, calibrated: every instant of a round is
// moved towards the round's start by the slowdown the probe saw during that
// round, which keeps children inside their parents. The trace written to
// disk stays raw.
func (t *tracer) timed(from int, slowdownOf func(round int) float64) *tracer {
	origin := map[int]int64{}
	for _, s := range t.spans {
		if s.Name == spanRound {
			origin[s.Round] = s.Start
		}
	}
	v := &tracer{t0: t.t0}
	for _, s := range t.spans {
		if s.Round < from {
			continue
		}
		o, f := origin[s.Round], slowdownOf(s.Round)
		s.Start = o + int64(float64(s.Start-o)/f)
		s.End = o + int64(float64(s.End-o)/f)
		v.spans = append(v.spans, s)
	}
	return v
}

func isStage(name string) bool {
	return len(name) > len(spanStagePrefix) && name[:len(spanStagePrefix)] == spanStagePrefix
}

// selfTime is the parent's duration minus the part of its interval that
// the children cover. Children may overlap each other (parallel workers)
// and may stick out of the parent; both are handled by clipping and
// merging the intervals.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return parent.dur() - time.Duration(covered)
}

// byName returns the durations, in milliseconds, of every span with the
// given name.
func (t *tracer) byName(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfByName sums, over every span called parent, its self time with
// respect to its children called child.
func (t *tracer) selfByName(parent, child string) time.Duration {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Name == child && s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var total time.Duration
	for _, s := range t.spans {
		if s.Name == parent {
			total += selfTime(s, kids[s.ID])
		}
	}
	return total
}

// write dumps the spans as JSON to dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
