// Package trace records the full history of a FIFL run — per-round
// detection verdicts, scores, reputations, contributions and rewards per
// worker, plus optional model metrics — and exports it as JSON Lines or
// CSV for external analysis. The cmd/fifl-sim binary exposes it behind the
// -trace flag; downstream users attach a Recorder to their own round loop.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WorkerRound is one worker's assessment in one communication iteration.
type WorkerRound struct {
	Round        int     `json:"round"`
	Worker       int     `json:"worker"`
	Score        float64 `json:"score"` // detection score S_i (NaN if uncertain)
	Accepted     bool    `json:"accepted"`
	Uncertain    bool    `json:"uncertain"`
	Reputation   float64 `json:"reputation"`
	Contribution float64 `json:"contribution"`
	Reward       float64 `json:"reward"`
	// Status is the upload's fate in the fault-tolerant runtime ("ok",
	// "retried", "dropped", "timed_out", "crashed"); empty for records
	// produced before the runtime recorded statuses.
	Status string `json:"status,omitempty"`
}

// RoundMetrics carries optional whole-model measurements for a round.
type RoundMetrics struct {
	Round    int     `json:"round"`
	Accuracy float64 `json:"accuracy"`
	Loss     float64 `json:"loss"`
}

// Recorder accumulates a run's history in memory.
type Recorder struct {
	workers []WorkerRound
	metrics []RoundMetrics
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// RecordWorker appends one worker-round record.
func (r *Recorder) RecordWorker(w WorkerRound) { r.workers = append(r.workers, w) }

// RecordMetrics appends one round's model metrics.
func (r *Recorder) RecordMetrics(m RoundMetrics) { r.metrics = append(r.metrics, m) }

// Len reports the number of worker-round records.
func (r *Recorder) Len() int { return len(r.workers) }

// WriteJSONL streams every record as JSON Lines: worker records first (one
// object per line, type "worker"), then metrics (type "metrics").
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rec := range r.workers {
		if err := enc.Encode(struct {
			Type string `json:"type"`
			WorkerRound
		}{"worker", sanitize(rec)}); err != nil {
			return fmt.Errorf("trace: encoding worker record: %w", err)
		}
	}
	for _, m := range r.metrics {
		if err := enc.Encode(struct {
			Type string `json:"type"`
			RoundMetrics
		}{"metrics", m}); err != nil {
			return fmt.Errorf("trace: encoding metrics record: %w", err)
		}
	}
	return nil
}

// sanitize replaces non-JSON float values; NaN scores mark uncertain
// events and become 0 with the Uncertain flag carrying the information.
func sanitize(w WorkerRound) WorkerRound {
	if math.IsNaN(w.Score) || math.IsInf(w.Score, 0) {
		w.Score = 0
	}
	return w
}

// WriteCSV writes the worker records as one CSV table.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"round", "worker", "score", "accepted", "uncertain", "reputation", "contribution", "reward", "status"}); err != nil {
		return fmt.Errorf("trace: writing CSV header: %w", err)
	}
	for _, rec := range r.workers {
		rec = sanitize(rec)
		row := []string{
			strconv.Itoa(rec.Round),
			strconv.Itoa(rec.Worker),
			strconv.FormatFloat(rec.Score, 'g', -1, 64),
			strconv.FormatBool(rec.Accepted),
			strconv.FormatBool(rec.Uncertain),
			strconv.FormatFloat(rec.Reputation, 'g', -1, 64),
			strconv.FormatFloat(rec.Contribution, 'g', -1, 64),
			strconv.FormatFloat(rec.Reward, 'g', -1, 64),
			rec.Status,
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
