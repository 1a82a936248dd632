package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func sampleRecorder() *Recorder {
	r := NewRecorder()
	for round := 0; round < 3; round++ {
		for worker := 0; worker < 2; worker++ {
			r.RecordWorker(WorkerRound{
				Round:        round,
				Worker:       worker,
				Score:        float64(worker),
				Accepted:     worker == 0,
				Reputation:   0.5 + float64(round)*0.1,
				Contribution: float64(round),
				Reward:       float64(round) * 0.1,
			})
		}
		r.RecordMetrics(RoundMetrics{Round: round, Accuracy: 0.1 * float64(round), Loss: 2 - float64(round)*0.1})
	}
	return r
}

func TestRecorderCounts(t *testing.T) {
	r := sampleRecorder()
	if r.Len() != 6 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestWriteJSONL(t *testing.T) {
	r := sampleRecorder()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 9 { // 6 worker + 3 metrics
		t.Fatalf("jsonl lines = %d", len(lines))
	}
	// Every line must be valid JSON with a type tag.
	for _, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		if obj["type"] != "worker" && obj["type"] != "metrics" {
			t.Fatalf("unexpected type %v", obj["type"])
		}
	}
}

func TestWriteJSONLSanitizesNaN(t *testing.T) {
	r := NewRecorder()
	r.RecordWorker(WorkerRound{Round: 0, Worker: 0, Score: math.NaN(), Uncertain: true})
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatalf("NaN score must not break JSON encoding: %v", err)
	}
	if !strings.Contains(buf.String(), `"uncertain":true`) {
		t.Fatal("uncertain flag lost")
	}
}

func TestWriteCSV(t *testing.T) {
	r := sampleRecorder()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 { // header + 6
		t.Fatalf("csv rows = %d", len(rows))
	}
	if rows[0][0] != "round" || len(rows[0]) != 9 {
		t.Fatalf("header = %v", rows[0])
	}
	if rows[0][8] != "status" {
		t.Fatalf("last header column = %q, want status", rows[0][8])
	}
}

func TestStatusRoundTrips(t *testing.T) {
	r := NewRecorder()
	r.RecordWorker(WorkerRound{Round: 0, Worker: 0, Status: "timed_out"})
	var jbuf, cbuf bytes.Buffer
	if err := r.WriteJSONL(&jbuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jbuf.String(), `"status":"timed_out"`) {
		t.Fatalf("status missing from JSONL: %s", jbuf.String())
	}
	if err := r.WriteCSV(&cbuf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&cbuf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if rows[1][8] != "timed_out" {
		t.Fatalf("status column = %q", rows[1][8])
	}
}
