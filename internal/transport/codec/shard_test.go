package codec

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"fifl/internal/faults"
)

func shardSubmitFixtures() []ShardSubmit {
	return []ShardSubmit{
		{
			Shard: 0, Round: 0, Phase: ShardPhaseHello,
			Hello: &ShardHello{First: 4, Samples: []int{200, 200, 150}},
		},
		{
			Shard: 1, Round: 3, Phase: ShardPhaseCollect,
			Collect: &ShardCollectEvidence{
				Statuses:    []faults.UploadStatus{faults.StatusOK, faults.StatusDropped, faults.StatusRetried},
				Retries:     []int{0, 2, 1},
				ServerIDs:   []int{4, 6},
				ServerGrads: [][]float64{{0.5, -1.25, 3}, {1, 2, 4}},
			},
		},
		{
			Shard: 1, Round: 3, Phase: ShardPhaseCollect,
			Collect: &ShardCollectEvidence{
				Statuses: []faults.UploadStatus{faults.StatusTimedOut},
				Retries:  []int{3},
			},
		},
		{
			Shard: 2, Round: 5, Phase: ShardPhaseDetect,
			Detect: &ShardDetectEvidence{
				Scores:  []float64{0.75, math.NaN(), math.Inf(-1)},
				Accept:  []bool{true, false, false},
				Weight:  200,
				Partial: []float64{100, -50, 25.5},
			},
		},
		{
			Shard: 2, Round: 5, Phase: ShardPhaseDetect,
			Detect: &ShardDetectEvidence{
				Scores: []float64{math.NaN()},
				Accept: []bool{false},
			},
		},
		{
			Shard: 3, Round: 7, Phase: ShardPhaseDist,
			Dist: &ShardDistEvidence{Dists: []float64{0.25, math.NaN(), 9}},
		},
	}
}

func shardDirectiveFixtures() []ShardDirective {
	return []ShardDirective{
		{Seq: 1, Round: 0, Phase: ShardPhaseCollect, Params: []float64{0.5, -1, 2}, Servers: []int{0, 5}},
		{Seq: 2, Round: 0, Phase: ShardPhaseDetect, Benchmark: []float64{1, 2, 3}, Owners: []int{0, 5}, Threshold: 0.5},
		{Seq: 2, Round: 0, Phase: ShardPhaseDetect, Threshold: -0.25},
		{Seq: 3, Round: 0, Phase: ShardPhaseDist, Global: []float64{0.125, -4}},
		{Seq: 3, Round: 2, Phase: ShardPhaseDist},
		{Seq: 9, Round: 0, Phase: ShardPhaseDone},
	}
}

// scoresEqual compares float64 slices treating NaN as equal to NaN.
func scoresEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.IsNaN(a[i]) != math.IsNaN(b[i]) {
			return false
		}
		if !math.IsNaN(a[i]) && math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestShardSubmitRoundTrip(t *testing.T) {
	for _, s := range shardSubmitFixtures() {
		b, err := EncodeShardSubmit(s)
		if err != nil {
			t.Fatalf("encode %s: %v", s.Phase, err)
		}
		if typ, err := Type(b); err != nil || typ != TypeShardSubmit {
			t.Fatalf("Type = %v, %v", typ, err)
		}
		got, err := DecodeShardSubmit(b)
		if err != nil {
			t.Fatalf("decode %s: %v", s.Phase, err)
		}
		if got.Shard != s.Shard || got.Round != s.Round || got.Phase != s.Phase {
			t.Fatalf("header round-trip: got %+v, want %+v", got, s)
		}
		switch s.Phase {
		case ShardPhaseHello:
			if !reflect.DeepEqual(got.Hello, s.Hello) {
				t.Fatalf("hello round-trip: got %+v, want %+v", got.Hello, s.Hello)
			}
		case ShardPhaseCollect:
			if !reflect.DeepEqual(got.Collect.Statuses, s.Collect.Statuses) ||
				!reflect.DeepEqual(got.Collect.Retries, s.Collect.Retries) {
				t.Fatalf("collect round-trip: got %+v, want %+v", got.Collect, s.Collect)
			}
			if len(got.Collect.ServerIDs) != len(s.Collect.ServerIDs) {
				t.Fatalf("collect servers: got %d, want %d", len(got.Collect.ServerIDs), len(s.Collect.ServerIDs))
			}
			for i := range s.Collect.ServerIDs {
				if got.Collect.ServerIDs[i] != s.Collect.ServerIDs[i] ||
					!scoresEqual(got.Collect.ServerGrads[i], s.Collect.ServerGrads[i]) {
					t.Fatalf("collect server %d round-trip mismatch", i)
				}
			}
		case ShardPhaseDetect:
			if !scoresEqual(got.Detect.Scores, s.Detect.Scores) {
				t.Fatalf("detect scores: got %v, want %v", got.Detect.Scores, s.Detect.Scores)
			}
			if !reflect.DeepEqual(got.Detect.Accept, s.Detect.Accept) ||
				got.Detect.Weight != s.Detect.Weight ||
				!scoresEqual(got.Detect.Partial, s.Detect.Partial) ||
				(got.Detect.Partial == nil) != (s.Detect.Partial == nil) {
				t.Fatalf("detect round-trip: got %+v, want %+v", got.Detect, s.Detect)
			}
		case ShardPhaseDist:
			if !scoresEqual(got.Dist.Dists, s.Dist.Dists) {
				t.Fatalf("dist round-trip: got %v, want %v", got.Dist.Dists, s.Dist.Dists)
			}
		}
	}
}

func TestShardDirectiveRoundTrip(t *testing.T) {
	for _, d := range shardDirectiveFixtures() {
		b, err := EncodeShardDirective(d)
		if err != nil {
			t.Fatalf("encode %s: %v", d.Phase, err)
		}
		if typ, err := Type(b); err != nil || typ != TypeShardDirective {
			t.Fatalf("Type = %v, %v", typ, err)
		}
		got, err := DecodeShardDirective(b)
		if err != nil {
			t.Fatalf("decode %s: %v", d.Phase, err)
		}
		if !reflect.DeepEqual(got, d) {
			t.Fatalf("directive round-trip: got %+v, want %+v", got, d)
		}
	}
}

func TestShardSubmitRejectsMalformed(t *testing.T) {
	if _, err := EncodeShardSubmit(ShardSubmit{Phase: ShardPhaseCollect}); err == nil {
		t.Fatal("encoded a collect submit with no payload")
	}
	if _, err := EncodeShardSubmit(ShardSubmit{
		Phase:  ShardPhaseDetect,
		Detect: &ShardDetectEvidence{Scores: []float64{1}, Accept: []bool{true}, Weight: math.NaN()},
	}); err == nil {
		t.Fatal("encoded a NaN detect weight")
	}
	if _, err := EncodeShardSubmit(ShardSubmit{
		Phase: ShardPhaseDist,
		Dist:  &ShardDistEvidence{Dists: []float64{-1}},
	}); err == nil {
		t.Fatal("encoded a negative distance")
	}
	// Corrupt a valid frame's phase byte: the decoder must reject, not panic.
	b, err := EncodeShardSubmit(shardSubmitFixtures()[0])
	if err != nil {
		t.Fatal(err)
	}
	b[headerSize+8] = 99 // phase byte follows shard+round
	reseal(b)
	if _, err := DecodeShardSubmit(b); err == nil {
		t.Fatal("decoded a frame with an unknown phase")
	}
}

func TestShardDirectiveRejectsMalformed(t *testing.T) {
	if _, err := EncodeShardDirective(ShardDirective{
		Phase: ShardPhaseDetect, Benchmark: []float64{1},
	}); err == nil {
		t.Fatal("encoded a benchmark with no owners")
	}
	if _, err := EncodeShardDirective(ShardDirective{
		Phase: ShardPhaseCollect, Params: []float64{math.Inf(1)},
	}); err == nil {
		t.Fatal("encoded non-finite parameters")
	}
	b, err := EncodeShardDirective(ShardDirective{Seq: 1, Phase: ShardPhaseDone})
	if err != nil {
		t.Fatal(err)
	}
	b = append(b[:len(b)-crcSize], 0, 0, 0, 0, 0, 0, 0, 0) // 4 trailing body bytes + CRC slot
	reseal(b)
	if _, err := DecodeShardDirective(b); err == nil {
		t.Fatal("decoded a frame with trailing bytes")
	}
}

// FuzzDecodeShard hammers both shard decoders with adversarial bytes,
// seeded with every fixture frame. Each decoder must return its
// reference's verdict, and an equal-to-the-bit value on accept. Anything
// that decodes must re-encode and decode again — the decoders admit only
// frames the encoders can produce — and the re-encoded frame must be
// byte-equal to what the reference writer (reference_test.go) produces.
func FuzzDecodeShard(f *testing.F) {
	for _, s := range shardSubmitFixtures() {
		b, err := EncodeShardSubmit(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, d := range shardDirectiveFixtures() {
		b, err := EncodeShardDirective(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		matchReference(t, "input", data, shardDecoders)
		if s, err := DecodeShardSubmit(data); err == nil {
			b2, err := EncodeShardSubmit(s)
			if err != nil {
				t.Fatalf("re-encode of a decoded submit failed: %v", err)
			}
			if _, err := DecodeShardSubmit(b2); err != nil {
				t.Fatalf("re-decode of a re-encoded submit failed: %v", err)
			}
			if ref, err := refEncodeShardSubmit(s); err != nil || !bytes.Equal(b2, ref) {
				t.Fatalf("re-encoded submit differs from the reference writer's frame (reference error %v)", err)
			}
		}
		if d, err := DecodeShardDirective(data); err == nil {
			b2, err := EncodeShardDirective(d)
			if err != nil {
				t.Fatalf("re-encode of a decoded directive failed: %v", err)
			}
			if ref, err := refEncodeShardDirective(d); err != nil || !bytes.Equal(b2, ref) {
				t.Fatalf("re-encoded directive differs from the reference writer's frame (reference error %v)", err)
			}
			d2, err := DecodeShardDirective(b2)
			if err != nil {
				t.Fatalf("re-decode of a re-encoded directive failed: %v", err)
			}
			if !reflect.DeepEqual(d, d2) {
				t.Fatalf("directive not stable under re-encode: %+v vs %+v", d, d2)
			}
		}
	})
}

// reseal recomputes the trailing CRC after a test mutates a frame body.
func reseal(b []byte) {
	body := b[:len(b)-crcSize]
	binary.LittleEndian.PutUint32(b[len(b)-crcSize:], crc32.ChecksumIEEE(body))
}
