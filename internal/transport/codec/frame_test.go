package codec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"

	"fifl/internal/faults"
	"fifl/internal/frame"
	"fifl/internal/rng"
)

// deepDim is the parameter count of the deep benchmark model, the size at
// which shard frames are hundreds of kilobytes.
const deepDim = 78378

// deepDetectSubmit is a detect submit carrying a deepDim partial for a
// 32-member cohort.
func deepDetectSubmit() ShardSubmit {
	src := rng.New(7)
	k := 32
	ev := &ShardDetectEvidence{
		Scores:  make([]float64, k),
		Accept:  make([]bool, k),
		Weight:  6400,
		Partial: make([]float64, deepDim),
	}
	for i := range ev.Scores {
		ev.Scores[i] = src.NormFloat64()
		ev.Accept[i] = i%5 != 0
	}
	ev.Scores[3], ev.Scores[9] = math.NaN(), math.Inf(-1)
	src.FillNormal(ev.Partial, 0, 1)
	return ShardSubmit{Shard: 1, Round: 3, Phase: ShardPhaseDetect, Detect: ev}
}

// deepDetectDirective is a detect directive carrying a deepDim benchmark.
func deepDetectDirective() ShardDirective {
	src := rng.New(8)
	bench := make([]float64, deepDim)
	src.FillNormal(bench, 0, 1)
	return ShardDirective{Seq: 11, Round: 3, Phase: ShardPhaseDetect, Benchmark: bench, Owners: []int{0, 40}, Threshold: 0.02}
}

// TestFramesMatchReference holds every exact-size encoder to the byte
// output of the append-grown writer it replaced (reference_test.go): shard
// submits and directives, and upload, model and report frames in every
// compression mode, at sizes from empty to the deep model. Each frame is
// also one allocation that fits it exactly.
func TestFramesMatchReference(t *testing.T) {
	check := func(label string, got, want []byte, gotErr, wantErr error) {
		t.Helper()
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %d-byte frame differs from the %d-byte reference", label, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: frame capacity %d, length %d", label, cap(got), len(got))
		}
	}
	big := deepDetectSubmit()
	subs := append(shardSubmitFixtures(), big,
		ShardSubmit{Shard: 0, Round: 4, Phase: ShardPhaseCollect, Collect: &ShardCollectEvidence{
			Statuses:    []faults.UploadStatus{faults.StatusOK, faults.StatusOK},
			Retries:     []int{0, 1},
			ServerIDs:   []int{1},
			ServerGrads: [][]float64{big.Detect.Partial},
		}},
		ShardSubmit{Shard: 0, Round: 4, Phase: ShardPhaseDist, Dist: &ShardDistEvidence{Dists: big.Detect.Partial[:1000]}},
	)
	for i, s := range subs {
		got, err := EncodeShardSubmit(s)
		want, refErr := refEncodeShardSubmit(s)
		check(fmt.Sprintf("submit %d (%s)", i, s.Phase), got, want, err, refErr)
	}
	dirs := append(shardDirectiveFixtures(), deepDetectDirective(),
		ShardDirective{Seq: 1, Phase: ShardPhaseCollect, Params: big.Detect.Partial, Servers: []int{0, 3}},
		ShardDirective{Seq: 2, Phase: ShardPhaseDist, Global: big.Detect.Partial},
	)
	for i, d := range dirs {
		got, err := EncodeShardDirective(d)
		want, refErr := refEncodeShardDirective(d)
		check(fmt.Sprintf("directive %d (%s)", i, d.Phase), got, want, err, refErr)
	}

	src := rng.New(9)
	for _, dim := range []int{0, 1, 9, 10, 257, deepDim} {
		v := randVec(src, dim)
		statuses := make([]faults.UploadStatus, dim)
		for i := range statuses {
			statuses[i] = faults.UploadStatus(i % int(faults.StatusPending+1))
		}
		for mode := range compressionNames {
			c := Compression(mode)
			label := fmt.Sprintf("%s dim %d", c, dim)
			up := Upload{Round: 2, Worker: 5, Samples: 300, Grad: v}
			got, err := EncodeUpload(up, c)
			want, refErr := refEncodeUpload(up, c)
			check("upload "+label, got, want, err, refErr)

			m := Model{Round: 2, Params: v}
			got, err = EncodeModel(m, c)
			want, refErr = refEncodeModel(m, c)
			check("model "+label, got, want, err, refErr)

			rep := Report{Round: 2, Committed: true, Statuses: statuses, Reputations: v, Rewards: v}
			got, err = EncodeReport(rep, c)
			want, refErr = refEncodeReport(rep, c)
			check("report "+label, got, want, err, refErr)
		}
	}
	got, err := EncodeModel(Model{Round: 9, Done: true}, CompressionNone)
	want, refErr := refEncodeModel(Model{Round: 9, Done: true}, CompressionNone)
	check("done model", got, want, err, refErr)
}

// TestShardFrameAllocs pins the encoders of the two model-sized shard
// frames to their allocations: the frame itself, plus the cohort-sized
// score mask for a submit.
func TestShardFrameAllocs(t *testing.T) {
	s, d := deepDetectSubmit(), deepDetectDirective()
	var err error
	if got := testing.AllocsPerRun(20, func() { _, err = EncodeShardSubmit(s) }); got > 2 || err != nil {
		t.Fatalf("EncodeShardSubmit of a %d-dim detect submit: %.0f allocations (err %v), want at most 2", deepDim, got, err)
	}
	if got := testing.AllocsPerRun(20, func() { _, err = EncodeShardDirective(d) }); got > 1 || err != nil {
		t.Fatalf("EncodeShardDirective of a %d-dim detect directive: %.0f allocations (err %v), want 1", deepDim, got, err)
	}
}

// refReadFrame is the body reader ReadFrame replaced: read one byte past
// the limit, then compare.
func refReadFrame(r io.Reader, limit int64) (body []byte, over bool, err error) {
	body, err = io.ReadAll(io.LimitReader(r, limit+1))
	return body, int64(len(body)) > limit, err
}

// TestReadFrameMatchesReadAll holds ReadFrame to the limit+1 io.ReadAll
// reader it replaced: the same bytes, the same read error and the same
// over-limit verdict, whatever the declared length says.
func TestReadFrameMatchesReadAll(t *testing.T) {
	body := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + 3)
		}
		return b
	}
	errBroken := errors.New("connection reset")
	const limit = 1000
	cases := []struct {
		name     string
		body     []byte
		declared int64
		wrap     func(io.Reader) io.Reader
	}{
		{name: "exact declared length", body: body(600), declared: 600},
		{name: "exact declared length at the limit", body: body(limit), declared: limit},
		{name: "empty body", body: nil, declared: 0},
		{name: "unknown length", body: body(600), declared: -1},
		{name: "unknown length at the limit", body: body(limit), declared: -1},
		{name: "unknown length over the limit", body: body(limit + 1), declared: -1},
		{name: "chunked", body: body(700), declared: -1, wrap: iotest.OneByteReader},
		{name: "chunked over the limit", body: body(3 * limit), declared: -1, wrap: iotest.HalfReader},
		{name: "declared length over the limit", body: body(limit + 1), declared: limit + 1},
		{name: "short body", body: body(300), declared: 600},
		{name: "body past its declared length", body: body(900), declared: 600},
		{name: "body past its declared length and the limit", body: body(3 * limit), declared: 600},
		{name: "read error", body: body(300), declared: 600, wrap: func(r io.Reader) io.Reader {
			return io.MultiReader(r, iotest.ErrReader(errBroken))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reader := func() io.Reader {
				var r io.Reader = bytes.NewReader(tc.body)
				if tc.wrap != nil {
					r = tc.wrap(r)
				}
				return r
			}
			want, wantOver, wantErr := refReadFrame(reader(), limit)
			got, err := frame.ReadFrame(reader(), tc.declared, limit)
			if over := errors.Is(err, frame.ErrFrameTooLarge); over != wantOver {
				t.Fatalf("over-limit verdict %v (err %v), reference %v", over, err, wantOver)
			}
			if wantOver {
				return
			}
			if !errors.Is(err, wantErr) || (err == nil) != (wantErr == nil) {
				t.Fatalf("error %v, reference %v", err, wantErr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("read %d bytes, reference %d", len(got), len(want))
			}
		})
	}
}

// TestReadFrameDeclaredLengthAllocatesOnce: a body whose length is known
// is read into one buffer, where io.ReadAll grows through a dozen.
func TestReadFrameDeclaredLengthAllocatesOnce(t *testing.T) {
	body, err := EncodeShardDirective(deepDetectDirective())
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(body)
	var got []byte
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(body)
		got, err = frame.ReadFrame(r, int64(len(body)), 64<<20)
	})
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("ReadFrame = %d bytes, %v; want the %d-byte frame", len(got), err, len(body))
	}
	if allocs != 1 {
		t.Fatalf("ReadFrame of a declared %d-byte body: %.0f allocations, want 1", len(body), allocs)
	}
	if _, err := frame.ReadFrame(strings.NewReader("FIFL"), 1<<40, 64<<20); !errors.Is(err, frame.ErrFrameTooLarge) {
		t.Fatalf("a declared length past the limit read as %v, want ErrFrameTooLarge", err)
	}
}

func BenchmarkEncodeShardSubmit(b *testing.B) {
	benchEncode(b, deepDetectSubmit(), EncodeShardSubmit)
}

func BenchmarkEncodeShardSubmitReference(b *testing.B) {
	benchEncode(b, deepDetectSubmit(), refEncodeShardSubmit)
}

func BenchmarkEncodeShardDirective(b *testing.B) {
	benchEncode(b, deepDetectDirective(), EncodeShardDirective)
}

func BenchmarkEncodeShardDirectiveReference(b *testing.B) {
	benchEncode(b, deepDetectDirective(), refEncodeShardDirective)
}

var benchFrame []byte

func benchEncode[T any](b *testing.B, v T, encode func(T) ([]byte, error)) {
	frame, err := encode(v)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchFrame, err = encode(v); err != nil {
			b.Fatal(err)
		}
	}
}
