package persist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sample returns a fully populated snapshot resembling a mid-run
// three-worker federation.
func sample() *Snapshot {
	return &Snapshot{
		NextRound:     4,
		Params:        []float64{0.25, -1.5, 3e-9, 42},
		Reputations:   []float64{0.9, -0.2, 0.4},
		PosCounts:     []int64{3, 0, 2},
		NegCounts:     []int64{0, 4, 1},
		UncCounts:     []int64{1, 0, 1},
		Cumulative:    []float64{2.5, 0, 1.25},
		Banned:        []int{1},
		Servers:       []int{0, 2},
		BHInitialized: true,
		BHValue:       0.125,
		EngineDraws:   17,
		WorkerDraws:   []uint64{120, 0, 118},
		Samples:       []int{60, 60, 60},
		Ledger:        []byte("not a real ledger, but opaque bytes are fine here"),
		Shards: []ShardState{
			{First: 0, Count: 2, LastSeq: 9, EngineDraws: 5, WorkerDraws: []uint64{120, 0}},
			{First: 2, Count: 1, LastSeq: 9, EngineDraws: 0, WorkerDraws: []uint64{118}},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	for name, s := range map[string]*Snapshot{
		"populated": sample(),
		"empty":     {},
		"zero-workers-with-params": {
			NextRound: 1,
			Params:    []float64{1, 2, 3},
		},
	} {
		t.Run(name, func(t *testing.T) {
			b, err := Encode(s)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got, err := Decode(b)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			normalize(s)
			normalize(got)
			if !reflect.DeepEqual(s, got) {
				t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", s, got)
			}
			b2, err := Encode(got)
			if err != nil {
				t.Fatalf("re-Encode: %v", err)
			}
			if !bytes.Equal(b, b2) {
				t.Fatal("encoding is not deterministic across a round trip")
			}
		})
	}
}

// normalize maps nil and empty slices to a canonical form so DeepEqual
// compares contents, not allocation history.
func normalize(s *Snapshot) {
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Slice && f.Len() == 0 {
			f.Set(reflect.Zero(f.Type()))
		}
	}
}

func TestWriteRead(t *testing.T) {
	s := sample()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.NextRound != s.NextRound || !reflect.DeepEqual(got.Reputations, s.Reputations) {
		t.Fatalf("stream round trip mismatch: %+v", got)
	}
}

// TestWriteMatchesEncode: Write streams the ledger section around the
// encoded fields, so its bytes must be Encode's, whichever optional
// sections the snapshot carries.
func TestWriteMatchesEncode(t *testing.T) {
	noLedger := sample()
	noLedger.Ledger = nil
	for name, s := range map[string]*Snapshot{"sharded": sample(), "async and churned": churnedAsync(), "no ledger": noLedger, "empty": {}} {
		want, err := Encode(s)
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		var got bytes.Buffer
		if err := Write(&got, s); err != nil {
			t.Fatalf("%s: Write: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: Write produced %d bytes that differ from Encode's %d", name, got.Len(), len(want))
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good, err := Encode(sample())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	t.Run("truncated", func(t *testing.T) {
		for n := 0; n < len(good); n++ {
			if _, err := Decode(good[:n]); err == nil {
				t.Fatalf("truncation to %d bytes decoded successfully", n)
			}
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		for i := 0; i < len(good); i++ {
			bad := append([]byte(nil), good...)
			bad[i] ^= 0x40
			if _, err := Decode(bad); err == nil {
				t.Fatalf("bit flip at byte %d decoded successfully", i)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := Decode(append(append([]byte(nil), good...), 0xff)); err == nil {
			t.Fatal("trailing byte decoded successfully")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		copy(bad, "NOTACKPT")
		if _, err := Decode(bad); err == nil {
			t.Fatal("wrong magic decoded successfully")
		}
	})
}

func TestEncodeRejectsInvalid(t *testing.T) {
	cases := map[string]func(*Snapshot){
		"nan reputation":       func(s *Snapshot) { s.Reputations[0] = math.NaN() },
		"inf param":            func(s *Snapshot) { s.Params[1] = math.Inf(1) },
		"nan cumulative":       func(s *Snapshot) { s.Cumulative[2] = math.NaN() },
		"nan b_h":              func(s *Snapshot) { s.BHValue = math.NaN() },
		"negative round":       func(s *Snapshot) { s.NextRound = -1 },
		"banned out of range":  func(s *Snapshot) { s.Banned[0] = 3 },
		"server out of range":  func(s *Snapshot) { s.Servers[0] = -2 },
		"negative SLM counter": func(s *Snapshot) { s.NegCounts[1] = -1 },
		"negative samples":     func(s *Snapshot) { s.Samples[0] = -5 },
		"ragged per-worker":    func(s *Snapshot) { s.Cumulative = s.Cumulative[:2] },
		"shard cohort gap":     func(s *Snapshot) { s.Shards[1].First = 1 },
		"shard under-coverage": func(s *Snapshot) { s.Shards = s.Shards[:1] },
		"shard zero cohort":    func(s *Snapshot) { s.Shards[1].Count = 0 },
		"shard ragged draws":   func(s *Snapshot) { s.Shards[0].WorkerDraws = s.Shards[0].WorkerDraws[:1] },
		"shard bad cursor":     func(s *Snapshot) { s.Shards[0].LastSeq = -1 },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			s := sample()
			corrupt(s)
			if _, err := Encode(s); err == nil {
				t.Fatal("invalid snapshot encoded successfully")
			}
		})
	}
}

func TestWriteFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fed.ckpt")

	first := sample()
	if err := WriteFile(path, first); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	second := sample()
	second.NextRound = 5
	second.EngineDraws = 23
	if err := WriteFile(path, second); err != nil {
		t.Fatalf("WriteFile replace: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.NextRound != 5 || got.EngineDraws != 23 {
		t.Fatalf("read back the wrong snapshot: %+v", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.ckpt")); err == nil {
		t.Fatal("reading a missing checkpoint succeeded")
	}
}

// FuzzReadCheckpoint drives Decode with hostile input. The contract under
// test: Decode never panics, returns the verdict of the per-field decoder
// it replaced (and an equal-to-the-bit snapshot on accept), and accepts
// only the canonical encoding of what it returns.
func FuzzReadCheckpoint(f *testing.F) {
	good, err := Encode(sample())
	if err != nil {
		f.Fatal(err)
	}
	empty, err := Encode(&Snapshot{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(good[:len(good)/2])
	full, err := Encode(churnedAsync())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Fuzz(func(t *testing.T, data []byte) {
		matchReference(t, "input", data)
		s, err := Decode(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Decode accepted a snapshot its own Validate rejects: %v", err)
		}
		re, err := Encode(s)
		if err != nil {
			t.Fatalf("decoded snapshot fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted input is not the canonical encoding of its snapshot")
		}
	})
}
