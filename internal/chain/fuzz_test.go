package chain

import (
	"bytes"
	"crypto/ed25519"
	"os"
	"runtime"
	"sort"
	"testing"

	"fifl/internal/rng"
)

// FuzzStreamBinary feeds the export parser hostile bytes: the /v1/ledger
// body and a checkpoint's ledger section both reach it from outside the
// process. Whatever the input, the parser must not panic, must not yield
// more blocks than the input has bytes for (the measured allocation bound
// is TestReadBinaryAllocationBoundedByInput's: a fuzz worker's own
// allocations make the counters useless here), must agree with the
// reference parser on every block, key and error, and — when ReadBinary
// accepts the input — Verify must return the serial reference's verdict on
// the ledger (the input decides where its batches begin and end), and the
// ledger must export to bytes that read back to the same export, and to
// the input itself where the input is in the writer's canonical form (keys
// sorted, nothing after the last block).
func FuzzStreamBinary(f *testing.F) {
	empty, err := NewLedger().MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	// The golden export's key table and first round, one batch sealed by
	// four executors, re-framed: all 30 KB of it would have the fuzzer
	// spend its time minimizing 30 KB mutants (TestGoldenExportRoundTrips
	// covers the whole file).
	golden, err := os.ReadFile("../score/testdata/golden_ledger.bin")
	if err != nil {
		f.Fatal(err)
	}
	head := NewLedger()
	err = StreamBinaryKeys(bytes.NewReader(golden), head.RegisterExecutor, func(b Block) error {
		if b.Record.Iteration > 0 {
			return ErrStop
		}
		head.push(b)
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	if len(seals(head)) < 2 || head.Verify() != nil {
		f.Fatalf("the golden's first round is not a sealed batch: %d seals, %v", len(seals(head)), head.Verify())
	}
	golden, err = head.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	small, err := unsignedLedger(f, rng.New(5), 12).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	var suffix bytes.Buffer
	if err := signedLedger(f, 10).WriteBinaryFrom(&suffix, 4); err != nil {
		f.Fatal(err)
	}
	// Two batches of ten, each sealed by srv-0 and then srv-1 at its last
	// two blocks, forged three ways with every hash recomputed around the
	// forgery.
	forged := func(forge func(l *Ledger)) []byte {
		l := signedLedger(f, 20)
		forge(l)
		out, err := l.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		return out
	}
	cut := forged(func(l *Ledger) { l.blocks.truncate(19) })
	movedRound := forged(func(l *Ledger) {
		l.blocks.at(18).Signature = l.blocks.at(8).Signature
		rehash(l, 18)
	})
	movedExecutor := forged(func(l *Ledger) {
		l.blocks.at(8).Record.Executor = "srv-1"
		rehash(l, 8)
	})
	for _, seed := range [][]byte{empty, golden, small, suffix.Bytes(), cut, movedRound, movedExecutor} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		l, err := ReadBinary(bytes.NewReader(in))
		if err == nil && l.Len()*blockFixedLen > len(in) {
			t.Fatalf("%d bytes read as %d blocks", len(in), l.Len())
		}
		if msg := diffReaders(in); msg != "" {
			t.Fatal(msg)
		}
		if err != nil {
			return
		}
		if got, want := errText(l.Verify()), errText(refVerify(l)); got != want {
			t.Fatalf("Verify = %q, the serial reference = %q", got, want)
		}
		out, err := l.MarshalBinary()
		if err != nil {
			t.Fatalf("an accepted export does not re-export: %v", err)
		}
		again, err := ReadBinary(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("the re-export does not read back: %v", err)
		}
		if out2, err := again.MarshalBinary(); err != nil || !bytes.Equal(out2, out) {
			t.Fatalf("the re-export is not a fixed point (%v)", err)
		}
		var names []string
		_ = StreamBinaryKeys(bytes.NewReader(in), func(name string, _ ed25519.PublicKey) error {
			names = append(names, name)
			return nil
		}, func(Block) error { return ErrStop })
		canonical := sort.StringsAreSorted(names)
		if canonical && len(out) == len(in) && !bytes.Equal(out, in) {
			t.Fatal("a canonical export was accepted and re-exported as different bytes")
		}
	})
}

// TestReadBinaryAllocationBoundedByInput: a length or count prefix is never
// turned into an allocation before the bytes it promises have arrived, so
// a few hostile bytes cannot make a reader allocate more than its field
// buffer (at most 64 KiB), a copy of one field and the bufio window.
func TestReadBinaryAllocationBoundedByInput(t *testing.T) {
	key := append([]byte{4, 0, 'n', 'a', 'm', 'e', 32, 0}, make([]byte, 32)...)
	hostile := map[string][]byte{
		"4 billion keys":         []byte(binaryMagic + "\xff\xff\xff\xff"),
		"64 KiB executor name":   []byte(binaryMagic + "\x01\x00\x00\x00\xff\xff"),
		"64 KiB key":             []byte(binaryMagic + "\x01\x00\x00\x00\x01\x00x\xff\xff"),
		"4 billion blocks":       append([]byte(binaryMagic+"\x01\x00\x00\x00"), append(bytes.Clone(key), 0xff, 0xff, 0xff, 0xff)...),
		"64 KiB kind":            append([]byte(binaryMagic+"\x00\x00\x00\x00\x01\x00\x00\x00"), append(make([]byte, 68), 0xff, 0xff)...),
		"4 billion empty blocks": append([]byte(binaryMagic+"\x00\x00\x00\x00\xff\xff\xff\xff"), make([]byte, 40*blockFixedLen)...),
	}
	for name, in := range hostile {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 160<<10 {
			t.Fatalf("%s: reading %d bytes allocated %d", name, len(in), got)
		}
	}
}
