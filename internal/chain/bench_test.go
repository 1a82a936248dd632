package chain

import (
	"fmt"
	"io"
	"testing"
)

// The read plane's layer numbers without the harness: the same calls
// bench/ times (chain.verify.us_per_block, chain.query.us,
// chain.write_binary.mb_per_s), at ledger-read's checkpoint height and at
// a height near wide-toy's final one. tier1.sh smokes them at
// -benchtime=1x; for numbers run
//
//	go test -run '^$' -bench 'Verify|Query|WriteBinary' -cpu 1,2 ./internal/chain

var benchHeights = []int{8_000, 100_000}

// benchLedgers caches the signed fixtures: signing 100,000 records takes
// seconds, and three benchmarks share them.
var benchLedgers = map[int]*Ledger{}

// benchLedger returns a signed ledger of at least blocks blocks in the
// coordinator's shape: rounds of 5 kinds x 64 workers.
func benchLedger(b *testing.B, blocks int) *Ledger {
	b.Helper()
	if l, ok := benchLedgers[blocks]; ok {
		return l
	}
	const perRound = 5 * 64
	signers, recs := batchFixture(perRound)
	l := NewLedger()
	for _, s := range signers[:2] {
		if err := l.RegisterExecutor(s.Name, s.Public()); err != nil {
			b.Fatal(err)
		}
	}
	for round := 0; l.Len() < blocks; round++ {
		for i := range recs {
			recs[i].Iteration, recs[i].WorkerID = round, i%64
		}
		if err := l.AppendBatch(signers, recs); err != nil {
			b.Fatal(err)
		}
	}
	benchLedgers[blocks] = l
	return l
}

func BenchmarkVerify(b *testing.B) {
	for _, blocks := range benchHeights {
		b.Run(fmt.Sprint(blocks), func(b *testing.B) {
			l := benchLedger(b, blocks)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Verify(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*l.Len()), "us/block")
		})
	}
}

var querySink []Record

func BenchmarkQuery(b *testing.B) {
	for _, blocks := range benchHeights {
		b.Run(fmt.Sprint(blocks), func(b *testing.B) {
			l := benchLedger(b, blocks)
			rounds := l.Len() / (5 * 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				querySink = l.Query(KindReputation, (i*7919)%rounds, i%64)
				if len(querySink) != 1 {
					b.Fatalf("look-up %d found %d records", i, len(querySink))
				}
			}
		})
	}
}

func BenchmarkWriteBinary(b *testing.B) {
	for _, blocks := range benchHeights {
		b.Run(fmt.Sprint(blocks), func(b *testing.B) {
			l := benchLedger(b, blocks)
			export, err := l.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(export)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.WriteBinary(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
