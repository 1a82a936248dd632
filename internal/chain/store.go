package chain

// The block store keeps the chain in fixed-size chunks instead of one
// growing slice. A slice that runs out of room is copied whole into a
// bigger one, so every few dozen rounds one round would pay for the whole
// chain's height: at a hundred thousand blocks that is milliseconds of
// copying and page faults against the fraction of a millisecond a round's
// records take to hash and seal, and it leaves the old copy to the
// collector. A full chunk never moves, so a batch costs the same at any
// height, every time.
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift // blocks per chunk, about 150 KiB
)

// blockStore holds the blocks in index order: chunks of chunkLen blocks,
// every one full but the last. The first chunk grows like a slice, so a
// short ledger stays small; every later one is allocated at full size.
type blockStore struct {
	chunks [][]Block
	n      int
}

// len returns the number of blocks.
func (s *blockStore) len() int { return s.n }

// at returns block i, 0 <= i < len().
func (s *blockStore) at(i int) *Block { return &s.chunks[i>>chunkShift][i&(chunkLen-1)] }

// add appends b.
func (s *blockStore) add(b Block) {
	k := s.n >> chunkShift
	if k == len(s.chunks) {
		var c []Block
		if k > 0 {
			c = make([]Block, 0, chunkLen)
		}
		s.chunks = append(s.chunks, c)
	}
	s.chunks[k] = append(s.chunks[k], b)
	s.n++
}

// list returns a copy of the blocks in one slice.
func (s *blockStore) list() []Block {
	out := make([]Block, 0, s.n)
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

// span returns the blocks from lo up to hi or to the end of lo's chunk,
// whichever comes first, lo < hi <= len(). A walk over [lo,hi) is
//
//	for lo < hi {
//		bs := s.span(lo, hi)
//		...
//		lo += len(bs)
//	}
func (s *blockStore) span(lo, hi int) []Block {
	c := s.chunks[lo>>chunkShift]
	off := lo & (chunkLen - 1)
	return c[off:min(len(c), off+hi-lo)]
}
