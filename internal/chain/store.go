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
//
// Beside each chunk of blocks lies a chunk of one-byte worker tags, tags[k][j]
// = tagOf(chunks[k][j].Record.WorkerID). A look-up for one worker reads the
// tags and only the blocks whose tag matches, a few bytes a block instead of
// a 152-byte block each, so its cost barely depends on whether the blocks
// are in cache.
type blockStore struct {
	chunks [][]Block
	tags   [][]byte
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
		var t []byte
		if k > 0 {
			c = make([]Block, 0, chunkLen)
			t = make([]byte, 0, chunkLen)
		}
		s.chunks = append(s.chunks, c)
		s.tags = append(s.tags, t)
	}
	s.chunks[k] = append(s.chunks[k], b)
	s.tags[k] = append(s.tags[k], tagOf(b.Record.WorkerID))
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

// tagSpan returns the tags of span(lo, hi)'s blocks.
func (s *blockStore) tagSpan(lo, hi int) []byte {
	t := s.tags[lo>>chunkShift]
	off := lo & (chunkLen - 1)
	return t[off:min(len(t), off+hi-lo)]
}

// tagOf is a worker ID's tag: the top byte of its Fibonacci hash, so IDs
// that share their low bits (sparse or strided IDs) still spread over all
// 256 tags.
func tagOf(worker int) byte {
	return byte(uint64(worker) * 0x9E3779B97F4A7C15 >> 56)
}
