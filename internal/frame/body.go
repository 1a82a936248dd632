package frame

import (
	"errors"
	"io"
)

// ErrFrameTooLarge reports a body longer than its reader's limit.
var ErrFrameTooLarge = errors.New("frame: body exceeds the size limit")

// ReadFrame reads a body of at most limit bytes from r. declared is the
// length the body announced (an HTTP Content-Length), or negative when
// unknown. A declared length within the limit is allocated
// once, up front, instead of grown from 512 bytes the way io.ReadAll
// grows; the body is still read to EOF, so one that runs past its
// declared length is read whole, up to the limit. A body over the limit —
// declared or read — fails with ErrFrameTooLarge, never a silent
// truncation, and a declared one fails before any byte is read. Other
// read errors are returned with the bytes read so far, as io.ReadAll
// returns them.
func ReadFrame(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared > limit {
		return nil, ErrFrameTooLarge
	}
	size := declared + 1 // the spare byte lets the EOF read land in place
	if declared < 0 {
		size = 512
	}
	b := make([]byte, 0, min(size, limit+1))
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		// Never ask for more than limit+1 bytes in total: one past the
		// limit is all it takes to know the body is over it.
		n, err := r.Read(b[len(b):min(int64(cap(b)), limit+1)])
		b = b[:len(b)+n]
		if int64(len(b)) > limit {
			return nil, ErrFrameTooLarge
		}
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}
