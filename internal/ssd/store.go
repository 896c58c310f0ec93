package ssd

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// VecReader fills a scatter list from one contiguous range in a single
// submission (preadv-style). Every Store is one; the stores in this
// package also implement ReadAt as a scatter list of one, so EOF
// zero-fill, short-read typing and fault injection are written once per
// store.
type VecReader interface {
	ReadVecAt(vec [][]byte, off int64) (int, error)
}

// vecLen returns the total length of a scatter list.
func vecLen(vec [][]byte) int {
	n := 0
	for _, b := range vec {
		n += len(b)
	}
	return n
}

// MemStore is an in-memory backing store that grows on demand. It is safe
// for concurrent use; in practice a store is accessed only from its
// device's I/O goroutine, but graph-image builders may also write through
// synchronous array helpers from several goroutines.
type MemStore struct {
	mu   sync.RWMutex
	data []byte
}

// NewMemStore returns an empty store; it grows as data is written.
func NewMemStore() *MemStore { return &MemStore{} }

// ReadAt implements Store as a scatter list of one.
func (m *MemStore) ReadAt(p []byte, off int64) (int, error) {
	return m.ReadVecAt([][]byte{p}, off)
}

// ReadVecAt implements VecReader: one lock acquisition fills every
// buffer of the scatter list (the in-memory analogue of preadv). Reads
// beyond the written size return zeros, matching a thin-provisioned
// flash device.
func (m *MemStore) ReadVecAt(vec [][]byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("ssd: negative offset %d", off)
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	total := 0
	for _, p := range vec {
		n := 0
		if off < int64(len(m.data)) {
			n = copy(p, m.data[off:])
		}
		clear(p[n:])
		off += int64(len(p))
		total += len(p)
	}
	return total, nil
}

// WriteAt implements Store, growing the store as needed.
func (m *MemStore) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("ssd: negative offset %d", off)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(m.data)) {
		if end > int64(cap(m.data)) {
			grown := make([]byte, end, end+end/2)
			copy(grown, m.data)
			m.data = grown
		} else {
			m.data = m.data[:end]
		}
	}
	copy(m.data[off:], p)
	return len(p), nil
}

// Size returns the highest written offset.
func (m *MemStore) Size() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return int64(len(m.data))
}

// FileStore backs a device with a real file, for graphs larger than
// RAM. It is one buffered descriptor: reads scatter through preadv(2)
// where the platform has it, writes are plain positioned writes. The
// modelled cache is SAFS's page cache over the array, not the host's;
// the device files are scratch, written once when an image is loaded.
type FileStore struct {
	f *os.File
}

// NewFileStore opens (creating if needed) path as a buffered backing
// store.
func NewFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ssd: open store: %w", err)
	}
	return &FileStore{f: f}, nil
}

// ReadAt implements Store as a scatter list of one.
func (s *FileStore) ReadAt(p []byte, off int64) (int, error) {
	return s.ReadVecAt([][]byte{p}, off)
}

// ReadVecAt implements VecReader: the contiguous range starting at off
// is scattered into the buffers of vec with one preadv(2) submission
// where the platform supports it. Bytes past the end of the file read
// as zeros and the full length is reported, matching a thin-provisioned
// flash device (and MemStore); only a confirmed EOF earns the
// zero-fill, a real I/O error or a transfer that stops short mid-file
// surfaces instead.
func (s *FileStore) ReadVecAt(vec [][]byte, off int64) (int, error) {
	return readVec(s.f, vec, off)
}

// WriteAt implements Store.
func (s *FileStore) WriteAt(p []byte, off int64) (int, error) {
	return s.f.WriteAt(p, off)
}

// Size returns the current file size.
func (s *FileStore) Size() int64 {
	fi, err := s.f.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Close closes the underlying file.
func (s *FileStore) Close() error { return s.f.Close() }

// readVecFallback fills vec with sequential ReadAt calls — the
// portable path behind readVec, with the same EOF semantics: only a
// confirmed end-of-file earns the zero-filled tail; a transfer that
// stops short of EOF returns a typed ShortReadError instead.
func readVecFallback(f *os.File, vec [][]byte, off int64) (int, error) {
	start := off
	got := 0
	for _, b := range vec {
		n, err := f.ReadAt(b, off)
		if err != nil && !errors.Is(err, io.EOF) {
			return got + n, err
		}
		got += n
		off += int64(n)
		if n < len(b) {
			if err := checkVecEOF(f, start, got); err != nil {
				return got, err
			}
			break
		}
	}
	zeroFillVec(vec, got)
	return vecLen(vec), nil
}

// checkVecEOF validates a scatter read that stopped after got bytes: if
// position off+got is at or past the end of f the stop is genuine EOF
// (zero-fill is correct); otherwise the transfer was truncated mid-file
// and the caller must surface a typed short read rather than fabricate
// a zero tail.
func checkVecEOF(f *os.File, off int64, got int) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if pos := off + int64(got); pos < fi.Size() {
		return &ShortReadError{Off: off, Want: int(fi.Size() - off), Got: got}
	}
	return nil
}

// zeroFillVec zeroes every byte of vec from scatter position got on.
func zeroFillVec(vec [][]byte, got int) {
	for _, b := range vec {
		if got >= len(b) {
			got -= len(b)
			continue
		}
		clear(b[got:])
		got = 0
	}
}
