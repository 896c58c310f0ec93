package ssd

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// VecReader is implemented by stores that can fill a scatter list from
// one contiguous range in a single submission (preadv-style). Every
// store in this package implements it, and implements ReadAt as a
// scatter list of one, so EOF zero-fill, short-read typing and fault
// injection are written once per store.
type VecReader interface {
	ReadVecAt(vec [][]byte, off int64) (int, error)
}

// ReadVec fills vec from the contiguous range of s starting at off:
// one ReadVecAt when s has a vectored path, one ReadAt per buffer
// otherwise. It is the only place that fallback is written — Device and
// FaultStore both read through it.
func ReadVec(s Store, vec [][]byte, off int64) (int, error) {
	if v, ok := s.(VecReader); ok {
		return v.ReadVecAt(vec, off)
	}
	total := 0
	for _, b := range vec {
		n, err := s.ReadAt(b, off)
		total += n
		off += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
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

// StoreConfig selects how NewStore opens a file-backed device store.
// The zero value is plain buffered I/O (exactly NewFileStore).
type StoreConfig struct {
	// DirectIO opens the read path with O_DIRECT where the platform and
	// filesystem support it, bypassing the OS page cache. SAFS runs its
	// own set-associative page cache over the array, so buffered reads
	// cache every block twice — once in SAFS, once in the kernel —
	// wasting RAM and a copy. Unsupported combinations (non-Linux
	// builds, tmpfs) degrade to buffered reads with fadvise(DONTNEED)
	// hints; FileStore.Direct reports what was negotiated.
	DirectIO bool
}

const (
	// directAlign is the O_DIRECT offset/length/buffer alignment: the
	// common logical block size.
	directAlign = 4096
	// dropSyncBytes is how many written bytes accumulate before a store
	// that keeps the kernel page cache clean flushes and drops them.
	// Image loads stream MiBs through WriteAt; without periodic eviction
	// the "uncached" store would leave the whole image cached twice.
	dropSyncBytes = 32 << 20
)

// FileStore backs a device with a real file, for graphs larger than
// RAM. Reads are buffered by default. Opened with StoreConfig.DirectIO
// the read path avoids the OS page cache: O_DIRECT with an aligned
// bounce buffer where supported, fadvise(DONTNEED)-hinted buffered I/O
// elsewhere; writes (image load time, not the serving hot path) then go
// through a separate buffered descriptor and are flushed + dropped from
// the kernel cache every dropSyncBytes.
type FileStore struct {
	rf        *os.File // read descriptor (O_DIRECT when direct)
	wf        *os.File // write descriptor (always buffered)
	direct    bool
	dropCache bool // O_DIRECT was asked for and refused

	mu     sync.Mutex
	bounce []byte // aligned scratch for direct reads
	dirty  int64  // bytes written since the last flush+drop
}

// NewFileStore opens (creating if needed) path as a buffered backing
// store.
func NewFileStore(path string) (*FileStore, error) {
	return NewStore(path, StoreConfig{})
}

// NewStore opens (creating if needed) path as a device backing store
// per cfg, degrading gracefully where O_DIRECT is unsupported.
func NewStore(path string, cfg StoreConfig) (*FileStore, error) {
	wf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ssd: open store: %w", err)
	}
	s := &FileStore{rf: wf, wf: wf}
	if cfg.DirectIO {
		if rf, err := openDirect(path); err == nil {
			s.rf = rf
			s.direct = true
		} else {
			// tmpfs and friends reject O_DIRECT at open; fall back to
			// buffered reads but keep the kernel cache clean with hints.
			s.dropCache = true
		}
	}
	return s, nil
}

// Direct reports whether the read path actually negotiated O_DIRECT.
func (s *FileStore) Direct() bool { return s.direct }

// ReadAt implements Store as a scatter list of one.
func (s *FileStore) ReadAt(p []byte, off int64) (int, error) {
	return s.ReadVecAt([][]byte{p}, off)
}

// ReadVecAt implements VecReader: the contiguous range starting at off
// is scattered into the buffers of vec with one preadv(2) submission
// where the platform supports it — under O_DIRECT, one aligned bounce
// read. Bytes past the end of the file read as zeros and the full
// length is reported, matching a thin-provisioned flash device (and
// MemStore); only a confirmed EOF earns the zero-fill, a real I/O error
// or a transfer that stops short mid-file surfaces instead.
func (s *FileStore) ReadVecAt(vec [][]byte, off int64) (int, error) {
	if s.direct {
		return s.directRead(vec, off)
	}
	n, err := readVec(s.rf, vec, off)
	if err == nil && s.dropCache {
		fadviseDontNeed(s.rf, off-off%directAlign, int64(n)+directAlign)
	}
	return n, err
}

// directRead reads the aligned superset of the scatter range through
// the O_DIRECT descriptor into the bounce buffer and copies the exact
// window out into vec.
func (s *FileStore) directRead(vec [][]byte, off int64) (int, error) {
	length := int64(vecLen(vec))
	if length == 0 {
		return 0, nil
	}
	a0 := off - off%directAlign
	a1 := (off + length + directAlign - 1) / directAlign * directAlign
	need := int(a1 - a0)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.bounce) < need {
		s.bounce = allocAligned(need, directAlign)
	}
	buf := s.bounce[:need]
	n, err := s.rf.ReadAt(buf, a0)
	if err != nil && !errors.Is(err, io.EOF) {
		return 0, err
	}
	clear(buf[n:])
	src := buf[off-a0:]
	for _, b := range vec {
		src = src[copy(b, src):]
	}
	return int(length), nil
}

// WriteAt implements Store through the buffered descriptor. A store
// opened for direct I/O flushes the file and drops its pages every
// dropSyncBytes, so image loads do not grow a shadow copy in the kernel
// page cache.
func (s *FileStore) WriteAt(p []byte, off int64) (int, error) {
	n, err := s.wf.WriteAt(p, off)
	if err != nil || !(s.direct || s.dropCache) {
		return n, err
	}
	s.mu.Lock()
	s.dirty += int64(n)
	flush := s.dirty >= dropSyncBytes
	if flush {
		s.dirty = 0
	}
	s.mu.Unlock()
	if flush {
		if err := DropOSCache(s.wf); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Size returns the current file size.
func (s *FileStore) Size() int64 {
	fi, err := s.wf.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Close closes the underlying descriptors.
func (s *FileStore) Close() error {
	var err error
	if s.rf != s.wf {
		err = s.rf.Close()
	}
	if e := s.wf.Close(); err == nil {
		err = e
	}
	return err
}

// DropOSCache flushes f and asks the kernel to evict its cached pages
// (best effort; a no-op where fadvise is unavailable). Converters use
// it so a freshly written multi-GiB image does not linger in the page
// cache it will never be read through.
func DropOSCache(f *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	fadviseDontNeed(f, 0, 0)
	return nil
}

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
