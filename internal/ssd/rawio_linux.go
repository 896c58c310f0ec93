//go:build linux && (amd64 || arm64)

package ssd

import (
	"os"
	"syscall"
	"unsafe"
)

// iovMax bounds the iovec count of one preadv submission (IOV_MAX).
const iovMax = 1024

// posixFadvDontneed is POSIX_FADV_DONTNEED (not exported by syscall).
const posixFadvDontneed = 4

// openDirect opens path for reading with O_DIRECT. Filesystems without
// direct I/O (tmpfs) fail here, letting the caller fall back.
func openDirect(path string) (*os.File, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_DIRECT, 0)
	if err != nil {
		return nil, err
	}
	return os.NewFile(uintptr(fd), path), nil
}

// fadviseDontNeed hints the kernel to drop [off, off+length) of f from
// the page cache (length 0 means to end of file). Best effort.
func fadviseDontNeed(f *os.File, off, length int64) {
	syscall.Syscall6(syscall.SYS_FADVISE64, f.Fd(),
		uintptr(off), uintptr(length), posixFadvDontneed, 0, 0)
}

// readVec fills vec from the contiguous range of f starting at off with
// preadv(2): one kernel submission per iovMax buffers instead of one
// pread per buffer. A short preadv mid-vector resubmits the remaining
// iovecs at the advanced position. Bytes past EOF read as zeros and the
// full scatter length is reported, matching FileStore.ReadAt — but only
// a genuine EOF earns the zero-fill: a transfer that stalls before the
// end of the file surfaces as a typed ShortReadError, never a silently
// zero-padded tail.
func readVec(f *os.File, vec [][]byte, off int64) (int, error) {
	total := vecLen(vec)
	got := 0
	var few [8]syscall.Iovec // a merged read scatters into a handful of frames: no heap iovec list
	for got < total {
		iov := iovecsFrom(few[:0], vec, got)
		if len(iov) == 0 {
			break
		}
		n, err := preadv(f.Fd(), iov, off+int64(got))
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			if got == 0 && (err == syscall.ENOSYS || err == syscall.EOPNOTSUPP) {
				return readVecFallback(f, vec, off)
			}
			return got, err
		}
		if n == 0 {
			if err := checkVecEOF(f, off, got); err != nil {
				return got, err
			}
			break // confirmed EOF
		}
		got += n
	}
	zeroFillVec(vec, got)
	return total, nil
}

// iovecsFrom appends to iov the iovec list for vec with the first skip
// bytes of the scatter sequence removed (resuming a partial preadv).
func iovecsFrom(iov []syscall.Iovec, vec [][]byte, skip int) []syscall.Iovec {
	for _, b := range vec {
		if skip >= len(b) {
			skip -= len(b)
			continue
		}
		b = b[skip:]
		skip = 0
		if len(b) == 0 {
			continue
		}
		iov = append(iov, syscall.Iovec{Base: &b[0], Len: uint64(len(b))})
		if len(iov) == iovMax {
			break
		}
	}
	return iov
}

// preadv issues the raw vectored positioned read. On 64-bit platforms
// the kernel takes the position in the low half (pos_high stays 0) —
// the build tag above pins exactly those platforms.
func preadv(fd uintptr, iov []syscall.Iovec, off int64) (int, error) {
	n, _, errno := syscall.Syscall6(syscall.SYS_PREADV, fd,
		uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)),
		uintptr(off), 0, 0)
	if errno != 0 {
		return int(n), errno
	}
	return int(n), nil
}

// allocAligned returns a buffer of n bytes whose base address is
// align-aligned, as O_DIRECT transfers require. It over-allocates and
// slices at the first aligned byte.
func allocAligned(n, align int) []byte {
	raw := make([]byte, n+align)
	off := 0
	if rem := int(uintptr(unsafe.Pointer(&raw[0])) % uintptr(align)); rem != 0 {
		off = align - rem
	}
	return raw[off : off+n : off+n]
}
