//go:build linux && (amd64 || arm64)

package ssd

import (
	"os"
	"syscall"
	"unsafe"
)

// iovMax bounds the iovec count of one preadv submission (IOV_MAX).
const iovMax = 1024

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
