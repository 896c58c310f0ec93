package safs

import "flashgraph/internal/pagecache"

// View is a window onto the page-cache frames covering one asynchronous
// read request. User tasks access the requested byte range through it —
// computation happens directly against cache pages (the paper's
// "general-purpose computation in the page cache") with copies only at
// page boundaries.
//
// Offsets passed to View methods are relative to the start of the
// requested range. A View is valid only inside its TaskFunc; the frames
// are unpinned when the task returns.
type View struct {
	pageSize int
	head     int   // offset of the requested range within the first frame
	length   int64 // requested length
	frames   []*pagecache.Page
}

// Len returns the number of requested bytes.
func (v *View) Len() int64 { return v.length }

// locate maps a range-relative offset to (frame index, offset in frame).
func (v *View) locate(rel int64) (int, int) {
	abs := int64(v.head) + rel
	return int(abs / int64(v.pageSize)), int(abs % int64(v.pageSize))
}

// ReadAt copies bytes starting at rel into dst and returns the number
// copied (short only if the request range ends).
func (v *View) ReadAt(dst []byte, rel int64) int {
	if rel >= v.length {
		return 0
	}
	if max := v.length - rel; int64(len(dst)) > max {
		dst = dst[:max]
	}
	n := 0
	fi, fo := v.locate(rel)
	for n < len(dst) {
		frame := v.frames[fi].Data()
		c := copy(dst[n:], frame[fo:])
		n += c
		fi++
		fo = 0
	}
	return n
}

// Slice returns the bytes [rel, rel+n) without copying when the range
// lies within one frame; otherwise it copies into scratch (growing it if
// needed) and returns that. Use for decoding variable structures cheaply.
func (v *View) Slice(rel, n int64, scratch []byte) []byte {
	fi, fo := v.locate(rel)
	frame := v.frames[fi].Data()
	if fo+int(n) <= len(frame) {
		return frame[fo : fo+int(n)]
	}
	if int64(cap(scratch)) < n {
		scratch = make([]byte, n)
	}
	scratch = scratch[:n]
	v.ReadAt(scratch, rel)
	return scratch
}
