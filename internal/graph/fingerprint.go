package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
)

// Fingerprint returns a stable content identity for the image: an
// FNV-64a hash over the header fields, the full per-direction index
// (degree sequence, group offsets, delta record sizes), and each
// direction's per-extent CRC32C sums — every data byte is covered, with
// no I/O. Two loads of the same image bytes fingerprint identically —
// including a RAM-built, a RAM-decoded and a file-backed open of the
// same image — while images of different graphs, encodings, or
// attribute payloads diverge.
//
// The serve layer's result cache keys on it so cached results can
// never cross graphs that merely share a catalog name. The value is
// computed once per Image and memoized (safe for concurrent callers).
func (img *Image) Fingerprint() string {
	img.fpOnce.Do(func() {
		h := fnv.New64a()
		fmt.Fprintf(h, "v=%d;e=%d;dir=%t;attr=%d;enc=%s;", img.NumV, img.NumEdges, img.Directed, img.AttrSize, img.Encoding)
		hashDirection(h, img.OutIndex, img.OutSums)
		if img.Directed {
			hashDirection(h, img.InIndex, img.InSums)
		}
		img.fp = fmt.Sprintf("%016x", h.Sum64())
	})
	return img.fp
}

// hashDirection folds one direction's index and data sums into h.
// Index contents are hashed in deterministic slice order only (the
// large-vertex hash tables are skipped: their residents are implied
// by the 255 sentinel bytes plus the data, and map iteration order
// would break determinism).
func hashDirection(h io.Writer, ix *Index, sums []uint32) {
	if ix == nil {
		return
	}
	var num [8]byte
	binary.LittleEndian.PutUint64(num[:], uint64(ix.fileSize))
	h.Write(num[:])
	ix.hashDegreeBytes(h)
	for _, off := range ix.groupOff {
		binary.LittleEndian.PutUint64(num[:], uint64(off))
		h.Write(num[:])
	}
	ix.hashRecBytes(h)
	for _, s := range sums {
		binary.LittleEndian.PutUint32(num[:], s)
		h.Write(num[:4])
	}
}
