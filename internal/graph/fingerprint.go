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
// direction's per-extent CRC32C table — every data byte is covered. The
// table is the checksum trailer's when the image has one (no I/O), and
// is computed by one pass over the edge data otherwise. Two loads of
// the same image bytes fingerprint identically — including a
// RAM-decoded and a file-backed open of the same file — while images
// of different graphs, encodings, or attribute payloads diverge.
//
// The serve layer's result cache keys on it so cached results can
// never cross graphs that merely share a catalog name. The value is
// computed once per Image and memoized (safe for concurrent callers).
func (img *Image) Fingerprint() string {
	img.fpOnce.Do(func() {
		h := fnv.New64a()
		fmt.Fprintf(h, "v=%d;e=%d;dir=%t;attr=%d;enc=%s;", img.NumV, img.NumEdges, img.Directed, img.AttrSize, img.Encoding)
		img.hashDirection(h, OutEdges, img.OutIndex, img.OutSums)
		if img.Directed {
			img.hashDirection(h, InEdges, img.InIndex, img.InSums)
		}
		img.fp = fmt.Sprintf("%016x", h.Sum64())
	})
	return img.fp
}

// hashDirection folds one direction's index and data checksums (sums,
// or a fresh pass over the data when the image persisted none) into h.
// Index contents are hashed in deterministic slice order only (the
// large-vertex hash tables are skipped: their residents are implied
// by the 255 sentinel bytes plus the data, and map iteration order
// would break determinism).
func (img *Image) hashDirection(h io.Writer, dir EdgeDir, ix *Index, sums []uint32) {
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
	if sums == nil {
		r, _, err := img.edgeReader(dir)
		if err != nil {
			return // index-only image: no data to cover
		}
		crc := newCRCWriter(io.Discard)
		if _, err := io.Copy(crc, r); err != nil {
			// A host file that cannot be read back must not share an
			// identity with its healthy self.
			io.WriteString(h, err.Error())
		}
		sums = crc.s.finish()
	}
	for _, s := range sums {
		binary.LittleEndian.PutUint32(num[:], s)
		h.Write(num[:4])
	}
}
