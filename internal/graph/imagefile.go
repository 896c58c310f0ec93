package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// OpenImageFile opens an image written by Encode/WriteImageFile
// without loading edge data into memory: only the header and the
// compact indexes (the paper's ~1.25 B/vertex/direction) become
// resident — an O(index) open straight from the persisted degree and
// record-size arrays — while edge lists stay in the host file. The
// resulting image serves semi-external-memory engines — LoadToFS
// streams file→SAFS in chunks — and must be Closed when no longer
// needed.
func OpenImageFile(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: opening image: %w", err)
	}
	img, err := openImage(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("graph: image %s: %w", path, err)
	}
	img.closer = f
	return img, nil
}

// openImage builds a file-backed Image over an opened container. No
// record scan touches the data section; the checksum trailer is read
// from past its end.
func openImage(f *os.File) (*Image, error) {
	img, hdr, err := readImageMeta(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, err
	}
	img.backing = f
	img.outOff = hdr.dataOffset()
	img.inOff = img.outOff + int64(hdr.outLen)
	trailerOff := img.inOff + int64(hdr.inLen)
	// A file cut inside its data is named as truncated, the way Decode
	// fails on it, not as a container without a trailer.
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("graph: stat image: %w", err)
	}
	if fi.Size() < trailerOff {
		return nil, fmt.Errorf("graph: truncated image: file is %d bytes, header and data need %d", fi.Size(), trailerOff)
	}
	if err := img.readTrailer(io.NewSectionReader(f, trailerOff, math.MaxInt64-trailerOff), hdr); err != nil {
		return nil, err
	}
	return img, nil
}

// WriteImageFile streams iw's image into a new file at path. The
// write is sequential (one record pass per direction over iw's
// sources, spooled to temp files as WriteImage describes) and holds
// only the compact indexes in memory. The file appears
// atomically: bytes land in a temp file in the same directory, which
// is fsynced and renamed over path only once complete — a crash or
// kill -9 mid-build leaves no partially visible image behind.
func WriteImageFile(path string, iw *ImageWriter) (*ImageInfo, error) {
	var info *ImageInfo
	err := AtomicWriteFile(path, func(w io.Writer) error {
		var err error
		info, err = iw.WriteImage(w)
		return err
	})
	if err != nil {
		return nil, err
	}
	return info, nil
}

// AtomicWriteFile writes a file at path crash-safely: write streams
// into a buffered temp file in path's directory, which is fsynced,
// closed, and renamed over path; the directory is then fsynced so the
// rename itself is durable. A failure (or a crash at any point) never
// leaves a partial file visible at path.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("graph: creating temp image: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := write(bw); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(fmt.Errorf("graph: flushing image: %w", err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("graph: syncing image: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("graph: closing image: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("graph: publishing image: %w", err)
	}
	// Best effort: sync the directory entry so the rename survives a
	// power cut (unsupported on some filesystems; the data already is).
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
