package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
)

// trailerLen computes the byte length of the checksum trailer an image
// with these sums carries (magic + fixed fields + sums + self-CRC).
func trailerLen(img *Image) int {
	return len(checksumMagic) + 12 + 4*(len(img.OutSums)+len(img.InSums)) + 4
}

// TestChecksumTrailerRoundTrip: the writer's trailer decodes back into
// sums that match an independent recomputation over the stored data
// bytes — for every encoding, since sums cover encoded bytes.
func TestChecksumTrailerRoundTrip(t *testing.T) {
	for _, enc := range []Encoding{EncodingRaw, EncodingDelta, EncodingBlock} {
		t.Run(enc.String(), func(t *testing.T) {
			img := BuildImage(fixtureAdjacency(), 0, nil)
			var buf bytes.Buffer
			if err := img.EncodeAs(&buf, enc); err != nil {
				t.Fatal(err)
			}
			dec, err := Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if dec.OutSums == nil {
				t.Fatal("decoded image carries no checksum trailer")
			}
			if dec.ChecksumExtent != ChecksumExtentSize {
				t.Fatalf("trailer extent %d, want %d", dec.ChecksumExtent, ChecksumExtentSize)
			}
			if want := ChecksumData(dec.OutData); !equalSums(dec.OutSums, want) {
				t.Fatal("out-edge trailer sums disagree with recomputation over stored bytes")
			}
			if want := ChecksumData(dec.InData); !equalSums(dec.InSums, want) {
				t.Fatal("in-edge trailer sums disagree with recomputation over stored bytes")
			}
		})
	}
}

func equalSums(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDecodeWithoutTrailerBackCompat: stripping the trailer yields
// exactly the pre-checksum v2 container, and Decode reads it — same
// graph, just no persisted sums. This is the guarantee that old images
// keep loading and old readers can read new images (the trailer is
// bytes nobody seeks to).
func TestDecodeWithoutTrailerBackCompat(t *testing.T) {
	img := BuildImage(fixtureAdjacency(), 0, nil)
	var buf bytes.Buffer
	if err := img.EncodeAs(&buf, EncodingDelta); err != nil {
		t.Fatal(err)
	}
	full, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	stripped := buf.Bytes()[:buf.Len()-trailerLen(full)]
	dec, err := Decode(bytes.NewReader(stripped))
	if err != nil {
		t.Fatalf("trailer-free container must stay readable: %v", err)
	}
	if dec.OutSums != nil || dec.InSums != nil {
		t.Fatal("stripped container decoded with sums")
	}
	if !bytes.Equal(dec.OutData, full.OutData) || !bytes.Equal(dec.InData, full.InData) {
		t.Fatal("stripped container decoded different edge data")
	}
}

// TestOpenImageFileRejectsTruncatedData: a file cut inside its data
// sections is an error naming both lengths, as it is for Decode — not
// an image whose trailer offset lies past EOF, which would read as "no
// trailer" and silently disarm verification. A file cut exactly at the
// end of its data is the trailer-less format and stays legal.
func TestOpenImageFileRejectsTruncatedData(t *testing.T) {
	img := BuildImage(fixtureAdjacency(), 0, nil)
	var buf bytes.Buffer
	if err := img.EncodeAs(&buf, EncodingRaw); err != nil {
		t.Fatal(err)
	}
	full, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dataEnd := buf.Len() - trailerLen(full)
	dataLen := len(full.OutData) + len(full.InData)
	dir := t.TempDir()
	for name, cut := range map[string]int{
		"one byte into the data":   dataEnd - dataLen + 1,
		"halfway through the data": dataEnd - dataLen/2,
		"one byte short":           dataEnd - 1,
		"at the end of the data":   dataEnd,
	} {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.img", cut))
		if err := os.WriteFile(path, buf.Bytes()[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		fb, err := OpenImageFile(path)
		if cut == dataEnd {
			if err != nil {
				t.Fatalf("%s: trailer-less file rejected: %v", name, err)
			}
			if fb.OutSums != nil {
				t.Fatalf("%s: opened with sums", name)
			}
			fb.Close()
			continue
		}
		if err == nil {
			fb.Close()
			t.Fatalf("%s (%d of %d bytes): opened with no error", name, cut, dataEnd)
		}
		if want := fmt.Sprintf("%d bytes", cut); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), fmt.Sprint(dataEnd)) {
			t.Fatalf("%s: error %q does not name both lengths (%d, %d)", name, err, cut, dataEnd)
		}
		if _, err := Decode(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("%s: Decode accepted what OpenImageFile rejects", name)
		}
	}
}

// TestDamagedTrailerRejected: a present-but-damaged trailer is an
// error, never a silent no-trailer fallback — that would disarm
// verification of exactly the images most likely to be corrupt.
func TestDamagedTrailerRejected(t *testing.T) {
	img := BuildImage(fixtureAdjacency(), 0, nil)
	var buf bytes.Buffer
	if err := img.EncodeAs(&buf, EncodingDelta); err != nil {
		t.Fatal(err)
	}
	full, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside a recorded sum (past magic and fixed fields,
	// before the self-CRC).
	raw := append([]byte(nil), buf.Bytes()...)
	raw[len(raw)-trailerLen(full)+len(checksumMagic)+12] ^= 0x01
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("damaged trailer decoded without error")
	} else if !strings.Contains(err.Error(), "trailer") {
		t.Fatalf("damaged trailer surfaced as unrelated error: %v", err)
	}
}

// TestLoadToFSDetectsHostRot: a data byte flipped after the trailer was
// recorded (host-file rot) is caught during LoadToFS — typed as
// safs.ErrCorrupted — before a single corrupted byte reaches the SSDs.
func TestLoadToFSDetectsHostRot(t *testing.T) {
	img := BuildImage(fixtureAdjacency(), 0, nil)
	var buf bytes.Buffer
	if err := img.EncodeAs(&buf, EncodingDelta); err != nil {
		t.Fatal(err)
	}
	rotted, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rotted.OutData[len(rotted.OutData)/2] ^= 0x10

	arr := ssd.NewArray(ssd.ArrayParams{Devices: 2})
	defer arr.Close()
	fs := safs.New(arr, safs.Config{CacheBytes: 1 << 20})
	if _, err := rotted.LoadToFS(fs, "rot"); !errors.Is(err, safs.ErrCorrupted) {
		t.Fatalf("rotted image loaded: err=%v, want safs.ErrCorrupted", err)
	}
}

// TestAtomicWriteFile: a failed write leaves neither the target nor a
// temp file behind; a successful one publishes exactly the written
// bytes. (The crash-safety half — kill -9 mid-write never exposes a
// partial file — follows from the same property: the target appears
// only via the final rename.)
func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "img.fgimg")

	boom := errors.New("boom")
	err := AtomicWriteFile(target, func(w io.Writer) error {
		// Bytes already streamed when the failure hits — they must
		// vanish with the temp file, not surface at the target.
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("write-func error not propagated: %v", err)
	}
	if _, err := os.Stat(target); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("failed write left a visible target file")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed write left %d stray files (temp not cleaned?)", len(ents))
	}

	if err := AtomicWriteFile(target, func(w io.Writer) error {
		_, err := w.Write([]byte("published"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "published" {
		t.Fatalf("target holds %q, want %q", got, "published")
	}
	ents, _ = os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("success left %d files in dir, want just the target", len(ents))
	}
}
