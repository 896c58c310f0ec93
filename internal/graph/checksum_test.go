package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

// TestTrailerlessContainerRefused: a v2 container cut exactly at the
// end of its data (no checksum trailer) is refused by Decode and
// OpenImageFile as ErrUnsupportedContainer, with an error that names
// the trailer — its edge lists could never be verified.
func TestTrailerlessContainerRefused(t *testing.T) {
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
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrUnsupportedContainer) || !strings.Contains(err.Error(), "trailer") {
			t.Fatalf("%s: err = %v, want ErrUnsupportedContainer naming the trailer", what, err)
		}
	}
	_, err = Decode(bytes.NewReader(stripped))
	check("Decode", err)
	path := filepath.Join(t.TempDir(), "g.fg")
	if err := os.WriteFile(path, stripped, 0o644); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenImageFile(path)
	if err == nil {
		fb.Close()
	}
	check("OpenImageFile", err)
}

// TestOpenImageFileRejectsTruncatedData: a file cut inside its data
// sections is an error naming both lengths, as it is for Decode — not
// an image whose trailer offset lies past EOF, which would read as "no
// trailer". A file cut exactly at the end of its data is a container
// without a trailer and is refused as ErrUnsupportedContainer.
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
		if err == nil {
			fb.Close()
			t.Fatalf("%s (%d of %d bytes): opened with no error", name, cut, dataEnd)
		}
		if cut == dataEnd {
			if !errors.Is(err, ErrUnsupportedContainer) || !strings.Contains(err.Error(), "trailer") {
				t.Fatalf("%s: err = %v, want ErrUnsupportedContainer naming the trailer", name, err)
			}
			continue
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
// verification of exactly the images most likely to be corrupt. A
// trailer whose self-CRC holds but whose extent is not the writer's is
// refused too: the verifying reader sizes its buffer by the extent, so
// a claimed 1 GiB extent would otherwise allocate 1 GiB.
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
	body := buf.Bytes()[:buf.Len()-trailerLen(full)]
	for _, tc := range []struct {
		name   string
		damage func() []byte
	}{
		{"flipped-sum", func() []byte {
			// One bit inside a recorded sum (past magic and fixed
			// fields, before the self-CRC).
			raw := append([]byte(nil), buf.Bytes()...)
			raw[len(body)+len(checksumMagic)+12] ^= 0x01
			return raw
		}},
		{"oversized-extent", func() []byte {
			// One 1 GiB extent per direction, each summing its whole
			// direction correctly, under a valid self-CRC.
			tr := []byte(checksumMagic)
			tr = binary.LittleEndian.AppendUint32(tr, 1<<30)
			tr = binary.LittleEndian.AppendUint32(tr, 1)
			tr = binary.LittleEndian.AppendUint32(tr, 1)
			tr = binary.LittleEndian.AppendUint32(tr, crc32.Checksum(full.OutData, castagnoli))
			tr = binary.LittleEndian.AppendUint32(tr, crc32.Checksum(full.InData, castagnoli))
			tr = binary.LittleEndian.AppendUint32(tr, crc32.Checksum(tr, castagnoli))
			return append(append([]byte(nil), body...), tr...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := tc.damage()
			if _, err := Decode(bytes.NewReader(raw)); err == nil {
				t.Fatal("damaged trailer decoded without error")
			} else if !strings.Contains(err.Error(), "trailer") {
				t.Fatalf("damaged trailer surfaced as unrelated error: %v", err)
			}
			path := filepath.Join(t.TempDir(), "g.fg")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if f, err := OpenImageFile(path); err == nil {
				f.Close()
				t.Fatal("OpenImageFile accepted a damaged trailer")
			}
		})
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

// TestLoadToFSRefusesFlippedBuiltImage: a RAM-built image carries the
// sums its record pass computed, so a byte flipped in its OutData after
// the build is refused by LoadToFS as safs.ErrCorrupted instead of being
// summed at load time and loaded as if whole.
func TestLoadToFSRefusesFlippedBuiltImage(t *testing.T) {
	img := BuildImage(fixtureAdjacency(), 0, nil)
	img.OutData[len(img.OutData)/2] ^= 0x10

	arr := ssd.NewArray(ssd.ArrayParams{Devices: 2})
	defer arr.Close()
	fs := safs.New(arr, safs.Config{CacheBytes: 1 << 20})
	if _, err := img.LoadToFS(fs, "flipped"); !errors.Is(err, safs.ErrCorrupted) {
		t.Fatalf("flipped built image loaded: err=%v, want safs.ErrCorrupted", err)
	}
}

// TestDamagedDataRefused: one flipped data byte is refused wherever
// edge data is read, for every layout — by Decode, and by EncodeAs of
// the file-backed image (the re-encode behind fg-convert -reencode),
// which would otherwise carry the damage into a new image with fresh,
// matching sums.
func TestDamagedDataRefused(t *testing.T) {
	encodings := []Encoding{EncodingRaw, EncodingDelta, EncodingBlock}
	for _, enc := range encodings {
		var buf bytes.Buffer
		if err := BuildImage(fixtureAdjacency(), 0, nil).EncodeAs(&buf, enc); err != nil {
			t.Fatal(err)
		}
		full, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		damaged := bytes.Clone(buf.Bytes())
		outStart := len(damaged) - trailerLen(full) - len(full.InData) - len(full.OutData)
		damaged[outStart+len(full.OutData)/2] ^= 0x10
		path := filepath.Join(t.TempDir(), enc.String()+".fg")
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Run(enc.String()+"/Decode", func(t *testing.T) {
			if _, err := Decode(bytes.NewReader(damaged)); !errors.Is(err, safs.ErrCorrupted) {
				t.Fatalf("err = %v, want safs.ErrCorrupted", err)
			}
		})
		t.Run(enc.String()+"/EncodeAs", func(t *testing.T) {
			fb, err := OpenImageFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fb.Close()
			for _, to := range encodings {
				if err := fb.EncodeAs(io.Discard, to); !errors.Is(err, safs.ErrCorrupted) {
					t.Fatalf("EncodeAs(%s): err = %v, want safs.ErrCorrupted", to, err)
				}
			}
		})
	}
}

// TestDamagedDegreeRefused: the index section lies outside the checksum
// trailer, so a flipped bit in a persisted degree must be caught by the
// degree sums, which have to match the header's edge count. Every
// layout, directed and undirected, refuses it at Decode and at
// OpenImageFile, naming the damaged direction's index.
func TestDamagedDegreeRefused(t *testing.T) {
	var edges []Edge
	for v, nbrs := range fixtureAdjacency().Out {
		for _, u := range nbrs {
			edges = append(edges, Edge{Src: VertexID(v), Dst: u})
		}
	}
	for _, directed := range []bool{true, false} {
		a := FromEdges(600, edges, directed)
		a.Dedup()
		for _, enc := range []Encoding{EncodingRaw, EncodingDelta, EncodingBlock} {
			var buf bytes.Buffer
			if err := BuildImage(a, 0, nil).EncodeAs(&buf, enc); err != nil {
				t.Fatal(err)
			}
			hdr, err := readImageHeader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			dirs := map[string]int64{"out": imageHeaderSizeV2}
			if directed {
				dirs["in"] = (imageHeaderSizeV2 + hdr.dataOffset()) / 2
			}
			for dir, start := range dirs {
				t.Run(fmt.Sprintf("directed=%v/%s/%s", directed, enc, dir), func(t *testing.T) {
					damaged := bytes.Clone(buf.Bytes())
					damaged[start+4*5] ^= 1
					want := fmt.Sprintf("graph: %s-edge index holds ", dir)
					if _, err := Decode(bytes.NewReader(damaged)); err == nil || !strings.HasPrefix(err.Error(), want) {
						t.Fatalf("Decode: err = %v, want %q…", err, want)
					}
					path := filepath.Join(t.TempDir(), "img.fg")
					if err := os.WriteFile(path, damaged, 0o644); err != nil {
						t.Fatal(err)
					}
					if img, err := OpenImageFile(path); err == nil || !strings.Contains(err.Error(), want) {
						if img != nil {
							img.Close()
						}
						t.Fatalf("OpenImageFile: err = %v, want %q…", err, want)
					}
				})
			}
		}
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
