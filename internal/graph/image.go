package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"flashgraph/internal/safs"
)

// Adjacency is the intermediate in-memory form used to build images.
type Adjacency struct {
	N        int
	Directed bool
	// Out[v] lists v's out-neighbors (or all neighbors when undirected).
	Out [][]VertexID
	// In[v] lists v's in-neighbors; nil for undirected graphs.
	In [][]VertexID
}

// FromEdges builds adjacency lists from an edge list. For undirected
// graphs each edge lands in both endpoints' Out lists. Neighbor lists
// are sorted by vertex ID (triangle counting relies on this) and
// duplicate edges are kept as given.
func FromEdges(n int, edges []Edge, directed bool) *Adjacency {
	a := &Adjacency{N: n, Directed: directed, Out: make([][]VertexID, n)}
	outDeg := make([]uint32, n)
	var inDeg []uint32
	if directed {
		a.In = make([][]VertexID, n)
		inDeg = make([]uint32, n)
	}
	for _, e := range edges {
		outDeg[e.Src]++
		if directed {
			inDeg[e.Dst]++
		} else {
			outDeg[e.Dst]++
		}
	}
	for v := 0; v < n; v++ {
		if outDeg[v] > 0 {
			a.Out[v] = make([]VertexID, 0, outDeg[v])
		}
		if directed && inDeg[v] > 0 {
			a.In[v] = make([]VertexID, 0, inDeg[v])
		}
	}
	for _, e := range edges {
		a.Out[e.Src] = append(a.Out[e.Src], e.Dst)
		if directed {
			a.In[e.Dst] = append(a.In[e.Dst], e.Src)
		} else {
			a.Out[e.Dst] = append(a.Out[e.Dst], e.Src)
		}
	}
	a.Sort()
	return a
}

// Sort orders every neighbor list by vertex ID.
func (a *Adjacency) Sort() {
	for _, l := range a.Out {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	for _, l := range a.In {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
}

// Dedup removes duplicate neighbors (lists must be sorted) and
// self-loops.
func (a *Adjacency) Dedup() {
	dedup := func(v int, l []VertexID) []VertexID {
		out := l[:0]
		for i, u := range l {
			if u == VertexID(v) {
				continue // self-loop
			}
			if i > 0 && u == l[i-1] {
				continue
			}
			out = append(out, u)
		}
		return out
	}
	for v := range a.Out {
		a.Out[v] = dedup(v, a.Out[v])
	}
	for v := range a.In {
		a.In[v] = dedup(v, a.In[v])
	}
}

// AttrFunc produces the fixed-size attribute bytes for edge (src, dst).
// Deterministic functions keep images reproducible without storing
// attributes in the builder. The two directions' record passes call it
// side by side, so it must be safe for concurrent use.
type AttrFunc func(src, dst VertexID, buf []byte)

// Image is a complete FlashGraph graph image: serialized edge-list files
// plus their compact indexes. For RAM-resident images (BuildImage,
// Decode) OutData/InData hold the exact bytes stored on SSDs; for
// file-backed images (OpenImageFile) those slices are nil and edge
// data is read from the backing host file on demand, so only the
// header and compact indexes occupy memory.
type Image struct {
	Directed bool
	NumV     int
	NumEdges int64 // directed: #edges; undirected: #undirected edges
	AttrSize int
	// Encoding is the on-SSD edge-list layout of OutData/InData (and of
	// the bytes LoadToFS copies onto the SSDs). Decoders dispatch on it.
	Encoding Encoding

	OutData  []byte
	InData   []byte // nil if undirected
	OutIndex *Index
	InIndex  *Index // nil if undirected

	// Persisted per-extent CRC32C data checksums (checksum trailer);
	// nil for images written before the trailer existed. LoadToFS arms
	// SAFS read verification with them and computes load-time sums for
	// images that lack them.
	OutSums        []uint32
	InSums         []uint32
	ChecksumExtent int

	// File backing (OpenImageFile): edge data stays on disk and is
	// streamed from backing at outOff/inOff.
	backing io.ReaderAt
	closer  io.Closer
	outOff  int64
	inOff   int64

	// Memoized content identity (Fingerprint).
	fpOnce sync.Once
	fp     string
}

// Weighted reports whether the image carries the 4-byte per-edge
// attributes PageVertex.AttrUint32 decodes — the ONE weightedness
// predicate the capability validator, catalog listings, and engine all
// share. Exactly 4: AttrUint32 reads the first 4 bytes of a record's
// attribute, so a larger AttrSize would silently decode garbage and
// must not count as weighted.
func (img *Image) Weighted() bool {
	return img.AttrSize == 4
}

// FileBacked reports whether edge data lives on disk instead of RAM.
func (img *Image) FileBacked() bool { return img.backing != nil }

// Close releases the backing file of a file-backed image. It is a
// no-op (and safe) for RAM-resident images.
func (img *Image) Close() error {
	if img.closer == nil {
		return nil
	}
	c := img.closer
	img.closer = nil
	return c.Close()
}

// EdgeReader returns a fresh sequential reader over one direction's
// encoded edge-list file, wherever the bytes live (RAM or the backing
// host file), and the file's size.
func (img *Image) EdgeReader(dir EdgeDir) (io.Reader, int64, error) {
	in := dir == InEdges && img.Directed
	var size int64
	if in {
		size = img.InIndex.FileSize()
	} else {
		size = img.OutIndex.FileSize()
	}
	if img.backing != nil {
		off := img.outOff
		if in {
			off = img.inOff
		}
		return io.NewSectionReader(img.backing, off, size), size, nil
	}
	if in {
		if img.InData == nil {
			return nil, 0, fmt.Errorf("graph: image has no in-edge data")
		}
		return bytes.NewReader(img.InData), size, nil
	}
	if img.OutData == nil {
		return nil, 0, fmt.Errorf("graph: image has no out-edge data")
	}
	return bytes.NewReader(img.OutData), size, nil
}

// edgeReaderAt returns random access over one direction's encoded
// edge-list bytes, wherever they live (the block decoder reads stripe
// extents rather than a sequential scan).
func (img *Image) edgeReaderAt(dir EdgeDir) (io.ReaderAt, error) {
	in := dir == InEdges && img.Directed
	if img.backing != nil {
		off, size := img.outOff, img.OutIndex.FileSize()
		if in {
			off, size = img.inOff, img.InIndex.FileSize()
		}
		return io.NewSectionReader(img.backing, off, size), nil
	}
	if in {
		if img.InData == nil {
			return nil, fmt.Errorf("graph: image has no in-edge data")
		}
		return bytes.NewReader(img.InData), nil
	}
	if img.OutData == nil {
		return nil, fmt.Errorf("graph: image has no out-edge data")
	}
	return bytes.NewReader(img.OutData), nil
}

// sourceFor returns a replayable neighbor stream over one direction of
// this image, decoding whatever layout the image is stored in.
func (img *Image) sourceFor(dir EdgeDir) StreamSource {
	ix := img.OutIndex
	if dir == InEdges && img.Directed {
		ix = img.InIndex
	}
	if img.Encoding == EncodingBlock {
		return func() (NeighborStream, error) {
			ra, err := img.edgeReaderAt(dir)
			if err != nil {
				return nil, err
			}
			return blockSource(ra, ix.Blocks(), img.NumV, img.AttrSize)()
		}
	}
	return recordSource(func() (io.Reader, error) {
		r, _, err := img.EdgeReader(dir)
		return r, err
	}, ix, img.AttrSize, img.Encoding)
}

// writerAs returns the canonical ImageWriter serializing this image in
// the given target layout: the single path through which Encode,
// EncodeAs, and any other serialization of an existing image produces
// on-SSD bytes. The sources decode the image's current layout, so any
// of the three layouts re-encodes to any other without round-tripping
// through an edge list.
func (img *Image) writerAs(enc Encoding) *ImageWriter {
	iw := &ImageWriter{
		NumV:     img.NumV,
		Directed: img.Directed,
		Encoding: enc,
		AttrSize: img.AttrSize,
		Out:      img.sourceFor(OutEdges),
	}
	if img.Directed {
		iw.In = img.sourceFor(InEdges)
	}
	return iw
}

// BuildImage serializes adjacency lists into an image through the
// streaming ImageWriter (the one canonical encoder). attr may be nil
// when attrSize is zero.
func BuildImage(a *Adjacency, attrSize int, attr AttrFunc) *Image {
	iw := &ImageWriter{
		NumV:     a.N,
		Directed: a.Directed,
		AttrSize: attrSize,
		Attr:     attr,
		Out:      SliceSource(a.Out),
	}
	if a.Directed {
		iw.In = SliceSource(a.In)
	}
	img, err := iw.BuildImage()
	if err != nil {
		// Adjacency streams are sorted and in-range by construction; an
		// error here is a programming bug, matching the historical
		// cannot-fail contract of BuildImage.
		panic(fmt.Sprintf("graph: BuildImage: %v", err))
	}
	return img
}

// IndexMemory returns the total in-memory index footprint in bytes.
func (img *Image) IndexMemory() int64 {
	m := img.OutIndex.MemoryFootprint()
	if img.InIndex != nil {
		m += img.InIndex.MemoryFootprint()
	}
	return m
}

// DataSize returns the on-SSD byte size of all edge-list files.
func (img *Image) DataSize() int64 {
	if img.OutIndex != nil {
		s := img.OutIndex.FileSize()
		if img.InIndex != nil {
			s += img.InIndex.FileSize()
		}
		return s
	}
	return int64(len(img.OutData)) + int64(len(img.InData))
}

// FSFiles is the pair of SAFS files holding an image's edge lists.
type FSFiles struct {
	Out *safs.File
	In  *safs.File // nil if undirected
}

// loadChunk is the copy granularity of LoadToFS.
const loadChunk = 1 << 20

// LoadToFS writes the image's edge-list files into the filesystem
// (FlashGraph's only SSD write: loading a graph for processing). Data
// is streamed in fixed-size chunks, so loading a file-backed image
// never materializes edge lists in RAM.
//
// The copy doubles as the integrity handoff: per-extent CRC32C sums
// are computed over the streamed bytes, cross-checked against the
// image's persisted trailer when one exists (detecting host-file rot
// before a single corrupted byte reaches the SSDs), and armed on the
// created files so every subsequent SAFS read verifies end to end.
func (img *Image) LoadToFS(fs *safs.FS, name string) (*FSFiles, error) {
	copyIn := func(name string, dir EdgeDir) (*safs.File, error) {
		r, size, err := img.EdgeReader(dir)
		if err != nil {
			return nil, err
		}
		persisted := img.OutSums
		if dir == InEdges {
			persisted = img.InSums
		}
		extent := ChecksumExtentSize
		if persisted != nil && img.ChecksumExtent > 0 {
			extent = img.ChecksumExtent
		}
		f, err := fs.Create(name, size)
		if err != nil {
			return nil, err
		}
		sum := newExtentSummer(extent)
		buf := make([]byte, loadChunk)
		for off := int64(0); off < size; {
			n := int64(len(buf))
			if size-off < n {
				n = size - off
			}
			if _, err := io.ReadFull(r, buf[:n]); err != nil {
				return nil, fmt.Errorf("graph: loading %q: %w", name, err)
			}
			sum.update(buf[:n])
			if err := f.WriteAt(buf[:n], off); err != nil {
				return nil, err
			}
			off += n
		}
		sums := sum.finish()
		if persisted != nil {
			if len(sums) != len(persisted) {
				return nil, fmt.Errorf("graph: loading %q: streamed %d extents, trailer records %d",
					name, len(sums), len(persisted))
			}
			for i := range sums {
				if sums[i] != persisted[i] {
					return nil, fmt.Errorf("graph: loading %q: %w: extent %d checksum %08x, image trailer records %08x",
						name, safs.ErrCorrupted, i, sums[i], persisted[i])
				}
			}
		}
		f.SetChecksums(sums, extent)
		return f, nil
	}
	out, err := copyIn(name+".adj-out", OutEdges)
	if err != nil {
		return nil, err
	}
	files := &FSFiles{Out: out}
	if img.Directed {
		in, err := copyIn(name+".adj-in", InEdges)
		if err != nil {
			return nil, err
		}
		files.In = in
	}
	return files, nil
}

// Container magic. The container records the edge-list encoding and
// persists the per-vertex degree (and, for delta layouts, record-size)
// arrays, so reopening is O(index). Its predecessor "FGIMG001" (raw
// layout only, no index section) was last written by PR 5's tools and is
// rejected by name — re-run fg-convert on the edge list.
const (
	imageMagicV1 = "FGIMG001"
	imageMagicV2 = "FGIMG002"
)

// imageHeaderSizeV2 is the fixed header length (magic included).
const imageHeaderSizeV2 = 8 + 1 + 1 + 4 + 8 + 8 + 8 + 8

// Encode serializes the image to w in FlashGraph's image format, as a
// thin wrapper over the streaming ImageWriter: the stored records are
// streamed back through the canonical encoder, so RAM-resident and
// file-backed images serialize byte-identically without ever holding
// edge data beyond one vertex record.
func (img *Image) Encode(w io.Writer) error {
	return img.EncodeAs(w, img.Encoding)
}

// EncodeAs serializes the image to w re-encoded in the given edge-list
// layout — the conversion path behind fg-convert -reencode. The stored
// bytes are decoded back into the canonical neighbor stream and fed
// through the one encoder, so no edge-list round trip and no in-memory
// adjacency are ever materialized.
func (img *Image) EncodeAs(w io.Writer, enc Encoding) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := img.writerAs(enc).WriteImage(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// Decode deserializes an image written by Encode into RAM; the indexes
// are rebuilt from the persisted degree and record-size arrays. Use
// OpenImageFile instead to serve images larger than memory.
func Decode(r io.Reader) (*Image, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	img, hdr, err := readImageMeta(br)
	if err != nil {
		return nil, err
	}
	img.OutData = make([]byte, hdr.outLen)
	if _, err := io.ReadFull(br, img.OutData); err != nil {
		return nil, fmt.Errorf("graph: reading out-edge data: %w", err)
	}
	if hdr.inLen > 0 {
		img.InData = make([]byte, hdr.inLen)
		if _, err := io.ReadFull(br, img.InData); err != nil {
			return nil, fmt.Errorf("graph: reading in-edge data: %w", err)
		}
	}
	if err := img.readTrailer(br, hdr); err != nil {
		return nil, err
	}
	return img, nil
}

// imageHeader is the decoded container header.
type imageHeader struct {
	directed bool
	encoding Encoding
	attrSize uint32
	numV     uint64
	numEdges uint64
	outLen   uint64
	inLen    uint64
}

// dataOffset returns the byte offset of the out-edge file within the
// container: past the fixed header and the persisted index section.
func (h *imageHeader) dataOffset() int64 {
	perDir := 4 * int64(h.numV) // degrees
	switch h.encoding {
	case EncodingDelta:
		perDir *= 2 // + record sizes
	case EncodingBlock:
		// The grid geometry is a pure function of the vertex count, so
		// the directory size is too.
		perDir += blockIndexBytes(blockStripesFor(int(h.numV)))
	}
	dirs := int64(1)
	if h.directed {
		dirs = 2
	}
	return imageHeaderSizeV2 + dirs*perDir
}

// ErrUnsupportedContainer reports a well-formed container of a version
// this tree no longer reads.
var ErrUnsupportedContainer = errors.New("graph: unsupported container version")

// readImageHeader consumes and validates the magic + fixed header.
func readImageHeader(r io.Reader) (*imageHeader, error) {
	magic := make([]byte, len(imageMagicV2))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	switch string(magic) {
	case imageMagicV2:
	case imageMagicV1:
		return nil, fmt.Errorf("%w %q (this reader takes %q; rebuild the image with fg-convert)", ErrUnsupportedContainer, magic, imageMagicV2)
	default:
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	h := &imageHeader{}
	var flags, enc uint8
	for _, f := range []any{&flags, &enc, &h.attrSize, &h.numV, &h.numEdges, &h.outLen, &h.inLen} {
		if err := binary.Read(r, binary.LittleEndian, f); err != nil {
			return nil, fmt.Errorf("graph: reading header: %w", err)
		}
	}
	if enc >= uint8(numEncodings) {
		return nil, fmt.Errorf("graph: unknown edge-list encoding %d", enc)
	}
	h.encoding = Encoding(enc)
	h.directed = flags&1 != 0
	return h, nil
}

// readImageMeta reads everything a container holds ahead of its data
// sections — the fixed header, then each direction's persisted index
// arrays — and returns the image with its indexes built and no edge data
// attached: the part Decode and OpenImageFile have in common.
func readImageMeta(r io.Reader) (*Image, *imageHeader, error) {
	hdr, err := readImageHeader(r)
	if err != nil {
		return nil, nil, err
	}
	img := &Image{
		Directed: hdr.directed,
		NumV:     int(hdr.numV),
		NumEdges: int64(hdr.numEdges),
		AttrSize: int(hdr.attrSize),
		Encoding: hdr.encoding,
	}
	if !img.Directed && hdr.inLen != 0 {
		return nil, nil, fmt.Errorf("graph: undirected image carries %d bytes of in-edge data", hdr.inLen)
	}
	if img.OutIndex, err = hdr.readIndex(r, "out", hdr.outLen); err != nil {
		return nil, nil, err
	}
	if img.Directed {
		if img.InIndex, err = hdr.readIndex(r, "in", hdr.inLen); err != nil {
			return nil, nil, err
		}
	}
	return img, hdr, nil
}

// readTrailer attaches the optional checksum trailer that follows the
// data sections; r is positioned at their end. Its absence (clean EOF)
// is how every pre-trailer image stays readable.
func (img *Image) readTrailer(r io.Reader, hdr *imageHeader) error {
	ext, outSums, inSums, ok, err := readChecksumTrailer(r, int64(hdr.outLen), int64(hdr.inLen))
	if ok {
		img.ChecksumExtent = ext
		img.OutSums, img.InSums = outSums, inSums
	}
	return err
}

// readIndex reads one direction's persisted index section — per-vertex
// degrees, plus true record byte sizes (delta layouts) or the block
// directory (block layouts) — and builds the compact index from it,
// cross-checking the recorded file size (cheap corruption detection
// without scanning the data).
func (h *imageHeader) readIndex(r io.Reader, dir string, wantSize uint64) (*Index, error) {
	n := int(h.numV)
	degrees := make([]uint32, n)
	var sizes []int64
	var bdir *BlockDir
	err := readU32Array(r, n, func(v int, x uint32) { degrees[v] = x })
	switch {
	case err != nil:
	case h.encoding == EncodingDelta:
		sizes = make([]int64, n)
		err = readU32Array(r, n, func(v int, x uint32) { sizes[v] = int64(x) })
	case h.encoding == EncodingBlock:
		bdir, err = readBlockDir(r, n)
	}
	if err != nil {
		return nil, fmt.Errorf("graph: reading %s-edge index: %w", dir, err)
	}
	ix := buildDirIndex(degrees, sizes, bdir, int(h.attrSize), h.encoding)
	if ix.FileSize() != int64(wantSize) {
		return nil, fmt.Errorf("graph: %s-edge file: index promises %d data bytes, header says %d", dir, ix.FileSize(), wantSize)
	}
	return ix, nil
}
