// Package bench regenerates every table and figure of the FlashGraph
// paper's evaluation (§5) on scaled synthetic stand-ins of its datasets
// and a throttled simulated SSD array. Absolute numbers are scaled by
// construction; the shapes — who wins, by roughly what factor, where
// knees fall — are the reproduction targets (each experiment's doc
// comment states the paper's result).
package bench

import (
	"sync"
	"time"

	"flashgraph/internal/csr"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
)

// Config scales the whole harness.
type Config struct {
	// ScaleAdd is added to every dataset's log2 vertex count (0 = the
	// default bench scale; +3 ≈ one order of magnitude bigger).
	ScaleAdd int
	// Threads is the worker count for all engines (default 8; the paper
	// uses 32 on a 32-core machine).
	Threads int
	// NoThrottle disables device timing (CI-fast smoke runs; shapes
	// driven by I/O volume survive, absolute times compress).
	NoThrottle bool
	// Seed offsets all generator seeds.
	Seed uint64
}

func (c *Config) setDefaults() {
	if c.Threads == 0 {
		c.Threads = 8
	}
}

// Dataset is one Table 1 stand-in.
type Dataset struct {
	// Name echoes the paper dataset it stands in for.
	Name string
	// Paper describes the original (for table output).
	Paper string
	// Img is the FlashGraph image.
	Img *graph.Image
	// CacheFrac1G maps the paper's "1GB cache" to a fraction of this
	// dataset's on-SSD size (twitter: 1GB/13GB ≈ 8%).
	CacheFrac1G float64

	refOnce sync.Once
	ref     *csr.Graph
}

// Ref returns (building lazily) the CSR form for oracle baselines.
func (d *Dataset) Ref() *csr.Graph {
	d.refOnce.Do(func() {
		d.ref = csrFromImage(d.Img)
	})
	return d.ref
}

// csrFromImage decodes an image back into CSR form.
func csrFromImage(img *graph.Image) *csr.Graph {
	a := &graph.Adjacency{N: img.NumV, Directed: img.Directed}
	a.Out = decodeLists(img.OutData, img.OutIndex, img.AttrSize, img.Encoding)
	if img.Directed {
		a.In = decodeLists(img.InData, img.InIndex, img.AttrSize, img.Encoding)
	}
	return csr.FromAdjacency(a)
}

func decodeLists(data []byte, ix *graph.Index, attrSize int, enc graph.Encoding) [][]graph.VertexID {
	lists := make([][]graph.VertexID, ix.NumVertices())
	for v := range lists {
		off, size := ix.Locate(graph.VertexID(v))
		pv := graph.NewPageVertexBytes(graph.VertexID(v), graph.OutEdges, data[off:off+size], attrSize, enc)
		lists[v] = pv.Edges(nil, nil)
	}
	return lists
}

// buildDataset constructs and caches one dataset.
func buildDataset(name, paper string, frac float64, edges []graph.Edge, n int) *Dataset {
	a := graph.FromEdges(n, edges, true)
	a.Dedup()
	return &Dataset{
		Name:        name,
		Paper:       paper,
		Img:         graph.BuildImage(a, 0, nil),
		CacheFrac1G: frac,
	}
}

// TwitterSim stands in for the Twitter graph (42M v, 1.5B e, 13GB):
// an RMAT power-law graph; the paper's 1GB cache ≈ 8% of data.
func TwitterSim(cfg Config) *Dataset {
	scale := 13 + cfg.ScaleAdd
	return buildDataset(
		"twitter-sim", "Twitter 42M v / 1.5B e / 13GB",
		0.08,
		gen.RMAT(scale, 24, 101+cfg.Seed), 1<<scale,
	)
}

// SubdomainSim stands in for the subdomain web graph (89M v, 2B e,
// 18GB); 1GB cache ≈ 5.5% of data.
func SubdomainSim(cfg Config) *Dataset {
	scale := 14 + cfg.ScaleAdd
	return buildDataset(
		"subdomain-sim", "Subdomain web 89M v / 2B e / 18GB",
		0.055,
		gen.RMAT(scale, 16, 202+cfg.Seed), 1<<scale,
	)
}

// scalePow2 multiplies base by 2^add (add may be negative), flooring at
// min.
func scalePow2(base, add, min int) int {
	v := base
	if add >= 0 {
		v = base << uint(add)
	} else {
		v = base >> uint(-add)
	}
	if v < min {
		v = min
	}
	return v
}

// PageSim stands in for the page web graph (3.4B v, 129B e, 1.1TB,
// clustered by domain → good cache hit rates); the paper's 4GB cache is
// a sub-1% fraction, but domain locality keeps the hot set resident.
func PageSim(cfg Config) *Dataset {
	domains := scalePow2(256, cfg.ScaleAdd, 16)
	edges := gen.Clustered(gen.ClusteredConfig{
		Domains:        domains,
		DomainSize:     96,
		EdgesPerVertex: 12,
		IntraProb:      0.85,
		Seed:           303 + cfg.Seed,
	})
	return buildDataset(
		"page-sim", "Page web 3.4B v / 129B e / 1.1TB (domain-clustered)",
		0.01,
		edges, domains*96,
	)
}

// deviceParams is the scaled SSD model used by all experiments: the
// paper's array does ~900K 4KB reads/s over 15 SSDs; this one is scaled
// to match the ~1000x smaller datasets so the I/O:compute balance lands
// in the same regime.
func deviceParams(cfg Config) ssd.DeviceParams {
	return ssd.DeviceParams{
		RandOverhead: 40 * time.Microsecond,
		SeqOverhead:  2 * time.Microsecond,
		Bandwidth:    150 << 20,
		MaxAhead:     300 * time.Microsecond,
		Throttle:     !cfg.NoThrottle,
		// Only the chaos experiment's stores ever fail a transfer: a
		// handful of post-retry failures is already conclusive for a
		// device that fails every one, and trips fail-fast within its
		// short mix (the production default is 16).
		DegradeThreshold: 4,
	}
}

// arrayDevices is the simulated array's device count.
const arrayDevices = 4

// newFS builds a fresh throttled array + SAFS instance: the one
// substrate every experiment runs on. stores, when given, back the
// devices in place of plain memory (the chaos harness wraps some in
// fault injectors).
func newFS(cfg Config, cacheBytes int64, pageSize int, stores ...ssd.Store) (*safs.FS, *ssd.Array) {
	if stores == nil {
		stores = make([]ssd.Store, arrayDevices)
		for i := range stores {
			stores[i] = ssd.NewMemStore()
		}
	}
	arr := ssd.NewArrayWithStores(ssd.ArrayParams{
		StripeSize: 128 << 10,
		Device:     deviceParams(cfg),
	}, stores)
	fs := safs.New(arr, safs.Config{CacheBytes: cacheBytes, PageSize: pageSize})
	return fs, arr
}

// cacheBytesFor converts a fraction of the dataset's on-SSD size into a
// cache size, with a floor of 64 pages so tiny sweeps stay functional.
func cacheBytesFor(d *Dataset, frac float64, pageSize int) int64 {
	if pageSize == 0 {
		pageSize = 4096
	}
	b := int64(frac * float64(d.Img.DataSize()))
	if min := int64(64 * pageSize); b < min {
		b = min
	}
	return b
}
