package serve

// The front of the query path: the request schema and what Submit
// resolves before admission — the target graph, the program instance,
// the engine, the priority class and the canonical params.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"flashgraph/internal/core"
	"flashgraph/internal/qos"
)

// RequestVersion is the current request schema version. Version 0
// (field omitted) is treated as 1. There is NO compatibility path for
// the pre-versioning flat request shape: legacy bodies with top-level
// src/k/iters are rejected by the HTTP layer's strict decoding.
const RequestVersion = 1

// Request names a graph, an algorithm, and its typed parameters.
type Request struct {
	// Version is the request schema version (0 or 1 today).
	Version int `json:"version,omitempty"`
	// Graph routes the query to a named graph in the server's catalog;
	// empty means the default graph.
	Graph string `json:"graph,omitempty"`
	// Algo selects the algorithm by its registered name (GET /algos
	// lists the server's registry).
	Algo string `json:"algo"`
	// Params carries the algorithm's own typed parameters as raw JSON;
	// the algorithm's constructor decodes them strictly (unknown or
	// mistyped fields are rejected with the accepted-params list).
	Params json.RawMessage `json:"params,omitempty"`
	// Engine checks the execution engine, which the graph's layout picks
	// (core.Shared.Kind): "spmv" on block graphs, "vertex" on raw and
	// delta. Empty accepts the graph's engine; naming the other fails
	// with ErrIncompatibleGraph.
	Engine string `json:"engine,omitempty"`
	// Tenant attributes the query to a tenant for quota accounting and
	// stats. The HTTP layer fills it from the X-Tenant header when the
	// body leaves it empty. Empty is the anonymous tenant (one shared
	// bucket).
	Tenant string `json:"tenant,omitempty"`
	// Class overrides the inferred priority class: "interactive",
	// "analytic", or "batch". Empty infers from the algorithm's
	// capabilities and effective parameters (qos.InferClass). The HTTP
	// layer also accepts ?class= on POST /queries.
	Class string `json:"class,omitempty"`
	// TimeoutMs bounds the query's execution time in milliseconds
	// (0 = unbounded). The deadline starts when the query is dispatched
	// to an engine — queue wait does not count — and is enforced at
	// iteration/stripe boundaries, so a runaway query stops at the next
	// quiescent point, fails with a deadline error, and reports 504 over
	// HTTP while the server keeps serving its siblings.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// Validate checks the request's shape — version, algorithm presence,
// and the class override — independent of any graph. Capability
// checks run in the registry's central validator and parameter
// decoding in the algorithm's constructor, both at submit time.
func (r Request) Validate() error {
	if r.Version < 0 || r.Version > RequestVersion {
		return fmt.Errorf("serve: unsupported request version %d (max %d)", r.Version, RequestVersion)
	}
	if r.Algo == "" {
		return fmt.Errorf("serve: request missing algo")
	}
	if r.Class != "" {
		if _, err := qos.ParseClass(r.Class); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	if r.TimeoutMs < 0 {
		return fmt.Errorf("serve: negative timeout_ms %d", r.TimeoutMs)
	}
	return nil
}

// prepare validates req end to end — schema, graph, algorithm,
// capabilities and parameters against the target image, and that the
// graph's engine runs the algorithm — builds the program instance
// through the registry, and classifies it into a priority class.
func (s *Server) prepare(req Request) (core.Program, *core.Shared, qos.Class, error) {
	if err := req.Validate(); err != nil {
		return nil, nil, "", err
	}
	name := req.Graph
	if name == "" {
		name = s.cfg.DefaultGraph
	}
	shared, err := s.Shared(name)
	if err != nil {
		return nil, nil, "", err
	}
	prog, err := s.reg.build(req, metaOf(name, shared.Image()))
	if err != nil {
		return nil, nil, "", err
	}
	spec, _ := s.reg.Spec(req.Algo) // build above proved it exists
	if err := checkEngine(req, spec, shared); err != nil {
		return nil, nil, "", err
	}
	return prog, shared, classify(req, spec), nil
}

// classify resolves a request's priority class: the explicit override
// when present (Validate proved it parses), else inference from the
// algorithm's declared capabilities and its effective iteration count.
func classify(req Request, spec AlgorithmSpec) qos.Class {
	if req.Class != "" {
		c, _ := qos.ParseClass(req.Class)
		return c
	}
	return qos.InferClass(spec.Caps.NeedsSrc, effectiveIters(spec, req.Params))
}

// effectiveIters returns the iteration count a request will actually
// run: the "iters" param when set, else the algorithm's declared
// default (the `default:` tag surfaced in its param schema), else 0
// (not an iterative algorithm). The peek is lenient like Caps.check's
// src peek — strict decoding stays the constructor's job.
func effectiveIters(spec AlgorithmSpec, params json.RawMessage) int {
	var p struct {
		Iters int `json:"iters"`
	}
	if len(params) > 0 {
		_ = json.Unmarshal(params, &p)
	}
	if p.Iters > 0 {
		return p.Iters
	}
	for _, pi := range paramSchema(spec.Params) {
		if pi.Name == "iters" {
			if d, ok := pi.Default.(int64); ok {
				return int(d)
			}
		}
	}
	return 0
}

// canonicalParams renders raw params JSON in canonical form (compact,
// sorted keys) for the cache key, so field order and whitespace do not
// split identical requests. Empty and "null" both canonicalize to "".
func canonicalParams(raw json.RawMessage) string {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 || bytes.Equal(trimmed, []byte("null")) {
		return ""
	}
	var v any
	if err := json.Unmarshal(trimmed, &v); err != nil {
		return string(trimmed) // prepare validated it; defensive fallback
	}
	b, err := json.Marshal(v) // object keys marshal sorted
	if err != nil {
		return string(trimmed)
	}
	return string(b)
}

// checkEngine holds a query to the graph's engine, which the graph's
// layout picks (core.Shared.Kind): SpMV on block images, vertex on raw
// and delta. A query that engine cannot run fails here, at submit time,
// with ErrIncompatibleGraph: Request.Engine naming the other engine, or
// an algorithm without an SpMV form (Caps.SupportsSpMV unset) on a
// block graph.
func checkEngine(req Request, spec AlgorithmSpec, shared *core.Shared) error {
	kind, enc := shared.Kind(), shared.Image().Encoding
	if req.Engine != "" && req.Engine != string(kind) {
		return fmt.Errorf("%w: %s graphs run on the %s engine, not %q", ErrIncompatibleGraph, enc, kind, req.Engine)
	}
	if kind == core.EngineSpMV && !spec.Caps.SupportsSpMV {
		return fmt.Errorf("%w: %s graphs run on the SpMV engine, and algorithm %q has no SpMV form (Caps.SupportsSpMV is unset)", ErrIncompatibleGraph, enc, req.Algo)
	}
	return nil
}

// Validate reports whether req could be submitted — the schema is
// valid, the graph and algorithm exist, and the parameters are
// compatible with that graph — without admitting anything. Drivers use
// it to reject a bad workload before generating load.
func (s *Server) Validate(req Request) error {
	_, _, _, err := s.prepare(req)
	return err
}
