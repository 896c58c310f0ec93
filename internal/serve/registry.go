package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"

	"flashgraph/internal/algo"
	"flashgraph/internal/core"
	"flashgraph/internal/graph"
)

// This file is the algorithm registry: the open, capability-typed
// surface through which EVERY algorithm — the built-ins below and any
// user-defined vertex program — reaches the serving layer. An
// AlgorithmSpec names the algorithm, documents it, declares what it
// requires of the target graph (Caps, checked by ONE central
// validator), and constructs a fresh instance per query from typed
// per-algorithm parameters decoded strictly out of the request's raw
// JSON. The public flashgraph package aliases these types and
// functions verbatim, so the built-ins registered here travel through
// the identical path an external user's algorithm does.

// Registration and validation errors.
var (
	// ErrUnknownAlgorithm reports a Request.Algo not in the registry.
	// The message lists the registered names.
	ErrUnknownAlgorithm = errors.New("serve: unknown algorithm")
	// ErrDuplicateAlgorithm rejects Register for a name already taken.
	ErrDuplicateAlgorithm = errors.New("serve: algorithm already registered")
	// ErrReservedName rejects Register for names the serving surface
	// reserves for itself.
	ErrReservedName = errors.New("serve: reserved algorithm name")
	// ErrBadSpec rejects a structurally invalid AlgorithmSpec (empty or
	// malformed name, nil constructor).
	ErrBadSpec = errors.New("serve: invalid algorithm spec")
	// ErrBadParam reports a params object the algorithm does not accept:
	// an unknown field, a type mismatch, or a value out of range. The
	// message names the offending field and the accepted parameters.
	ErrBadParam = errors.New("serve: bad algorithm params")
	// ErrIncompatibleGraph reports a capability the target graph lacks
	// (kcore on a directed graph, sssp on an unweighted image, a source
	// vertex outside the graph).
	ErrIncompatibleGraph = errors.New("serve: algorithm incompatible with graph")
)

// Caps declares what an algorithm requires of the graph it runs on.
// The registry's central validator checks every requirement against
// the target image before the algorithm is constructed — individual
// algorithms carry no capability-checking code.
type Caps struct {
	// RequiresUndirected rejects directed images (e.g. kcore, whose
	// degree-peeling is defined on undirected graphs).
	RequiresUndirected bool `json:"requires_undirected,omitempty"`
	// RequiresWeighted rejects images without 4-byte edge attributes
	// (e.g. sssp, which reads per-edge weights).
	RequiresWeighted bool `json:"requires_weighted,omitempty"`
	// NeedsSrc declares a "src" parameter naming a source vertex; the
	// validator range-checks it against the image's vertex count
	// (missing src defaults to vertex 0).
	NeedsSrc bool `json:"needs_src,omitempty"`
	// SupportsSpMV declares that the spec's constructor returns a
	// program that also implements core.SpMVProgram: the server then
	// runs it on the streaming SpMV engine by default (the ?engine=
	// override picks explicitly), and block-encoded graphs become
	// servable for it.
	SupportsSpMV bool `json:"supports_spmv,omitempty"`
}

// check is the central capability validator: one place where every
// requirement any algorithm can declare is tested against the target
// graph. params is consulted only for NeedsSrc (a lenient peek at the
// "src" field; full strict decoding is the constructor's job).
func (c Caps) check(meta GraphMeta, params json.RawMessage) error {
	if c.RequiresUndirected && meta.Directed {
		return fmt.Errorf("%w: requires an undirected graph, but %q is directed", ErrIncompatibleGraph, meta.Name)
	}
	if c.RequiresWeighted && !meta.Weighted {
		return fmt.Errorf("%w: requires a weighted graph image (4-byte edge attributes), but %q is unweighted", ErrIncompatibleGraph, meta.Name)
	}
	if c.NeedsSrc {
		var p struct {
			Src graph.VertexID `json:"src"`
		}
		// Lenient decode: unknown fields and type mismatches are the
		// constructor's strict decoder's business; a failed peek leaves
		// src at its default and defers the error to that better message.
		if len(params) > 0 {
			_ = json.Unmarshal(params, &p)
		}
		if int(p.Src) >= meta.Vertices {
			return fmt.Errorf("%w: source vertex %d outside graph %q of %d vertices", ErrIncompatibleGraph, p.Src, meta.Name, meta.Vertices)
		}
	}
	return nil
}

// GraphMeta describes the target image an algorithm instance is being
// built for — everything a constructor or the capability validator may
// inspect without touching engine internals.
type GraphMeta struct {
	// Name is the graph's catalog name.
	Name string `json:"name"`
	// Vertices and Edges are the image's counts.
	Vertices int   `json:"vertices"`
	Edges    int64 `json:"edges"`
	// Directed reports separate in-/out-edge lists.
	Directed bool `json:"directed"`
	// Weighted reports 4-byte per-edge attributes.
	Weighted bool `json:"weighted"`
	// Encoding names the image's on-SSD edge-list layout ("raw",
	// "delta", or "block").
	Encoding string `json:"encoding"`
}

// metaOf projects an image into the metadata constructors see.
func metaOf(name string, img *graph.Image) GraphMeta {
	return GraphMeta{
		Name:     name,
		Vertices: img.NumV,
		Edges:    img.NumEdges,
		Directed: img.Directed,
		Weighted: img.Weighted(),
		Encoding: img.Encoding.String(),
	}
}

// AlgorithmSpec describes one servable algorithm: the unit of
// registration for built-ins and custom vertex programs alike.
type AlgorithmSpec struct {
	// Name is the request routing key (lowercase; [a-z0-9_-], starting
	// with a letter).
	Name string
	// Doc is a one-line description served by GET /algos.
	Doc string
	// Caps declares graph requirements checked centrally before New
	// runs.
	Caps Caps
	// Params is a zero-value prototype of the typed parameter struct
	// New decodes (nil = the algorithm takes no parameters). It drives
	// the param schema in GET /algos and the accepted-params error
	// text; it is never mutated.
	Params any
	// New builds a fresh program instance for one query, decoding its
	// typed parameters from the request's raw params JSON (use
	// DecodeParams for strict field checking). The returned Program
	// must implement core.Algorithm (and additionally core.SpMVProgram
	// when Caps.SupportsSpMV is set — one value, two executable forms).
	// Instances are query-private: algorithm state belongs to a single
	// run.
	New func(params json.RawMessage, g GraphMeta) (core.Program, error)
}

// validate checks the spec's shape at registration time.
func (s AlgorithmSpec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadSpec)
	}
	for i, r := range s.Name {
		ok := r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' || r == '-'
		if i == 0 {
			ok = r >= 'a' && r <= 'z'
		}
		if !ok {
			return fmt.Errorf("%w: name %q (want lowercase [a-z][a-z0-9_-]*)", ErrBadSpec, s.Name)
		}
	}
	if s.New == nil {
		return fmt.Errorf("%w: %q has a nil constructor", ErrBadSpec, s.Name)
	}
	return nil
}

// reservedNames are claimed by the serving surface (CLI mix keywords
// and request routing words) and cannot name algorithms.
var reservedNames = map[string]bool{"all": true, "none": true, "default": true}

// ParamInfo describes one accepted parameter of an algorithm — the
// GET /algos param schema entry. Doc and Default come from the params
// prototype's `doc:` and `default:` struct tags.
type ParamInfo struct {
	Name string `json:"name"`
	Type string `json:"type"`
	// Doc is the parameter's one-line description (`doc:` tag).
	Doc string `json:"doc,omitempty"`
	// Default is the value the algorithm uses when the parameter is
	// absent (`default:` tag, parsed to the field's JSON type; nil =
	// no declared default).
	Default any `json:"default,omitempty"`
}

// AlgoInfo is one registry entry as served by GET /algos.
type AlgoInfo struct {
	Name   string      `json:"name"`
	Doc    string      `json:"doc,omitempty"`
	Caps   Caps        `json:"caps"`
	Params []ParamInfo `json:"params"`
}

// Registry maps algorithm names to specs. A Server owns a private
// Registry seeded from the package default, so per-server Register
// calls never leak across servers.
type Registry struct {
	mu    sync.RWMutex
	specs map[string]AlgorithmSpec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{specs: map[string]AlgorithmSpec{}}
}

// Register adds spec, rejecting invalid specs, reserved names, and
// duplicates (the duplicate error lists what is already registered).
func (r *Registry) Register(spec AlgorithmSpec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	if reservedNames[spec.Name] {
		return fmt.Errorf("%w: %q", ErrReservedName, spec.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.specs[spec.Name]; dup {
		return fmt.Errorf("%w: %q (registered: %s)", ErrDuplicateAlgorithm, spec.Name, strings.Join(r.namesLocked(), ", "))
	}
	r.specs[spec.Name] = spec
	return nil
}

// Clone returns an independent copy; later registrations on either
// side do not affect the other.
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := NewRegistry()
	for n, s := range r.specs {
		c.specs[n] = s
	}
	return c
}

// Names lists the registered algorithm names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.namesLocked()
}

func (r *Registry) namesLocked() []string {
	names := make([]string, 0, len(r.specs))
	for n := range r.specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Spec returns the named spec.
func (r *Registry) Spec(name string) (AlgorithmSpec, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.specs[name]
	return s, ok
}

// Infos describes every registered algorithm (name, doc, caps, param
// schema), sorted by name — the GET /algos payload.
func (r *Registry) Infos() []AlgoInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]AlgoInfo, 0, len(r.specs))
	for _, name := range r.namesLocked() {
		s := r.specs[name]
		out = append(out, AlgoInfo{Name: s.Name, Doc: s.Doc, Caps: s.Caps, Params: paramSchema(s.Params)})
	}
	return out
}

// build resolves and validates req against meta, then constructs the
// program instance: the one path every query takes, builtin or custom.
func (r *Registry) build(req Request, meta GraphMeta) (core.Program, error) {
	spec, ok := r.Spec(req.Algo)
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %s)", ErrUnknownAlgorithm, req.Algo, strings.Join(r.Names(), ", "))
	}
	if err := spec.Caps.check(meta, req.Params); err != nil {
		return nil, fmt.Errorf("%s: %w", req.Algo, err)
	}
	alg, err := spec.New(req.Params, meta)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", req.Algo, err)
	}
	if alg == nil {
		return nil, fmt.Errorf("%s: %w: constructor returned no algorithm", req.Algo, ErrBadSpec)
	}
	return alg, nil
}

// DecodeParams strictly decodes a request's raw params JSON into the
// algorithm's typed parameter struct (a pointer). Unknown fields and
// type mismatches fail with an error naming the offending field and
// listing the parameters the algorithm accepts; empty, "null", and
// absent params decode to the zero value. This extends the HTTP
// layer's top-level DisallowUnknownFields check down into each
// algorithm's own params.
func DecodeParams(raw json.RawMessage, into any) error {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 || bytes.Equal(trimmed, []byte("null")) {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return paramError(err, into)
	}
	// Strictness includes the tail: Decode stops after one JSON value,
	// so `{"iters":5} garbage` would otherwise pass.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: trailing data after params object (accepted params: %s)", ErrBadParam, acceptedParams(into))
	}
	return nil
}

// paramError converts encoding/json failures into the package's
// accepted-params error contract.
func paramError(err error, into any) error {
	accepted := acceptedParams(into)
	var typeErr *json.UnmarshalTypeError
	if errors.As(err, &typeErr) && typeErr.Field != "" {
		return fmt.Errorf("%w: param %q: cannot decode JSON %s into %s (accepted params: %s)",
			ErrBadParam, typeErr.Field, typeErr.Value, jsonTypeName(typeErr.Type), accepted)
	}
	// encoding/json reports unknown fields only through the message
	// text; surface the field name it quotes.
	if msg := err.Error(); strings.Contains(msg, "unknown field") {
		field := msg
		if i := strings.IndexByte(msg, '"'); i >= 0 {
			field = strings.Trim(msg[i:], `"`)
		}
		return fmt.Errorf("%w: unknown param %q (accepted params: %s)", ErrBadParam, field, accepted)
	}
	return fmt.Errorf("%w: %v (accepted params: %s)", ErrBadParam, err, accepted)
}

// acceptedParams renders a params prototype's fields as
// `name (type), ...` for error messages.
func acceptedParams(proto any) string {
	schema := paramSchema(proto)
	if len(schema) == 0 {
		return "none"
	}
	parts := make([]string, len(schema))
	for i, p := range schema {
		parts[i] = fmt.Sprintf("%s (%s)", p.Name, p.Type)
	}
	return strings.Join(parts, ", ")
}

// paramSchema reflects a params prototype (struct or pointer to one;
// nil = no params) into the GET /algos schema, following
// encoding/json's field rules: json tags name fields, `-` hides them,
// and untagged embedded structs are flattened.
func paramSchema(proto any) []ParamInfo {
	if proto == nil {
		return []ParamInfo{}
	}
	t := reflect.TypeOf(proto)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		return []ParamInfo{}
	}
	return appendParamFields(t, make([]ParamInfo, 0, t.NumField()))
}

func appendParamFields(t reflect.Type, out []ParamInfo) []ParamInfo {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if tag == "-" {
			continue
		}
		ft := f.Type
		for ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		// An untagged embedded struct's fields are promoted into the
		// parent object by encoding/json — mirror that flattening.
		if f.Anonymous && tag == "" && ft.Kind() == reflect.Struct {
			out = appendParamFields(ft, out)
			continue
		}
		if f.PkgPath != "" { // unexported
			continue
		}
		name := f.Name
		if tag != "" {
			name = tag
		}
		out = append(out, ParamInfo{
			Name:    name,
			Type:    jsonTypeName(ft),
			Doc:     f.Tag.Get("doc"),
			Default: parseDefaultTag(f.Tag.Get("default"), ft),
		})
	}
	return out
}

// parseDefaultTag converts a `default:` tag into the field's JSON-typed
// value. An absent tag or one that does not parse yields nil (no
// declared default) rather than an error — the tag is documentation.
func parseDefaultTag(tag string, ft reflect.Type) any {
	if tag == "" {
		return nil
	}
	switch jsonTypeName(ft) {
	case "integer":
		if v, err := strconv.ParseInt(tag, 10, 64); err == nil {
			return v
		}
	case "number":
		if v, err := strconv.ParseFloat(tag, 64); err == nil {
			return v
		}
	case "boolean":
		if v, err := strconv.ParseBool(tag); err == nil {
			return v
		}
	case "string":
		return tag
	}
	return nil
}

// jsonTypeName maps a Go type onto the JSON type word used in schemas
// and error messages.
func jsonTypeName(t reflect.Type) string {
	if t == nil {
		return "unknown"
	}
	switch t.Kind() {
	case reflect.Bool:
		return "boolean"
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return "integer"
	case reflect.Float32, reflect.Float64:
		return "number"
	case reflect.String:
		return "string"
	case reflect.Slice, reflect.Array:
		return "array"
	case reflect.Map, reflect.Struct:
		return "object"
	case reflect.Interface:
		return "any"
	default:
		return t.String() // func/chan etc.: undecodable anyway
	}
}

// MarshalParams renders a typed params value as the raw JSON a Request
// carries — the inverse of DecodeParams for programmatic submitters.
func MarshalParams(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: unmarshalable params %T: %v", v, err))
	}
	return b
}

// defaultRegistry holds the built-ins plus everything registered
// through the package-level Register — the path the public flashgraph
// package exposes. Servers clone it at construction.
var defaultRegistry = NewRegistry()

// Register adds an algorithm to the default registry, picked up by
// every Server constructed afterwards. It is how the built-ins below
// register themselves and how library users publish custom vertex
// programs process-wide; use Server.Register for a single server.
func Register(spec AlgorithmSpec) error {
	return defaultRegistry.Register(spec)
}

// Algorithms lists the default registry's algorithm names (sorted).
func Algorithms() []string {
	return defaultRegistry.Names()
}

// DefaultAlgorithms describes the default registry's algorithms.
func DefaultAlgorithms() []AlgoInfo {
	return defaultRegistry.Infos()
}

// DefaultSpec returns a spec from the default registry, so a caller can
// derive one from a built-in (the ledger's traced bfs / pagerank twins).
func DefaultSpec(name string) (AlgorithmSpec, bool) {
	return defaultRegistry.Spec(name)
}

// builtin registers one stock algorithm whose params decode into P. It
// owns what every built-in constructor shares: the strict DecodeParams
// call, and the ErrBadParam wrapping (with the accepted-params list) of
// whatever build finds out of range.
func builtin[P any](name, doc string, caps Caps, build func(P) (core.Program, error)) {
	var proto P
	err := Register(AlgorithmSpec{
		Name: name, Doc: doc, Caps: caps, Params: proto,
		New: func(raw json.RawMessage, _ GraphMeta) (core.Program, error) {
			var p P
			if err := DecodeParams(raw, &p); err != nil {
				return nil, err
			}
			prog, err := build(p)
			if err != nil {
				return nil, fmt.Errorf("%w: %v (accepted params: %s)", ErrBadParam, err, acceptedParams(proto))
			}
			return prog, nil
		},
	})
	if err != nil {
		panic(err)
	}
}

// setIters applies a request's iteration cap to an iterative built-in:
// 0 keeps the algorithm's default, a negative cap is out of range.
func setIters(dst *int, iters int) error {
	if iters < 0 {
		return fmt.Errorf("iters must be >= 0, got %d", iters)
	}
	if iters > 0 {
		*dst = iters
	}
	return nil
}

// Typed parameter structs of the built-in algorithms. Exported so the
// schemas appear in godoc and programmatic submitters can marshal them
// (Request.Params = MarshalParams(SrcParams{Src: 3})).
type (
	// SrcParams parameterizes single-source traversals (bfs, bc).
	SrcParams struct {
		// Src is the source vertex (default 0).
		Src graph.VertexID `json:"src" doc:"source vertex" default:"0"`
	}
	// PageRankParams parameterizes pagerank.
	PageRankParams struct {
		// Iters caps iterations (0 = algorithm default 30).
		Iters int `json:"iters" doc:"iteration cap (0 = algorithm default)" default:"30"`
	}
	// KCoreParams parameterizes kcore.
	KCoreParams struct {
		// K is the core threshold (0 = default 3).
		K int `json:"k" doc:"core threshold (0 = algorithm default)" default:"3"`
	}
	// PPRParams parameterizes ppagerank (personalized PageRank).
	PPRParams struct {
		// Src is the restart vertex (default 0).
		Src graph.VertexID `json:"src" doc:"restart vertex of the random walk" default:"0"`
		// Iters caps iterations (0 = algorithm default 30).
		Iters int `json:"iters" doc:"iteration cap (0 = algorithm default)" default:"30"`
		// Damping is the walk-continuation probability in (0, 1)
		// (0 = default 0.85).
		Damping float64 `json:"damping" doc:"walk-continuation probability in [0, 1) (0 = algorithm default)" default:"0.85"`
	}
	// LabelPropParams parameterizes labelprop.
	LabelPropParams struct {
		// Iters caps iterations (0 = algorithm default 10).
		Iters int `json:"iters" doc:"iteration cap (0 = algorithm default)" default:"10"`
	}
)

// The eight stock FlashGraph algorithms plus ppagerank and labelprop,
// registered through the exact public path custom algorithms use — the
// registry has no privileged backdoor.
func init() {
	builtin("bfs", "breadth-first search from src over out-edges; level vector (-1 = unreached) + reached scalar",
		Caps{NeedsSrc: true}, func(p SrcParams) (core.Program, error) { return algo.NewBFS(p.Src), nil })
	builtin("pagerank", "delta-based PageRank (damping 0.85); score vector",
		Caps{SupportsSpMV: true}, func(p PageRankParams) (core.Program, error) {
			a := algo.NewPageRank()
			return a, setIters(&a.Iters, p.Iters)
		})
	builtin("wcc", "weakly connected components by label propagation; component vector + components scalar",
		Caps{SupportsSpMV: true}, func(struct{}) (core.Program, error) { return algo.NewWCC(), nil })
	builtin("labelprop", "synchronous label-propagation community detection; label vector + communities scalar",
		Caps{SupportsSpMV: true}, func(p LabelPropParams) (core.Program, error) {
			a := algo.NewLabelProp()
			return a, setIters(&a.Iters, p.Iters)
		})
	builtin("bc", "single-source Brandes betweenness centrality from src; centrality vector",
		Caps{NeedsSrc: true}, func(p SrcParams) (core.Program, error) { return algo.NewBC(p.Src), nil })
	builtin("tc", "triangle counting by neighborhood intersection; triangles scalar (distinct triangles in the graph)",
		Caps{}, func(struct{}) (core.Program, error) { return algo.NewTC(), nil })
	builtin("kcore", "k-core decomposition by degree peeling; in-core 0/1 vector + core size scalar",
		Caps{RequiresUndirected: true}, func(p KCoreParams) (core.Program, error) {
			if p.K < 0 {
				return nil, fmt.Errorf("k must be >= 0, got %d", p.K)
			}
			if p.K == 0 {
				p.K = 3
			}
			return algo.NewKCore(p.K), nil
		})
	builtin("sssp", "single-source shortest paths over uint32 edge weights from src; distance vector + reached scalar",
		Caps{NeedsSrc: true, RequiresWeighted: true}, func(p SrcParams) (core.Program, error) { return algo.NewSSSP(p.Src), nil })
	builtin("scanstat", "maximum locality statistic (scan statistics); max + argmax scalars (argmax = smallest vertex achieving max)",
		Caps{}, func(struct{}) (core.Program, error) { return algo.NewScanStat(), nil })
	builtin("ppagerank", "personalized PageRank: random walk with restart at src, transition probabilities proportional to edge weights; score vector",
		Caps{NeedsSrc: true, RequiresWeighted: true}, func(p PPRParams) (core.Program, error) {
			a := algo.NewPPR(p.Src)
			if err := setIters(&a.Iters, p.Iters); err != nil {
				return nil, err
			}
			if p.Damping < 0 || p.Damping >= 1 {
				return nil, fmt.Errorf("damping must be in [0, 1), got %v", p.Damping)
			}
			if p.Damping > 0 {
				a.Damping = p.Damping
			}
			return a, nil
		})
}
