package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"flashgraph/internal/algo"
	"flashgraph/internal/core"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
)

// registryFixture is one server over two in-memory graphs: "dir"
// (directed, unweighted) and "undir" (undirected, weighted) — enough
// surface to hit every capability combination the builtins declare.
func registryFixture(t *testing.T) *Server {
	t.Helper()
	build := func(directed bool, attrSize int) *core.Shared {
		var attr graph.AttrFunc
		if attrSize > 0 {
			attr = func(src, dst graph.VertexID, buf []byte) { buf[0], buf[1], buf[2], buf[3] = 1, 0, 0, 0 }
		}
		a := graph.FromEdges(1<<6, gen.RMAT(6, 4, 9), directed)
		a.Dedup()
		img := graph.BuildImage(a, attrSize, attr)
		sh, err := core.NewShared(img, core.Config{Threads: 1, InMemory: true, RangeShift: 2})
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	srv := New(build(true, 0), Config{DefaultGraph: "dir"})
	t.Cleanup(srv.Close)
	if err := srv.AddGraph("undir", build(false, 4)); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestRegistryValidationTable drives every builtin's capability and
// parameter error path through Validate — the central validator and
// the strict per-algorithm param decoding, in one table.
func TestRegistryValidationTable(t *testing.T) {
	srv := registryFixture(t)

	cases := []struct {
		name    string
		graph   string // "" = dir (default)
		algo    string
		params  string
		wantErr error  // errors.Is target (nil = any error unacceptable → expect success)
		wantMsg string // substring the error message must carry
	}{
		// Capability errors, checked centrally — no algorithm code runs.
		{"kcore on directed", "", "kcore", `{}`, ErrIncompatibleGraph, "undirected"},
		{"sssp on unweighted", "", "sssp", `{}`, ErrIncompatibleGraph, "weighted"},
		{"ppagerank on unweighted", "", "ppagerank", `{}`, ErrIncompatibleGraph, "weighted"},
		{"bfs src out of range", "", "bfs", `{"src":99999}`, ErrIncompatibleGraph, "outside graph"},
		{"bc src out of range", "", "bc", `{"src":64}`, ErrIncompatibleGraph, "outside graph"},
		{"sssp src out of range", "undir", "sssp", `{"src":70}`, ErrIncompatibleGraph, "outside graph"},
		{"ppagerank src out of range", "undir", "ppagerank", `{"src":70}`, ErrIncompatibleGraph, "outside graph"},

		// Parameter range errors, from the algorithms' constructors.
		{"pagerank negative iters", "", "pagerank", `{"iters":-5}`, ErrBadParam, "iters must be >= 0"},
		{"kcore negative k", "undir", "kcore", `{"k":-1}`, ErrBadParam, "k must be >= 0"},
		{"ppagerank negative iters", "undir", "ppagerank", `{"iters":-1}`, ErrBadParam, "iters must be >= 0"},
		{"ppagerank damping out of range", "undir", "ppagerank", `{"damping":1.5}`, ErrBadParam, "damping"},

		// Strict param decoding: unknown and mistyped fields name the
		// offender and list the accepted params.
		{"bfs unknown param", "", "bfs", `{"srcc":1}`, ErrBadParam, `unknown param "srcc"`},
		{"bfs unknown param lists accepted", "", "bfs", `{"srcc":1}`, ErrBadParam, "src (integer)"},
		{"bfs mistyped src", "", "bfs", `{"src":"zero"}`, ErrBadParam, `param "src"`},
		{"pagerank mistyped iters", "", "pagerank", `{"iters":"ten"}`, ErrBadParam, "iters (integer)"},
		{"wcc takes no params", "", "wcc", `{"src":0}`, ErrBadParam, "accepted params: none"},
		{"tc takes no params", "", "tc", `{"k":2}`, ErrBadParam, `unknown param "k"`},
		{"scanstat takes no params", "", "scanstat", `{"x":1}`, ErrBadParam, "accepted params: none"},

		// Unknown algorithms list what IS registered.
		{"unknown algorithm", "", "nope", ``, ErrUnknownAlgorithm, "bfs"},
		{"unknown algorithm full list", "", "nope", ``, ErrUnknownAlgorithm, "ppagerank"},

		// Valid requests across the capability matrix must pass.
		{"bfs ok", "", "bfs", `{"src":3}`, nil, ""},
		{"bfs empty params ok", "", "bfs", ``, nil, ""},
		{"bfs null params ok", "", "bfs", `null`, nil, ""},
		{"pagerank default iters ok", "", "pagerank", `{}`, nil, ""},
		{"kcore on undirected ok", "undir", "kcore", `{"k":2}`, nil, ""},
		{"sssp on weighted ok", "undir", "sssp", `{"src":1}`, nil, ""},
		{"ppagerank ok", "undir", "ppagerank", `{"src":1,"iters":5,"damping":0.9}`, nil, ""},
	}
	for _, tc := range cases {
		req := Request{Graph: tc.graph, Algo: tc.algo, Params: json.RawMessage(tc.params)}
		err := srv.Validate(req)
		if tc.wantErr == nil {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantMsg)
		}
	}
}

// TestRegisterRejectsBadSpecs covers duplicate-name, reserved-name,
// and malformed-spec registration errors, for the process default
// path and a server-local registry alike.
func TestRegisterRejectsBadSpecs(t *testing.T) {
	newAlg := func(raw json.RawMessage, g GraphMeta) (core.Program, error) {
		return &gatedAlg{}, nil
	}
	srv := registryFixture(t)

	// Duplicate of a builtin: rejected, listing the registered names.
	err := srv.Register(AlgorithmSpec{Name: "bfs", New: newAlg})
	if !errors.Is(err, ErrDuplicateAlgorithm) || !strings.Contains(err.Error(), "pagerank") {
		t.Fatalf("duplicate builtin: %v, want ErrDuplicateAlgorithm listing names", err)
	}
	// Duplicate of a custom registration.
	if err := srv.Register(AlgorithmSpec{Name: "mine", New: newAlg}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(AlgorithmSpec{Name: "mine", New: newAlg}); !errors.Is(err, ErrDuplicateAlgorithm) {
		t.Fatalf("duplicate custom: %v, want ErrDuplicateAlgorithm", err)
	}
	// Reserved and malformed names, nil constructor.
	for _, tc := range []struct {
		name string
		spec AlgorithmSpec
		want error
	}{
		{"reserved all", AlgorithmSpec{Name: "all", New: newAlg}, ErrReservedName},
		{"reserved default", AlgorithmSpec{Name: "default", New: newAlg}, ErrReservedName},
		{"empty name", AlgorithmSpec{New: newAlg}, ErrBadSpec},
		{"uppercase name", AlgorithmSpec{Name: "MyAlgo", New: newAlg}, ErrBadSpec},
		{"leading digit", AlgorithmSpec{Name: "1st", New: newAlg}, ErrBadSpec},
		{"space in name", AlgorithmSpec{Name: "my algo", New: newAlg}, ErrBadSpec},
		{"nil constructor", AlgorithmSpec{Name: "noctor"}, ErrBadSpec},
	} {
		if err := srv.Register(tc.spec); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}

	// Server-local registration must not leak into new servers (the
	// default registry is cloned, not shared).
	other := registryFixture(t)
	if err := other.Validate(Request{Algo: "mine"}); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("server-local registration leaked: %v", err)
	}
}

// TestCustomAlgorithmServedEndToEnd registers a spec with typed params
// and caps on one server and runs it through Submit/Wait/ResultSet —
// the same journey examples/custom takes over HTTP.
func TestCustomAlgorithmServedEndToEnd(t *testing.T) {
	srv := registryFixture(t)
	type touchParams struct {
		Rounds int `json:"rounds"`
	}
	if err := srv.Register(AlgorithmSpec{
		Name:   "touch",
		Doc:    "test: touches every vertex for rounds iterations",
		Params: touchParams{},
		New: func(raw json.RawMessage, g GraphMeta) (core.Program, error) {
			var p touchParams
			if err := DecodeParams(raw, &p); err != nil {
				return nil, err
			}
			if p.Rounds <= 0 {
				p.Rounds = 1
			}
			return &touchAlg{rounds: p.Rounds}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	// Listed by the registry introspection with its schema.
	var found *AlgoInfo
	for _, info := range srv.Algorithms() {
		if info.Name == "touch" {
			found = &info
			break
		}
	}
	if found == nil || len(found.Params) != 1 || found.Params[0].Name != "rounds" || found.Params[0].Type != "integer" {
		t.Fatalf("touch registry info = %+v", found)
	}

	id, err := srv.Submit(Request{Algo: "touch", Params: json.RawMessage(`{"rounds":3}`)})
	if err != nil {
		t.Fatal(err)
	}
	q, err := srv.Wait(id)
	if err != nil || q.State != StateDone {
		t.Fatalf("touch query: %v %v (%s)", q.State, err, q.Error)
	}
	rs, err := srv.ResultSet(id)
	if err != nil {
		t.Fatal(err)
	}
	if touched, _ := rs.Scalar("touched"); touched != 1<<6 {
		t.Fatalf("touched = %v, want %d", touched, 1<<6)
	}
	if rs.Checksum() == "" || q.Result["checksum"] == nil {
		t.Fatal("custom result must carry a checksum")
	}
	// Mistyped params on the custom algorithm fail like a builtin's.
	if _, err := srv.Submit(Request{Algo: "touch", Params: json.RawMessage(`{"rounds":"three"}`)}); !errors.Is(err, ErrBadParam) {
		t.Fatalf("mistyped custom param: %v, want ErrBadParam", err)
	}
}

// touchAlg counts vertices it runs on; a minimal ResultProducer.
type touchAlg struct {
	rounds  int
	touched []bool
}

func (a *touchAlg) MaxIterations() int { return a.rounds }
func (a *touchAlg) Init(eng core.ExecutionEngine) {
	a.touched = make([]bool, eng.NumVertices())
	eng.ActivateAllSeeds()
}
func (a *touchAlg) Run(ctx *core.Ctx, v graph.VertexID) {
	a.touched[v] = true
	if ctx.Iteration()+1 < a.rounds {
		ctx.Activate(v)
	}
}
func (a *touchAlg) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {}
func (a *touchAlg) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message)    {}
func (a *touchAlg) Result() *result.ResultSet {
	rs := result.New("touch")
	n := 0
	for _, b := range a.touched {
		if b {
			n++
		}
	}
	rs.AddScalar("touched", n)
	rs.AddBool("touched_vec", a.touched)
	return rs
}

// TestBuiltinsBitIdenticalToDirectRuns is the refactor's no-regression
// proof: every builtin, instantiated through the registry from raw
// JSON params, produces a ResultSet checksum bit-identical to the same
// algorithm constructed directly — the registry path changes nothing
// about the computation.
func TestBuiltinsBitIdenticalToDirectRuns(t *testing.T) {
	srv := registryFixture(t)
	cases := []struct {
		algo   string
		graph  string // "" = dir (directed unweighted), "undir" = undirected weighted
		params string
		direct core.Algorithm
	}{
		{"bfs", "", `{"src":3}`, algo.NewBFS(3)},
		{"pagerank", "", `{"iters":10}`, func() core.Algorithm { a := algo.NewPageRank(); a.Iters = 10; return a }()},
		{"wcc", "", ``, algo.NewWCC()},
		{"bc", "", `{"src":3}`, algo.NewBC(3)},
		{"tc", "", ``, algo.NewTC()},
		{"scanstat", "", ``, algo.NewScanStat()},
		{"kcore", "undir", `{"k":2}`, algo.NewKCore(2)},
		{"sssp", "undir", `{"src":1}`, algo.NewSSSP(1)},
		{"ppagerank", "undir", `{"src":1}`, algo.NewPPR(1)},
	}
	for _, tc := range cases {
		gname := tc.graph
		if gname == "" {
			gname = "dir"
		}
		sh, err := srv.Shared(gname)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sh.NewRun().Run(tc.direct); err != nil {
			t.Fatalf("%s direct run: %v", tc.algo, err)
		}
		want := result.From(tc.direct, tc.algo).Checksum()

		id, err := srv.Submit(Request{Graph: tc.graph, Algo: tc.algo, Params: json.RawMessage(tc.params)})
		if err != nil {
			t.Fatalf("%s submit: %v", tc.algo, err)
		}
		q, err := srv.Wait(id)
		if err != nil || q.State != StateDone {
			t.Fatalf("%s: %v %v (%s)", tc.algo, q.State, err, q.Error)
		}
		rs, err := srv.ResultSet(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := rs.Checksum(); got != want {
			t.Errorf("%s: registry-path checksum %s != direct-run checksum %s", tc.algo, got, want)
		}
	}
}

// TestDecodeParamsContract pins the decoding rules: zero/empty/null
// params, unknown fields, mismatches, and the accepted-params text.
func TestDecodeParamsContract(t *testing.T) {
	type p struct {
		Src   uint32  `json:"src"`
		Alpha float64 `json:"alpha"`
		Name  string  `json:"name"`
		On    bool    `json:"on"`
	}
	var got p
	if err := DecodeParams(nil, &got); err != nil {
		t.Fatal(err)
	}
	if err := DecodeParams(json.RawMessage(`  null `), &got); err != nil {
		t.Fatal(err)
	}
	if err := DecodeParams(json.RawMessage(`{"src":7,"alpha":0.5,"name":"x","on":true}`), &got); err != nil {
		t.Fatal(err)
	}
	if got.Src != 7 || got.Alpha != 0.5 || got.Name != "x" || !got.On {
		t.Fatalf("decoded %+v", got)
	}
	err := DecodeParams(json.RawMessage(`{"srcc":7}`), &p{})
	want := `unknown param "srcc" (accepted params: src (integer), alpha (number), name (string), on (boolean))`
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("unknown field error = %v, want mention of %q", err, want)
	}
	if err := DecodeParams(json.RawMessage(`{"alpha":"high"}`), &p{}); err == nil || !strings.Contains(err.Error(), `param "alpha"`) {
		t.Fatalf("type mismatch error = %v", err)
	}
	// Strictness includes the tail: a second value after the params
	// object must fail, not be silently dropped.
	if err := DecodeParams(json.RawMessage(`{"src":1} {"src":2}`), &p{}); !errors.Is(err, ErrBadParam) || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("trailing garbage error = %v", err)
	}
}

// TestParamSchemaMirrorsEncodingJSON pins the schema reflection to
// encoding/json's decoding rules: untagged embedded structs flatten,
// `-` hides, tags rename, and composite kinds get JSON type words —
// so GET /algos and the accepted-params error text always describe
// exactly what DecodeParams accepts.
func TestParamSchemaMirrorsEncodingJSON(t *testing.T) {
	type Common struct {
		Src uint32 `json:"src"`
	}
	type params struct {
		Common
		Extra  int      `json:"extra"`
		Hidden string   `json:"-"`
		Tags   []string `json:"tags"`
		Opts   struct{} `json:"opts"`
	}
	got := paramSchema(params{})
	want := []ParamInfo{
		{Name: "src", Type: "integer"},
		{Name: "extra", Type: "integer"},
		{Name: "tags", Type: "array"},
		{Name: "opts", Type: "object"},
	}
	if len(got) != len(want) {
		t.Fatalf("schema = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schema[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	// The embedded field decodes exactly as the schema promises.
	var p params
	if err := DecodeParams(json.RawMessage(`{"src":7,"extra":1,"tags":["a"]}`), &p); err != nil || p.Src != 7 {
		t.Fatalf("embedded decode: %+v, %v", p, err)
	}
	// And the error text lists the flattened names, not the Go type.
	err := DecodeParams(json.RawMessage(`{"bogus":1}`), &params{})
	if err == nil || !strings.Contains(err.Error(), "src (integer), extra (integer), tags (array), opts (object)") {
		t.Fatalf("accepted-params text = %v", err)
	}
}

// TestOversizedAttrsAreNotWeighted pins the weightedness predicate to
// exactly 4-byte attributes: AttrUint32 decodes only 4 bytes, so an
// 8-byte-attr image must fail sssp's capability check loudly instead
// of serving garbage weights.
func TestOversizedAttrsAreNotWeighted(t *testing.T) {
	a := graph.FromEdges(1<<5, gen.RMAT(5, 4, 3), true)
	a.Dedup()
	img := graph.BuildImage(a, 8, func(src, dst graph.VertexID, buf []byte) {})
	sh, err := core.NewShared(img, core.Config{Threads: 1, InMemory: true, RangeShift: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sh, Config{})
	t.Cleanup(srv.Close)
	if srv.Graphs()[0].Weighted {
		t.Fatal("8-byte-attr image reported as weighted")
	}
	if err := srv.Validate(Request{Algo: "sssp"}); !errors.Is(err, ErrIncompatibleGraph) {
		t.Fatalf("sssp on 8-byte-attr image: %v, want ErrIncompatibleGraph", err)
	}
}

// TestBuiltinParamErrors holds the ErrBadParam contract over all ten
// built-ins, whose constructors now share one decode-and-wrap helper:
// an unknown field, a mistyped field, trailing data and every
// out-of-range value name the offender and list exactly the params the
// algorithm accepts — "none" for the three that take no params.
func TestBuiltinParamErrors(t *testing.T) {
	const (
		src  = "src (integer)"
		iter = "iters (integer)"
	)
	accepted := map[string]string{
		"bfs": src, "bc": src, "sssp": src,
		"pagerank": iter, "labelprop": iter,
		"kcore":     "k (integer)",
		"ppagerank": src + ", " + iter + ", damping (number)",
		"wcc":       "none", "tc": "none", "scanstat": "none",
	}
	if got := Algorithms(); len(got) != len(accepted) {
		t.Fatalf("built-ins = %v, table covers %d", got, len(accepted))
	}
	outOfRange := map[string][][2]string{ // params -> message
		"pagerank":  {{`{"iters":-5}`, "iters must be >= 0, got -5"}},
		"labelprop": {{`{"iters":-1}`, "iters must be >= 0, got -1"}},
		"kcore":     {{`{"k":-1}`, "k must be >= 0, got -1"}},
		"ppagerank": {
			{`{"iters":-2}`, "iters must be >= 0, got -2"},
			{`{"damping":1}`, "damping must be in [0, 1), got 1"},
			{`{"damping":-0.5}`, "damping must be in [0, 1), got -0.5"},
			{`{"iters":-2,"damping":7}`, "iters must be >= 0, got -2"},
		},
	}
	for name, list := range accepted {
		spec, ok := DefaultSpec(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		cases := append([][2]string{
			{`{"zzz":1}`, `unknown param "zzz"`},
			{`{} {}`, "trailing data after params object"},
		}, outOfRange[name]...)
		if schema := paramSchema(spec.Params); len(schema) > 0 {
			first := schema[0]
			cases = append(cases, [2]string{
				fmt.Sprintf(`{%q:"x"}`, first.Name),
				fmt.Sprintf("param %q: cannot decode JSON string into %s", first.Name, first.Type),
			})
		}
		for _, c := range cases {
			prog, err := spec.New(json.RawMessage(c[0]), GraphMeta{})
			want := fmt.Sprintf("%v: %s (accepted params: %s)", ErrBadParam, c[1], list)
			if prog != nil || !errors.Is(err, ErrBadParam) || err.Error() != want {
				t.Errorf("%s %s:\n got  (%v, %v)\n want %s", name, c[0], prog, err, want)
			}
		}
		for _, ok := range []string{``, `null`, `{}`} {
			if prog, err := spec.New(json.RawMessage(ok), GraphMeta{}); err != nil || prog == nil {
				t.Errorf("%s with params %q: (%v, %v), want a program", name, ok, prog, err)
			}
		}
	}
}
