package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"flashgraph/internal/pagecache"
	"flashgraph/internal/qos"
	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
)

// Handler builds the fg-serve HTTP API over a Server. It lives here —
// not in cmd/fg-serve — so the full surface is testable with httptest
// and reusable by embedders.
//
//	POST /queries                        submit {"version":1,"graph":"g","algo":"bfs","params":{"src":0}}
//	GET  /queries                        list all queries
//	GET  /queries/{id}                   one query (?wait=1 blocks until finished)
//	DELETE /queries/{id}                 cancel: queued queries leave the queue, running ones stop at the next boundary
//	GET  /queries/{id}/result            typed result summary (scalars, vector metadata, checksum)
//	GET  /queries/{id}/result/lookup     point lookup: ?vertex=V[&vector=name]
//	GET  /queries/{id}/result/topk       paginated top-K: ?k=K[&offset=N][&vector=name]
//	GET  /queries/{id}/result/histogram  ?bins=B[&vector=name]
//	GET  /graphs                         the catalog of served graphs
//	GET  /algos                          the algorithm registry: name, doc, caps, param schema
//	GET  /stats                          scheduler + substrate counters
//	GET  /healthz                        liveness + per-device health (degraded SSDs, I/O errors, retries)
//	GET  /readyz                         readiness: 503 while draining, 200 otherwise
func Handler(s *Server) http.Handler {
	const maxRequestBytes = 64 << 10

	mux := http.NewServeMux()

	mux.HandleFunc("POST /queries", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		// A request is a name and a small params object, and Params is
		// retained in the query record and the store key: bound the body.
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		dec.DisallowUnknownFields() // part of request validation: typos fail loudly
		err := dec.Decode(&req)
		if err == nil {
			// Strict to the end, like DecodeParams: one object, then EOF.
			if _, tail := dec.Token(); tail == nil {
				err = errors.New("trailing data after the request object")
			} else if !errors.Is(tail, io.EOF) {
				err = fmt.Errorf("trailing data after the request object: %w", tail)
			}
		}
		if err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			httpError(w, status, fmt.Sprintf("bad request body: %v", err))
			return
		}
		if eng := r.URL.Query().Get("engine"); eng != "" {
			req.Engine = eng // ?engine= overrides the body and the Caps default
		}
		if cl := r.URL.Query().Get("class"); cl != "" {
			req.Class = cl // ?class= overrides the body and the inferred class
		}
		if req.Tenant == "" {
			req.Tenant = r.Header.Get("X-Tenant")
		}
		id, err := s.Submit(req)
		if err != nil {
			var qe *qos.QuotaError
			if errors.As(err, &qe) {
				w.Header().Set("Retry-After", strconv.Itoa(qe.RetryAfterSeconds()))
			}
			httpError(w, statusFor(err), err.Error())
			return
		}
		q, ok := s.Get(id)
		if !ok {
			// Finished and already evicted from history between Submit
			// and here (tiny MaxHistory under load): the id is still
			// the authoritative handle.
			writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "state": "evicted"})
			return
		}
		writeJSON(w, http.StatusAccepted, q)
	})

	mux.HandleFunc("GET /queries", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})

	mux.HandleFunc("GET /queries/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := queryID(w, r)
		if !ok {
			return
		}
		if r.URL.Query().Get("wait") != "" {
			q, err := s.Wait(id)
			if err != nil {
				httpError(w, statusFor(err), err.Error())
				return
			}
			writeQuery(w, q)
			return
		}
		q, ok := s.Get(id)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown query id")
			return
		}
		writeQuery(w, q)
	})

	mux.HandleFunc("DELETE /queries/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := queryID(w, r)
		if !ok {
			return
		}
		if err := s.Cancel(id); err != nil {
			httpError(w, statusFor(err), err.Error())
			return
		}
		if q, ok := s.Get(id); ok {
			writeJSON(w, http.StatusOK, q)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "state": "evicted"})
	})

	mux.HandleFunc("GET /queries/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		id, ok := queryID(w, r)
		if !ok {
			return
		}
		q, ok := s.Get(id)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown query id")
			return
		}
		if q.State != StateDone {
			httpError(w, statusFor(ErrNotFinished), fmt.Sprintf("query %d is %s", id, q.State))
			return
		}
		writeJSON(w, http.StatusOK, q.Result)
	})

	mux.HandleFunc("GET /queries/{id}/result/lookup", func(w http.ResponseWriter, r *http.Request) {
		id, ok := queryID(w, r)
		if !ok {
			return
		}
		vertex, err := strconv.Atoi(r.URL.Query().Get("vertex"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "lookup needs ?vertex=<id>")
			return
		}
		e, err := s.Lookup(id, r.URL.Query().Get("vector"), vertex)
		if err != nil {
			httpError(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, e)
	})

	mux.HandleFunc("GET /queries/{id}/result/topk", func(w http.ResponseWriter, r *http.Request) {
		id, ok := queryID(w, r)
		if !ok {
			return
		}
		k, err := strconv.Atoi(r.URL.Query().Get("k"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "topk needs ?k=<count>")
			return
		}
		offset := 0
		if o := r.URL.Query().Get("offset"); o != "" {
			if offset, err = strconv.Atoi(o); err != nil {
				httpError(w, http.StatusBadRequest, "bad offset")
				return
			}
		}
		vector := r.URL.Query().Get("vector")
		entries, err := s.TopK(id, vector, k, offset)
		if err != nil {
			httpError(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"k": k, "offset": offset, "entries": entries,
		})
	})

	mux.HandleFunc("GET /queries/{id}/result/histogram", func(w http.ResponseWriter, r *http.Request) {
		id, ok := queryID(w, r)
		if !ok {
			return
		}
		bins, err := strconv.Atoi(r.URL.Query().Get("bins"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "histogram needs ?bins=<count>")
			return
		}
		h, err := s.Histogram(id, r.URL.Query().Get("vector"), bins)
		if err != nil {
			httpError(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, h)
	})

	mux.HandleFunc("GET /graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Graphs())
	})

	mux.HandleFunc("GET /algos", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Algorithms())
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		out := map[string]any{
			"scheduler":  s.Stats(),
			"graphs":     s.Graphs(),
			"algorithms": s.reg.Names(),
		}
		if cs, as, ok := s.substrate(); ok {
			out["cache"] = map[string]any{
				"hits": cs.Hits, "misses": cs.Misses,
				"evictions": cs.Evictions, "bypasses": cs.Bypasses,
				"hit_rate": cs.HitRate(),
			}
			out["array"] = map[string]any{
				"reads": as.Reads, "bytes_read": as.BytesRead,
				"busy_ns": int64(as.Busy),
				"retries": as.Retries, "io_errors": as.Errors,
				"degraded_devices": as.DegradedDevices,
			}
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness plus device health: the process answers as long as it
		// is alive (200 even when degraded — a degraded SSD sheds its own
		// load via fail-fast submits; killing the pod would lose the
		// still-healthy devices), with device health summed over every
		// served graph's array for operators and probes that alert on it.
		resp := map[string]any{"status": "ok"}
		if _, as, ok := s.substrate(); ok {
			resp["degraded_devices"] = as.DegradedDevices
			resp["io_errors"] = as.Errors
			resp["retries"] = as.Retries
			if as.DegradedDevices > 0 {
				resp["status"] = "degraded"
			}
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness gates traffic: 503 once draining (or closed) so load
		// balancers fail over during shutdown while in-flight queries
		// finish; ready otherwise — the catalog is open from construction.
		if s.Draining() {
			httpError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "graphs": len(s.Graphs())})
	})

	return mux
}

// substrate sums the page-cache and array counters over the distinct
// SAFS instances under the served graphs — AddGraph accepts a Shared
// over any FS, so the default graph's is not the whole picture. ok is
// false when every graph runs in memory.
func (s *Server) substrate() (cs pagecache.Stats, as ssd.ArrayStats, ok bool) {
	s.mu.Lock()
	seen := map[*safs.FS]bool{}
	for _, sh := range s.graphs {
		if fs := sh.FS(); fs != nil {
			seen[fs] = true
		}
	}
	s.mu.Unlock()
	for fs := range seen {
		c, a := fs.Cache().Stats(), fs.Array().Stats()
		cs.Hits += c.Hits
		cs.Misses += c.Misses
		cs.Evictions += c.Evictions
		cs.Bypasses += c.Bypasses
		as.Reads += a.Reads
		as.BytesRead += a.BytesRead
		as.Busy += a.Busy
		as.Retries += a.Retries
		as.Errors += a.Errors
		as.DegradedDevices += a.DegradedDevices
	}
	return cs, as, len(seen) > 0
}

// writeQuery writes a query snapshot with a status reflecting its
// outcome: 504 for a deadline-stopped query, 500 for a checksum
// (corruption) failure, 200 otherwise — failure stays loud even for
// clients that only check status codes.
func writeQuery(w http.ResponseWriter, q Query) {
	status := http.StatusOK
	if q.State == StateFailed {
		switch {
		case q.Timeout:
			status = http.StatusGatewayTimeout
		case q.Corrupted:
			status = http.StatusInternalServerError
		}
	}
	writeJSON(w, status, q)
}

func queryID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad query id")
		return 0, false
	}
	return id, true
}

// statusFor maps the package's error taxonomy onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, qos.ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownQuery), errors.Is(err, ErrUnknownGraph):
		return http.StatusNotFound
	case errors.Is(err, ErrResultReleased):
		return http.StatusGone
	case errors.Is(err, ErrNotFinished):
		return http.StatusConflict
	}
	// Everything else is the caller's mistake: an unknown algorithm, bad
	// params, an incompatible graph, a vector or range the result lacks.
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
