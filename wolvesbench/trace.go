package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Spans are recorded only by the benchmark's own code, at the layer
// boundaries it can reach from outside: the client request, a
// middleware around Server.Handler(), the journal wrappers, and the
// public engine and runs calls of the direct-call pass. They stay in
// memory and are written out when the benchmark ends.

// span is one recorded interval. Req is the sequence number of the op
// that caused it (-1 for set-up traffic); spans of one op share it.
type span struct {
	Req   int64  `json:"req"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(req int64, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// time runs fn inside a span named name for request req.
func (t *tracer) time(req int64, name string, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(req, name, start, time.Now())
	return err
}

type reqKey struct{}

func withReq(ctx context.Context, req int64) context.Context {
	return context.WithValue(ctx, reqKey{}, req)
}

// reqID returns the op sequence number carried by ctx, or -1.
func reqID(ctx context.Context) int64 {
	if v, ok := ctx.Value(reqKey{}).(int64); ok {
		return v
	}
	return -1
}

// Request headers the traced client sets and the middleware reads.
const (
	hdrReq  = "X-Bench-Req"
	hdrKind = "X-Bench-Kind"
)

// middleware wraps the daemon's handler: it puts the request's op
// sequence number in the context, so journal spans nest under it, and
// records a server span around the whole handler.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := int64(-1)
		if v := r.Header.Get(hdrReq); v != "" {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				req = n
			}
		}
		kind := r.Header.Get(hdrKind)
		if kind == "" {
			kind = "other"
		}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(withReq(r.Context(), req)))
		t.add(req, "server."+kind, start, time.Now())
	})
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanIndex groups the spans of op requests (set-up spans dropped) by
// name.
type spanIndex struct {
	byName map[string][]span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{byName: map[string][]span{}}
	for _, s := range spans {
		if s.Req < 0 {
			continue
		}
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
	}
	return ix
}

// durations returns the span durations (µs) under name.
func (ix *spanIndex) durations(name string) []float64 {
	out := make([]float64, 0, len(ix.byName[name]))
	for _, s := range ix.byName[name] {
		out = append(out, s.us())
	}
	return out
}

// perReq sums the durations (µs) of every span whose name has prefix,
// per request.
func (ix *spanIndex) perReq(prefix string) map[int64]float64 {
	m := map[int64]float64{}
	for name, ss := range ix.byName {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		for _, s := range ss {
			m[s.Req] += s.us()
		}
	}
	return m
}

// selfTimes returns, for every span under name, its duration minus the
// spans under childPrefix of the same request in ix and, when other is
// non-nil, minus the spans under otherPrefix of the same request there
// (the direct-call pass, whose spans time the calls the handler makes).
// A request missing from other is skipped.
func (ix *spanIndex) selfTimes(name, childPrefix string, other *spanIndex, otherPrefix string) []float64 {
	var kids, ext map[int64]float64
	if childPrefix != "" {
		kids = ix.perReq(childPrefix)
	}
	if other != nil {
		ext = other.perReq(otherPrefix)
	}
	out := make([]float64, 0, len(ix.byName[name]))
	for _, s := range ix.byName[name] {
		d := s.us() - kids[s.Req]
		if ext != nil {
			e, ok := ext[s.Req]
			if !ok {
				continue
			}
			d -= e
		}
		out = append(out, d)
	}
	return out
}

// dumpSpans writes spans as JSON lines to path.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
