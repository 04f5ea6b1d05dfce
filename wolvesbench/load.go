package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conns is the client connection budget: nproc of the reference box.
const conns = 2

// Latency slots: every workload maps its request kinds onto the same
// end-to-end metric names (see README.md).
const (
	slotNone = iota
	slotMain
	slotSide
	slotThird
)

// op is one pre-encoded request of a workload's op stream.
type op struct {
	kind   string // lineage, batch, mutate, ingest, view, validate, correct, vbatch
	sub    string // level, ingest format or correction criterion
	slot   int
	method string
	path   string
	ctype  string
	body   []byte
	check  bool // keep the response body for the output checks
	arg    any  // the decoded request, for the direct-call pass
}

// sample is the outcome of one request.
type sample struct {
	seq    int64
	op     *op
	lat    time.Duration // open loop: from due time; closed loop: from send
	late   time.Duration // open loop: how late the generator sent it
	at     time.Duration // send time since the phase began
	status int           // 0 on a transport error
	bytes  int
	body   []byte // kept when op.check and the answer is new
}

func (s *sample) ok() bool { return s.status >= 200 && s.status < 300 }

// client drives the daemon over HTTP with at most conns connections.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer // non-nil: tag requests and record client spans
	// sent counts the request-body bytes of accepted (2xx) requests.
	sent atomic.Int64
	// kept records the distinct answers whose bodies a sample keeps.
	kept sync.Map
}

func newClient(base string, tr *tracer) *client {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     60 * time.Second,
	}
	return &client{base: base, hc: &http.Client{Transport: t, Timeout: 120 * time.Second}, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response into buf.
func (c *client) do(ctx context.Context, method, path, ctype string, body []byte, seq int64, kind string, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	var start time.Time
	if c.tr != nil {
		req.Header.Set(hdrReq, strconv.FormatInt(seq, 10))
		req.Header.Set(hdrKind, kind)
		start = time.Now()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	if c.tr != nil {
		c.tr.add(seq, "client."+kind, start, time.Now())
	}
	if err != nil {
		return 0, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		c.sent.Add(int64(len(body)))
	}
	return resp.StatusCode, nil
}

// call sends a set-up or check request and returns the body; a non-2xx
// status is an error.
func (c *client) call(ctx context.Context, method, path, ctype string, body []byte) ([]byte, error) {
	var buf bytes.Buffer
	st, err := c.do(ctx, method, path, ctype, body, -1, "setup", &buf)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if st < 200 || st >= 300 {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, st, buf.String())
	}
	return buf.Bytes(), nil
}

func (c *client) send(ctx context.Context, o *op, seq int64, buf *bytes.Buffer, s *sample) {
	st, err := c.do(ctx, o.method, o.path, o.ctype, o.body, seq, o.kind, buf)
	s.seq, s.op, s.bytes = seq, o, buf.Len()
	if err != nil {
		s.status = 0
		return
	}
	s.status = st
	if o.check {
		// Keep a body for the checks only the first time this op
		// answers with it: answers repeat, and keeping every copy would
		// grow the heap with the request count.
		h := fnv.New64a()
		_, _ = h.Write(buf.Bytes())
		if _, dup := c.kept.LoadOrStore(keptKey{o, h.Sum64()}, struct{}{}); !dup {
			s.body = append([]byte(nil), buf.Bytes()...)
		}
	}
}

// keptKey identifies one distinct answer of one op.
type keptKey struct {
	o *op
	h uint64
}

// parallel runs fn(i) for i in [0,n) over conns workers and returns the
// first error.
func parallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// mix lays out n op kinds in blocks: every block holds each kind its
// exact count of times, shuffled, so every stretch of the stream has the
// same mix whatever the seed.
func mix(rng *rand.Rand, n int, kinds []string, counts []int) []string {
	var block []string
	for i, k := range kinds {
		for j := 0; j < counts[i]; j++ {
			block = append(block, k)
		}
	}
	out := make([]string, 0, n+len(block))
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// arrivals draws a Poisson arrival schedule at rate per second over d.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// runOpen is the open loop: op seq0+i is due at sched[i] after the
// phase starts, and is timed from when it was due. A dispatcher hands
// due ops to conns senders; when both are busy it falls behind, and the
// wait counts in the latency and in the generator's lateness.
func runOpen(ctx context.Context, c *client, stream []*op, seq0 int64, sched []time.Duration) []sample {
	out := make([]sample, len(sched))
	jobs := make(chan int)
	t0 := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range jobs {
				due := t0.Add(sched[i])
				start := time.Now()
				seq := seq0 + int64(i)
				s := &out[i]
				c.send(ctx, stream[seq%int64(len(stream))], seq, &buf, s)
				s.lat = time.Since(due)
				s.late = start.Sub(due)
				s.at = start.Sub(t0)
			}
		}()
	}
	// The dispatcher owns its OS thread and sleeps in nanosleep: the
	// runtime's timers wake up to a millisecond late on Linux, which
	// would swamp sub-millisecond requests with generator error.
	dispatched := make(chan struct{})
	go func() {
		defer close(dispatched)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i := range sched {
			sleepUntil(t0.Add(sched[i]))
			jobs <- i
		}
		close(jobs)
	}()
	<-dispatched
	wg.Wait()
	return out
}

// sleepUntil blocks the calling thread until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// runClosed is the closed loop: conns senders each send the next op of
// the stream as soon as their previous one completes, until d elapses.
func runClosed(ctx context.Context, c *client, stream []*op, seq0 int64, d time.Duration) []sample {
	var next atomic.Int64
	next.Store(seq0)
	t0 := time.Now()
	deadline := t0.Add(d)
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				seq := next.Add(1) - 1
				start := time.Now()
				var s sample
				c.send(ctx, stream[seq%int64(len(stream))], seq, &buf, &s)
				s.lat = time.Since(start)
				s.at = start.Sub(t0)
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// --- statistics ---------------------------------------------------------------

// quantile is the nearest-rank q-quantile of xs (sorted in place); 0
// for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// failedMS is the latency a failed or refused request enters the
// percentiles with: it misses every latency limit.
const failedMS = 1e6

// latMS returns the latencies (ms) of the samples selected by keep; a
// failed request enters as failedMS.
func latMS(ss []sample, keep func(*sample) bool) []float64 {
	var out []float64
	for i := range ss {
		s := &ss[i]
		if !keep(s) {
			continue
		}
		if !s.ok() {
			out = append(out, failedMS)
			continue
		}
		out = append(out, float64(s.lat)/1e6)
	}
	return out
}

// windows is how many equal time windows a phase is cut into: a
// latency or rate metric is the median of its per-window values, so one
// stalled window (a collection, a noisy neighbour) cannot move it.
const windows = 10

// windowed returns the median over the phase's quiet time windows (all
// of them when quiet is nil) of the q-quantile latency (ms) of the
// samples selected by keep, and the number of samples behind it.
func windowed(ss []sample, span time.Duration, quiet []bool, keep func(*sample) bool, q float64) (float64, int) {
	per := make([][]sample, windows)
	for i := range ss {
		w := int(int64(ss[i].at) * windows / int64(span))
		w = min(max(w, 0), windows-1)
		per[w] = append(per[w], ss[i])
	}
	var vals []float64
	n := 0
	for w, p := range per {
		if quiet != nil && !quiet[w] {
			continue
		}
		xs := latMS(p, keep)
		if len(xs) == 0 {
			continue
		}
		n += len(xs)
		vals = append(vals, quantile(xs, q))
	}
	return median(vals), n
}

// windowedRate is the median over the phase's quiet time windows of the
// completed (2xx) requests per second, and the total completed.
func windowedRate(ss []sample, span time.Duration, quiet []bool) (float64, int) {
	ok := make([]float64, windows)
	n := 0
	for i := range ss {
		if !ss[i].ok() {
			continue
		}
		w := int(int64(ss[i].at) * windows / int64(span))
		ok[min(max(w, 0), windows-1)]++
		n++
	}
	var rates []float64
	for w := range ok {
		if quiet == nil || quiet[w] {
			rates = append(rates, ok[w]/(span.Seconds()/windows))
		}
	}
	return median(rates), n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// lateGrowth reports whether the generator's lateness grew through an
// open-loop phase: the median lateness of its last quarter far above
// that of its first quarter means a backlog, and the run is invalid.
func lateGrowth(ss []sample) (first, last float64, grew bool) {
	n := len(ss)
	if n < 40 {
		return 0, 0, false
	}
	q := n / 4
	f := make([]float64, 0, q)
	l := make([]float64, 0, q)
	for i := 0; i < q; i++ {
		f = append(f, float64(ss[i].late)/1e6)
		l = append(l, float64(ss[n-q+i].late)/1e6)
	}
	first, last = median(f), median(l)
	return first, last, last > 20 && last > 4*first
}
