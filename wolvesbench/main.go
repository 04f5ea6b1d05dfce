// Command wolvesbench is the repository's benchmark. It runs wolvesd in
// its own process on a loopback listener, wired exactly as cmd/wolvesd
// wires it with the default flags, drives one seeded workload against it
// over HTTP with at most two client connections, checks the answers,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics; the process exits non-zero when an output check fails.
//
// Usage, from the repository root:
//
//	bash wolvesbench/run.sh --workload lineage-read --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the same
// workload three times with the same seed — untraced, traced over HTTP,
// and as a direct-call pass of the same op stream — and reports the
// per-layer metrics. --workload all runs every workload. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// sizes are the workload dimensions; tests run tinySizes.
type sizes struct {
	lrWorkflows, lrTasks, lrRuns         int
	lrRate                               float64
	lwWorkflows, lwTasks, lwRuns, lwPool int
	lwRate                               float64
	svHot, svCold, svMinN, svMaxN        int
	streamLen                            int
	setups                               int // set-ups per untraced run; setup_s is their median
}

var fullSizes = sizes{
	lrWorkflows: 8, lrTasks: 2048, lrRuns: 32, lrRate: 2000,
	lwWorkflows: 4, lwTasks: 1024, lwRuns: 16, lwPool: 24, lwRate: 150,
	svHot: 64, svCold: 512, svMinN: 64, svMaxN: 512,
	streamLen: 1 << 15, setups: 5,
}

var tinySizes = sizes{
	lrWorkflows: 2, lrTasks: 256, lrRuns: 4, lrRate: 100,
	lwWorkflows: 2, lwTasks: 256, lwRuns: 2, lwPool: 4, lwRate: 100,
	svHot: 4, svCold: 8, svMinN: 16, svMaxN: 48,
	streamLen: 512, setups: 1,
}

// workload is one seeded traffic mix with its inputs already generated.
type workload struct {
	name     string
	durable  bool    // run against a data dir (fsync batch)
	openFrac float64 // share of the run in the open loop; the rest is closed loop
	rate     float64 // open-loop arrivals per second
	ops      []*op
	// named are the workload's latency metrics by request kind, printed
	// beside the slot metrics; throughputName names its closed-loop rate.
	named          []namedLat
	throughputName string
	inputs         func(emit func([]byte)) // every generated input, for hashing
	prepare        func()                  // optional: reference answers, before the run
	setup          func(ctx context.Context, c *client) error
	check          func([]sample) (wrong int, errs []error) // optional: answer checks
	finish         func(ctx context.Context, p *pass) error // optional, after the load
	direct         func(ctx context.Context, d *daemon, o *op, seq int64, tr *tracer) error
}

type namedLat struct {
	name, kind string
	q          float64
}

var workloadNames = []string{"lineage-read", "live-write", "soundness-service"}

func buildWorkload(name string, seed int64, sz sizes) (*workload, error) {
	switch name {
	case "lineage-read":
		return newLineageRead(seed, sz), nil
	case "live-write":
		return newLiveWrite(seed, sz), nil
	case "soundness-service":
		return newSoundnessService(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames, ", "))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("wolvesbench", flag.ContinueOnError)
	name := fs.String("workload", "", "lineage-read, live-write, soundness-service or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs and op streams")
	seconds := fs.Float64("seconds", 10, "measured load per pass, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	work := fs.String("workdir", ".bench_build", "directory for data dirs and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	dur := time.Duration(*seconds * float64(time.Second))
	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		res, err := runWorkload(context.Background(), n, *seed, dur, *trace == 1, fullSizes, *work, stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wolvesbench:", err)
			return 2
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = n + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wolvesbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !final.Correct {
		return 1
	}
	return 0
}

// runWorkload generates the workload for seed and runs it: one untraced
// pass for the end-to-end metrics, or the three passes of a traced run
// for the per-layer metrics. Human-readable lines go to out.
func runWorkload(ctx context.Context, name string, seed int64, dur time.Duration, traced bool, sz sizes, work string, out io.Writer) (*result, error) {
	w, err := buildWorkload(name, seed, sz)
	if err != nil {
		return nil, err
	}
	if w.prepare != nil {
		w.prepare()
	}
	store := "no data dir (in-memory registry)"
	if w.durable {
		store = "durable data dir, fsync mode batch (the wolvesd default)"
	}
	fmt.Fprintf(out, "# %s seed=%d: %s; GOMAXPROCS=%d, %d client connections\n",
		name, seed, store, runtime.GOMAXPROCS(0), conns)
	if !traced {
		p, err := runPass(ctx, w, seed, dur, false, sz.setups, work)
		if err != nil {
			return nil, err
		}
		p.describe(out)
		e := endToEnd(p)
		for _, l := range append(e.lines("e2e   "), named(p).lines("named ")...) {
			fmt.Fprintln(out, l)
		}
		return p.result(e), nil
	}
	// The three passes of a traced run each measure half of dur, so the
	// run costs about as much as one and a half untraced runs.
	half := dur / 2
	pu, err := runPass(ctx, w, seed, half, false, 1, work)
	if err != nil {
		return nil, err
	}
	pt, err := runPass(ctx, w, seed, half, true, 1, work)
	if err != nil {
		return nil, err
	}
	direct, n, err := runDirect(ctx, w, half, work)
	if err != nil {
		return nil, err
	}
	pt.describe(out)
	fmt.Fprintf(out, "# direct-call pass replayed ops 0..%d\n", n-1)
	pl := perLayer(pu, pt, direct)
	for _, l := range pl.lines("layer ") {
		fmt.Fprintln(out, l)
	}
	spans := append(pt.tr.snapshot(), direct...)
	dump := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	if err := dumpSpans(dump, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# %d spans written to %s\n", len(spans), dump)
	res := pt.result(pl)
	u := pu.result(nil)
	res.Correct = res.Correct && u.Correct
	res.Attempted += u.Attempted
	res.Failed += u.Failed
	return res, nil
}

// pass is one run of a workload against a fresh daemon.
type pass struct {
	w         *workload
	tr        *tracer // nil when untraced
	d         *daemon
	c         *client
	dataDir   string
	setupS    []float64
	open      []sample
	closed    []sample
	openDur   time.Duration
	closedDur time.Duration
	// openQuiet and closedQuiet mark the windows the latency and rate
	// metrics use, the half that lost the least CPU to steal;
	// openSteal and closedSteal are each window's stolen share.
	openQuiet, closedQuiet []bool
	openSteal, closedSteal []float64
	// c0, c1, c2 are telemetry scrapes before the open loop, between the
	// loops and after the closed loop.
	c0, c1, c2 *counters
	heapMB     float64
	setupBytes int64 // accepted request-body bytes of the set-up
	loadBytes  int64 // accepted request-body bytes of the load
	wrong      int
	checkErrs  []error
	lateFirst  float64
	lateLast   float64
	backlog    bool
	extra      map[string]float64
}

// setupFloor is the least time the untraced set-ups of one run take.
const setupFloor = 2 * time.Second

// runPass sets the workload up setups times (keeping the last daemon),
// runs the open and closed loops, checks the answers and runs the
// workload's finish step.
func runPass(ctx context.Context, w *workload, seed int64, dur time.Duration, traced bool, setups int, work string) (p *pass, err error) {
	p = &pass{w: w, extra: map[string]float64{}}
	if traced {
		p.tr = newTracer()
	}
	defer func() {
		if cerr := p.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	// A set-up shorter than a few tenths of a second reads mostly noise,
	// so short ones repeat until setupFloor has passed (up to four times
	// as many); setup_s is the median.
	begin := time.Now()
	for i := 0; i < setups || (setups > 1 && i < 4*setups && time.Since(begin) < setupFloor); i++ {
		if err := p.close(); err != nil {
			return nil, err
		}
		if w.durable {
			if p.dataDir, err = newDataDir(work); err != nil {
				return nil, err
			}
			// Write back what earlier runs left dirty, so this set-up's
			// fsyncs do not wait for it.
			syscall.Sync()
		}
		t0 := time.Now()
		if p.d, err = startDaemon(p.dataDir, p.tr); err != nil {
			return nil, err
		}
		p.c = newClient(p.d.base, p.tr)
		if err := w.setup(ctx, p.c); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
	}
	p.setupBytes = p.c.sent.Load()

	p.openDur = time.Duration(float64(dur) * w.openFrac)
	p.closedDur = dur - p.openDur
	var sched []time.Duration
	if p.openDur > 0 {
		sched = arrivals(rand.New(rand.NewSource(seed^0x5eed)), w.rate, p.openDur)
	}
	if p.c0, err = scrape(ctx, p.c); err != nil {
		return nil, err
	}
	if len(sched) > 0 {
		m := meterSteal(p.openDur)
		p.open = runOpen(ctx, p.c, w.ops, 0, sched)
		p.openQuiet, p.openSteal = m.quiet()
		p.lateFirst, p.lateLast, p.backlog = lateGrowth(p.open)
	}
	if p.c1, err = scrape(ctx, p.c); err != nil {
		return nil, err
	}
	if p.closedDur > 0 {
		m := meterSteal(p.closedDur)
		p.closed = runClosed(ctx, p.c, w.ops, int64(len(sched)), p.closedDur)
		p.closedQuiet, p.closedSteal = m.quiet()
	}
	if p.c2, err = scrape(ctx, p.c); err != nil {
		return nil, err
	}
	p.loadBytes = p.c.sent.Load() - p.setupBytes
	if w.check != nil {
		p.wrong, p.checkErrs = w.check(p.samples())
	}
	// The heap is read with the checked answers released, so it measures
	// the daemon and the inputs, not how many answers the run kept.
	for _, ss := range [][]sample{p.open, p.closed} {
		for i := range ss {
			ss[i].body = nil
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / 1e6
	if w.finish != nil {
		if err := w.finish(ctx, p); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return p, nil
}

// close stops the pass's daemon and removes its data dir.
func (p *pass) close() error {
	var err error
	if p.c != nil {
		p.c.close()
		p.c = nil
	}
	if p.d != nil {
		err = p.d.stop()
		p.d = nil
	}
	if p.dataDir != "" {
		if rerr := os.RemoveAll(p.dataDir); rerr != nil && err == nil {
			err = rerr
		}
		p.dataDir = ""
	}
	return err
}

// runDirect is the direct-call pass: a fresh daemon set up through the
// API, then the op stream replayed from its first op, sequentially,
// through the public engine and runs calls the handlers make, each
// inside a span, until dur elapses. It returns the spans and the number
// of ops replayed.
func runDirect(ctx context.Context, w *workload, dur time.Duration, work string) ([]span, int, error) {
	tr := newTracer()
	p := &pass{w: w}
	defer p.close()
	var err error
	if w.durable {
		if p.dataDir, err = newDataDir(work); err != nil {
			return nil, 0, err
		}
	}
	if p.d, err = startDaemon(p.dataDir, tr); err != nil {
		return nil, 0, err
	}
	p.c = newClient(p.d.base, nil)
	if err := w.setup(ctx, p.c); err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	deadline := time.Now().Add(dur)
	n := 0
	for ; time.Now().Before(deadline); n++ {
		seq := int64(n)
		if err := w.direct(withReq(ctx, seq), p.d, w.ops[n%len(w.ops)], seq, tr); err != nil {
			return nil, 0, fmt.Errorf("direct op %d: %w", n, err)
		}
	}
	return tr.snapshot(), n, p.close()
}

// describe prints how the pass ran, with the open-loop honesty figures.
func (p *pass) describe(out io.Writer) {
	fmt.Fprintf(out, "# set-ups (s):")
	for _, s := range p.setupS {
		fmt.Fprintf(out, " %.4f", s)
	}
	fmt.Fprintln(out)
	if len(p.open) > 0 {
		fmt.Fprintf(out, "# open loop: %d requests over %.1fs at %.0f/s (Poisson), each timed from its due time; generator lateness median %.3fms in the first quarter, %.3fms in the last\n",
			len(p.open), p.openDur.Seconds(), p.w.rate, p.lateFirst, p.lateLast)
	}
	if len(p.closed) > 0 {
		fmt.Fprintf(out, "# closed loop: %d requests over %.1fs on %d connections\n", len(p.closed), p.closedDur.Seconds(), conns)
	}
	for _, ph := range []struct {
		name  string
		steal []float64
	}{{"open", p.openSteal}, {"closed", p.closedSteal}} {
		if ph.steal != nil {
			fmt.Fprintf(out, "# %s loop CPU steal by window (%%):", ph.name)
			for _, s := range ph.steal {
				fmt.Fprintf(out, " %.1f", 100*s)
			}
			fmt.Fprintln(out)
		}
	}
	if p.w.durable {
		for _, ph := range []struct {
			name   string
			c0, c1 *counters
		}{{"open", p.c0, p.c1}, {"closed", p.c1, p.c2}} {
			fmt.Fprintf(out, "# %s loop storage: %.0f WAL appends, %.0f fsyncs, %.1f MB WAL, %.0f snapshots (%.1f MB), %.0f rotations\n",
				ph.name, delta(ph.c0, ph.c1, "wolves_wal_appends_total"), delta(ph.c0, ph.c1, "wolves_wal_fsyncs_total"),
				delta(ph.c0, ph.c1, "wolves_wal_append_bytes_total")/1e6, delta(ph.c0, ph.c1, "wolves_snapshot_publishes_total"),
				delta(ph.c0, ph.c1, "wolves_snapshot_bytes_total")/1e6, delta(ph.c0, ph.c1, "wolves_wal_rotations_total"))
		}
	}
	att, refused, e5, e4, transport := p.counts()
	fmt.Fprintf(out, "# attempted %d: refused (503) %d, other 5xx %d, 4xx %d, transport errors %d, wrong answers %d\n",
		att, refused, e5, e4, transport, p.wrong)
	if p.backlog {
		fmt.Fprintln(out, "# INVALID: the generator's lateness grew through the open loop (backlog)")
	}
	for _, e := range p.checkErrs {
		fmt.Fprintln(out, "# CHECK FAILED:", e)
	}
}

func (p *pass) samples() []sample { return append(append([]sample(nil), p.open...), p.closed...) }

func (p *pass) counts() (attempted, refused, e5, e4, transport int) {
	for _, s := range p.samples() {
		attempted++
		switch {
		case s.status == 0:
			transport++
		case s.status == 503:
			refused++
		case s.status >= 500:
			e5++
		case s.status >= 400:
			e4++
		}
	}
	return
}

func (p *pass) result(r *report) *result {
	att, refused, e5, e4, transport := p.counts()
	res := &result{
		Correct:   p.wrong == 0 && len(p.checkErrs) == 0 && !p.backlog,
		Attempted: att,
		Failed:    refused + e5 + e4 + transport + p.wrong,
	}
	if r != nil {
		res.Metrics = r.vals
	}
	return res
}
