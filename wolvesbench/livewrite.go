package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"wolves/internal/engine"
	"wolves/internal/gen"
	"wolves/internal/server"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

type mutateArg struct {
	w *storeWorkflow
	m engine.Mutation
}

type ingestArg struct {
	w      *storeWorkflow
	rd     *runDoc
	ndjson bool
}

type viewArg struct {
	w   *storeWorkflow
	vid string
	raw []byte
}

// newLiveWrite builds the live-write workload: 4 layered workflows of
// n=1024 with interval views of n/64 and n/16 composites (the first also
// one of n/4), against a durable data dir. The open-loop mix is 35%
// mutate (1-edge batches, one in ten a 16-edge batch; every edge goes
// forward in a topological order, so none can close a cycle), 20% run
// ingest (half JSON documents, half NDJSON), 5% view replace and 40%
// lineage reads on the workflows being mutated.
func newLiveWrite(seed int64, sz sizes) *workload {
	rng := rand.New(rand.NewSource(seed))
	var wfs []*storeWorkflow
	variants := map[*storeWorkflow][2][]byte{}
	pools := map[*storeWorkflow][2][]*runDoc{}
	for i := 0; i < sz.lwWorkflows; i++ {
		n := sz.lwTasks
		id := fmt.Sprintf("lw%d", i)
		wf := layered(id, n, rng.Int63())
		views := map[string]*view.View{}
		order := []string{fmt.Sprintf("k%d", n/64), fmt.Sprintf("k%d", n/16)}
		views[order[0]] = gen.IntervalView(wf, n/64, order[0])
		views[order[1]] = gen.IntervalView(wf, n/16, order[1])
		if i == 0 {
			order = append(order, fmt.Sprintf("k%d", n/4))
			views[order[2]] = gen.IntervalView(wf, n/4, order[2])
		}
		w := &storeWorkflow{id: id, wf: wf, views: order, reg: regBody(wf, views, order)}
		for r := 0; r < sz.lwRuns; r++ {
			lo, hi := 0, n
			if r%2 == 1 {
				lo = rng.Intn(n - n/4 + 1)
				hi = lo + n/4
			}
			rd := newRunDoc(wf, fmt.Sprintf("r%02d", r), lo, hi, false)
			w.runs = append(w.runs, rd)
			w.picks = append(w.picks, newZipfPick(rng, len(rd.arts)))
		}
		// The view-replace op toggles the n/16 view between its interval
		// bands and a half-band shift of them.
		variants[w] = [2][]byte{mustJSON(intervalVariant(wf, n/16, order[1])), mustJSON(views[order[1]])}
		// Ingest ops cycle through a pool of documents per format; a
		// quarter are full runs, the rest quarter windows. Once a pool
		// wraps, an ingest replaces the run of the same ID.
		var pool [2][]*runDoc
		for f := 0; f < 2; f++ {
			for k := 0; k < sz.lwPool; k++ {
				lo, hi := 0, n
				if k%4 != 0 {
					lo = rng.Intn(n - n/4 + 1)
					hi = lo + n/4
				}
				pool[f] = append(pool[f], newRunDoc(wf, fmt.Sprintf("p%d-%02d", f, k), lo, hi, f == 1))
			}
		}
		pools[w] = pool
		wfs = append(wfs, w)
	}
	setupRuns := make([]int, sz.lwRuns)
	for i := range setupRuns {
		setupRuns[i] = i
	}

	// Every block of 20 ops holds 7 mutates, 4 ingests, 1 view replace
	// and 8 lineage reads. Within each kind the workflows take turns,
	// every tenth mutate is a 16-edge batch and ingests alternate
	// between JSON documents and NDJSON.
	kinds := mix(rng, sz.streamLen, []string{"mutate", "ingest", "view", "lineage"}, []int{7, 4, 1, 8})
	// Mutations add edges the generated workflow does not have.
	present := map[*storeWorkflow]map[[2]string]bool{}
	for _, w := range wfs {
		present[w] = map[[2]string]bool{}
		for _, e := range w.wf.Edges() {
			present[w][e] = true
		}
	}
	turn := map[string]int{}
	ops := make([]*op, sz.streamLen)
	for i, kind := range kinds {
		k := turn[kind]
		turn[kind]++
		w := wfs[k%len(wfs)]
		k /= len(wfs) // the op's ordinal among its kind on w
		n := w.wf.N()
		switch kind {
		case "mutate":
			edges := make([][2]string, 1)
			if k%10 == 9 {
				edges = make([][2]string, 16)
			}
			for e := range edges {
				for {
					a := rng.Intn(n - 1)
					b := a + 1 + rng.Intn(min(64, n-1-a))
					edges[e] = [2]string{w.wf.Task(a).ID, w.wf.Task(b).ID}
					if !present[w][edges[e]] {
						break
					}
				}
			}
			ops[i] = &op{kind: "mutate", slot: slotMain, method: "POST", path: "/v1/workflows/" + w.id + "/mutate",
				ctype: "application/json", body: mustJSON(server.MutateRequest{Edges: edges}),
				arg: &mutateArg{w: w, m: engine.Mutation{Edges: edges}}}
		case "ingest":
			f := k % 2
			rd := pools[w][f][(k/2)%sz.lwPool]
			o := &op{kind: "ingest", slot: slotSide, method: "POST", path: "/v1/workflows/" + w.id + "/runs",
				arg: &ingestArg{w: w, rd: rd, ndjson: f == 1}}
			if f == 1 {
				o.sub, o.ctype, o.body = "ndjson", "application/x-ndjson", rd.ndjson
			} else {
				o.sub, o.ctype, o.body = "doc", "application/json", rd.json
			}
			ops[i] = o
		case "view":
			vid := w.views[1]
			raw := variants[w][k%2]
			ops[i] = &op{kind: "view", method: "PUT", path: "/v1/workflows/" + w.id + "/views/" + vid,
				ctype: "application/json", body: raw, arg: &viewArg{w: w, vid: vid, raw: raw}}
		default:
			o := lineageOp(rng, w, setupRuns, k)
			o.slot = slotThird
			ops[i] = o
		}
	}
	// The recovery check compares these answers before the stop and
	// after recovery.
	var probes []*op
	for i := 0; i < 32; i++ {
		probes = append(probes, lineageOp(rng, wfs[i%len(wfs)], setupRuns, i))
	}

	wl := &workload{
		name:     "live-write",
		durable:  true,
		openFrac: 0.5,
		rate:     sz.lwRate,
		ops:      ops,
		named: []namedLat{
			{"mutate_p50_ms", "mutate", 0.5},
			{"mutate_p99_ms", "mutate", 0.99},
			{"ingest_p50_ms", "ingest", 0.5},
			{"ingest_p99_ms", "ingest", 0.99},
			{"view_attach_p50_ms", "view", 0.5},
			{"lineage_p50_ms", "lineage", 0.5},
			{"lineage_p99_ms", "lineage", 0.99},
		},
		throughputName: "write_mix_rps",
		inputs: func(emit func([]byte)) {
			for _, w := range wfs {
				emit(w.reg)
				for _, rd := range w.runs {
					emit(rd.json)
				}
				for f := 0; f < 2; f++ {
					for _, rd := range pools[w][f] {
						emit(rd.json)
						emit(rd.ndjson)
					}
				}
			}
			for _, p := range probes {
				emit([]byte(p.path))
			}
		},
	}
	wl.setup = func(ctx context.Context, c *client) error { return setupStore(ctx, c, wfs) }
	wl.direct = directStoreOp
	wl.finish = func(ctx context.Context, p *pass) error { return finishRecovery(ctx, p, wfs, probes) }
	return wl
}

// directWriteOp replays a write op through the public engine and runs
// calls its handler makes; the journal spans nest under it by request.
func directWriteOp(ctx context.Context, d *daemon, o *op, seq int64, tr *tracer) error {
	switch a := o.arg.(type) {
	case *mutateArg:
		lw, err := d.reg.Get(a.w.id)
		if err != nil {
			return err
		}
		return tr.time(seq, "engine.mutate", func() error {
			_, err := lw.MutateCtx(ctx, a.m)
			return err
		})
	case *ingestArg:
		if a.ndjson {
			return tr.time(seq, "runs.ingest.ndjson", func() error {
				_, err := d.runs.IngestNDJSONCtx(ctx, a.w.id, bytes.NewReader(a.rd.ndjson))
				return err
			})
		}
		return tr.time(seq, "runs.ingest.doc", func() error {
			_, err := d.runs.IngestCtx(ctx, a.w.id, a.rd.json)
			return err
		})
	case *viewArg:
		lw, err := d.reg.Get(a.w.id)
		if err != nil {
			return err
		}
		return tr.time(seq, "engine.attach_view", func() error {
			_, _, err := lw.AttachViewCtx(ctx, a.vid, func(wf *workflow.Workflow) (*view.View, error) {
				return view.DecodeJSON(wf, bytes.NewReader(a.raw))
			})
			return err
		})
	}
	return fmt.Errorf("direct: unexpected op %s", o.kind)
}

// liveState is what the recovery check compares: workflow versions,
// each view's maintained report, each workflow's run list and a sample
// of lineage answers, all as the daemon serves them.
type liveState map[string][]byte

func captureState(ctx context.Context, c *client, wfs []*storeWorkflow, probes []*op) (liveState, error) {
	st := liveState{}
	raw, err := c.call(ctx, "GET", "/v1/stats", "", nil)
	if err != nil {
		return nil, err
	}
	var stats server.StatsResponse
	if err := json.Unmarshal(raw, &stats); err != nil {
		return nil, err
	}
	st["versions"] = mustJSON(stats.Registry.Versions)
	for _, w := range wfs {
		for _, vid := range w.views {
			path := "/v1/workflows/" + w.id + "/views/" + vid + "/validate"
			if st[path], err = c.call(ctx, "POST", path, "", nil); err != nil {
				return nil, err
			}
		}
		path := "/v1/workflows/" + w.id + "/runs"
		if st[path], err = c.call(ctx, "GET", path, "", nil); err != nil {
			return nil, err
		}
	}
	for _, p := range probes {
		b, err := c.call(ctx, p.method, p.path, "", nil)
		if err != nil {
			return nil, err
		}
		st[p.path] = append([]byte(nil), b...)
	}
	return st, nil
}

// compareStates reports the first key whose bytes differ after recovery.
func compareStates(before, after liveState) error {
	keys := make([]string, 0, len(before))
	for k := range before {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !bytes.Equal(before[k], after[k]) {
			return fmt.Errorf("recovered state differs at %s: before %.120s, after %.120s", k, before[k], after[k])
		}
	}
	if len(after) != len(before) {
		return fmt.Errorf("recovered state has %d entries, want %d", len(after), len(before))
	}
	return nil
}

// recoveries is how many times live-write reopens the data dir; the
// median is recover_s.
const recoveries = 3

// finishRecovery stops the daemon without a checkpoint, as kill -9
// leaves it, then reopens the data dir and recovers it several times,
// and checks that the recovered daemon serves the state it served
// before the stop byte for byte.
func finishRecovery(ctx context.Context, p *pass, wfs []*storeWorkflow, probes []*op) error {
	before, err := captureState(ctx, p.c, wfs, probes)
	if err != nil {
		return err
	}
	p.c.close()
	if err := p.d.stop(); err != nil {
		return err
	}
	p.d = nil
	diskBytes, err := dirBytes(p.dataDir)
	if err != nil {
		return err
	}
	var times []float64
	var d *daemon
	for i := 0; i < recoveries; i++ {
		t0 := time.Now()
		d, err = startDaemon(p.dataDir, nil)
		if err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < recoveries-1 {
			if err := d.stop(); err != nil {
				return err
			}
		}
	}
	p.d = d
	p.c = newClient(d.base, nil)
	after, err := captureState(ctx, p.c, wfs, probes)
	if err != nil {
		return err
	}
	p.extra["recover_s"] = median(times)
	p.extra["disk_bytes"] = float64(diskBytes)
	p.extra["replayed_records"] = float64(d.recovery.Replayed)
	p.extra["recovered_runs"] = float64(d.recovery.Runs)
	p.extra["recover_wall_s"] = float64(d.recovery.WallMillis) / 1e3
	if err := compareStates(before, after); err != nil {
		p.checkErrs = append(p.checkErrs, err)
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// newDataDir makes a fresh, empty data dir under the work dir.
func newDataDir(work string) (string, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(work, "data-")
}
