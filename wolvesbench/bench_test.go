package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wolves/internal/view"
)

// hashWorkload feeds every generated input and the whole op stream to h.
func hashWorkload(w *workload, h hash.Hash) {
	emit := func(b []byte) {
		_, _ = fmt.Fprintf(h, "%d:", len(b))
		_, _ = h.Write(b)
	}
	w.inputs(emit)
	for _, o := range w.ops {
		emit([]byte(o.kind + " " + o.sub + " " + o.method + " " + o.path + " " + o.ctype))
		emit(o.body)
	}
}

// The same seed must give byte-identical inputs and op streams; another
// seed must not.
func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			sum := func(seed int64) [32]byte {
				w, err := buildWorkload(name, seed, tinySizes)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				hashWorkload(w, h)
				var out [32]byte
				copy(out[:], h.Sum(nil))
				return out
			}
			a, b, c := sum(7), sum(7), sum(8)
			if a != b {
				t.Fatalf("seed 7 hashed %x then %x", a, b)
			}
			if a == c {
				t.Fatalf("seeds 7 and 8 hash the same: %x", a)
			}
		})
	}
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// namedMetrics are the workload-specific metrics each workload prints
// under its own names beside the shared slot metrics.
var namedMetrics = map[string][]string{
	"lineage-read": {"lineage_p50_ms", "lineage_p99_ms", "read_qps", "recover_s", "disk_bytes_per_user_byte"},
	"live-write": {"mutate_p50_ms", "mutate_p99_ms", "ingest_p50_ms", "ingest_p99_ms",
		"view_attach_p50_ms", "lineage_p50_ms", "lineage_p99_ms", "recover_s", "disk_bytes_per_user_byte"},
	"soundness-service": {"validate_p50_ms", "correct_p50_ms", "soundness_rps"},
}

// A tiny run of each workload passes its checks and emits every metric
// BENCHMARK.json names, with its unit: the end-to-end metrics untraced,
// the per-layer metrics traced.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				res, err := runWorkload(context.Background(), name, 3, 800*time.Millisecond, traced, tinySizes, t.TempDir(), &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d\n%s", traced, res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, BENCHMARK.json lists %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, m.Name, got, m.Unit)
					}
				}
				if !traced {
					for _, n := range namedMetrics[name] {
						if !strings.Contains(out.String(), "named "+n+" ") {
							t.Errorf("output lacks %s:\n%s", n, out.String())
						}
					}
				}
			}
		})
	}
}

// A planted wrong lineage answer fails the run-document BFS check.
func TestPlantedWrongLineageAnswerFails(t *testing.T) {
	w, err := buildWorkload("lineage-read", 5, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	var o *op
	for _, c := range w.ops {
		if c.check {
			o = c
			break
		}
	}
	if o == nil {
		t.Fatal("no checked op in the stream")
	}
	lq := o.arg.(*lineageQuery)
	want := lq.run.reference(lq.w.wf, lq.q.Artifact, false)
	// Pick an artifact with a non-trivial lineage to plant against.
	for _, a := range lq.run.arts {
		if r := lq.run.reference(lq.w.wf, a, false); len(r.Tasks) > 1 {
			want = r
			lq.q.Artifact = a
			break
		}
	}
	good := mustJSON(want)
	if err := checkLineage(good, want); err != nil {
		t.Fatalf("the reference answer fails its own check: %v", err)
	}
	bad := want
	bad.Tasks = bad.Tasks[1:]
	ss := []sample{{op: o, status: 200, body: mustJSON(bad)}}
	o.arg = lq
	if wrong, errs := checkLineageSamples(ss); wrong != 1 || len(errs) != 1 {
		t.Fatalf("planted wrong answer: wrong=%d errs=%v", wrong, errs)
	}
}

// A daemon recovered from a stale copy of its data dir fails the
// recovery comparison; one recovered from the real data dir passes.
func TestStaleRecoveryStateFails(t *testing.T) {
	ctx := context.Background()
	w, err := buildWorkload("live-write", 9, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	dir, err := newDataDir(work)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(d.base, nil)
	if err := w.setup(ctx, c); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(work, "stale")
	copyDir(t, dir, stale)
	var mutate *op
	for _, o := range w.ops {
		if o.kind == "mutate" {
			mutate = o
			break
		}
	}
	if _, err := c.call(ctx, mutate.method, mutate.path, mutate.ctype, mutate.body); err != nil {
		t.Fatal(err)
	}
	wfs := []*storeWorkflow{mutate.arg.(*mutateArg).w}
	before, err := captureState(ctx, c, wfs, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.close()
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		dir       string
		wantMatch bool
	}{{dir, true}, {stale, false}} {
		d, err := startDaemon(tc.dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		c := newClient(d.base, nil)
		after, err := captureState(ctx, c, wfs, nil)
		c.close()
		if serr := d.stop(); serr != nil {
			t.Fatal(serr)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := compareStates(before, after) == nil; got != tc.wantMatch {
			t.Errorf("recovered from %s: states match = %v, want %v", filepath.Base(tc.dir), got, tc.wantMatch)
		}
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || e.Name() == "LOCK" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// A returned correction that is not sound, or a verdict that differs
// from the reference, fails its check.
func TestBadCorrectionAndVerdictFail(t *testing.T) {
	w, err := buildWorkload("soundness-service", 4, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	w.prepare()
	var c *svCase
	for _, o := range w.ops {
		if a := o.arg.(*svArg); o.kind == "validate" && !a.cases[0].sound {
			c = a.cases[0]
			break
		}
	}
	if c == nil {
		t.Fatal("no unsound case in the stream")
	}
	if err := checkCorrection(mustJSON(view.Atomic(c.wf)), c); err != nil {
		t.Fatalf("the singleton view is sound, but: %v", err)
	}
	if err := checkCorrection(mustJSON(c.v), c); err == nil {
		t.Fatal("an unsound correction passed the check")
	}
	if err := checkVerdict(verdict{Sound: true}, c); err == nil {
		t.Fatal("a sound verdict on an unsound view passed the check")
	}
	if err := checkVerdict(verdict{Sound: c.sound, Unsound: c.unsound}, c); err != nil {
		t.Fatal(err)
	}
}

// A generator that falls further behind through the open loop marks
// the run invalid; a steady one does not.
func TestLateGrowthMarksBacklog(t *testing.T) {
	mk := func(late func(i int) time.Duration) []sample {
		ss := make([]sample, 400)
		for i := range ss {
			ss[i].late = late(i)
		}
		return ss
	}
	if _, _, grew := lateGrowth(mk(func(int) time.Duration { return 200 * time.Microsecond })); grew {
		t.Error("steady lateness marked as backlog")
	}
	if _, _, grew := lateGrowth(mk(func(i int) time.Duration { return time.Duration(i) * time.Millisecond })); !grew {
		t.Error("growing lateness not marked as backlog")
	}
}
