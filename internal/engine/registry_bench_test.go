package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"wolves/internal/gen"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// benchWorkload is one live-mutation scenario: a layered workflow, an
// attached interval view, and a pool of fresh candidate edges that all
// respect a single topological order (so any prefix of the stream is
// acyclic and both benchmark variants process the identical mutations).
type benchWorkload struct {
	wf         *workflow.Workflow
	v          *view.View
	candidates [][2]string
}

// benchEdgePool bounds the candidate stream; past it the stream wraps to
// duplicate edges (no-ops for the incremental path, full price for the
// rebuild path), so record numbers with -benchtime=2000x or lower.
const benchEdgePool = 8192

func newBenchWorkload(b *testing.B, n int) *benchWorkload {
	b.Helper()
	wf := gen.Layered(gen.LayeredConfig{
		Name: fmt.Sprintf("bench-%d", n), Tasks: n, Layers: 12,
		EdgeProb: 0.25, SkipProb: 0.05, Seed: int64(n),
	})
	v := gen.IntervalView(wf, n/16, "bench-view")
	order, err := wf.Graph().TopoOrder()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n) * 7))
	seen := make(map[[2]int]bool, benchEdgePool)
	cands := make([][2]string, 0, benchEdgePool)
	for len(cands) < benchEdgePool {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		u, w := order[i], order[j]
		if seen[[2]int{u, w}] || wf.Graph().HasEdge(u, w) {
			continue
		}
		seen[[2]int{u, w}] = true
		cands = append(cands, [2]string{wf.Task(u).ID, wf.Task(w).ID})
	}
	return &benchWorkload{wf: wf, v: v, candidates: cands}
}

// batch returns the i-th mutation batch of the stream.
func (w *benchWorkload) batch(i, size int) [][2]string {
	out := make([][2]string, 0, size)
	for k := 0; k < size; k++ {
		out = append(out, w.candidates[(i*size+k)%len(w.candidates)])
	}
	return out
}

// BenchmarkMutateIncremental measures the registry path: one Mutate call
// per iteration — incremental closure update, dirty-set revalidation,
// report merge.
func BenchmarkMutateIncremental(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		for _, batch := range []int{1, 64} {
			b.Run(fmt.Sprintf("n=%d/batch=%d", n, batch), func(b *testing.B) {
				w := newBenchWorkload(b, n)
				reg := NewRegistry(New())
				lw, err := reg.Register("bench", w.wf)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := lw.AttachView("v", func(wf *workflow.Workflow) (*view.View, error) {
					return w.v, nil
				}); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := lw.Mutate(Mutation{Edges: w.batch(i, batch)}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMutateRebuild measures what the stateless stack pays for the
// same mutation stream: apply the edges, rebuild the reachability
// closure from scratch, revalidate the whole view.
func BenchmarkMutateRebuild(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		for _, batch := range []int{1, 64} {
			b.Run(fmt.Sprintf("n=%d/batch=%d", n, batch), func(b *testing.B) {
				w := newBenchWorkload(b, n)
				g := w.wf.Graph()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, e := range w.batch(i, batch) {
						g.MustAddEdge(w.wf.MustIndex(e[0]), w.wf.MustIndex(e[1]))
					}
					w.wf.StructureChanged()
					oracle := soundness.NewOracle(w.wf)
					rep := soundness.ValidateView(oracle, w.v)
					_ = rep
				}
			})
		}
	}
}

// footprintWorkloads are the registered workflows whose reachability
// footprint BenchmarkRegisterFootprint pins: a dense and a sparse
// layered workflow at n=4096 and n=16384. The dense pair is the
// BenchmarkMutate* configuration (≈640k and ≈10.3M edges); the sparse
// pair has ≈7.6k and ≈92k edges.
var footprintWorkloads = []struct {
	name string
	cfg  gen.LayeredConfig
}{
	{"n=4096/dense", gen.LayeredConfig{Tasks: 4096, Layers: 12, EdgeProb: 0.25, SkipProb: 0.05, Seed: 4096}},
	{"n=4096/sparse", gen.LayeredConfig{Tasks: 4096, Layers: 128, EdgeProb: 0.045, SkipProb: 0.0001, Seed: 4096}},
	{"n=16384/sparse", gen.LayeredConfig{Tasks: 16384, Layers: 512, EdgeProb: 0.07, SkipProb: 0.0004, Seed: 16384}},
	{"n=16384/dense", gen.LayeredConfig{Tasks: 16384, Layers: 12, EdgeProb: 0.25, SkipProb: 0.05, Seed: 16384}},
}

// BenchmarkRegisterFootprint registers each footprint workload into an
// empty registry and reports what the live workflow holds for
// reachability: reach-bytes is LabelStats.MemoryBytes (the task-level
// label pair, the only task-level reachability a live workflow keeps),
// heap-inuse-delta the in-use heap growth across Register after a GC on
// both sides (reachability plus the read epoch and registry entry; the
// workflow itself is allocated before the first reading). Run with
// -benchtime=1x: the n=16384 dense workflow has ≈10.3M edges.
func BenchmarkRegisterFootprint(b *testing.B) {
	for _, w := range footprintWorkloads {
		b.Run(w.name, func(b *testing.B) {
			cfg := w.cfg
			cfg.Name = "footprint"
			base := gen.Layered(cfg)
			b.ReportAllocs()
			var reach, delta float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				wf := base.Clone()
				reg := NewRegistry(New())
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				b.StartTimer()
				if _, err := reg.Register("footprint", wf); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&after)
				reach = float64(reg.LabelStats().MemoryBytes)
				delta = float64(after.HeapInuse) - float64(before.HeapInuse)
				runtime.KeepAlive(reg)
				b.StartTimer()
			}
			b.ReportMetric(reach, "reach-bytes")
			b.ReportMetric(delta, "heap-inuse-delta")
		})
	}
}
