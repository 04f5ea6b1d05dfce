package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"

	"wolves/internal/gen"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// layered generates the layered workflows the run-store workloads use:
// about 32 tasks per layer, ~2.5 predecessors per task from the layer
// above, and the rare layer-skipping edge. Task i is "t<i>" at index i,
// and index order is a topological order.
func layered(name string, n int, seed int64) *workflow.Workflow {
	return gen.Layered(gen.LayeredConfig{
		Name: name, Tasks: n, Layers: n / 32, EdgeProb: 0.08, SkipProb: 0.0005, Seed: seed,
	})
}

// runDoc is one generated execution trace. Every task of the index
// window [lo, hi) ran once (implicit invocations: process references
// name tasks), generated artifact "a<i>", and used the artifacts of its
// invoked predecessors; a task with none of those used an external
// input "x<i>". Because the window is contiguous in a topological
// order, every workflow path between two of its tasks stays inside it.
type runDoc struct {
	id     string
	lo, hi int
	arts   []string // artifact IDs in document order
	gen    []int    // generating task of each artifact; -1 = external
	used   [][2]int // (consuming task, artifact index)
	json   []byte
	ndjson []byte
}

type wireArt struct {
	ID          string `json:"id"`
	GeneratedBy string `json:"generated_by,omitempty"`
}

type wireUsed struct {
	Process  string `json:"process"`
	Artifact string `json:"artifact"`
}

type wireDoc struct {
	Run       string     `json:"run"`
	Artifacts []wireArt  `json:"artifacts"`
	Used      []wireUsed `json:"used"`
}

type wireLine struct {
	Run      string    `json:"run,omitempty"`
	Artifact *wireArt  `json:"artifact,omitempty"`
	Used     *wireUsed `json:"used,omitempty"`
}

func newRunDoc(wf *workflow.Workflow, id string, lo, hi int, ndjson bool) *runDoc {
	g := wf.Graph()
	rd := &runDoc{id: id, lo: lo, hi: hi}
	artOf := make(map[int]int, hi-lo)
	doc := wireDoc{Run: id}
	for t := lo; t < hi; t++ {
		var in []int
		for _, p := range g.Preds(t) {
			if int(p) >= lo && int(p) < hi {
				in = append(in, artOf[int(p)])
			}
		}
		if len(in) == 0 {
			rd.arts = append(rd.arts, fmt.Sprintf("x%d", t))
			rd.gen = append(rd.gen, -1)
			in = append(in, len(rd.arts)-1)
			doc.Artifacts = append(doc.Artifacts, wireArt{ID: rd.arts[len(rd.arts)-1]})
		}
		sort.Ints(in)
		for _, a := range in {
			rd.used = append(rd.used, [2]int{t, a})
			doc.Used = append(doc.Used, wireUsed{Process: wf.Task(t).ID, Artifact: rd.arts[a]})
		}
		artOf[t] = len(rd.arts)
		rd.arts = append(rd.arts, fmt.Sprintf("a%d", t))
		rd.gen = append(rd.gen, t)
		doc.Artifacts = append(doc.Artifacts, wireArt{ID: rd.arts[artOf[t]], GeneratedBy: wf.Task(t).ID})
	}
	rd.json = mustJSON(doc)
	if ndjson {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		_ = enc.Encode(wireLine{Run: id})
		for i := range doc.Artifacts {
			_ = enc.Encode(wireLine{Artifact: &doc.Artifacts[i]})
		}
		for i := range doc.Used {
			_ = enc.Encode(wireLine{Used: &doc.Used[i]})
		}
		rd.ndjson = b.Bytes()
	}
	return rd
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// lineageAnswer is the part of a lineage answer the checks compare.
type lineageAnswer struct {
	Tasks     []string `json:"tasks"`
	Artifacts []string `json:"artifacts"`
}

// reference answers an exact-level lineage query by breadth-first search
// over the run document alone: backwards through used and generated_by
// edges for ancestors, forwards for descendants. Tasks come out in
// ascending task index ("t<i>" is index i), artifacts in document order.
func (rd *runDoc) reference(wf *workflow.Workflow, artifact string, descendants bool) lineageAnswer {
	ans := lineageAnswer{Tasks: []string{}, Artifacts: []string{}}
	ai := -1
	for i, a := range rd.arts {
		if a == artifact {
			ai = i
			break
		}
	}
	if ai < 0 || rd.gen[ai] < 0 {
		return ans
	}
	home := rd.gen[ai]
	// consumes[t] = artifacts task t used; producedBy[a] = gen[a];
	// consumers[a] = tasks that used artifact a.
	consumes := map[int][]int{}
	consumers := map[int][]int{}
	artOfTask := map[int]int{}
	for _, u := range rd.used {
		consumes[u[0]] = append(consumes[u[0]], u[1])
		consumers[u[1]] = append(consumers[u[1]], u[0])
	}
	for a, t := range rd.gen {
		if t >= 0 {
			artOfTask[t] = a
		}
	}
	seen := map[int]bool{home: true}
	queue := []int{home}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		var next []int
		if descendants {
			next = consumers[artOfTask[t]]
		} else {
			for _, a := range consumes[t] {
				if g := rd.gen[a]; g >= 0 {
					next = append(next, g)
				}
			}
		}
		for _, u := range next {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	delete(seen, home)
	tasks := make([]int, 0, len(seen))
	for t := range seen {
		tasks = append(tasks, t)
	}
	sort.Ints(tasks)
	for _, t := range tasks {
		ans.Tasks = append(ans.Tasks, wf.Task(t).ID)
	}
	for a, t := range rd.gen {
		if t >= 0 && seen[t] {
			ans.Artifacts = append(ans.Artifacts, rd.arts[a])
		}
	}
	return ans
}

// checkLineage compares one exact-level answer body with the reference.
func checkLineage(body []byte, want lineageAnswer) error {
	var got lineageAnswer
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode lineage answer: %w", err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("lineage answer differs from the run-document BFS: got %d tasks/%d artifacts, want %d/%d",
			len(got.Tasks), len(got.Artifacts), len(want.Tasks), len(want.Artifacts))
	}
	return nil
}

// zipfPick draws Zipf-skewed indices in [0,n) through a fixed random
// permutation, so the hot items are spread over the index range.
type zipfPick struct {
	z    *rand.Zipf
	perm []int
}

func newZipfPick(rng *rand.Rand, n int) *zipfPick {
	return &zipfPick{z: rand.NewZipf(rng, 1.1, 1, uint64(n-1)), perm: rng.Perm(n)}
}

func (p *zipfPick) next() int { return p.perm[p.z.Uint64()] }

// intervalVariant is an interval view of k composites whose bands are
// shifted by half a band against gen.IntervalView's: the replacement a
// view-replace op toggles to.
func intervalVariant(wf *workflow.Workflow, k int, name string) *view.View {
	n := wf.N()
	part := make([]int, n)
	shift := n / (2 * k)
	for t := 0; t < n; t++ {
		part[t] = ((t + shift) * k / n) % k
	}
	v, err := view.FromPartition(wf, name, part)
	if err != nil {
		panic("interval variant must build: " + err.Error())
	}
	return v
}
