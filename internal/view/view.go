// Package view models workflow views: partitions of a workflow's atomic
// tasks into composite tasks, as in Figure 1(b) of the WOLVES paper. The
// view graph is the quotient of the workflow DAG under the partition,
// preserving all inter-composite edges.
//
// A View is immutable; correction and user feedback produce new Views via
// ReplaceComposite and MergeComposites.
package view

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"wolves/internal/dag"
	"wolves/internal/jsonscan"
	"wolves/internal/workflow"
)

// Composite is a composite task: a named, non-empty set of atomic tasks.
type Composite struct {
	ID      string
	Name    string
	members []int // ascending workflow task indices
}

// Members returns the workflow task indices in the composite, ascending.
// The slice is shared; do not mutate.
func (c *Composite) Members() []int { return c.members }

// Size returns the number of atomic tasks in the composite.
func (c *Composite) Size() int { return len(c.members) }

// View is an immutable partition of a workflow's tasks into composites.
type View struct {
	wf     *workflow.Workflow
	name   string
	comps  []Composite
	compOf []int
	index  map[string]int
	// plainIDs is true when every composite ID is jsonscan.Plain,
	// recorded when the view is constructed (views are immutable).
	plainIDs bool
}

// Errors reported during view construction and editing.
var (
	ErrNotPartition  = errors.New("view: composites do not partition the workflow tasks")
	ErrUnknownComp   = errors.New("view: unknown composite id")
	ErrDuplicateComp = errors.New("view: duplicate composite id")
	ErrEmptyComp     = errors.New("view: empty composite")
)

// Builder accumulates composite assignments for a workflow.
type Builder struct {
	wf    *workflow.Workflow
	name  string
	order []string
	// comps holds each composite's members as workflow task indices,
	// resolved on Assign; an ID the workflow lacks is stored as ^k, k
	// indexing unknown, and reported by Build in assignment order.
	comps   map[string][]int
	names   map[string]string
	unknown []string
}

// NewBuilder returns a view builder over wf.
func NewBuilder(wf *workflow.Workflow, name string) *Builder {
	return &Builder{wf: wf, name: name, comps: map[string][]int{}, names: map[string]string{}}
}

// Assign adds task IDs to composite compID (created on first use).
func (b *Builder) Assign(compID string, taskIDs ...string) *Builder {
	ms := b.members(compID)
	for _, tid := range taskIDs {
		ti, ok := b.wf.Index(tid)
		if !ok {
			ti = b.unknownTask(tid)
		}
		ms = append(ms, ti)
	}
	b.comps[compID] = ms
	return b
}

// assignBytes is Assign for task IDs held as bytes.
func (b *Builder) assignBytes(compID string, taskIDs [][]byte) {
	ms := b.members(compID)
	for _, tid := range taskIDs {
		ti, ok := b.wf.IndexBytes(tid)
		if !ok {
			ti = b.unknownTask(string(tid))
		}
		ms = append(ms, ti)
	}
	b.comps[compID] = ms
}

// members returns compID's member list, registering the composite on
// first use.
func (b *Builder) members(compID string) []int {
	ms, ok := b.comps[compID]
	if !ok {
		b.order = append(b.order, compID)
	}
	return ms
}

func (b *Builder) unknownTask(tid string) int {
	b.unknown = append(b.unknown, tid)
	return ^(len(b.unknown) - 1)
}

// Named sets the human-readable name of a composite.
func (b *Builder) Named(compID, name string) *Builder {
	b.names[compID] = name
	return b
}

// Build validates that the assignment is an exact partition and freezes
// the view.
func (b *Builder) Build() (*View, error) {
	v := &View{
		wf:       b.wf,
		name:     b.name,
		comps:    make([]Composite, 0, len(b.order)),
		compOf:   make([]int, b.wf.N()),
		index:    make(map[string]int, len(b.order)),
		plainIDs: true,
	}
	for i := range v.compOf {
		v.compOf[i] = -1
	}
	for _, cid := range b.order {
		ms := b.comps[cid]
		if len(ms) == 0 {
			return nil, fmt.Errorf("%w: %q", ErrEmptyComp, cid)
		}
		if _, dup := v.index[cid]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateComp, cid)
		}
		ci := len(v.comps)
		v.index[cid] = ci
		name := b.names[cid]
		if name == "" {
			name = cid
		}
		for _, ti := range ms {
			if ti < 0 {
				return nil, fmt.Errorf("view: composite %q: %w: task %q", cid, workflow.ErrUnknownTask, b.unknown[^ti])
			}
			if v.compOf[ti] != -1 {
				return nil, fmt.Errorf("%w: task %q assigned twice", ErrNotPartition, b.wf.Task(ti).ID)
			}
			v.compOf[ti] = ci
		}
		members := slices.Clone(ms)
		slices.Sort(members)
		v.comps = append(v.comps, Composite{ID: cid, Name: name, members: members})
		v.plainIDs = v.plainIDs && jsonscan.Plain(cid)
	}
	for ti, ci := range v.compOf {
		if ci == -1 {
			return nil, fmt.Errorf("%w: task %q unassigned", ErrNotPartition, b.wf.Task(ti).ID)
		}
	}
	return v, nil
}

// FromAssignments builds a view from a composite→tasks map. Composite IDs
// are processed in sorted order for determinism.
func FromAssignments(wf *workflow.Workflow, name string, assign map[string][]string) (*View, error) {
	b := NewBuilder(wf, name)
	cids := make([]string, 0, len(assign))
	for cid := range assign {
		cids = append(cids, cid)
	}
	sort.Strings(cids)
	for _, cid := range cids {
		b.Assign(cid, assign[cid]...)
	}
	return b.Build()
}

// Atomic returns the identity view: one singleton composite per task,
// composite IDs equal to task IDs.
func Atomic(wf *workflow.Workflow) *View {
	b := NewBuilder(wf, wf.Name()+"-atomic")
	for _, id := range wf.IDs() {
		b.Assign(id, id)
	}
	v, err := b.Build()
	if err != nil {
		panic("view: atomic view must build: " + err.Error())
	}
	return v
}

// FromPartition builds a view from dense block assignments: partOf[t] is
// the block of task index t; block IDs become "B0", "B1", ….
func FromPartition(wf *workflow.Workflow, name string, partOf []int) (*View, error) {
	if len(partOf) != wf.N() {
		return nil, fmt.Errorf("view: partition has %d entries, workflow has %d tasks", len(partOf), wf.N())
	}
	k := 0
	for _, b := range partOf {
		if b < 0 {
			return nil, fmt.Errorf("view: negative block id %d", b)
		}
		if b+1 > k {
			k = b + 1
		}
	}
	builder := NewBuilder(wf, name)
	for b := 0; b < k; b++ {
		cid := fmt.Sprintf("B%d", b)
		any := false
		for t, bt := range partOf {
			if bt == b {
				builder.Assign(cid, wf.Task(t).ID)
				any = true
			}
		}
		if !any {
			return nil, fmt.Errorf("view: block %d is empty", b)
		}
	}
	return builder.Build()
}

// Workflow returns the underlying workflow.
func (v *View) Workflow() *workflow.Workflow { return v.wf }

// Name returns the view name.
func (v *View) Name() string { return v.name }

// N returns the number of composite tasks.
func (v *View) N() int { return len(v.comps) }

// Composite returns the composite at index i.
func (v *View) Composite(i int) *Composite { return &v.comps[i] }

// CompositeByID looks a composite up by ID.
func (v *View) CompositeByID(id string) (*Composite, bool) {
	i, ok := v.index[id]
	if !ok {
		return nil, false
	}
	return &v.comps[i], true
}

// CompIndex returns the dense index of a composite ID.
func (v *View) CompIndex(id string) (int, bool) {
	i, ok := v.index[id]
	return i, ok
}

// PlainIDs reports that every composite ID is jsonscan.Plain, so
// encoders may copy composite IDs without escaping.
func (v *View) PlainIDs() bool { return v.plainIDs }

// CompOf returns the composite index containing workflow task index t.
func (v *View) CompOf(t int) int { return v.compOf[t] }

// PartOf returns the task→composite assignment as a dense slice (copy).
func (v *View) PartOf() []int { return append([]int(nil), v.compOf...) }

// Graph returns the view (quotient) graph over composite indices. The
// quotient of a DAG can be cyclic for badly designed views; callers use
// dag diagnostics on the result.
func (v *View) Graph() *dag.Graph {
	q, err := v.wf.Graph().Quotient(v.compOf, len(v.comps))
	if err != nil {
		panic("view: internal partition invalid: " + err.Error())
	}
	return q
}

// In returns T.in per Definition 2.2: members of composite ci having at
// least one predecessor outside the composite. Ascending task indices.
func (v *View) In(ci int) []int {
	var out []int
	g := v.wf.Graph()
	for _, t := range v.comps[ci].members {
		for _, p := range g.Preds(t) {
			if v.compOf[p] != ci {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// Out returns T.out per Definition 2.2: members of composite ci having at
// least one successor outside the composite. Ascending task indices.
func (v *View) Out(ci int) []int {
	var out []int
	g := v.wf.Graph()
	for _, t := range v.comps[ci].members {
		for _, s := range g.Succs(t) {
			if v.compOf[s] != ci {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// MergeComposites returns a new view in which the listed composites are
// replaced by a single composite with the given id (the demo's "Create
// Composite Task" feedback operation).
func (v *View) MergeComposites(newID string, compIDs ...string) (*View, error) {
	if len(compIDs) < 2 {
		return nil, errors.New("view: merge needs at least two composites")
	}
	merge := map[int]bool{}
	for _, id := range compIDs {
		i, ok := v.index[id]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownComp, id)
		}
		merge[i] = true
	}
	if _, exists := v.index[newID]; exists && !merge[v.index[newID]] {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateComp, newID)
	}
	b := NewBuilder(v.wf, v.name)
	placed := false
	for i := range v.comps {
		c := &v.comps[i]
		if merge[i] {
			if !placed {
				placed = true
				for j := range v.comps {
					if merge[j] {
						for _, t := range v.comps[j].members {
							b.Assign(newID, v.wf.Task(t).ID)
						}
					}
				}
			}
			continue
		}
		for _, t := range c.members {
			b.Assign(c.ID, v.wf.Task(t).ID)
		}
		b.Named(c.ID, c.Name)
	}
	return b.Build()
}

// ReplaceComposite returns a new view in which composite id is replaced
// by the given blocks (task-index sets partitioning its members): the
// one-composite case of SplitComposites. This is how interactive splits
// are applied.
func (v *View) ReplaceComposite(id string, blocks [][]int) (*View, error) {
	ci, ok := v.index[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownComp, id)
	}
	return v.SplitComposites([]Split{{Comp: ci, Blocks: blocks}})
}

// Split replaces composite index Comp by Blocks, task-index sets that
// partition its members.
type Split struct {
	Comp   int
	Blocks [][]int
}

// SplitComposites returns a new view in which every split composite is
// replaced, in place, by its blocks, in one pass. A composite split
// into one block keeps its ID (its name resets to the ID); the blocks
// of a composite with ID id get IDs id+".1", id+".2", …, skipping every
// ID the view already has or an earlier block took — so a block never
// merges into an existing composite, and every composite of the result
// is a subset of exactly one composite of v. Block names equal their
// IDs; other composites keep theirs. With no splits, v is returned.
func (v *View) SplitComposites(splits []Split) (*View, error) {
	if len(splits) == 0 {
		return v, nil
	}
	blocksOf := make([][][]int, len(v.comps))
	seen := make([]bool, len(v.compOf))
	for _, sp := range splits {
		ci := sp.Comp
		if ci < 0 || ci >= len(v.comps) {
			return nil, fmt.Errorf("%w: index %d", ErrUnknownComp, ci)
		}
		id := v.comps[ci].ID
		if blocksOf[ci] != nil {
			return nil, fmt.Errorf("view: composite %q split twice", id)
		}
		total := 0
		for _, blk := range sp.Blocks {
			if len(blk) == 0 {
				return nil, fmt.Errorf("%w: in split of %q", ErrEmptyComp, id)
			}
			for _, t := range blk {
				if v.compOf[t] != ci {
					return nil, fmt.Errorf("view: split of %q contains foreign task %q", id, v.wf.Task(t).ID)
				}
				if seen[t] {
					return nil, fmt.Errorf("%w: task %q duplicated in split of %q", ErrNotPartition, v.wf.Task(t).ID, id)
				}
				seen[t] = true
				total++
			}
		}
		if total != len(v.comps[ci].members) {
			return nil, fmt.Errorf("%w: split of %q covers %d of %d members", ErrNotPartition, id, total, len(v.comps[ci].members))
		}
		blocksOf[ci] = sp.Blocks
	}
	nv := &View{
		wf:     v.wf,
		name:   v.name,
		comps:  make([]Composite, 0, len(v.comps)+len(splits)),
		compOf: make([]int, len(v.compOf)),
		index:  make(map[string]int, len(v.comps)+len(splits)),
		// Block IDs extend their composite's ID with a plain suffix.
		plainIDs: v.plainIDs,
	}
	add := func(c Composite) {
		ci := len(nv.comps)
		nv.index[c.ID] = ci
		for _, t := range c.members {
			nv.compOf[t] = ci
		}
		nv.comps = append(nv.comps, c)
	}
	for ci := range v.comps {
		c := v.comps[ci]
		blocks := blocksOf[ci]
		switch {
		case blocks == nil:
			add(c)
		case len(blocks) == 1:
			add(Composite{ID: c.ID, Name: c.ID, members: c.members})
		default:
			k := 0
			for _, blk := range blocks {
				var bid string
				for {
					k++
					bid = c.ID + "." + strconv.Itoa(k)
					_, old := v.index[bid]
					_, taken := nv.index[bid]
					if !old && !taken {
						break
					}
				}
				members := slices.Clone(blk)
				slices.Sort(members)
				add(Composite{ID: bid, Name: bid, members: members})
			}
		}
	}
	return nv, nil
}

// ExtendSingletons returns a view covering every workflow task the view
// does not yet cover — tasks appended to a live workflow after the view
// was built — as new singleton composites (ID and name equal to the task
// ID), in task-index order after the existing composites. Existing
// composite indices are unchanged, so incrementally maintained reports
// stay aligned. Fails with ErrDuplicateComp when a new task's ID
// collides with an existing composite ID; the registry prechecks this
// before mutating anything. When the view already covers the workflow,
// v itself is returned.
func (v *View) ExtendSingletons() (*View, error) {
	n := v.wf.N()
	if n == len(v.compOf) {
		return v, nil
	}
	for t := len(v.compOf); t < n; t++ {
		if _, clash := v.index[v.wf.Task(t).ID]; clash {
			return nil, fmt.Errorf("%w: task %q already names a composite", ErrDuplicateComp, v.wf.Task(t).ID)
		}
	}
	nv := &View{
		wf:       v.wf,
		name:     v.name,
		comps:    append(make([]Composite, 0, len(v.comps)+n-len(v.compOf)), v.comps...),
		compOf:   append(make([]int, 0, n), v.compOf...),
		index:    make(map[string]int, len(v.index)+n-len(v.compOf)),
		plainIDs: v.plainIDs,
	}
	for id, i := range v.index {
		nv.index[id] = i
	}
	for t := len(v.compOf); t < n; t++ {
		id := v.wf.Task(t).ID
		ci := len(nv.comps)
		nv.index[id] = ci
		nv.comps = append(nv.comps, Composite{ID: id, Name: id, members: []int{t}})
		nv.compOf = append(nv.compOf, ci)
		nv.plainIDs = nv.plainIDs && jsonscan.Plain(id)
	}
	return nv, nil
}

// CompositeIDs returns composite IDs in index order.
func (v *View) CompositeIDs() []string {
	out := make([]string, len(v.comps))
	for i := range v.comps {
		out[i] = v.comps[i].ID
	}
	return out
}

// MemberIDs returns the task IDs of composite ci, ascending by index.
func (v *View) MemberIDs(ci int) []string {
	ms := v.comps[ci].members
	out := make([]string, len(ms))
	for i, t := range ms {
		out[i] = v.wf.Task(t).ID
	}
	return out
}

// String renders a compact summary like "view v (7 composites over 12 tasks)".
func (v *View) String() string {
	return fmt.Sprintf("view %q (%d composites over %d tasks)", v.name, v.N(), v.wf.N())
}

// Describe renders one line per composite: "ID = {t1, t2}".
func (v *View) Describe() string {
	var b strings.Builder
	for i := range v.comps {
		fmt.Fprintf(&b, "%s = {%s}\n", v.comps[i].ID, strings.Join(v.MemberIDs(i), ", "))
	}
	return b.String()
}
