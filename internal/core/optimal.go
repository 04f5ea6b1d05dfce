package core

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"wolves/internal/soundness"
)

// optimalSplit computes the minimum number of sound blocks partitioning
// the member set, by dynamic programming over subsets:
//
//	dp[mask] = min blocks to partition mask
//	         = 1 + min over sound submasks s ∋ lowest(mask) of dp[mask^s]
//
// Fixing the lowest member in the chosen submask makes every partition
// counted exactly once. Soundness of all 2^n local subsets is
// precomputed; in/out sets of a local subset follow from per-member
// predecessor/successor masks plus "has an external neighbour outside
// the whole composite" flags, and reachability is the workflow-global
// closure restricted to the members (Definition 2.3 allows connecting
// paths to leave the composite).
// Cancellation: the precompute and DP loops poll ctx every
// cancelCheckMask+1 iterations, so a fired context aborts a 2^20-state
// run within milliseconds (well under the ~100ms budget the Engine
// promises) instead of finishing a multi-second enumeration.
func optimalSplit(ctx context.Context, o *soundness.Oracle, members []int, limit int) ([][]int, error) {
	n := len(members)
	if n > limit {
		return nil, fmt.Errorf("%w: %d tasks (limit %d)", ErrOptimalLimit, n, limit)
	}
	local := append([]int(nil), members...)
	sort.Ints(local)
	pos := make(map[int]int, n)
	for i, t := range local {
		pos[t] = i
	}
	g := o.Workflow().Graph()
	reach := o.Reach()

	predM := make([]uint32, n)  // predecessors within the composite
	succM := make([]uint32, n)  // successors within the composite
	reachM := make([]uint32, n) // global reachability restricted to members
	extIn := make([]bool, n)    // predecessor outside the composite
	extOut := make([]bool, n)   // successor outside the composite
	for i, t := range local {
		for _, q := range g.Preds(t) {
			if j, ok := pos[int(q)]; ok {
				predM[i] |= 1 << j
			} else {
				extIn[i] = true
			}
		}
		for _, q := range g.Succs(t) {
			if j, ok := pos[int(q)]; ok {
				succM[i] |= 1 << j
			} else {
				extOut[i] = true
			}
		}
		for j, u := range local {
			if reach.Reaches(t, u) {
				reachM[i] |= 1 << j
			}
		}
	}

	// cancelCheckMask throttles ctx polling: one Err() call per 8192
	// loop iterations keeps the poll overhead unmeasurable while bounding
	// the post-cancellation latency to microseconds of extra work.
	const cancelCheckMask = 8191

	size := 1 << n
	sound := make([]bool, size)
	for mask := 1; mask < size; mask++ {
		if mask&cancelCheckMask == 0 && ctx.Err() != nil {
			return nil, canceledErr(ctx)
		}
		var inM, outM uint32
		m := uint32(mask)
		for w := m; w != 0; w &= w - 1 {
			i := bits.TrailingZeros32(w)
			if extIn[i] || predM[i]&^m != 0 {
				inM |= 1 << i
			}
			if extOut[i] || succM[i]&^m != 0 {
				outM |= 1 << i
			}
		}
		ok := true
		for w := inM; w != 0; w &= w - 1 {
			i := bits.TrailingZeros32(w)
			if outM&^reachM[i] != 0 {
				ok = false
				break
			}
		}
		sound[mask] = ok
	}

	const inf = int32(1) << 30
	dp := make([]int32, size)
	choice := make([]uint32, size)
	steps := 0 // submask-enumeration steps since the last ctx poll
	for mask := 1; mask < size; mask++ {
		dp[mask] = inf
		low := uint32(1) << uint(bits.TrailingZeros32(uint32(mask)))
		// Enumerate submasks of mask containing the lowest set bit. The
		// total submask work is 3^n, far above the 2^n outer loop, so the
		// cancellation poll counts inner steps.
		for s := uint32(mask); s != 0; s = (s - 1) & uint32(mask) {
			steps++
			if steps&cancelCheckMask == 0 && ctx.Err() != nil {
				return nil, canceledErr(ctx)
			}
			if s&low == 0 || !sound[s] {
				continue
			}
			if c := dp[uint32(mask)&^s] + 1; c < dp[mask] {
				dp[mask] = c
				choice[mask] = s
			}
		}
	}
	full := uint32(size - 1)
	if dp[full] >= inf {
		// Unreachable: singletons are always sound.
		return nil, fmt.Errorf("core: internal error: no sound partition found")
	}
	var blocks [][]int
	for m := full; m != 0; {
		s := choice[m]
		var blk []int
		for w := s; w != 0; w &= w - 1 {
			blk = append(blk, local[bits.TrailingZeros32(w)])
		}
		blocks = append(blocks, blk)
		m &^= s
	}
	sort.Slice(blocks, func(a, b int) bool { return blocks[a][0] < blocks[b][0] })
	return blocks, nil
}
