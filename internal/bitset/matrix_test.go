package bitset

import (
	"math/rand"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(4, 130)
	if m.Rows() != 4 || m.Bits() != 130 {
		t.Fatalf("dims = %d×%d, want 4×130", m.Rows(), m.Bits())
	}
	m.SetBit(0, 0)
	m.SetBit(0, 129)
	m.SetBit(3, 64)
	if !m.TestBit(0, 0) || !m.TestBit(0, 129) || !m.TestBit(3, 64) {
		t.Fatal("set bits must read back")
	}
	if m.TestBit(1, 0) || m.TestBit(0, 64) {
		t.Fatal("unset bits must read as zero")
	}
	if m.RowCount(0) != 2 || m.RowCount(1) != 0 || m.RowCount(3) != 1 {
		t.Fatal("row counts wrong")
	}
}

func TestMatrixRowViewSharesStorage(t *testing.T) {
	m := NewMatrix(3, 70)
	v := m.RowView(1)
	v.Set(69)
	if !m.TestBit(1, 69) {
		t.Fatal("RowView mutation must reach the matrix")
	}
	m.SetBit(1, 5)
	if !v.Test(5) {
		t.Fatal("matrix mutation must be visible through the view")
	}
	other := New(70)
	other.Set(7)
	v.Or(other)
	if !m.TestBit(1, 7) {
		t.Fatal("Set.Or through a view must reach the matrix")
	}
}

func TestMatrixOrCopyRow(t *testing.T) {
	m := NewMatrix(3, 100)
	m.SetBit(0, 3)
	m.SetBit(1, 97)
	m.OrRow(0, 1)
	if !m.TestBit(0, 3) || !m.TestBit(0, 97) {
		t.Fatal("OrRow must union rows")
	}
	if m.TestBit(1, 3) {
		t.Fatal("OrRow must not touch the source row")
	}
	m.OrRow(2, 2) // self no-op
	if m.RowCount(2) != 0 {
		t.Fatal("self OrRow must be a no-op")
	}
	m.CopyRow(2, 0)
	if m.RowCount(2) != 2 || !m.TestBit(2, 97) {
		t.Fatal("CopyRow must clone the row content")
	}
	s := FromInts(100, 11, 12)
	m.OrRowSet(2, s)
	if !m.TestBit(2, 11) || !m.TestBit(2, 12) {
		t.Fatal("OrRowSet must union an external set into the row")
	}
}

func TestMatrixAgainstSets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const rows, bits = 37, 203
	m := NewMatrix(rows, bits)
	ref := make([]*Set, rows)
	for r := range ref {
		ref[r] = New(bits)
	}
	for step := 0; step < 2000; step++ {
		switch rng.Intn(3) {
		case 0:
			r, i := rng.Intn(rows), rng.Intn(bits)
			m.SetBit(r, i)
			ref[r].Set(i)
		case 1:
			d, s := rng.Intn(rows), rng.Intn(rows)
			m.OrRow(d, s)
			if d != s {
				ref[d].Or(ref[s])
			}
		case 2:
			d, s := rng.Intn(rows), rng.Intn(rows)
			m.CopyRow(d, s)
			ref[d].CopyFrom(ref[s])
		}
	}
	for r := 0; r < rows; r++ {
		v := m.RowView(r)
		if !v.Equal(ref[r]) {
			t.Fatalf("row %d diverged from the per-set reference", r)
		}
	}
}

func TestForEachNotIn(t *testing.T) {
	s := FromInts(140, 1, 64, 65, 139)
	o := FromInts(140, 64, 139)
	var got []int
	s.ForEachNotIn(o, func(i int) bool { got = append(got, i); return true })
	if len(got) != 2 || got[0] != 1 || got[1] != 65 {
		t.Fatalf("ForEachNotIn = %v, want [1 65]", got)
	}
	if c := s.CountNotIn(o); c != 2 {
		t.Fatalf("CountNotIn = %d, want 2", c)
	}
	// Early stop.
	got = got[:0]
	s.ForEachNotIn(o, func(i int) bool { got = append(got, i); return false })
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("early stop ForEachNotIn = %v, want [1]", got)
	}
	// Matches the Clone/AndNot reference on random sets.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		want := a.Clone()
		want.AndNot(b)
		var idx []int
		a.ForEachNotIn(b, func(i int) bool { idx = append(idx, i); return true })
		if len(idx) != want.Count() || len(idx) != a.CountNotIn(b) {
			t.Fatalf("trial %d: difference size mismatch", trial)
		}
		for _, i := range idx {
			if !want.Test(i) {
				t.Fatalf("trial %d: spurious member %d", trial, i)
			}
		}
	}
}

// TestMatrixOrRowInto pins the mark-buffer union behind Closure.MarkRow:
// row bits are ORed in place, bits already in dst survive.
func TestMatrixOrRowInto(t *testing.T) {
	m := NewMatrix(2, 70)
	m.SetBit(1, 3)
	m.SetBit(1, 69)
	dst := []uint64{1 << 7, 0}
	m.OrRowInto(dst, 1)
	if dst[0] != 1<<7|1<<3 || dst[1] != 1<<(69-64) {
		t.Fatalf("OrRowInto = %#x, want [%#x %#x]", dst, uint64(1<<7|1<<3), uint64(1<<5))
	}
}
