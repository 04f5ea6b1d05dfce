package bitset

import "fmt"

// Matrix is a dense bit matrix: rows × bits stored in one contiguous
// []uint64 (a single allocation), row-major. It is the backing store of
// reachability closures: a flat layout keeps successive rows adjacent in
// memory, so closure construction and row unions stream through the
// cache instead of chasing per-row pointers.
//
// Rows are addressed [0, Rows()) and bits [0, Bits()). RowView exposes a
// row as a Set sharing the matrix storage, so every Set operation
// (Or, AndNot, ForEach, …) applies to matrix rows without copying.
type Matrix struct {
	words  []uint64
	rows   int
	bits   int
	stride int // words per row
}

// NewMatrix returns a zeroed rows×bits matrix backed by one allocation.
func NewMatrix(rows, bits int) *Matrix {
	if rows < 0 || bits < 0 {
		panic("bitset: negative matrix dimension")
	}
	stride := (bits + wordBits - 1) / wordBits
	return &Matrix{
		words:  make([]uint64, rows*stride),
		rows:   rows,
		bits:   bits,
		stride: stride,
	}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Bits returns the per-row capacity.
func (m *Matrix) Bits() int { return m.bits }

func (m *Matrix) checkRow(r int) {
	if r < 0 || r >= m.rows {
		panic(fmt.Sprintf("bitset: row %d out of range [0,%d)", r, m.rows))
	}
}

// row returns the word slice of row r, clipped for bounds-check
// elimination in the word loops below.
func (m *Matrix) row(r int) []uint64 {
	off := r * m.stride
	return m.words[off : off+m.stride : off+m.stride]
}

// RowView returns row r as a Set sharing the matrix storage. Mutating
// the returned set mutates the matrix row; the view stays valid for the
// lifetime of the matrix. The Set header is a value: callers that need a
// *Set take its address, which does not copy the bits.
func (m *Matrix) RowView(r int) Set {
	m.checkRow(r)
	return Set{words: m.row(r), n: m.bits}
}

// SetBit sets bit i of row r.
func (m *Matrix) SetBit(r, i int) {
	m.checkRow(r)
	if i < 0 || i >= m.bits {
		panic(fmt.Sprintf("bitset: bit %d out of range [0,%d)", i, m.bits))
	}
	m.row(r)[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// TestBit reports whether bit i of row r is set.
func (m *Matrix) TestBit(r, i int) bool {
	m.checkRow(r)
	if i < 0 || i >= m.bits {
		panic(fmt.Sprintf("bitset: bit %d out of range [0,%d)", i, m.bits))
	}
	return m.row(r)[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// OrRow sets row dst |= row src word-by-word. dst == src is a no-op.
func (m *Matrix) OrRow(dst, src int) {
	m.checkRow(dst)
	m.checkRow(src)
	if dst == src {
		return
	}
	d, s := m.row(dst), m.row(src)
	for i := range d {
		d[i] |= s[i]
	}
}

// CloseRow performs one closure DP step in a single call: row u gets its
// reflexive bit plus the union of the rows named by srcs. Fusing the
// per-successor unions into one call keeps the destination row hot and
// lets the word loops elide bounds checks — this is the inner kernel of
// dag.Reachability.
func (m *Matrix) CloseRow(u int, srcs []int32) {
	m.checkRow(u)
	if u >= m.bits {
		panic(fmt.Sprintf("bitset: CloseRow needs a square matrix: bit %d out of range [0,%d)", u, m.bits))
	}
	d := m.row(u)
	d[u/wordBits] |= 1 << (uint(u) % wordBits)
	for _, s32 := range srcs {
		s := int(s32)
		m.checkRow(s)
		src := m.row(s)
		d = d[:len(src)]
		for i, w := range src {
			d[i] |= w
		}
	}
}

// OrRowInto sets dst |= row r word-by-word; dst needs at least
// ceil(Bits()/64) words.
func (m *Matrix) OrRowInto(dst []uint64, r int) {
	m.checkRow(r)
	src := m.row(r)
	dst = dst[:len(src)]
	for i, w := range src {
		dst[i] |= w
	}
}

// OrRowSet sets row r |= s for an external set of matching capacity.
func (m *Matrix) OrRowSet(r int, s *Set) {
	m.checkRow(r)
	if s.n != m.bits {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, m.bits))
	}
	d := m.row(r)
	for i, w := range s.words {
		d[i] |= w
	}
}

// CopyRow overwrites row dst with row src.
func (m *Matrix) CopyRow(dst, src int) {
	m.checkRow(dst)
	m.checkRow(src)
	copy(m.row(dst), m.row(src))
}

// RowCount returns the number of set bits in row r.
func (m *Matrix) RowCount(r int) int {
	m.checkRow(r)
	v := m.RowView(r)
	return v.Count()
}
