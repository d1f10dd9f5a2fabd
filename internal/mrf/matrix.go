package mrf

import (
	"hash/maphash"
	"math"
)

// Matrix is a dense pairwise cost matrix stored as one contiguous row-major
// buffer.  Graphs intern their matrices: edges that carry the same costs —
// the common case in diversification problems, where every link of a service
// pair uses the identical similarity matrix — share a single Matrix, so
// memory is O(distinct matrices · K²) instead of O(edges · K²) and message
// passing walks contiguous rows.
type Matrix struct {
	// Rows and Cols are the label-space sizes of the two endpoints.
	Rows, Cols int
	// Data holds the costs row-major: Data[i*Cols+j] = cost(i, j).
	Data []float64
}

// At returns the cost of the label pair (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Row returns the contiguous cost row for label i of the row endpoint.
// Callers must treat it as read-only.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols] }

// Min returns the smallest entry (+Inf for an empty matrix).
func (m *Matrix) Min() float64 {
	min := math.Inf(1)
	for _, v := range m.Data {
		if v < min {
			min = v
		}
	}
	return min
}

// transposed returns a new matrix with rows and columns swapped, so that
// column walks of the original become contiguous row walks.
func (m *Matrix) transposed() *Matrix {
	t := &Matrix{Rows: m.Cols, Cols: m.Rows, Data: make([]float64, len(m.Data))}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// flatten copies a nested cost matrix into a Matrix (shape already checked).
func flatten(cost [][]float64) *Matrix {
	rows := len(cost)
	cols := 0
	if rows > 0 {
		cols = len(cost[0])
	}
	m := &Matrix{Rows: rows, Cols: cols, Data: make([]float64, 0, rows*cols)}
	for _, row := range cost {
		m.Data = append(m.Data, row...)
	}
	return m
}

var matrixHashSeed = maphash.MakeSeed()

// contentHash hashes the matrix shape and contents for interning.
func (m *Matrix) contentHash() uint64 {
	var h maphash.Hash
	h.SetSeed(matrixHashSeed)
	var buf [8]byte
	put := func(u uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(m.Rows))
	put(uint64(m.Cols))
	for _, v := range m.Data {
		put(math.Float64bits(v))
	}
	return h.Sum64()
}

// equalContent reports whether two matrices have identical shape and entries
// (bitwise, so NaNs compare equal to themselves for interning purposes).
func (m *Matrix) equalContent(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols || len(m.Data) != len(o.Data) {
		return false
	}
	for i, v := range m.Data {
		if math.Float64bits(v) != math.Float64bits(o.Data[i]) {
			return false
		}
	}
	return true
}
