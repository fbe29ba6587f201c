// Package linalg provides the small dense linear-algebra kernel used by the
// model-fitting code: ordinary least squares over a dense row-major matrix,
// solved by Householder QR.
//
// The matrices involved in this project are tiny (design matrices of a few
// hundred rows by ≤4 columns), so the implementation optimises for clarity
// and numerical robustness rather than cache blocking.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// matrix is a dense row-major matrix of float64.
type matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// newMatrix returns a zeroed Rows×Cols matrix. It panics if either dimension is
// not positive, which always indicates a programming error.
func newMatrix(rows, cols int) *matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// fromRows builds a matrix from a slice of equal-length rows.
func fromRows(rows [][]float64) (*matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("linalg: FromRows requires a non-empty row set")
	}
	m := newMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			return nil, fmt.Errorf("linalg: row %d has %d columns, want %d", i, len(r), m.Cols)
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m, nil
}

// at returns element (i, j). Bounds are checked by the slice access.
func (m *matrix) at(i, j int) float64 { return m.Data[i*m.Cols+j] }

// set assigns element (i, j).
func (m *matrix) set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// clone returns a deep copy of m.
func (m *matrix) clone() *matrix {
	c := newMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// mulVec returns the matrix–vector product m·x.
func (m *matrix) mulVec(x []float64) ([]float64, error) {
	if m.Cols != len(x) {
		return nil, fmt.Errorf("linalg: cannot multiply %dx%d by vector of length %d", m.Rows, m.Cols, len(x))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// errSingular is returned when a solve encounters a (numerically) singular
// system.
var errSingular = errors.New("linalg: matrix is singular to working precision")

// qr holds a packed Householder QR factorisation of an m×n matrix (m >= n),
// following the LINPACK convention: the reflector vectors v_k live in column
// k at rows k..m-1 (with v_k[k] stored on the diagonal), and the diagonal of
// R is kept separately in rdiag. The strict upper triangle holds R.
type qr struct {
	a     *matrix
	rdiag []float64
	ncols int
}

// factorQR computes the Householder QR factorisation of a (copied, not
// modified). It requires a.Rows >= a.Cols.
func factorQR(a *matrix) (*qr, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: QR requires rows >= cols, got %dx%d", a.Rows, a.Cols)
	}
	m := a.clone()
	n := m.Cols
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		// Norm of column k over rows k..m-1.
		var norm float64
		for i := k; i < m.Rows; i++ {
			norm = math.Hypot(norm, m.at(i, k))
		}
		if norm == 0 {
			rdiag[k] = 0
			continue
		}
		// Choose the sign so that v_k[k] = 1 + |x_k|/norm >= 1, which keeps
		// the reflector application well conditioned.
		if m.at(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m.Rows; i++ {
			m.set(i, k, m.at(i, k)/norm)
		}
		m.set(k, k, m.at(k, k)+1)
		// Apply the reflector H_k = I − v vᵀ / v[k] to the remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m.Rows; i++ {
				s += m.at(i, k) * m.at(i, j)
			}
			s = -s / m.at(k, k)
			for i := k; i < m.Rows; i++ {
				m.set(i, j, m.at(i, j)+s*m.at(i, k))
			}
		}
		rdiag[k] = -norm
	}
	return &qr{a: m, rdiag: rdiag, ncols: n}, nil
}

// solve computes the least-squares solution of A·x ≈ b given the packed
// factorisation. b is not modified.
func (f *qr) solve(b []float64) ([]float64, error) {
	m := f.a
	if m.Rows != len(b) {
		return nil, fmt.Errorf("linalg: QR solve dimension mismatch: %d rows vs b of length %d", m.Rows, len(b))
	}
	n := f.ncols
	y := make([]float64, len(b))
	copy(y, b)
	// Apply the reflectors in order: y = Qᵀ b.
	for k := 0; k < n; k++ {
		if f.rdiag[k] == 0 {
			return nil, errSingular
		}
		vk := m.at(k, k)
		var s float64
		for i := k; i < m.Rows; i++ {
			s += m.at(i, k) * y[i]
		}
		s = -s / vk
		for i := k; i < m.Rows; i++ {
			y[i] += s * m.at(i, k)
		}
	}
	// Back substitution against R (diagonal in rdiag, rest in the packed
	// upper triangle).
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= m.at(i, j) * x[j]
		}
		rkk := f.rdiag[i]
		if math.Abs(rkk) < 1e-13 {
			return nil, errSingular
		}
		x[i] = s / rkk
	}
	return x, nil
}

// solveLeastSquares returns the x minimising ‖A·x − b‖₂ via Householder QR.
// It requires A.Rows >= A.Cols and full column rank.
func solveLeastSquares(a *matrix, b []float64) ([]float64, error) {
	f, err := factorQR(a)
	if err != nil {
		return nil, err
	}
	return f.solve(b)
}
