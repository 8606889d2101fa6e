// Package stats provides the small statistical toolkit the experiment
// harness needs: simple linear regression (for the Figure 6 frontier-size
// fit) and means. Implemented on float64 with stdlib only.
package stats

import "fmt"

// LinFit is a least-squares line y = Slope*x + Intercept with its
// coefficient of determination.
type LinFit struct {
	Slope, Intercept, R2 float64
	N                    int
}

// String renders the fit like the paper's Figure 6 caption.
func (f LinFit) String() string {
	sign := "+"
	b := f.Intercept
	if b < 0 {
		sign, b = "-", -b
	}
	return fmt.Sprintf("y=%.2fx%s%.1f (R²=%.3f, n=%d)", f.Slope, sign, b, f.R2, f.N)
}

// LinearRegression fits y = a*x + b by least squares. It requires at least
// two distinct x values.
func LinearRegression(xs, ys []float64) (LinFit, error) {
	if len(xs) != len(ys) {
		return LinFit{}, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return LinFit{}, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinFit{}, fmt.Errorf("stats: degenerate x values")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	// R² = 1 - SSres/SStot.
	meanY := sy / n
	var ssRes, ssTot float64
	for i := range xs {
		pred := slope*xs[i] + intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinFit{Slope: slope, Intercept: intercept, R2: r2, N: len(xs)}, nil
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
