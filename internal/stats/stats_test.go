package stats

import (
	"math"
	"testing"
)

func TestLinearRegressionExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-9 || math.Abs(fit.Intercept-3) > 1e-9 {
		t.Fatalf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-9 {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
	if fit.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestLinearRegressionNoisy(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := []float64{1, 2.9, 5.2, 6.8, 9.1, 10.9}
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope < 1.8 || fit.Slope > 2.2 {
		t.Fatalf("slope = %v", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{2}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := LinearRegression([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := LinearRegression([]float64{3, 3}, []float64{1, 2}); err == nil {
		t.Fatal("degenerate x accepted")
	}
}

func TestLinearRegressionNegativeIntercept(t *testing.T) {
	fit, err := LinearRegression([]float64{1, 2}, []float64{0, 2}) // y = 2x - 2
	if err != nil {
		t.Fatal(err)
	}
	if got := fit.String(); got == "" || fit.Intercept >= 0 {
		t.Fatalf("fit = %+v (%s)", fit, got)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
}
