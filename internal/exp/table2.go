package exp

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"patlabor/internal/lut"
	"patlabor/internal/textplot"
)

// Table2Result reproduces Table II: lookup table statistics per degree.
type Table2Result struct {
	Stats []lut.DegreeStats
	Sizes []int64 // flat-format bytes per degree row
}

// countingWriter measures the flat-format size without buffering content.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// RunTable2 generates lookup tables eagerly up to eagerMax and a sampled
// slice of the sampleDegree patterns (the per-pattern cost extrapolates to
// the full generation time the paper reports in hours for degree 9).
func RunTable2(ctx context.Context, eagerMax, sampleDegree, sampleCount, workers int) (*Table2Result, error) {
	res := &Table2Result{}
	// row generates one degree into a fresh table and records its
	// statistics and flat-format size.
	row := func(degree int, gen func(*lut.Table) error) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := lut.New()
		if err := gen(t); err != nil {
			return err
		}
		st := t.Stats()
		if len(st) != 1 {
			return fmt.Errorf("exp: unexpected stats for degree %d", degree)
		}
		cw := &countingWriter{}
		if err := t.SaveFlat(cw); err != nil {
			return err
		}
		res.Stats = append(res.Stats, st[0])
		res.Sizes = append(res.Sizes, cw.n)
		return nil
	}
	for d := 4; d <= eagerMax; d++ {
		if err := row(d, func(t *lut.Table) error { return t.Generate(d, workers) }); err != nil {
			return nil, err
		}
	}
	if sampleDegree > eagerMax && sampleCount > 0 {
		err := row(sampleDegree, func(t *lut.Table) error {
			return t.GenerateSample(sampleDegree, workers, sampleCount)
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Render renders the Table II reproduction.
func (r *Table2Result) Render() string {
	var rows [][]string
	for i, st := range r.Stats {
		idx := strconv.Itoa(st.NumIndex)
		gen := fmtDur(st.GenTime)
		if st.SampledOf > 0 {
			idx = fmt.Sprintf("%d of %d (sampled)", st.NumIndex, st.SampledOf)
			denom := st.NumIndex
			if denom < 1 {
				denom = 1
			}
			est := st.GenTime / time.Duration(denom) * time.Duration(st.SampledOf)
			gen = fmt.Sprintf("%s (est. full: %s)", fmtDur(st.GenTime), fmtDur(est))
		}
		rows = append(rows, []string{
			strconv.Itoa(st.Degree), idx,
			fmt.Sprintf("%.2f", st.AvgTopo()),
			fmtBytes(r.Sizes[i]), gen,
		})
	}
	return "Table II — lookup table statistics\n" +
		textplot.Table([]string{"degree", "#index", "#topo (avg)", "size", "gen time"}, rows) +
		"(paper at degree 9: 429,516 indices, 378 avg topologies, 240 MB, 4.68 h on 16 cores)\n"
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
