package param

import (
	"context"
	"patlabor/internal/dw"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// dwSols exposes the concrete Pareto-DW frontier as the reference result
// for validating symbolic enumeration.
func dwSols(net tree.Net) ([]pareto.Sol, error) {
	return dw.FrontierSolsContext(context.Background(), net, dw.DefaultOptions())
}
