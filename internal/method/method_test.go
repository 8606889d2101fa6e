package method

import (
	"context"
	"errors"
	"testing"

	"patlabor/internal/netgen"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"

	"math/rand"
)

func TestRegistryLookup(t *testing.T) {
	cases := []struct{ query, want string }{
		{"patlabor", "PatLabor"},
		{"PatLabor", "PatLabor"},
		{" SALT ", "SALT"},
		{"ysd", "YSD"},
		{"pd", "PD-II"},
		{"pd-ii", "PD-II"},
		{"ks", "Pareto-KS"},
		{"pareto-ks", "Pareto-KS"},
		{"dw", "Pareto-DW"},
		{"exact", "Pareto-DW"},
		{"rsmt", "RSMT"},
		{"rsma", "RSMA"},
	}
	for _, c := range cases {
		m, ok := Get(c.query)
		if !ok {
			t.Fatalf("Get(%q) missed", c.query)
		}
		if m.Name() != c.want {
			t.Fatalf("Get(%q) = %q, want %q", c.query, m.Name(), c.want)
		}
	}
	if _, ok := Get("no-such-method"); ok {
		t.Fatal("unknown method resolved")
	}
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"patlabor", "salt", "ysd", "pd-ii", "pareto-ks", "pareto-dw", "rsmt", "rsma"}
	if len(names) < len(want) {
		t.Fatalf("Names() = %v, want at least %v", names, want)
	}
	for i, w := range want {
		if names[i] != w {
			t.Fatalf("Names()[%d] = %q, want %q (full: %v)", i, names[i], w, names)
		}
	}
}

func TestStandardEntrants(t *testing.T) {
	base := Standard(false)
	if len(base) != 3 || base[0].Name() != "PatLabor" || base[1].Name() != "SALT" || base[2].Name() != "YSD" {
		t.Fatalf("Standard(false) = %v", methodNames(base))
	}
	all := Standard(true)
	if len(all) != 5 || all[3].Name() != "PD-II" || all[4].Name() != "Pareto-KS" {
		t.Fatalf("Standard(true) = %v", methodNames(all))
	}
}

func methodNames(ms []Method) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name()
	}
	return out
}

func TestFuncRejectsEmptyNetAndCancelledContext(t *testing.T) {
	m := NewFunc("probe", func(ctx context.Context, net tree.Net) ([]pareto.Item[*tree.Tree], error) {
		t.Fatal("fn reached despite guard")
		return nil, nil
	})
	net := netgen.Uniform(rand.New(rand.NewSource(1)), 4, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Frontier(ctx, net); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v", err)
	}
	if _, err := m.Frontier(context.Background(), tree.Net{}); err == nil {
		t.Fatal("empty net accepted")
	}
}

func TestRegisterReplaceKeepsOneNamesEntry(t *testing.T) {
	before := len(Names())
	// The probe stays registered after this test, so keep it well-behaved:
	// a star tree is a valid single-point frontier for any net.
	probe := NewFunc("Replace-Probe", func(ctx context.Context, net tree.Net) ([]pareto.Item[*tree.Tree], error) {
		st := tree.Star(net)
		return []pareto.Item[*tree.Tree]{{Sol: st.Sol(), Val: st}}, nil
	})
	Register(probe)
	Register(probe) // replace, not duplicate
	if got := len(Names()); got != before+1 {
		t.Fatalf("Names() grew by %d, want 1", got-before)
	}
	if _, ok := Get("replace-probe"); !ok {
		t.Fatal("replacement probe not resolvable")
	}
}
