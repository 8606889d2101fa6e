package patlint

import (
	"fmt"
	"go/token"
	"slices"
	"strings"
)

// Analyzer is one registered rule: a named check over a single package,
// with access to the module-wide fact tables (call-graph summaries and
// annotation seeds) that earlier packages in dependency order have
// already contributed to. Diagnostics carry the analyzer's name as their
// rule, so ignore directives and -rules selection both key on Name.
type Analyzer struct {
	// Name is the rule name as it appears in diagnostics, ignore
	// directives and the -rules flag.
	Name string
	// Doc is the one-line rule description shown by the driver.
	Doc string
	// Classes gates the analyzer to package classes (bitwise-or of
	// classExact/classAlgo/classRouting); zero runs it on every package.
	Classes class
	// Run analyzes one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package: the parsed and
// type-checked package, the shared file set, the module-wide facts, and
// the report sink already bound to the analyzer's rule name.
type Pass struct {
	Pkg    *Package
	Fset   *token.FileSet
	Facts  *Facts
	report func(pos token.Pos, rule, msg string)
	rule   string
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	p.report(pos, p.rule, msg)
}

// Reportf records a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, p.rule, fmt.Sprintf(format, args...))
}

// registry lists every analyzer in registration (and therefore run)
// order. Diagnostics are position-sorted afterwards, so the order only
// affects tie-breaks between two findings at the same position.
var registry = []*Analyzer{
	{
		Name:    RuleExact,
		Doc:     "no float32/float64 values or math.* floating-point helpers in exact-arithmetic packages",
		Classes: classExact,
		Run:     func(p *Pass) { checkExact(p.Pkg, p.report) },
	},
	{
		Name:    RuleNonDet,
		Doc:     "no wall-clock reads (time.Now/Since) or math/rand in algorithm packages",
		Classes: classAlgo,
		Run:     func(p *Pass) { checkNonDet(p.Pkg, p.report) },
	},
	{
		Name:    RuleMapRange,
		Doc:     "map iteration feeding an appended slice must be followed by a sort",
		Classes: classAlgo,
		Run:     func(p *Pass) { checkMapRange(p.Pkg, p.report) },
	},
	{
		Name:    RuleSortSlice,
		Doc:     "sort.Slice/SliceStable banned module-wide in favour of slices.SortFunc",
		Classes: 0,
		Run:     func(p *Pass) { checkSortSlice(p.Pkg, p.report) },
	},
	{
		Name:    RuleCtxBg,
		Doc:     "no context.Background()/TODO() inside context-aware routing functions",
		Classes: classRouting,
		Run:     checkCtxBg,
	},
	{
		Name:    RuleCtxLoop,
		Doc:     "iteration-scale loops in context-aware functions must reach a cancellation check",
		Classes: classRouting,
		Run:     checkCtxLoops,
	},
	{
		Name:    RuleSharedMut,
		Doc:     "no in-place mutation of cache-owned data (//patlint:shared provenance)",
		Classes: classExact | classRouting,
		Run:     checkSharedMut,
	},
	{
		Name:    RuleCancelLoop,
		Doc:     "loops transitively calling cancellable routing work must check the context",
		Classes: classRouting,
		Run:     checkCancelLoop,
	},
	{
		Name:    RuleGoLeak,
		Doc:     "goroutines need a ctx/channel exit path; unbuffered sends need a select",
		Classes: classExact | classRouting,
		Run:     checkGoLeak,
	},
	{
		Name:    RuleOverflow,
		Doc:     "unbounded int64 multiply/shift/accumulation in exact packages needs a checked helper",
		Classes: classExact,
		Run:     checkOverflow,
	},
}

// Rules returns the registered rule names in registration order, plus the
// ignore meta-rule (which is not an analyzer but does own diagnostics).
func Rules() []string {
	out := make([]string, 0, len(registry)+1)
	for _, a := range registry {
		out = append(out, a.Name)
	}
	out = append(out, RuleIgnore)
	return out
}

// Docs returns "name: doc" lines for the driver's rule listing.
func Docs() []string {
	out := make([]string, 0, len(registry))
	for _, a := range registry {
		out = append(out, a.Name+": "+a.Doc)
	}
	return out
}

// knownRule reports whether name is a registered rule (or the ignore
// meta-rule); ignore directives naming anything else are themselves
// findings — a stale directive suppresses nothing and rots.
func knownRule(name string) bool {
	if name == RuleIgnore {
		return true
	}
	for _, a := range registry {
		if a.Name == name {
			return true
		}
	}
	return false
}

// selectAnalyzers resolves a -rules style list (nil or empty = all) to
// the analyzers to run, in registration order.
func selectAnalyzers(rules []string) ([]*Analyzer, error) {
	if len(rules) == 0 {
		return registry, nil
	}
	want := make(map[string]bool, len(rules))
	for _, r := range rules {
		r = strings.TrimSpace(r)
		if r == "" {
			continue
		}
		if !knownRule(r) || r == RuleIgnore {
			return nil, fmt.Errorf("patlint: unknown rule %q (known: %s)", r, strings.Join(Rules(), ", "))
		}
		want[r] = true
	}
	var out []*Analyzer
	for _, a := range registry {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("patlint: -rules selected no analyzers")
	}
	return out, nil
}

// sortDiagnostics orders diagnostics by (file, line, column, rule) — the
// canonical stable order of every output mode.
func sortDiagnostics(diags []Diagnostic) {
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		if a.Pos.Filename != b.Pos.Filename {
			return strings.Compare(a.Pos.Filename, b.Pos.Filename)
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line - b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column - b.Pos.Column
		}
		return strings.Compare(a.Rule, b.Rule)
	})
}
