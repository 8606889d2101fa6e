// Package patlint is the repo's domain-invariant static-analysis suite.
// It mechanically enforces the correctness guarantees that PatLabor's
// differential tests rely on but the compiler cannot see:
//
//   - exact: the exact-arithmetic packages (geom, tree, pareto, dw, ks,
//     hanan, param, lut, rsmt, rsma) must not let float32/float64 values
//     or math.* floating-point helpers flow into their computations —
//     all coordinates, wirelengths, delays and dominance tests are exact
//     int64, with no epsilon comparisons anywhere.
//   - maprange: in deterministic packages, a `range` over a map whose
//     iteration feeds an appended slice must be followed by a sort of
//     that slice — otherwise output bytes depend on map iteration order.
//   - nondet: algorithm packages must not read wall-clock time
//     (time.Now/time.Since) or import math/rand outside _test.go files.
//   - sortslice: sort.Slice/sort.SliceStable are banned in favour of
//     slices.SortFunc/slices.SortStableFunc (the reflection-based
//     swapper accounted for 39% of allocated objects in internal/dw).
//   - ctxbg: in routing packages, a function that accepts a
//     context.Context must not manufacture context.Background()/TODO();
//     only ctx-less entry points (the public patlabor wrappers, rsmt.Tree)
//     may do that.
//   - ctxloop: in routing packages, a loop doing iteration-scale work
//     (nested loops, or calls into context-aware callees) inside a
//     context-aware function must reach a cancellation check.
//   - sharedmut: values whose provenance is a cache (`//patlint:shared`
//     functions and types — SubCache sub-frontiers, ECO memo entries,
//     LUT snapshots) must never be written through: no element assigns,
//     no in-place append/copy/delete, no sorting, no calls into mutating
//     methods or functions. Clone first.
//   - cancelloop: a loop that transitively reaches cancellable routing
//     work through ctx-less wrappers must still check the context — the
//     interprocedural completion of ctxloop, which only sees direct
//     ctx-taking callees.
//   - goleak: a `go` statement must launch something that can be stopped
//     (a context reference or a channel operation inside any loop), and
//     sends on locally made unbuffered channels must sit in a select so
//     an abandoned receiver cannot strand the sender.
//   - exactoverflow: in exact packages, int64 multiplies of two
//     unbounded operands, shifts of unbounded values, and loop
//     accumulation of unbounded call results must go through the checked
//     helpers (param.MulCheck/AddCheck/ShiftCheck, geom.AddCheck), which
//     panic loudly instead of wrapping silently.
//
// Findings are suppressed line-by-line (or declaration-by-declaration)
// with `//patlint:ignore <rule> <reason>`; the reason is mandatory and
// the rule name must exist. The analyzers use only the standard library
// (go/parser, go/ast, go/types, go/importer) so the tool builds with
// zero dependencies. Interprocedural facts (cache-ownership seeds,
// mutator summaries, ctx-work reachability, overflow-checked helpers)
// are collected per package in dependency order before analyzers run;
// see facts.go.
package patlint

import (
	"fmt"
	"go/token"
	"path"
	"strings"
)

// Rule names, as they appear in diagnostics and ignore directives.
const (
	RuleExact      = "exact"
	RuleMapRange   = "maprange"
	RuleNonDet     = "nondet"
	RuleSortSlice  = "sortslice"
	RuleCtxBg      = "ctxbg"
	RuleCtxLoop    = "ctxloop"
	RuleSharedMut  = "sharedmut"
	RuleCancelLoop = "cancelloop"
	RuleGoLeak     = "goleak"
	RuleOverflow   = "exactoverflow"
	RuleIgnore     = "ignore" // malformed or stale ignore directives
)

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos  token.Position // absolute file position
	Rule string
	Msg  string
}

// Format renders the diagnostic in the canonical patlint format with the
// file path relative to root: "pkg/file.go:line: patlint(rule): message".
func (d Diagnostic) Format(root string) string {
	return fmt.Sprintf("%s:%d: patlint(%s): %s", relTo(root, d.Pos.Filename), d.Pos.Line, d.Rule, d.Msg)
}

// JSONDiagnostic is the machine-readable form of one finding, with the
// file path relative to the module root so output is stable across
// checkouts.
type JSONDiagnostic struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// ToJSON converts sorted diagnostics to their machine-readable form, in
// the same canonical (file, line, column, rule) order.
func ToJSON(root string, diags []Diagnostic) []JSONDiagnostic {
	out := make([]JSONDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, JSONDiagnostic{
			File: relTo(root, d.Pos.Filename),
			Line: d.Pos.Line,
			Rule: d.Rule,
			Msg:  d.Msg,
		})
	}
	return out
}

// relTo makes an absolute file path root-relative (the identity for
// paths outside root).
func relTo(root, file string) string {
	if rel, ok := strings.CutPrefix(file, root+"/"); ok {
		return rel
	}
	return file
}

// class is the set of rule families that apply to a package.
type class uint8

const (
	classExact   class = 1 << iota // exact int64 arithmetic: no floats, no math.*
	classAlgo                      // deterministic algorithm: no clock/rand, ordered map output
	classRouting                   // context-aware routing: ctxbg + ctxloop
)

// exactPkgs are the internal packages whose arithmetic must stay exact.
var exactPkgs = map[string]bool{
	"geom": true, "tree": true, "pareto": true, "dw": true, "ks": true,
	"hanan": true, "param": true, "lut": true, "rsmt": true, "rsma": true,
	"eco": true, "hier": true,
}

// algoPkgs extends the exact set with the packages whose *outputs* must be
// deterministic even though they may hold floats (none do today).
var algoPkgs = map[string]bool{
	"core": true, "salt": true, "pd": true, "ysd": true, "embed": true,
}

// routingPkgs are the context-threaded packages (PR 3 threaded ctx at
// iteration granularity through these).
var routingPkgs = map[string]bool{
	"core": true, "dw": true, "ks": true, "ysd": true, "engine": true,
	"method": true, "salt": true, "pd": true, "rsmt": true, "rsma": true,
	"eco": true, "hier": true, "pool": true,
}

// floatAllowed documents the packages where floats are legitimate
// (reporting, policy scoring, plotting). They are simply not members of
// exactPkgs; the map exists so the rule catalog can name them.
var floatAllowed = map[string]bool{
	"policy": true, "stats": true, "textplot": true,
}

// fixtureClasses classifies the analyzer test fixtures under
// internal/patlint/testdata by directory base name, so each fixture
// package opts in to exactly the rule families it exercises.
var fixtureClasses = map[string]class{
	"exactness":     classExact | classAlgo,
	"determinism":   classAlgo,
	"ctxrules":      classRouting,
	"sorthygiene":   0, // sortslice applies unconditionally
	"ignore":        classExact | classAlgo | classRouting,
	"allowed":       0, // a float-using package outside the exact set
	"sharedmut":     classExact,
	"cancelloop":    classRouting,
	"goleak":        classRouting,
	"exactoverflow": classExact,
}

// classFor returns the rule families applying to an import path.
func classFor(importPath string) class {
	if strings.Contains(importPath, "/testdata/") {
		return fixtureClasses[path.Base(importPath)]
	}
	rest, ok := strings.CutPrefix(importPath, "patlabor/internal/")
	if !ok {
		return 0
	}
	name, _, _ := strings.Cut(rest, "/")
	var c class
	if exactPkgs[name] {
		c |= classExact | classAlgo
	}
	if algoPkgs[name] {
		c |= classAlgo
	}
	if routingPkgs[name] {
		c |= classRouting
	}
	return c
}

// Check loads the packages matched by patterns (relative to the loader's
// module) and runs every registered analyzer, returning the surviving
// diagnostics in deterministic (file, line, column) order. Ignore
// directives have been applied; malformed or stale directives surface as
// patlint(ignore) findings.
func Check(l *Loader, patterns []string) ([]Diagnostic, error) {
	return CheckRules(l, patterns, nil)
}

// CheckRules is Check restricted to the named rules (nil or empty runs
// all). Fact collection always runs over the full load set in dependency
// order, so a restricted run sees the same interprocedural summaries a
// full run would.
func CheckRules(l *Loader, patterns []string, rules []string) ([]Diagnostic, error) {
	analyzers, err := selectAnalyzers(rules)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.Load(patterns)
	if err != nil {
		return nil, err
	}
	// Load returns dependencies before importers, so by the time a
	// package's facts are collected every callee it can name already has
	// its summary; analyzers then run with the complete tables.
	facts := newFacts()
	for _, p := range pkgs {
		facts.collect(p)
	}
	var diags []Diagnostic
	for _, p := range pkgs {
		if !p.Target {
			continue
		}
		c := classFor(p.Path)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			if a.Classes != 0 && c&a.Classes == 0 {
				continue
			}
			a.Run(&Pass{
				Pkg:   p,
				Fset:  l.Fset,
				Facts: facts,
				rule:  a.Name,
				report: func(pos token.Pos, rule, msg string) {
					pkgDiags = append(pkgDiags, Diagnostic{Pos: l.Fset.Position(pos), Rule: rule, Msg: msg})
				},
			})
		}
		diags = append(diags, applyIgnores(l.Fset, p, pkgDiags)...)
	}
	sortDiagnostics(diags)
	return diags, nil
}
