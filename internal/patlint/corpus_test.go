package patlint_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"patlabor/internal/patlint"
)

// markRe finds the expected-diagnostic markers of a corpus fixture,
// usually in a trailing comment: `want(rule): message` expects the finding
// on its own line and `wantprev(rule): message` the one on the line
// above, for a //patlint:ignore directive, which cannot carry a comment of
// its own. The message is the finding's full text; it runs to the next
// marker on the line (a "//" before it is dropped) or to the end of the
// line.
var markRe = regexp.MustCompile(`\bwant(prev)?\((\w+)\): `)

type wantMark struct {
	file    string
	line    int
	rule    string
	msg     string
	matched bool
}

// corpusMarks collects the markers of one fixture file.
func corpusMarks(file, src string) []*wantMark {
	var wants []*wantMark
	for i, text := range strings.Split(src, "\n") {
		locs := markRe.FindAllStringSubmatchIndex(text, -1)
		for k, loc := range locs {
			end := len(text)
			if k+1 < len(locs) {
				end = locs[k+1][0]
			}
			msg := strings.TrimSpace(text[loc[1]:end])
			if k+1 < len(locs) {
				msg = strings.TrimSpace(strings.TrimSuffix(msg, "//"))
			}
			line := i + 1
			if loc[2] >= 0 {
				line--
			}
			wants = append(wants, &wantMark{file: file, line: line, rule: text[loc[4]:loc[5]], msg: msg})
		}
	}
	return wants
}

// corpus is one fixture directory under testdata. A split corpus holds
// its marked violations in bad.go and must-not-flag code in good.go; the
// others mix both in one file, where every unmarked line must not flag.
// A clean corpus has no markers: the package's class keeps the rules its
// code would break switched off.
type corpus struct {
	dir          string
	split, clean bool
}

// TestAnalyzerCorpus checks the corpora of the interprocedural analyzers
// and of the stale-ignore meta-rule.
func TestAnalyzerCorpus(t *testing.T) {
	checkCorpora(t, []corpus{
		{dir: "sharedmut", split: true},
		{dir: "cancelloop", split: true},
		{dir: "goleak", split: true},
		{dir: "exactoverflow", split: true},
		{dir: "staleignore"},
	})
}

// TestFixtureGolden checks the per-family fixtures of the intraprocedural
// analyzers and the ignore directive. Their markers carry the full
// expected diagnostics, so the fixture source is its own golden record.
// The allowed fixture asserts the class gating: floats and map-order
// leaks outside the exact/deterministic packages produce no findings.
func TestFixtureGolden(t *testing.T) {
	checkCorpora(t, []corpus{
		{dir: "exactness"},
		{dir: "determinism"},
		{dir: "sorthygiene"},
		{dir: "ctxrules"},
		{dir: "ignore"},
		{dir: "allowed", clean: true},
	})
}

// checkCorpora runs the full analyzer suite over each corpus and requires
// an exact match between findings and markers: every marker must produce
// its finding, with the full message (true positives), and every finding
// must have a marker (no false positives).
func checkCorpora(t *testing.T, corpora []corpus) {
	t.Helper()
	l, err := loader()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpora {
		t.Run(c.dir, func(t *testing.T) {
			fixDir := filepath.Join("testdata", c.dir)
			entries, err := os.ReadDir(fixDir)
			if err != nil {
				t.Fatal(err)
			}
			var wants []*wantMark
			sawGood := false
			for _, ent := range entries {
				if !strings.HasSuffix(ent.Name(), ".go") {
					continue
				}
				if ent.Name() == "good.go" {
					sawGood = true
				}
				data, err := os.ReadFile(filepath.Join(fixDir, ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				wants = append(wants, corpusMarks(ent.Name(), string(data))...)
			}
			if c.clean != (len(wants) == 0) {
				t.Fatalf("corpus %s has %d want markers; a clean corpus has none, any other some", c.dir, len(wants))
			}
			if c.split && !sawGood {
				t.Fatalf("corpus %s has no good.go must-not-flag file", c.dir)
			}
			diags, err := patlint.Check(l, []string{"internal/patlint/testdata/" + c.dir})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				base := filepath.Base(d.Pos.Filename)
				matched := false
				for _, w := range wants {
					if !w.matched && w.file == base && w.line == d.Pos.Line &&
						w.rule == d.Rule && w.msg == d.Msg {
						w.matched = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", d.Format(l.Root))
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("missing finding: %s:%d: patlint(%s): %s", w.file, w.line, w.rule, w.msg)
				}
			}
		})
	}
}

// TestRuleSelection pins the -rules surface: a restricted run reports
// only the selected rule's findings, and unknown names are load errors
// listing the catalog.
func TestRuleSelection(t *testing.T) {
	l, err := loader()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := patlint.CheckRules(l, []string{"internal/patlint/testdata/exactoverflow"}, []string{patlint.RuleOverflow})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("restricted run produced no exactoverflow findings")
	}
	for _, d := range diags {
		if d.Rule != patlint.RuleOverflow {
			t.Errorf("restricted run leaked rule %s", d.Rule)
		}
	}
	if _, err := patlint.CheckRules(l, []string{"./..."}, []string{"nosuchrule"}); err == nil {
		t.Fatal("unknown rule did not error")
	} else if !strings.Contains(err.Error(), patlint.RuleSharedMut) {
		t.Errorf("unknown-rule error does not list the catalog: %v", err)
	}
}

// TestRegistryCatalog pins that the four interprocedural analyzers are
// registered and enabled by default.
func TestRegistryCatalog(t *testing.T) {
	rules := strings.Join(patlint.Rules(), ",")
	for _, want := range []string{
		patlint.RuleSharedMut, patlint.RuleCancelLoop, patlint.RuleGoLeak, patlint.RuleOverflow,
	} {
		if !strings.Contains(rules, want) {
			t.Errorf("rule %s not registered (have: %s)", want, rules)
		}
	}
	if len(patlint.Docs()) != len(patlint.Rules())-1 {
		t.Errorf("Docs()/Rules() length mismatch: %d vs %d (ignore meta-rule has no analyzer)",
			len(patlint.Docs()), len(patlint.Rules()))
	}
}
