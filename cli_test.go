package patlabor

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI builds and runs a command of this module with `go run`.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLINetgenAndRouter(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test (builds binaries)")
	}
	dir := t.TempDir()
	out := runCLI(t, "./cmd/netgen", "-o", dir, "-designs", "1", "-nets", "4")
	if !strings.Contains(out, "synth01.nets") {
		t.Fatalf("netgen output: %s", out)
	}
	netsFile := filepath.Join(dir, "synth01.nets")
	if _, err := os.Stat(netsFile); err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"patlabor", "salt", "ysd", "pd", "ks"} {
		out = runCLI(t, "./cmd/patlabor", "-nets", netsFile, "-method", method)
		if !strings.Contains(out, "Pareto solutions") {
			t.Fatalf("%s router output: %s", method, out)
		}
	}
}

func TestCLIGadget(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	dir := t.TempDir()
	out := runCLI(t, "./cmd/netgen", "-o", dir, "-gadget", "2")
	if !strings.Contains(out, "sgadget_m2") {
		t.Fatalf("gadget output: %s", out)
	}
	out = runCLI(t, "./cmd/patlabor", "-nets", filepath.Join(dir, "sgadget_m2.nets"))
	// m=2 gadget has at least 4 Pareto solutions.
	if !strings.Contains(out, "Pareto solutions") {
		t.Fatalf("router output: %s", out)
	}
}

func TestCLILutgenRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	table := filepath.Join(t.TempDir(), "t.plut")
	out := runCLI(t, "./cmd/lutgen", "-degrees", "4", "-o", table, "-check")
	if !strings.Contains(out, "degree 4:") || !strings.Contains(out, "wrote "+table) {
		t.Fatalf("lutgen output: %s", out)
	}
	net := NewNet(Pt(0, 0), Pt(10, 4), Pt(3, 9), Pt(8, 1))
	cands, err := Route(net, Options{TablePath: table})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactFrontier(net)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != len(exact) {
		t.Fatalf("table-backed route %d candidates, exact %d", len(cands), len(exact))
	}
}

func TestCLILutgenShardMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	dir := t.TempDir()
	const shards = 2
	paths := make([]string, shards)
	for s := 0; s < shards; s++ {
		paths[s] = filepath.Join(dir, "shard"+string(rune('0'+s))+".plut")
		out := runCLI(t, "./cmd/lutgen", "-degrees", "4", "-shard",
			string(rune('0'+s))+"/2", "-o", paths[s], "-check")
		if !strings.Contains(out, "shard") {
			t.Fatalf("shard %d output: %s", s, out)
		}
	}
	// Merging a strict subset fails, naming the missing shards.
	out := runCLIErr(t, "./cmd/lutgen", "-merge", "-o", filepath.Join(dir, "bad.plut"), paths[0])
	if !strings.Contains(out, "missing shards [1]") {
		t.Fatalf("partial merge output: %s", out)
	}
	// The full merge covers the degree and routes exactly.
	merged := filepath.Join(dir, "merged.plut")
	runCLI(t, append([]string{"./cmd/lutgen", "-merge", "-degrees", "4", "-check", "-o", merged}, paths...)...)
	net := NewNet(Pt(0, 0), Pt(10, 4), Pt(3, 9), Pt(8, 1))
	cands, err := Route(net, Options{TablePath: merged})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactFrontier(net)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != len(exact) {
		t.Fatalf("merged-table route %d candidates, exact %d", len(cands), len(exact))
	}
}

func TestCLIExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	out := runCLI(t, "./cmd/experiments", "-quick", "-exp", "thm1")
	if !strings.Contains(out, "Theorem 1") {
		t.Fatalf("experiments output: %s", out)
	}
}

// runCLIErr runs a command expecting failure; it returns combined output.
func runCLIErr(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go run %v succeeded, want failure\n%s", args, out)
	}
	return string(out)
}

func TestCLIMethodTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	dir := t.TempDir()
	runCLI(t, "./cmd/netgen", "-o", dir, "-designs", "1", "-nets", "4")
	netsFile := filepath.Join(dir, "synth01.nets")

	// A generous timeout routes end to end.
	out := runCLI(t, "./cmd/patlabor", "-nets", netsFile, "-method", "salt", "-timeout", "30s")
	if !strings.Contains(out, "Pareto solutions") {
		t.Fatalf("salt with timeout: %s", out)
	}
	// An expired deadline aborts the batch with a context error.
	out = runCLIErr(t, "./cmd/patlabor", "-nets", netsFile, "-method", "salt", "-timeout", "1ns")
	if !strings.Contains(out, "deadline exceeded") {
		t.Fatalf("expired deadline output: %s", out)
	}
	// -timeout also bounds the experiment driver.
	out = runCLIErr(t, "./cmd/experiments", "-quick", "-exp", "thm1", "-timeout", "1ns")
	if !strings.Contains(out, "deadline exceeded") {
		t.Fatalf("experiments expired deadline output: %s", out)
	}
}

func TestCLIPatlint(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	// The repository itself lints clean (the CI gate).
	out := runCLI(t, "./cmd/patlint", "./...")
	if strings.TrimSpace(out) != "" {
		t.Fatalf("patlint on clean repo produced output:\n%s", out)
	}
	// Every seeded-violation fixture makes the driver exit nonzero with
	// diagnostics in the canonical format.
	for _, fixture := range []string{"exactness", "determinism", "sorthygiene", "ctxrules", "ignore"} {
		out = runCLIErr(t, "./cmd/patlint", "internal/patlint/testdata/"+fixture)
		if !strings.Contains(out, "patlint(") {
			t.Fatalf("fixture %s: no diagnostics in output:\n%s", fixture, out)
		}
	}
	// The allowlisted-package fixture exits zero: floats are fine there.
	out = runCLI(t, "./cmd/patlint", "internal/patlint/testdata/allowed")
	if strings.TrimSpace(out) != "" {
		t.Fatalf("patlint on allowed fixture produced output:\n%s", out)
	}
}
