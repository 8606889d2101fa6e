package patlabor

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// patlintBin builds the patlint CLI once per test run. `go run` would
// mangle the exit status (it reports "exit status N" on stderr and exits
// 1), and the tests assert on patlint's real codes: 1 on findings, 2 on
// usage/load errors.
var patlintBin = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "patlint-cli")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "patlint")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/patlint")
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", &exec.Error{Name: string(out), Err: err}
	}
	return bin, nil
})

// runPatlint runs the patlint CLI, returning stdout, stderr and the exit
// code. Unlike runCLI it tolerates nonzero exits.
func runPatlint(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	bin, err := patlintBin()
	if err != nil {
		t.Fatalf("building patlint: %v", err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = "."
	var outBuf, errBuf strings.Builder
	cmd.Stdout = &outBuf
	cmd.Stderr = &errBuf
	err = cmd.Run()
	if err != nil {
		exitErr, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("patlint %v: %v\n%s", args, err, errBuf.String())
		}
		code = exitErr.ExitCode()
	}
	return outBuf.String(), errBuf.String(), code
}

const badCorpus = "internal/patlint/testdata/exactoverflow"

func TestPatlintCLIFindingsAndJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test (builds binaries)")
	}
	// Plain run over a corpus with known findings: exit 1, stable text format.
	stdout, stderr, code := runPatlint(t, badCorpus)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "patlint(exactoverflow):") {
		t.Errorf("text output missing rule tag:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr missing findings summary: %s", stderr)
	}

	// -json: same findings as a machine-readable array with the documented shape.
	stdout, _, code = runPatlint(t, "-json", badCorpus)
	if code != 1 {
		t.Fatalf("-json exit = %d, want 1", code)
	}
	var diags []struct {
		File string `json:"file"`
		Line int    `json:"line"`
		Rule string `json:"rule"`
		Msg  string `json:"msg"`
	}
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, stdout)
	}
	if len(diags) == 0 {
		t.Fatal("-json produced an empty array for a corpus with findings")
	}
	for _, d := range diags {
		if d.File == "" || d.Line <= 0 || d.Rule != "exactoverflow" || d.Msg == "" {
			t.Errorf("malformed JSON diagnostic: %+v", d)
		}
		if filepath.IsAbs(d.File) {
			t.Errorf("JSON file path is absolute, want repo-relative: %s", d.File)
		}
	}

	// -json on a clean package: an empty array (not null), exit 0.
	stdout, _, code = runPatlint(t, "-json", "internal/geom")
	if code != 0 {
		t.Fatalf("clean -json exit = %d, want 0\n%s", code, stdout)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json output = %q, want []", strings.TrimSpace(stdout))
	}
}

func TestPatlintCLIRuleSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test (builds binaries)")
	}
	// Restricting to an unrelated rule silences the corpus findings.
	stdout, _, code := runPatlint(t, "-rules", "sortslice", badCorpus)
	if code != 0 {
		t.Fatalf("-rules sortslice exit = %d, want 0\n%s", code, stdout)
	}
	// An unknown rule is a usage error listing the catalog.
	_, stderr, code := runPatlint(t, "-rules", "nosuchrule", badCorpus)
	if code != 2 || !strings.Contains(stderr, "exactoverflow") {
		t.Fatalf("unknown rule: exit=%d stderr=%s", code, stderr)
	}
}
