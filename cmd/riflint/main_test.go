package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestTreeIsClean is the smoke test the acceptance criteria require:
// the full suite over the whole module must report nothing. Any
// finding here means either a new violation slipped in (fix the code)
// or an analyzer grew a false positive (fix the analyzer) — both are
// blocking.
func TestTreeIsClean(t *testing.T) {
	pkgs, err := analysis.Load("", []string{"repro/..."})
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; pattern repro/... no longer matches the module?", len(pkgs))
	}
	for _, d := range analysis.Run(pkgs, analysis.All()) {
		t.Errorf("riflint violation: %s", d)
	}
}

// TestJSONOutput drives the built binary with -json on a violating
// throwaway module and on a clean package: the former must emit a
// parseable array naming the finding, the latter exactly [].
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs it")
	}
	tool, dir := buildTool(t), badModule(t)
	cmd := exec.Command(tool, "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("riflint -json on violating module unexpectedly exited 0:\n%s", out)
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(out, &diags); err != nil {
		t.Fatalf("parsing -json output: %v\n%s", err, out)
	}
	if len(diags) == 0 {
		t.Fatal("-json output is empty; expected the globalrand finding")
	}
	d := diags[0]
	if d.Analyzer != "simdeterminism" || d.Category != "globalrand" {
		t.Errorf("finding attributed to %s/%s, want simdeterminism/globalrand", d.Analyzer, d.Category)
	}
	if d.File == "" || d.Line == 0 || d.Column == 0 {
		t.Errorf("finding position incomplete: %+v", d)
	}
	if !strings.Contains(d.Message, "process-global random stream") {
		t.Errorf("finding message %q does not name the violation", d.Message)
	}

	clean := exec.Command(tool, "-json", "repro/internal/sim")
	cleanOut, err := clean.Output()
	if err != nil {
		t.Fatalf("riflint -json on clean package failed: %v\n%s", err, cleanOut)
	}
	var empty []jsonDiagnostic
	if err := json.Unmarshal(cleanOut, &empty); err != nil {
		t.Fatalf("parsing clean -json output: %v\n%s", err, cleanOut)
	}
	if len(empty) != 0 {
		t.Errorf("clean package produced %d findings in -json output", len(empty))
	}
}

// TestPlainOutputMatchesProblemMatcher pins the contract CI's
// annotations depend on: every plain-text finding line must match the
// regexp in .github/riflint-problem-matcher.json, with the analyzer
// name in its code group, and a clean package must print nothing.
func TestPlainOutputMatchesProblemMatcher(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs it")
	}
	data, err := os.ReadFile("../../.github/riflint-problem-matcher.json")
	if err != nil {
		t.Fatal(err)
	}
	var matcher struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp string
				Code   int
			}
		}
	}
	if err := json.Unmarshal(data, &matcher); err != nil {
		t.Fatalf("parsing problem matcher: %v", err)
	}
	if len(matcher.ProblemMatcher) == 0 || len(matcher.ProblemMatcher[0].Pattern) == 0 {
		t.Fatal("problem matcher has no pattern")
	}
	pattern := matcher.ProblemMatcher[0].Pattern[0]
	re, err := regexp.Compile(pattern.Regexp)
	if err != nil {
		t.Fatalf("compiling problem-matcher regexp: %v", err)
	}

	tool, dir := buildTool(t), badModule(t)
	cmd := exec.Command(tool, "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("riflint on violating module: err = %v, want exit status 1\n%s", err, out)
	}
	if len(out) == 0 {
		t.Fatal("no findings printed; expected the globalrand finding")
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(out), "\n"), "\n") {
		m := re.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("finding line does not match the problem matcher %q:\n%s", pattern.Regexp, line)
			continue
		}
		if got := m[pattern.Code]; got != "simdeterminism" {
			t.Errorf("matcher code group = %q, want simdeterminism:\n%s", got, line)
		}
	}

	clean := exec.Command(tool, "repro/internal/sim")
	cleanOut, err := clean.Output()
	if err != nil {
		t.Fatalf("riflint on clean package failed: %v\n%s", err, cleanOut)
	}
	if len(cleanOut) != 0 {
		t.Errorf("clean package printed findings:\n%s", cleanOut)
	}

	name := regexp.MustCompile(`^[a-z]+$`)
	for _, a := range analysis.All() {
		if !name.MatchString(a.Name) {
			t.Errorf("analyzer name %q would not match the problem matcher's code group", a.Name)
		}
	}
}

// buildTool builds riflint into a temporary directory.
func buildTool(t *testing.T) string {
	t.Helper()
	tool := filepath.Join(t.TempDir(), "riflint")
	build := exec.Command("go", "build", "-o", tool, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building riflint: %v\n%s", err, out)
	}
	return tool
}

// badModule writes a throwaway module whose one function draws from
// the process-global math/rand/v2 stream, and returns its directory.
func badModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module badmod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "bad.go"), `package badmod

import "math/rand/v2"

func Roll() int { return rand.IntN(6) }
`)
	return dir
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}
