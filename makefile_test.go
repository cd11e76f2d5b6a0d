package arrow

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMakefileRunPatternsNameTests: go test -run and -bench exit 0 on a
// pattern that matches nothing, so a renamed test would drop out of a
// smoke target, and a renamed benchmark out of make bench, bench-tables
// and BENCH.json, without a sound. Every |-alternative of every -run and
// -bench pattern in the Makefile must match a Test (for -run) or
// Benchmark (for -bench) function in the package its line names: the
// first directory token after the pattern. Make's $$ is unescaped
// first. xxx is the Makefile's run-nothing pattern, set beside -bench
// and -fuzz, and is skipped.
func TestMakefileRunPatternsNameTests(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	flag := regexp.MustCompile(`(?:^|\s)-(run|bench)\s+('[^']*'|\S+)`)
	checked := map[string]int{}
	for no, line := range strings.Split(string(data), "\n") {
		for _, m := range flag.FindAllStringSubmatchIndex(line, -1) {
			kind := line[m[2]:m[3]]
			pattern := strings.ReplaceAll(strings.Trim(line[m[4]:m[5]], "'"), "$$", "$")
			if pattern == "xxx" {
				continue
			}
			rest := strings.Fields(line[m[1]:])
			i := slices.IndexFunc(rest, func(f string) bool { return strings.HasPrefix(f, ".") })
			if i < 0 {
				t.Errorf("Makefile:%d: -%s %s names no package directory after it", no+1, kind, pattern)
				continue
			}
			pkg := rest[i]
			prefix := "Test"
			if kind == "bench" {
				prefix = "Benchmark"
			}
			funcs := funcNames(t, pkg, prefix)
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile:%d: -%s alternative %q: %v", no+1, kind, alt, err)
					continue
				}
				if !slices.ContainsFunc(funcs, re.MatchString) {
					t.Errorf("Makefile:%d: -%s alternative %q matches no %s function in %s", no+1, kind, alt, prefix, pkg)
				}
				checked[kind]++
			}
		}
	}
	if checked["run"] == 0 || checked["bench"] == 0 {
		t.Fatalf("found no -run or no -bench pattern in the Makefile: %v", checked)
	}
}

// funcNames lists the functions whose names start with prefix (Test or
// Benchmark) declared in a package directory's test files.
func funcNames(t *testing.T, dir, prefix string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no test files (%v)", dir, err)
	}
	decl := regexp.MustCompile(`(?m)^func (` + prefix + `\w*)\(`)
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
	}
	return names
}
