package arrow

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMakefileRunPatternsNameTests: go test -run exits 0 on a pattern
// that matches nothing, so a renamed test would drop out of a smoke
// target without a sound. Every |-alternative of every -run pattern in
// the Makefile must match a Test function in the package its line
// tests. xxx is the Makefile's run-nothing pattern, set beside -bench
// and -fuzz, and is skipped.
func TestMakefileRunPatternsNameTests(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run\s+('[^']*'|\S+)`)
	checked := 0
	for no, line := range strings.Split(string(data), "\n") {
		m := runFlag.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pattern := strings.Trim(m[1], "'")
		if pattern == "xxx" {
			continue
		}
		fields := strings.Fields(line)
		pkg := fields[len(fields)-1]
		if !strings.HasPrefix(pkg, ".") {
			t.Errorf("Makefile:%d: -run %s names no package directory last", no+1, pattern)
			continue
		}
		tests := testNames(t, pkg)
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("Makefile:%d: -run alternative %q: %v", no+1, alt, err)
				continue
			}
			if !slices.ContainsFunc(tests, re.MatchString) {
				t.Errorf("Makefile:%d: -run alternative %q matches no test in %s", no+1, alt, pkg)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no -run pattern in the Makefile")
	}
}

// testNames lists the Test functions declared in a package directory's
// test files.
func testNames(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no test files (%v)", dir, err)
	}
	decl := regexp.MustCompile(`(?m)^func (Test\w*)\(`)
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
