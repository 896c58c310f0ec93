// Command fg-loc tracks ROADMAP aim 2's metric: non-test Go lines per
// package. Run from the repository root,
//
//	go run ./cmd/fg-loc        # print the counts; exit 1 if a package outgrew LOC.txt
//	go run ./cmd/fg-loc -w     # rewrite LOC.txt with the current counts
//
// LOC.txt holds one "<lines> <package dir>" row per package. A package
// may shrink freely; growing past its row (or appearing without one)
// fails the check until the PR that grows it reruns -w and checks the
// new number in, where a reviewer sees it. Lines are counted as wc -l
// counts them, over every .go file that is not a _test.go file.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const ledger = "LOC.txt"

func main() {
	write := flag.Bool("w", false, "rewrite "+ledger+" with the current counts")
	flag.Parse()

	counts, err := countPackages(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fg-loc:", err)
		os.Exit(2)
	}
	dirs := make([]string, 0, len(counts))
	for dir := range counts {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)

	if *write {
		var out bytes.Buffer
		for _, dir := range dirs {
			fmt.Fprintf(&out, "%d %s\n", counts[dir], dir)
		}
		if err := os.WriteFile(ledger, out.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fg-loc:", err)
			os.Exit(2)
		}
		return
	}

	budget, err := readLedger(ledger)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fg-loc:", err)
		os.Exit(2)
	}
	failed := false
	for _, dir := range dirs {
		limit, known := budget[dir]
		verdict := ""
		switch {
		case !known:
			verdict = "  <- not in " + ledger
			failed = true
		case counts[dir] > limit:
			verdict = fmt.Sprintf("  <- over %s by %d", ledger, counts[dir]-limit)
			failed = true
		}
		fmt.Printf("%7d %7d  %s%s\n", counts[dir], limit, dir, verdict)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "fg-loc: a package grew past %s; shrink it, or rerun with -w and check the new count in\n", ledger)
		os.Exit(1)
	}
}

// countPackages returns the non-test Go line count of every directory
// under root that holds Go files, keyed by slash-separated path.
func countPackages(root string) (map[string]int, error) {
	counts := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		counts[filepath.ToSlash(filepath.Dir(path))] += bytes.Count(data, []byte{'\n'})
		return nil
	})
	return counts, err
}

// readLedger parses LOC.txt.
func readLedger(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	budget := map[string]int{}
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var n int
		var dir string
		if _, err := fmt.Sscanf(line, "%d %s", &n, &dir); err != nil {
			return nil, fmt.Errorf("%s:%d: want \"<lines> <package dir>\": %v", path, i+1, err)
		}
		budget[dir] = n
	}
	return budget, nil
}
