package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"flashgraph/internal/serve"
)

// TestPipelineRunsEveryRegisteredAlgorithm drives the CLI pipeline end to
// end — fg-gen → fg-convert → fg-run — for every algorithm in the default
// registry, on the image variant its Caps demand. It is registry-driven:
// an algorithm registered tomorrow is covered with no edit here.
func TestPipelineRunsEveryRegisteredAlgorithm(t *testing.T) {
	dir := t.TempDir()
	run := func(name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(filepath.Join(dir, name), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"flashgraph/cmd/fg-gen", "flashgraph/cmd/fg-convert", "flashgraph/cmd/fg-run").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	el := filepath.Join(dir, "g.el")
	run("fg-gen", "-kind", "rmat", "-scale", "10", "-epv", "8", "-out", el)
	image := func(name string, flags ...string) string {
		path := filepath.Join(dir, name)
		run("fg-convert", append([]string{"-in", el, "-out", path}, flags...)...)
		return path
	}
	directed, weighted, undirected := image("g.fg"), image("gw.fg", "-weights"), image("gu.fg", "-undirected")

	for _, name := range serve.Algorithms() {
		spec, _ := serve.DefaultSpec(name)
		img := directed
		switch {
		case spec.Caps.RequiresUndirected:
			img = undirected
		case spec.Caps.RequiresWeighted:
			img = weighted
		}
		out := run("fg-run", "-graph", img, "-algo", name, "-threads", "2", "-cache-mb", "1", "-throttle=false")
		for _, want := range []string{name + " {", "\nchecksum ", "\nelapsed ", "\ncache "} {
			if !strings.Contains(out, want) {
				t.Errorf("fg-run -algo %s: output lacks %q:\n%s", name, want, out)
			}
		}
	}
	if out, err := exec.Command(filepath.Join(dir, "fg-run"), "-graph", directed, "-algo", "nope").CombinedOutput(); err == nil || !strings.Contains(string(out), "registered: bc, bfs") {
		t.Errorf("fg-run -algo nope: err %v, want a failure listing the registered names:\n%s", err, out)
	}
}
