// Command repolint runs the repo's invariant suite (internal/analysis):
// determinism, hot-path allocation, trace.Block pool discipline, and core
// kernel float discipline.
//
//	repolint [packages]          # static analyzers (default ./...)
//	repolint -escape [packages]  # + go build -gcflags=-m escape cross-check
//
// Exit status is non-zero when any unsuppressed finding remains; findings
// are suppressed only by the //repro: directives documented in README
// "Invariants", each of which must carry a justification.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/hotpath"
)

func main() {
	escapeFlag := flag.Bool("escape", false, "also run the go build -gcflags=-m escape-analysis cross-check on //repro:hotpath functions")
	dirFlag := flag.String("C", ".", "directory to run from (module root)")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	pkgs, err := framework.Load(*dirFlag, args...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		os.Exit(1)
	}

	suite := analysis.Suite()
	var diags []framework.Diagnostic
	for _, pkg := range pkgs {
		var in []*framework.Analyzer
		for _, s := range suite {
			if s.Match == nil || s.Match(pkg.ImportPath) {
				in = append(in, s.Analyzer)
			}
		}
		if len(in) == 0 {
			continue
		}
		ds, err := framework.Run(pkg, in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
			os.Exit(1)
		}
		diags = append(diags, ds...)
	}

	if *escapeFlag {
		ds, err := escapeCheck(*dirFlag, args, pkgs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repolint: escape check: %v\n", err)
			os.Exit(1)
		}
		diags = append(diags, ds...)
	}

	framework.SortDiagnostics(diags)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// escapeCheck drives the compiler's escape analysis over the requested
// packages and flags any heap allocation inside a //repro:hotpath function.
// The build cache replays -m output, so warm runs are cheap.
func escapeCheck(dir string, patterns []string, pkgs []*framework.Package) ([]framework.Diagnostic, error) {
	ranges := hotpath.Ranges(pkgs)
	if len(ranges) == 0 {
		return nil, nil
	}
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m=1"}, patterns...)...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out)
	}
	abs, err := absDir(dir)
	if err != nil {
		return nil, err
	}
	findings := hotpath.ParseBuildOutput(out, abs)
	return hotpath.CheckEscapes(ranges, findings, hotpath.AllocOKLines(pkgs)), nil
}

func absDir(dir string) (string, error) {
	if dir == "." {
		return os.Getwd()
	}
	cwd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if strings.HasPrefix(dir, "/") {
		return dir, nil
	}
	return cwd + "/" + dir, nil
}
