package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"wormlan/internal/sweep"
)

// rows runs mcbench and returns its stdout without the wall-clock report
// lines and the blank lines that separate figures — the form the tracked
// results_*.txt files are kept in.
func rows(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb strings.Builder
	if got := run(args, &out, &errb); got != 0 {
		t.Fatalf("run(%v) = %d\nstderr: %s", args, got, errb.String())
	}
	var sb strings.Builder
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if line != "\n" && !strings.HasPrefix(line, "  [") {
			sb.WriteString(line)
		}
	}
	return sb.String()
}

// TestExitCodes pins the process contract: usage errors exit 2, mid-run
// figure failures exit 1 — a figure must never fail silently with exit 0.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
		errs string // substring expected on stderr
	}{
		{"unknown figure", []string{"-fig", "14"}, 2, `unknown figure "14"`},
		{"garbage figure", []string{"-fig", "bogus"}, 2, "unknown figure"},
		// One line; TestEverythingDerivesFromTheTable shows the set is the
		// table's.
		{"figure legal set", []string{"-fig", "nope"}, 2,
			"mcbench: unknown figure \"nope\" (want 10, 11, 12, 13, ablations, all, routes, storms)\n"},
		{"unknown scale", []string{"-fig", "10", "-scale", "huge"}, 2, `unknown scale "huge"`},
		{"bad flag", []string{"-nope"}, 2, ""},
		// The point cache and the per-point timeout are gone.
		{"no -cache", []string{"-cache", "x"}, 2, "flag provided but not defined: -cache"},
		{"no -timeout", []string{"-timeout", "1s"}, 2, "flag provided but not defined: -timeout"},
		// The -route contract shared with wormsim: exit 2 with the full
		// legal set in the message, before any simulation runs.
		{"unknown route", []string{"-fig", "routes", "-route", "left-hand"}, 2,
			"unknown route scheme"},
		{"route legal set", []string{"-fig", "routes", "-route", "left-hand"}, 2,
			"adaptive, clos, fullmesh, shufflenet, updown, vcmin"},
		// A lane count no fabric accepts is a usage error too: one line
		// from network's own check, not a panic out of the first point.
		{"vcs out of range", []string{"-fig", "10", "-vcs", "9"}, 2,
			"mcbench: network: NumVCs 9 outside [1,4]\n"},
		// So is an unknown detection mode, whatever the figure: wormsim's
		// text, before any work.
		{"unknown detect mode", []string{"-fig", "12", "-detect", "psychic"}, 2,
			"mcbench: fault: unknown detection mode \"psychic\" (want oracle or hello)\n"},
		// A hello period longer than the whole storm detects nothing, so
		// every storm's own checks fail mid-run: the error must propagate
		// to a non-zero exit.
		{"figure fails mid-run", []string{"-fig", "storms", "-detect", "hello", "-hello-interval", "100000000"}, 1,
			"no remap completed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb strings.Builder
			got := run(c.args, &out, &errb)
			if got != c.want {
				t.Fatalf("run(%v) = %d, want %d\nstderr: %s", c.args, got, c.want, errb.String())
			}
			if c.errs != "" && !strings.Contains(errb.String(), c.errs) {
				t.Fatalf("stderr %q does not mention %q", errb.String(), c.errs)
			}
		})
	}
}

// TestFigureTable drives every row of the table once: every name is
// accepted and prints its own block, 12 and 13 name the one joint run, and
// results_ablations.txt is what the CLI prints (the ablations print the
// same at either scale and every point is seeded, so that comparison is
// byte for byte — core.TestFig12And13Golden does the same for
// results_fig12_13.txt, CI's bench job for all four files).
func TestFigureTable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs every quick grid")
	}
	headers := map[string]string{
		"10":        "Figure 10:",
		"11":        "Figure 11:",
		"12":        "Figure 12:",
		"13":        "Figure 13:",
		"ablations": "Ablation: two buffer classes",
		"routes":    "Routing comparison:",
		"storms":    "torus-storm ",
	}
	got := map[string]string{}
	for _, f := range figures {
		// One routes curve keeps tier-1 short; the flag is inert elsewhere.
		got[f.name] = rows(t, "-fig", f.name, "-seed", "1996", "-route", "fullmesh")
		want, ok := headers[f.name]
		if !ok {
			t.Errorf("figure %q has no expected header in this test", f.name)
		} else if !strings.Contains(got[f.name], want) {
			t.Errorf("-fig %s output lacks %q:\n%s", f.name, want, got[f.name])
		}
	}
	if got["12"] != got["13"] {
		t.Errorf("-fig 12 and -fig 13 differ:\n%s\n%s", got["12"], got["13"])
	}
	want, err := os.ReadFile("../../results_ablations.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got["ablations"] != string(want) {
		t.Errorf("results_ablations.txt is stale (regenerate with `mcbench -fig ablations -seed 1996`):\ngot:\n%swant:\n%s", got["ablations"], want)
	}
}

// TestEverythingDerivesFromTheTable swaps in a table of stub figures: -fig
// all prints exactly the inAll rows, once each, in table order; a name
// dispatches to its row; the legal set in the help text and in the
// unknown-figure error is the table's names plus "all"; a failing row
// exits 1 and stops the run.
func TestEverythingDerivesFromTheTable(t *testing.T) {
	saved := figures
	t.Cleanup(func() { figures = saved })
	stub := func(name string, inAll bool, err error) figure {
		return figure{name: name, inAll: inAll, run: func(_ context.Context, _ *sweep.Engine, _ params, w io.Writer) error {
			fmt.Fprintf(w, "rows of %s\n", name)
			return err
		}}
	}
	figures = []figure{stub("zeta", true, nil), stub("opt", false, nil), stub("alpha", true, nil)}
	if got, want := rows(t, "-fig", all), "rows of zeta\nrows of alpha\n"; got != want {
		t.Errorf("-fig all printed %q, want %q", got, want)
	}
	if got, want := rows(t, "-fig", "opt"), "rows of opt\n"; got != want {
		t.Errorf("-fig opt printed %q, want %q", got, want)
	}
	var out, errb strings.Builder
	if code := run([]string{"-fig", "10"}, &out, &errb); code != 2 ||
		errb.String() != "mcbench: unknown figure \"10\" (want all, alpha, opt, zeta)\n" {
		t.Errorf("-fig 10 against the stub table: exit %d, stderr %q", code, errb.String())
	}
	errb.Reset()
	if code := run([]string{"-h"}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "figure to regenerate: all, alpha, opt, zeta") {
		t.Errorf("-h: exit %d, help text %q", code, errb.String())
	}
	figures = []figure{stub("first", true, nil), stub("broken", true, errors.New("boom")), stub("never", true, nil)}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-fig", all}, &out, &errb); code != 1 ||
		!strings.Contains(errb.String(), "mcbench: -fig broken: boom") || strings.Contains(out.String(), "never") {
		t.Errorf("failing row: exit %d, stderr %q, stdout %q", code, errb.String(), out.String())
	}
}

// TestFig12RunsClean: the report line counts the figure's sweep points.
func TestFig12RunsClean(t *testing.T) {
	var out, errb strings.Builder
	if got := run([]string{"-fig", "12"}, &out, &errb); got != 0 {
		t.Fatalf("exit %d\nstderr: %s", got, errb.String())
	}
	if !strings.Contains(out.String(), "Figure 12") || !strings.Contains(out.String(), "points") {
		t.Fatalf("output missing figure or sweep report:\n%s", out.String())
	}
}
