package main

import (
	"strings"
	"testing"
)

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
		{"figure legal set", []string{"-fig", "nope"}, 2,
			"(want 10, 11, 12, 13, ablations, all, routes, storms)"},
		{"unknown scale", []string{"-fig", "10", "-scale", "huge"}, 2, `unknown scale "huge"`},
		{"bad flag", []string{"-nope"}, 2, ""},
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
		// An impossible per-point timeout makes every simulation point
		// fail mid-run: the error must propagate to a non-zero exit.
		{"figure fails mid-run", []string{"-fig", "10", "-timeout", "1ns"}, 1, "timed out"},
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

func TestFig12RunsClean(t *testing.T) {
	var out, errb strings.Builder
	if got := run([]string{"-fig", "12"}, &out, &errb); got != 0 {
		t.Fatalf("exit %d\nstderr: %s", got, errb.String())
	}
	if !strings.Contains(out.String(), "Figure 12") || !strings.Contains(out.String(), "points") {
		t.Fatalf("output missing figure or sweep report:\n%s", out.String())
	}
}
