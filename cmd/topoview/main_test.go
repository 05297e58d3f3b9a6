package main

import (
	"strings"
	"testing"
)

// TestRun pins the command's contract: usage errors exit 2 with the
// library's own message, and each mode prints the lines its users grep.
func TestRun(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
		outs []string // substrings expected on stdout
		errs string   // substring expected on stderr
	}{
		{"unknown topology", []string{"-topology", "moebius"}, 2, nil,
			`topoview: topology: unknown topology "moebius"`},
		{"bad flag", []string{"-nope"}, 2, nil, ""},
		{"summary and levels", []string{"-topology", "myrinet4"}, 0, []string{
			"topology myrinet4: 4 switches, 8 hosts, 12 links",
			"up/down root: s0",
			"  level 0: 1 switches",
			"  level 2: 1 switches",
		}, ""},
		{"routes", []string{"-topology", "myrinet4", "-routes"}, 0, []string{
			"mean route hops: up/down=2.14 tree-restricted=2.43",
		}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb strings.Builder
			if got := run(c.args, &out, &errb); got != c.want {
				t.Fatalf("run(%v) = %d, want %d\nstderr: %s", c.args, got, c.want, errb.String())
			}
			for _, s := range c.outs {
				if !strings.Contains(out.String(), s) {
					t.Errorf("stdout %q does not contain %q", out.String(), s)
				}
			}
			if c.errs != "" && !strings.Contains(errb.String(), c.errs) {
				t.Errorf("stderr %q does not mention %q", errb.String(), c.errs)
			}
		})
	}
}

func TestDOT(t *testing.T) {
	var out, errb strings.Builder
	if got := run([]string{"-topology", "torus4x4", "-dot"}, &out, &errb); got != 0 {
		t.Fatalf("exit %d\nstderr: %s", got, errb.String())
	}
	if !strings.HasPrefix(out.String(), "graph") && !strings.HasPrefix(out.String(), "digraph") {
		t.Fatalf("-dot output does not start a graph:\n%.80s", out.String())
	}
	if strings.Contains(out.String(), "up/down root") {
		t.Fatal("-dot also printed the summary")
	}
}
