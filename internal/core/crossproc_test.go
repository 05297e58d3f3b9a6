package core

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

const (
	crossProcEnv = "WORMLAN_CROSSPROC_CHILD"
	crossProcOut = "WORMLAN_CROSSPROC_OUT"
)

// TestCrossProcChild is the child half of TestCrossProcessDeterminism:
// it runs one Figure 10 point and writes the row, full float precision,
// to the file named by WORMLAN_CROSSPROC_OUT.  It is inert unless the
// parent sets WORMLAN_CROSSPROC_CHILD=1.
func TestCrossProcChild(t *testing.T) {
	if os.Getenv(crossProcEnv) != "1" {
		t.Skip("helper for TestCrossProcessDeterminism")
	}
	g := Fig10Grid(Quick, 7, 0)
	g.Points = g.Points[:1] // one (scheme, load) cell is enough to detect divergence
	rows := runSeq(t, g)
	var out bytes.Buffer
	for _, r := range rows {
		fmt.Fprintf(&out, "%s %v %v %v %v %d\n",
			r.Scheme, r.Load, r.MCLatency, r.Uni, r.Thpt, r.Samples)
	}
	if err := os.WriteFile(os.Getenv(crossProcOut), out.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestCrossProcessDeterminism runs one Fig10 point in two separate
// processes and byte-compares their output.  Each process gets its own
// map hash seed, so map-order dependence that in-process replay happens
// to miss (iteration orders that collide within one process) still shows
// up here.
func TestCrossProcessDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping cross-process run")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func(name string) []byte {
		t.Helper()
		out := filepath.Join(dir, name)
		cmd := exec.Command(exe, "-test.run=^TestCrossProcChild$", "-test.count=1")
		cmd.Env = append(os.Environ(), crossProcEnv+"=1", crossProcOut+"="+out)
		if o, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child process: %v\n%s", err, o)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := run("a")
	b := run("b")
	if len(a) == 0 {
		t.Fatal("child produced no output")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("cross-process runs diverged:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}
