package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildWormlint compiles the linter once per test process.
func buildWormlint(t *testing.T) string {
	t.Helper()
	gocmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not in PATH")
	}
	exe := filepath.Join(t.TempDir(), "wormlint")
	cmd := exec.Command(gocmd, "build", "-o", exe, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building wormlint: %v\n%s", err, out)
	}
	return exe
}

// TestRepoComesUpClean is the contract's local enforcement: the whole
// repository must produce zero wormlint diagnostics and, under -audit,
// no stale or unknown marker — the two gates CI applies to every change.
func TestRepoComesUpClean(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping whole-repo vet")
	}
	exe := buildWormlint(t)
	for _, args := range [][]string{{"wormlan/..."}, {"-audit", "wormlan/..."}} {
		cmd := exec.Command(exe, args...)
		cmd.Dir = ".." + string(os.PathSeparator) + ".." // repo root
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Run(); err != nil {
			t.Fatalf("wormlint %v found violations (or failed): %v\n%s", args, err, out.String())
		}
		if s := strings.TrimSpace(out.String()); s != "" {
			t.Fatalf("wormlint %v: expected silent clean run, got:\n%s", args, s)
		}
	}
}

// TestVettoolCatchesViolations drives the full go vet -vettool protocol
// against a scratch module containing one violation of each analyzer.
func TestVettoolCatchesViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping vettool round-trip")
	}
	exe := buildWormlint(t)
	gocmd, _ := exec.LookPath("go")

	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	write("internal/sim/bad.go", `package sim

import "time"

func Bad(m map[int]int, ch chan int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	go func() { ch <- total }()
	_ = time.Now()
	return total
}
`)

	cmd := exec.Command(gocmd, "vet", "-vettool="+exe, "./...")
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	if err == nil {
		t.Fatalf("go vet -vettool succeeded on a package with violations:\n%s", out.String())
	}
	got := out.String()
	for _, wantFrag := range []string{
		"wormlint/maporder",
		"wormlint/nogoroutine",
		"wormlint/wallclock",
		"range over map is nondeterministic",
		"go statement in deterministic kernel",
		"time.Now reads the host clock",
	} {
		if !strings.Contains(got, wantFrag) {
			t.Errorf("vet output missing %q:\n%s", wantFrag, got)
		}
	}
}

// writeTree materializes a file tree under a fresh temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestVettoolCatchesContractAnalyzers drives the vet protocol against a
// scratch module violating each of the contract-enforcement analyzers
// (poolreset, portbyte, traceguard, kindswitch), proving they survive the
// export-data type-checking path, not just the source-importer test
// harness.
func TestVettoolCatchesContractAnalyzers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping vettool round-trip")
	}
	exe := buildWormlint(t)
	gocmd, _ := exec.LookPath("go")

	dir := writeTree(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		// poolreset: recycle skips Time, which Place mutates.
		"internal/eventq/pool.go": `package eventq

type Item struct {
	Time int64
	Fire func()
	next *Item
}

type Pool struct{ free *Item }

func (p *Pool) Place(it *Item, t int64, fn func(), n *Item) {
	it.Time = t
	it.Fire = fn
	it.next = n
}

func (p *Pool) recycle(it *Item) {
	it.Fire = nil
	it.next = p.free
	p.free = it
}
`,
		// portbyte: hand-rolled VC packing outside internal/route.
		"internal/network/pack.go": `package network

func Pack(vc, port byte) byte { return vc<<6 | port }
`,
		"internal/trace/trace.go": `package trace

type Event struct{ Arg int64 }

type Recorder interface{ Record(Event) }
`,
		// traceguard: an emission with no rec != nil guard in sight.
		"internal/adapter/report.go": `package adapter

import "scratch/internal/trace"

func Report(r trace.Recorder, n int64) {
	r.Record(trace.Event{Arg: n})
}
`,
		"internal/flit/flit.go": `package flit

type Kind uint8

const (
	Header Kind = iota
	Payload
	Tail
)
`,
		// kindswitch: a flit.Kind switch missing Tail, no default.
		"internal/sim/kind.go": `package sim

import "scratch/internal/flit"

func Describe(k flit.Kind) string {
	switch k {
	case flit.Header:
		return "header"
	case flit.Payload:
		return "payload"
	}
	return "?"
}
`,
	})

	cmd := exec.Command(gocmd, "vet", "-vettool="+exe, "./...")
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err == nil {
		t.Fatalf("go vet -vettool succeeded on a module with contract violations:\n%s", out.String())
	}
	got := out.String()
	for _, wantFrag := range []string{
		"wormlint/poolreset",
		"leaves field Time of Item unassigned",
		"wormlint/portbyte",
		"shift by 6 on a byte",
		"wormlint/traceguard",
		"not dominated by a rec != nil guard",
		"wormlint/kindswitch",
		"switch over flit.Kind is not exhaustive: missing Tail",
	} {
		if !strings.Contains(got, wantFrag) {
			t.Errorf("vet output missing %q:\n%s", wantFrag, got)
		}
	}
}

// TestAuditRoundTrip proves the -audit flag survives the whole protocol:
// go vet learns it from -flags, forwards it to every compilation unit, and
// the unit run flags the stale marker — while the ordinary contract gate
// stays clean on the same module (the marker suppresses nothing, so there
// is nothing for the normal run to report).
func TestAuditRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping vettool round-trip")
	}
	exe := buildWormlint(t)
	gocmd, _ := exec.LookPath("go")

	dir := writeTree(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"internal/sim/keys.go": `package sim

func Sum(m map[int]int) int {
	t := 0
	//wormlint:ordered integer sum is order-insensitive
	for _, v := range m {
		t += v
	}
	return t
}

func Keys(m map[int]int) []int {
	ks := make([]int, 0, len(m))
	//wormlint:ordered key collection is order-insensitive
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
`,
	})

	run := func(args ...string) (string, error) {
		cmd := exec.Command(gocmd, args...)
		cmd.Dir = dir
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		err := cmd.Run()
		return out.String(), err
	}

	if got, err := run("vet", "-vettool="+exe, "./..."); err != nil {
		t.Fatalf("contract gate should pass (both loops are justified or exempt): %v\n%s", err, got)
	}
	got, err := run("vet", "-vettool="+exe, "-audit", "./...")
	if err == nil {
		t.Fatalf("audit run should fail on the stale marker:\n%s", got)
	}
	if !strings.Contains(got, "stale //wormlint:ordered marker") || !strings.Contains(got, "wormlint/audit") {
		t.Errorf("audit output missing the stale-marker diagnostic:\n%s", got)
	}
	if n := strings.Count(got, "stale //wormlint:"); n != 1 {
		t.Errorf("audit flagged %d markers, want exactly 1 (the sum-loop marker is live):\n%s", n, got)
	}
}

// TestVersionHandshake checks the -V=full build-caching handshake: the
// output must name the executable and end in a content-derived buildID, or
// go vet will refuse the tool (or, worse, cache stale results).
func TestVersionHandshake(t *testing.T) {
	exe := buildWormlint(t)
	out, err := exec.Command(exe, "-V=full").CombinedOutput()
	if err != nil {
		t.Fatalf("wormlint -V=full: %v\n%s", err, out)
	}
	re := regexp.MustCompile(`^\S*wormlint version \S.* buildID=[0-9a-f]{64}\n$`)
	if !re.Match(out) {
		t.Fatalf("handshake output %q does not match %v", out, re)
	}
}

// TestFlagsDescriptor checks the -flags JSON go vet reads to learn which
// tool flags it may forward: audit must be declared as a boolean.
func TestFlagsDescriptor(t *testing.T) {
	exe := buildWormlint(t)
	out, err := exec.Command(exe, "-flags").CombinedOutput()
	if err != nil {
		t.Fatalf("wormlint -flags: %v\n%s", err, out)
	}
	var flags []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(out, &flags); err != nil {
		t.Fatalf("-flags output is not JSON: %v\n%s", err, out)
	}
	for _, fl := range flags {
		if fl.Name == "audit" {
			if !fl.Bool {
				t.Fatalf("audit flag not declared boolean: %+v", fl)
			}
			if fl.Usage == "" {
				t.Errorf("audit flag has no usage string")
			}
			return
		}
	}
	t.Fatalf("audit flag missing from -flags descriptor: %s", out)
}
