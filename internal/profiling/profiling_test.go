package profiling

import (
	"errors"
	"flag"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func nonEmpty(t *testing.T, path string) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatalf("%s is empty", path)
	}
}

func TestStartCPUWritesProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	stop, err := startCPU(path)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	nonEmpty(t, path)
}

func TestWriteAllocsWritesProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.prof")
	if err := writeAllocs(path); err != nil {
		t.Fatal(err)
	}
	nonEmpty(t, path)
}

// An uncreatable path comes back as an error that names the profile and
// still unwraps to the file-system cause.
func TestUncreatablePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no-such-dir", "x.prof")
	if _, err := startCPU(path); !errors.Is(err, fs.ErrNotExist) || !strings.HasPrefix(err.Error(), "cpu profile:") {
		t.Errorf("startCPU: %v", err)
	}
	if err := writeAllocs(path); !errors.Is(err, fs.ErrNotExist) || !strings.HasPrefix(err.Error(), "alloc profile:") {
		t.Errorf("writeAllocs: %v", err)
	}
}

// Flags wires the file profiles to a FlagSet: start begins the CPU profile
// (an uncreatable path is its error), stop writes both files.
func TestFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	set := flag.NewFlagSet("tool", flag.ContinueOnError)
	start := Flags(set)
	if err := set.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := start(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	nonEmpty(t, cpu)
	nonEmpty(t, mem)

	set = flag.NewFlagSet("tool", flag.ContinueOnError)
	start = Flags(set)
	if err := set.Parse([]string{"-cpuprofile", filepath.Join(dir, "no-such-dir", "x.prof")}); err != nil {
		t.Fatal(err)
	}
	if _, err := start(io.Discard); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("start: %v", err)
	}
}
