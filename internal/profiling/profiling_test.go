package profiling

import (
	"errors"
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
	stop, err := StartCPU(path)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	nonEmpty(t, path)
}

func TestWriteAllocsWritesProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.prof")
	if err := WriteAllocs(path); err != nil {
		t.Fatal(err)
	}
	nonEmpty(t, path)
}

// An uncreatable path comes back as an error that names the profile and
// still unwraps to the file-system cause.
func TestUncreatablePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no-such-dir", "x.prof")
	if _, err := StartCPU(path); !errors.Is(err, fs.ErrNotExist) || !strings.HasPrefix(err.Error(), "cpu profile:") {
		t.Errorf("StartCPU: %v", err)
	}
	if err := WriteAllocs(path); !errors.Is(err, fs.ErrNotExist) || !strings.HasPrefix(err.Error(), "alloc profile:") {
		t.Errorf("WriteAllocs: %v", err)
	}
}
