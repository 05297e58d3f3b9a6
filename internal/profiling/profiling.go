// Package profiling is the profiling block shared by the CLI tools: the
// -pprof, -cpuprofile and -memprofile flags and what they start.  The HTTP
// pprof endpoints (-pprof) serve interactive inspection of a running
// process; the file flags capture whole-run profiles for offline
// `go tool pprof` analysis of the simulator hot path.
package profiling

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags registers -pprof, -cpuprofile and -memprofile on fs and returns
// start, to be called once fs is parsed.  start serves pprof and expvar if
// asked (a server failure is reported on stderr, not returned) and begins
// the CPU profile; the stop it returns ends that profile and writes the
// allocation profile, and must run exactly once, after the workload.
func Flags(fs *flag.FlagSet) (start func(stderr io.Writer) (stop func(), err error)) {
	addr := fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	cpu := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	mem := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	return func(stderr io.Writer) (func(), error) {
		stopCPU := func() {}
		if *cpu != "" {
			var err error
			if stopCPU, err = startCPU(*cpu); err != nil {
				return nil, err
			}
		}
		if *addr != "" {
			// Touching expvar publishes /debug/vars even when nothing
			// else does.
			expvar.NewString("cmd").Set(fs.Name())
			go func() {
				if err := http.ListenAndServe(*addr, nil); err != nil {
					fmt.Fprintf(stderr, "%s: pprof server: %v\n", fs.Name(), err)
				}
			}()
		}
		return func() {
			stopCPU()
			if *mem != "" {
				if err := writeAllocs(*mem); err != nil {
					fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
				}
			}
		}, nil
	}
}

// startCPU begins a CPU profile written to path.  The returned stop
// function ends the profile and closes the file; call it exactly once,
// after the workload finishes.
func startCPU(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeAllocs writes the cumulative allocation profile (alloc_space and
// friends) to path.  A garbage collection runs first so the profile also
// carries accurate live-heap numbers.
func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("alloc profile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		return fmt.Errorf("alloc profile: %w", err)
	}
	return nil
}
