// Package sweep is a data-parallel experiment engine for figure grids.
// Every evaluation artifact in this repo — the paper's figures, the
// DESIGN.md ablations, the chaos storm matrix — is a grid of independent
// simulation points; the deterministic byte-level kernel makes it safe to
// run those points on separate goroutines as long as each point owns its
// own kernel and RNG streams.  The engine fans a Grid's points out across
// a bounded worker pool, derives an independent deterministic seed per
// point (see PointIdentity), honours context cancellation, and streams
// progress through a callback.  It stores no results and puts no
// wall-clock bound on a point: the whole evaluation regenerates in under
// half a minute, and every point stops at a virtual-time deadline.
//
// Determinism contract: a point's result may depend only on its derived
// seed and its Config; it must never read shared mutable state or the
// wall clock.  Under that contract the rows returned by Run are identical
// for any worker count — the equivalence tests in internal/core pin this.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Point is one independent unit of work in a grid.
type Point[R any] struct {
	// Config is the point's declarative identity: a JSON-marshalable
	// value (typically a small struct) that fully determines the work.
	// It is hashed — together with the grid name and base seed — into
	// the point key and the per-point seed, so two points with equal
	// Configs in the same grid are the same point.
	Config any
	// Run executes the point.  seed is the derived per-point seed; ctx
	// is cancelled when the sweep is aborted (long-running kernels may
	// ignore it — the engine still stops dispatching new points).
	Run func(ctx context.Context, seed uint64) (R, error)
}

// Grid is a declarative set of independent points plus the identity
// namespace they are keyed under.
type Grid[R any] struct {
	// Name namespaces the grid's point keys and seeds (e.g. "fig10").
	Name string
	// BaseSeed is folded into every point's identity, so sweeping the
	// same grid under a different seed re-runs every point.
	BaseSeed uint64
	// Points are the cells.  Run returns their results in this order
	// regardless of execution schedule.
	Points []Point[R]
}

// Add appends a point.
func (g *Grid[R]) Add(config any, run func(ctx context.Context, seed uint64) (R, error)) {
	g.Points = append(g.Points, Point[R]{Config: config, Run: run})
}

// Progress reports one completed (or failed) point.  Callbacks are
// serialized by the engine; Done is monotonically increasing.
type Progress struct {
	Grid    string
	Index   int // point index within the grid
	Total   int
	Done    int // points completed so far, including this one
	Key     string
	Err     error
	Elapsed time.Duration // time spent executing this point
}

// Engine holds the execution policy for sweeps.  The zero value runs
// points on GOMAXPROCS workers.
type Engine struct {
	// Workers bounds concurrent points; <= 0 means GOMAXPROCS.
	// Workers == 1 is exact sequential execution.
	Workers int
	// OnProgress, when non-nil, receives one serialized callback per
	// completed point.
	OnProgress func(Progress)
}

// Run executes every point of the grid and returns the results in point
// order.  The first point error cancels the remaining points and is
// returned (annotated with its point index); results computed before the
// failure are discarded.  Execution order is unspecified, but the result
// slice, each point's derived seed, and each point's key are independent
// of Workers.
func Run[R any](ctx context.Context, e *Engine, g Grid[R]) ([]R, error) {
	if e == nil {
		e = &Engine{}
	}
	n := len(g.Points)
	if n == 0 {
		return nil, nil
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]R, n)
	errs := make([]error, n)
	var (
		mu   sync.Mutex
		done int
	)
	report := func(p Progress) {
		mu.Lock()
		done++
		p.Done = done
		if e.OnProgress != nil {
			e.OnProgress(p)
		}
		mu.Unlock()
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				start := time.Now()
				r, key, err := runPoint(ctx, g, i)
				results[i], errs[i] = r, err
				if err != nil {
					cancel() // first failure aborts the sweep
				}
				report(Progress{Grid: g.Name, Index: i, Total: n,
					Key: key, Err: err, Elapsed: time.Since(start)})
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Mark undispatched points cancelled so the error scan
			// below can distinguish them from real failures.
			for j := i; j < n; j++ {
				if errs[j] == nil {
					errs[j] = context.Cause(ctx)
					if errs[j] == nil {
						errs[j] = ctx.Err()
					}
				}
			}
			break feed
		}
	}
	close(idx)
	wg.Wait()

	// Deterministic error selection: the lowest-index real failure wins;
	// cancellation errors only surface if nothing else failed.
	var firstCancel error
	for i, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if firstCancel == nil {
				firstCancel = err
			}
		default:
			return nil, fmt.Errorf("sweep %s: point %d: %w", g.Name, i, err)
		}
	}
	if firstCancel != nil {
		return nil, fmt.Errorf("sweep %s: %w", g.Name, firstCancel)
	}
	return results, nil
}

// runPoint resolves one point's identity and executes it.
func runPoint[R any](ctx context.Context, g Grid[R], i int) (r R, key string, err error) {
	key, seed, err := PointIdentity(g.Name, g.BaseSeed, g.Points[i].Config)
	if err != nil {
		return r, key, err
	}
	if err = ctx.Err(); err != nil {
		return r, key, err
	}
	run := g.Points[i].Run
	if run == nil {
		return r, key, fmt.Errorf("nil Run func")
	}
	r, err = run(ctx, seed)
	return r, key, err
}
