package pool

import (
	"slices"
	"sync/atomic"
	"testing"
)

// TestRunCoversEveryIndexOnce: every index runs exactly once (so n = 0
// makes no call), the worker index stays below the worker count, and
// results stored by index are the same at every parallelism setting —
// including settings below one (every core) and above n (clamped to n
// workers).
func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64} {
		var ref []int
		for _, par := range []int{-1, 0, 1, 2, n + 3} {
			workers := min(Size(par), n)
			calls := make([]atomic.Int32, n)
			out := make([]int, n)
			var total, badWorker atomic.Int32
			Run(n, par, func(worker, i int) {
				total.Add(1)
				if worker < 0 || worker >= workers {
					badWorker.Add(1)
				}
				calls[i].Add(1)
				out[i] = i*i + 1
			})
			if int(total.Load()) != n {
				t.Errorf("n=%d par=%d: %d calls, want %d", n, par, total.Load(), n)
			}
			if badWorker.Load() != 0 {
				t.Errorf("n=%d par=%d: %d calls with a worker index outside [0, %d)", n, par, badWorker.Load(), workers)
			}
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("n=%d par=%d: index %d ran %d times", n, par, i, c)
				}
			}
			if ref == nil {
				ref = out
			} else if !slices.Equal(out, ref) {
				t.Errorf("n=%d par=%d: results differ from par=-1", n, par)
			}
		}
	}
}
