// Package pool is the pipeline's one bounded worker pool: parallel unit
// compilation, profiling runs, per-function optimization, and the bench
// suite all hand it indexed work. Callers store results by index and
// merge them in index order, which is what makes every worker count
// produce identical output.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Size maps a parallelism setting onto a worker count: par itself when
// positive, otherwise one worker per core.
func Size(par int) int {
	if par <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return par
}

// Run calls fn(worker, i) exactly once for every i in [0, n), on
// min(Size(par), n) workers that take indices from a shared atomic
// cursor. worker identifies the calling worker (0 <= worker < that
// count) so fn can keep per-worker state without locking. With one
// worker every call runs on the calling goroutine in index order. Run
// returns when every call has.
func Run(n, par int, fn func(worker, i int)) {
	workers := min(Size(par), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
