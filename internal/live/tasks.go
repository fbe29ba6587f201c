package live

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// runTasks calls fn(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines and returns once all calls have. Tasks must write disjoint
// memory; one task (or one processor) runs inline on the caller's
// goroutine. It is how the cold path — bucket partials, rollup merges,
// snapshot file decodes — uses every processor (DESIGN.md §11).
func runTasks(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
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
				fn(i)
			}
		}()
	}
	wg.Wait()
}
