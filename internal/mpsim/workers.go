package mpsim

import "sync"

// rankWorker is one goroutine of the process-wide pool that executes
// rank bodies for every engine. Workers are stateless between jobs:
// all run state lives on the Proc a worker is handed, so one pool
// serves any number of engines and needs no Close or finalizer. A
// worker that finishes a job parks itself in the pool before it
// reports completion, so by the time an engine's run has joined, every
// worker that served it is already available to the next run — the
// pool therefore never holds more workers than the most ranks that
// ever ran at once in the process.
type rankWorker struct {
	// job carries the next Proc to run. Capacity 1 lets a dispatcher
	// hand over a job before the worker has reached its receive.
	job chan *Proc
}

// workerPool is the idle stack of parked rank workers.
var workerPool struct {
	mu   sync.Mutex
	idle []*rankWorker
}

// startRanks runs each Proc's body on a pooled worker, spawning new
// workers only for the Procs the idle stack cannot serve. taken is
// caller-owned scratch for the popped workers, returned (possibly
// grown) for reuse.
func startRanks(procs []*Proc, taken []*rankWorker) []*rankWorker {
	workerPool.mu.Lock()
	idle := workerPool.idle
	m := min(len(procs), len(idle))
	taken = append(taken[:0], idle[len(idle)-m:]...)
	clear(idle[len(idle)-m:])
	workerPool.idle = idle[:len(idle)-m]
	workerPool.mu.Unlock()

	for i, p := range procs {
		if i < m {
			taken[i].job <- p
			continue
		}
		w := &rankWorker{job: make(chan *Proc, 1)}
		go w.loop(p)
	}
	clear(taken)
	return taken[:0]
}

// loop runs jobs forever. The crew pointer is read before the body
// runs: once the worker signals completion the engine may reinitialize
// the Proc for its next run.
func (w *rankWorker) loop(p *Proc) {
	for {
		c := p.crew
		p.runBody()
		workerPool.mu.Lock()
		workerPool.idle = append(workerPool.idle, w)
		workerPool.mu.Unlock()
		c.finished()
		p = <-w.job
	}
}
