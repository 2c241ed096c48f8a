package mpsim

// Tests for the run lifecycle of a reused engine: the run-ownership
// guard, drain-only-when-dirty, and the bounds of the process-wide
// rank-worker pool.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// shouldBeError returns "" when actual is an error whose text is
// exactly msg, and a description of the mismatch otherwise.
func shouldBeError(actual error, msg string) string {
	if actual == nil {
		return "expected error, got nil"
	}
	if actual.Error() != msg {
		return fmt.Sprintf("error message did not match\nexpected: %s\n  actual: %s", msg, actual)
	}
	return ""
}

// holdRun starts a run on e whose rank 0 blocks until release is
// closed, and returns once that run is executing. The run's error is
// delivered on the returned channel.
func holdRun(e *Engine, release <-chan struct{}) <-chan error {
	started := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		result <- e.Run(func(p *Proc) error {
			if p.Rank() == 0 {
				close(started)
				<-release
			}
			return nil
		})
	}()
	<-started
	return result
}

// TestRunGuardRejectsOverlap: a Run or RunPrograms issued while another
// run executes on the same engine returns ErrRunInProgress at once and
// leaves the running run and the engine intact.
func TestRunGuardRejectsOverlap(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		const n = 4
		e := MustNew(n, WithTransport(b), Watchdog(5*time.Second))
		release := make(chan struct{})
		first := holdRun(e, release)

		start := time.Now()
		if err := e.Run(func(p *Proc) error { return nil }); !errors.Is(err, ErrRunInProgress) {
			t.Fatalf("overlapping Run: err = %v, want ErrRunInProgress", err)
		}
		if _, err := e.RunPrograms([]Program{{Members: []int{1, 2}, Body: func(p *Proc) error { return nil }}}); !errors.Is(err, ErrRunInProgress) {
			t.Fatalf("overlapping RunPrograms: err = %v, want ErrRunInProgress", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("overlapping calls took %v to fail, want an immediate error", d)
		}

		close(release)
		if err := <-first; err != nil {
			t.Fatalf("guarded run failed: %v", err)
		}
		err := e.Run(func(p *Proc) error {
			me := p.Rank()
			in, err := p.SendRecv((me+1)%n, []byte{byte(me)}, (me-1+n)%n)
			if err != nil {
				return err
			}
			if want := byte((me - 1 + n) % n); !bytes.Equal(in, []byte{want}) {
				return fmt.Errorf("p%d got %v, want [%d]", me, in, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("run after rejected overlaps: %v", err)
		}
	})
}

// TestRunGuardErrorText pins the exact text of the engine's misuse
// errors, the run-ownership guard among them.
func TestRunGuardErrorText(t *testing.T) {
	noop := func(p *Proc) error { return nil }
	cases := []struct {
		name string
		run  func(e *Engine) error
		want string
	}{
		{
			name: "overlapping Run",
			run: func(e *Engine) error {
				release := make(chan struct{})
				defer close(release)
				holdRun(e, release)
				return e.Run(noop)
			},
			want: "mpsim: engine is already executing a run; runs on one engine must not overlap",
		},
		{
			name: "overlapping RunPrograms",
			run: func(e *Engine) error {
				release := make(chan struct{})
				defer close(release)
				holdRun(e, release)
				_, err := e.RunPrograms([]Program{{Members: []int{1}, Body: noop}})
				return err
			},
			want: "mpsim: engine is already executing a run; runs on one engine must not overlap",
		},
		{
			name: "no programs",
			run: func(e *Engine) error {
				_, err := e.RunPrograms(nil)
				return err
			},
			want: "mpsim: RunPrograms with no programs",
		},
		{
			name: "program without a body",
			run: func(e *Engine) error {
				_, err := e.RunPrograms([]Program{{Members: []int{0}}})
				return err
			},
			want: "mpsim: program 0 has no body",
		},
		{
			name: "overlapping members",
			run: func(e *Engine) error {
				_, err := e.RunPrograms([]Program{{Members: []int{0, 1}, Body: noop}, {Members: []int{1}, Body: noop}})
				return err
			},
			want: "mpsim: rank 1 belongs to programs 0 and 1; programs must be disjoint",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := MustNew(3, Watchdog(5*time.Second))
			if msg := shouldBeError(tc.run(e), tc.want); msg != "" {
				t.Error(msg)
			}
		})
	}
}

// idleWorkers reports how many workers are parked in the pool.
func idleWorkers() int {
	workerPool.mu.Lock()
	defer workerPool.mu.Unlock()
	return len(workerPool.idle)
}

// ringRun runs one checked ring exchange on e; a stale message from an
// earlier run fails the generation check or the content check.
func ringRun(e *Engine, rep int) error {
	n := e.N()
	return e.Run(func(p *Proc) error {
		me := p.Rank()
		for r := 0; r < 3; r++ {
			in, err := p.SendRecv((me+1)%n, []byte{byte(me), byte(r), byte(rep)}, (me-1+n)%n)
			if err != nil {
				return err
			}
			if want := []byte{byte((me - 1 + n) % n), byte(r), byte(rep)}; !bytes.Equal(in, want) {
				return fmt.Errorf("p%d round %d: got %v, want %v", me, r, in, want)
			}
		}
		return nil
	})
}

// ringRuns runs reps checked ring exchanges on e.
func ringRuns(t *testing.T, e *Engine, reps int) {
	t.Helper()
	for rep := 0; rep < reps; rep++ {
		if err := ringRun(e, rep); err != nil {
			t.Fatalf("clean run %d: %v", rep, err)
		}
	}
}

// TestDrainAfterDirtyRuns: a run that leaves an unreceived message
// behind (possible only with validation off) and a run that fails
// mid-round are each followed by clean runs on every backend, with no
// stale message leaking across runs.
func TestDrainAfterDirtyRuns(t *testing.T) {
	dirty := []struct {
		name     string
		validate bool
		body     func(p *Proc) error
		wantErr  string
	}{
		{
			name: "unreceived message",
			body: func(p *Proc) error {
				if p.Rank() == 0 {
					_, err := p.Exchange([]Send{{To: 1, Data: []byte{0xEE}}}, nil)
					return err
				}
				return nil
			},
		},
		{
			name:     "failure mid-round",
			validate: true,
			body: func(p *Proc) error {
				if p.Rank() == 0 {
					if _, err := p.Exchange([]Send{{To: 1, Data: []byte{0xEE}}, {To: 2, Data: []byte{0xEF}}}, nil); err != nil {
						return err
					}
					return errors.New("p0 gives up")
				}
				p.Skip()
				return nil
			},
			wantErr: "p0 gives up",
		},
	}
	forEachBackend(t, func(t *testing.T, b Backend) {
		for _, tc := range dirty {
			t.Run(strings.ReplaceAll(tc.name, " ", "-"), func(t *testing.T) {
				e := MustNew(4, WithTransport(b), Ports(2), Validate(tc.validate), Watchdog(5*time.Second))
				ringRuns(t, e, 1)
				err := e.Run(tc.body)
				if tc.wantErr == "" && err != nil {
					t.Fatalf("dirty run: %v", err)
				}
				if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
					t.Fatalf("dirty run: err = %v, want %q", err, tc.wantErr)
				}
				if !e.dirty {
					t.Fatal("engine not marked dirty after a run that left messages behind")
				}
				ringRuns(t, e, 3)
			})
		}
	})
}

// countingTransport counts Drain calls on a wrapped transport.
type countingTransport struct {
	Transport
	drains int
}

func (c *countingTransport) Drain(recycle func(dst int, data []byte)) {
	c.drains++
	c.Transport.Drain(recycle)
}

// TestCleanRunNeverDrains: runs whose processors received every
// message sent never sweep the mailboxes; only the run after an
// unbalanced one does.
func TestCleanRunNeverDrains(t *testing.T) {
	const n = 4
	e := MustNew(n, Validate(false), Watchdog(5*time.Second))
	ct := &countingTransport{Transport: newChanTransport(n)}
	e.tr = ct
	ringRuns(t, e, 5)
	if ct.drains != 0 {
		t.Fatalf("clean runs drained %d times, want 0", ct.drains)
	}
	err := e.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			_, err := p.Exchange([]Send{{To: 1, Data: []byte{1}}}, nil)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ringRuns(t, e, 5)
	if ct.drains != 1 {
		t.Fatalf("drained %d times after one unbalanced run, want 1", ct.drains)
	}
}

// TestWorkerPoolBoundedAcrossEngines: rank workers are pooled process
// wide, so building, running and dropping many engines leaves at most
// one engine's worth of parked goroutines behind.
func TestWorkerPoolBoundedAcrossEngines(t *testing.T) {
	const n = 64
	runtime.GC()
	baseline := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		e := MustNew(n, Watchdog(5*time.Second))
		ringRuns(t, e, 3)
	}
	runtime.GC()
	if got := runtime.NumGoroutine(); got > baseline+n {
		t.Fatalf("%d goroutines after ten %d-rank engines, baseline %d; want at most baseline + %d", got, n, baseline, n)
	}
}

// TestWorkerPoolConcurrentEngines: engines running at the same time
// share the pool; every run still gets its own workers and checked
// bytes.
func TestWorkerPoolConcurrentEngines(t *testing.T) {
	const engines, n, reps = 4, 16, 20
	var wg sync.WaitGroup
	errs := make([]error, engines)
	for i := 0; i < engines; i++ {
		e := MustNew(n, Watchdog(5*time.Second))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < reps && errs[i] == nil; rep++ {
				errs[i] = ringRun(e, rep)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("engine %d: %v", i, err)
		}
	}
}

// TestWorkerPoolReclaimsZombies: the workers of a watchdog-fenced
// deadlock return to the pool once Abandon wakes their bodies, and the
// next runs reuse them.
func TestWorkerPoolReclaimsZombies(t *testing.T) {
	const n = 4
	e := MustNew(n, Watchdog(50*time.Millisecond))
	ringRuns(t, e, 1) // the pool now holds at least n parked workers
	idle := idleWorkers()
	err := e.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			return nil
		}
		_, err := p.Exchange(nil, []int{0})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	stuck := e.live
	deadline := time.Now().Add(5 * time.Second)
	for stuck.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d zombie processors still running after the fence", stuck.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if got := idleWorkers(); got < idle {
		t.Fatalf("%d idle workers after the zombies exited, %d before the deadlock", got, idle)
	}
	before := runtime.NumGoroutine()
	ringRuns(t, e, 3)
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("runs after the fence spawned workers: %d goroutines, %d before", got, before)
	}
}
