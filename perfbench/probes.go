package main

import (
	"fmt"
	"runtime"
	"time"

	"bruck"
	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/mpsim"
)

// probeShape is what the layer probes need to know about a workload:
// its machine size, a representative plan with its buffers, and the
// calls that reach that plan through the public Machine API.
type probeShape struct {
	n, blockLen, msgBytes int
	topo                  *bruck.Topology // nil on a flat machine
	counts                [][]int         // a layout table at the workload's shape
	plan                  *bruck.Plan
	in, out               *bruck.Buffers
	m                     *bruck.Machine // the workload's machine, which plan runs on
	// fresh builds a machine like m, with an empty plan cache.
	fresh func() (*bruck.Machine, error)
	// compile resolves plan's configuration through a machine's plan
	// cache: a hit on m, a miss on a fresh machine. It is the call the
	// workload itself makes.
	compile func(m *bruck.Machine) (*bruck.Plan, error)
	call    func() error // the Machine call equivalent to plan.Execute(in, out)
}

// layerMetric is one per-layer metric with a note for the table.
type layerMetric struct {
	name  string
	value float64
	unit  string
	note  string
}

// probeBudget bounds the time each timing probe repeats for.
const probeBudget = 250 * time.Millisecond

// repeat times f until budget is spent (at least minReps, at most
// maxReps calls) and returns each call's wall time in seconds.
func repeat(minReps, maxReps int, f func()) []float64 {
	var d []float64
	deadline := now().Add(probeBudget)
	for len(d) < minReps || (len(d) < maxReps && now().Before(deadline)) {
		start := now()
		f()
		d = append(d, time.Since(start).Seconds())
	}
	return d
}

// mibPerS times f, which moves bytes per call, repeated enough times
// per sample that one sample covers at least 1 MiB, and returns the
// median rate.
func mibPerS(bytes int, f func()) float64 {
	passes := max(1, (1<<20)/max(bytes, 1))
	d := repeat(5, 1000, func() {
		for i := 0; i < passes; i++ {
			f()
		}
	})
	return float64(bytes*passes) / (1 << 20) / median(d)
}

// mallocsPer returns the heap allocations per call of f over reps calls.
func mallocsPer(reps int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// layerMetrics derives the per-layer metrics of a traced run from its
// loop, the spans of the loop's traced half, and the probes.
func layerMetrics(w workload, lp loop, tr *tracer) ([]layerMetric, error) {
	sh, err := w.probe()
	if err != nil {
		return nil, fmt.Errorf("probe shape: %w", err)
	}
	p50 := percentile(sortedCopy(lp.lat), 0.5)
	share := func(sec float64) string { return fmt.Sprintf("%.1f%% of untraced latency p50", 100*sec/p50) }
	var out []layerMetric
	add := func(name string, v float64, unit, note string) {
		out = append(out, layerMetric{name, v, unit, note})
	}

	// mpsim: a fresh engine of the workload's size and topology.
	opts := []mpsim.Option{mpsim.Ports(1), mpsim.Validate(true), mpsim.WithTransport(mpsim.BackendChan)}
	if sh.topo != nil {
		opts = append(opts, mpsim.WithTopology(sh.topo.GroupAssignment()))
	}
	var e *mpsim.Engine
	newEngine := repeat(3, 10, func() {
		if err == nil {
			e, err = mpsim.New(sh.n, opts...)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("engine probe: %w", err)
	}
	e = nil
	heap := liveHeap()
	if e, err = mpsim.New(sh.n, opts...); err != nil {
		return nil, fmt.Errorf("engine probe: %w", err)
	}
	engineHeap := liveHeap() - heap

	// Each timed probe below first runs once with its error checked.
	noop := func(*mpsim.Proc) error { return nil }
	if err := e.Run(noop); err != nil {
		return nil, fmt.Errorf("empty-run probe: %w", err)
	}
	empty := median(repeat(20, 500, func() { _ = e.Run(noop) }))
	emptyAllocs := mallocsPer(50, func() { _ = e.Run(noop) })

	sends := make([][]mpsim.Send, sh.n)
	froms := make([][]int, sh.n)
	intos := make([][][]byte, sh.n)
	for r := 0; r < sh.n; r++ {
		sends[r] = []mpsim.Send{{To: (r + 1) % sh.n, Data: make([]byte, sh.msgBytes)}}
		froms[r] = []int{(r + sh.n - 1) % sh.n}
		intos[r] = [][]byte{make([]byte, sh.msgBytes)}
	}
	shift := func(p *mpsim.Proc) error {
		r := p.Rank()
		return p.ExchangeInto(sends[r], froms[r], intos[r])
	}
	if err := e.Run(shift); err != nil {
		return nil, fmt.Errorf("ring-shift probe: %w", err)
	}
	ring := median(repeat(20, 500, func() { _ = e.Run(shift) }))

	add("mpsim.empty_run_us", empty*1e6, "us", share(empty))
	add("mpsim.empty_run_allocs", emptyAllocs, "count", "")
	add("mpsim.msg_ns", (ring-empty)/float64(sh.n)*1e9, "ns",
		fmt.Sprintf("ring-shift round of %d-byte messages minus an empty run, per message", sh.msgBytes))
	add("mpsim.new_engine_s", median(newEngine), "s", fmt.Sprintf("n = %d", sh.n))
	add("mpsim.new_engine_heap_mib", engineHeap, "MiB", "")
	st := lp.stats
	ops := float64(st.ops)
	add("mpsim.messages_per_op", float64(st.messages)/ops, "count", "")
	add("mpsim.payload_bytes_per_op", float64(st.bytes)/ops, "B", "")

	// collective: execute from the traced loop's spans; compile and
	// lookups from its misses and hits, or from probes where the loop
	// reuses one plan and makes no lookups.
	exec := median(tr.durations("execute"))
	add("collective.execute_us", exec*1e6, "us", fmt.Sprintf("median of %d traced execute spans", len(tr.durations("execute"))))
	add("collective.execute_allocs", mallocsPer(20, func() { _, _ = sh.plan.Execute(sh.in, sh.out) }), "count", "representative plan")
	add("collective.body_us", (exec-empty)*1e6, "us", "execute minus the empty engine run")
	misses, note := tr.durations("lookup.miss"), "traced loop misses"
	if len(misses) == 0 {
		if misses, err = freshCompiles(sh); err != nil {
			return nil, fmt.Errorf("compile probe: %w", err)
		}
		note = "first compile on a fresh machine"
	}
	add("collective.compile_us", median(misses)*1e6, "us", fmt.Sprintf("median of %d, %s", len(misses), note))
	ratio := 0.0
	if st.lookups > 0 {
		ratio = float64(st.hits) / float64(st.lookups)
	}
	add("collective.plancache_hit_ratio", ratio, "ratio", fmt.Sprintf("%d hits of %d loop lookups; %d of %d on uniform configurations",
		st.hits, st.lookups, st.uniHits, st.uniLookups))
	add("collective.plancache_lookups", float64(st.lookups), "count", "")
	add("collective.c1_rounds", float64(st.c1)/ops, "count", "")
	add("collective.c2_bytes", float64(st.c2)/ops, "B", "")

	// bruck: the public API above the plan.
	hits, note := tr.durations("lookup.hit"), "traced loop hits"
	if len(hits) == 0 {
		if _, err := sh.compile(sh.m); err != nil {
			return nil, fmt.Errorf("lookup probe: %w", err)
		}
		hits, note = repeat(10, 2000, func() { _, _ = sh.compile(sh.m) }), "lookup probe"
	}
	add("bruck.lookup_hit_us", median(hits)*1e6, "us", fmt.Sprintf("median of %d, %s", len(hits), note))
	// The overhead is the median of paired differences, each pair a
	// Machine call and a Plan.Execute run back to back.
	var extra []float64
	deadline := now().Add(4 * probeBudget)
	for len(extra) < 5 || (len(extra) < 500 && now().Before(deadline)) {
		start := now()
		if err := sh.call(); err != nil {
			return nil, fmt.Errorf("call-overhead probe: %w", err)
		}
		mid := now()
		if _, err := sh.plan.Execute(sh.in, sh.out); err != nil {
			return nil, fmt.Errorf("call-overhead probe: %w", err)
		}
		extra = append(extra, (mid.Sub(start) - time.Since(mid)).Seconds())
	}
	add("bruck.call_overhead_us", median(extra)*1e6, "us",
		fmt.Sprintf("Machine call minus Plan.Execute, median of %d pairs", len(extra)))

	// buffers, blocks and calibration at the workload's block shape.
	region := sh.n * sh.blockLen
	src, dst := make([]byte, region), make([]byte, region)
	combine, err := buffers.Kernel(buffers.Sum, buffers.Float32)
	if err != nil {
		return nil, err
	}
	bl := sh.blockLen
	add("buffers.combine_mib_s", mibPerS(region, func() {
		for off := 0; off < region; off += bl {
			combine(dst[off:off+bl], src[off:off+bl])
		}
	}), "MiB/s", fmt.Sprintf("float32 sum over %d-byte blocks", bl))
	add("buffers.rotate_mib_s", mibPerS(region, func() { buffers.RotateUp(dst, sh.n, bl, sh.n/2+1) }), "MiB/s",
		fmt.Sprintf("RotateUp of %d blocks", sh.n))
	l, err := blocks.Ragged(sh.counts)
	if err != nil {
		return nil, err
	}
	rg, err := buffers.NewRagged(l)
	if err != nil {
		return nil, err
	}
	row := make([]byte, l.Cols()*l.Max())
	add("buffers.packrow_mib_s", mibPerS(l.Total(), func() {
		for i := 0; i < l.Rows(); i++ {
			rg.PackRow(i, i, 1, l.Max(), row)
		}
	}), "MiB/s", fmt.Sprintf("%dx%d layout, %d bytes", l.Rows(), l.Cols(), l.Total()))
	layout := repeat(10, 1000, func() { _, _ = blocks.Ragged(sh.counts) })
	add("blocks.layout_us", median(layout)*1e6, "us", "")
	add("calib.memmove_mib_s", mibPerS(region, func() { copy(dst, src) }), "MiB/s", fmt.Sprintf("copy of %d bytes", region))

	tp50 := percentile(sortedCopy(lp.tlat), 0.5)
	add("trace.overhead_ratio", tp50/p50, "ratio", fmt.Sprintf("traced p50 %.1f us over untraced %.1f us", tp50*1e6, p50*1e6))
	runtime.KeepAlive(e)
	return out, nil
}

// liveHeap returns the heap in MiB still reachable after a collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// freshCompiles times the first lookup of the probe plan's
// configuration on freshly built machines, each one a plan-cache miss.
// Building the machine is not timed.
func freshCompiles(sh probeShape) ([]float64, error) {
	var d []float64
	deadline := now().Add(probeBudget)
	for len(d) < 5 || (len(d) < 50 && now().Before(deadline)) {
		m, err := sh.fresh()
		if err != nil {
			return nil, err
		}
		start := now()
		if _, err := sh.compile(m); err != nil {
			return nil, err
		}
		d = append(d, time.Since(start).Seconds())
	}
	return d, nil
}
