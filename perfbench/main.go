// Command perfbench is the repository's end-to-end benchmark. It drives
// the public bruck API as a closed loop — one caller keeps one
// collective in flight, like the time-step loop of an SPMD program — on
// one of three workloads, checks every output against a serial
// reference, and prints its metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (latency, rate,
// allocations, set-up time and memory). With -trace 1 the run is
// traced instead: every other request runs with a span around each
// call into the program, and isolated probes then time each internal
// layer at the workload's own shapes. The per-layer
// metrics come from that run; the spans are written to -out.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench -workload index-wide -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run builds its workload; setup_s is
// the median, and the last build is the one measured.
const setupRepeats = 51

// metric is one named, unit-carrying value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	out := flag.String("out", ".bench_build", "directory for the span files of traced runs")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, outDir string) error {
	spec, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	fmt.Printf("perfbench: workload %s, seed %d, %.0f s, trace %v, GOMAXPROCS %d, NumCPU %d, %s\n",
		name, seed, seconds, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	in := spec.generate(seed)
	w, setupS, heapMiB, err := setUp(spec, in)
	if err != nil {
		return err
	}
	next := warmUp(w, seconds)

	res := result{Metrics: map[string]metric{}}
	var tbl table
	if !traced {
		lp := measure(w, next, seconds, nil)
		res.Attempted, res.Failed = lp.ops, lp.failed
		lp.addEndToEnd(res.Metrics, &tbl)
		res.Metrics["setup_s"] = metric{setupS, "s"}
		res.Metrics["setup_heap_mib"] = metric{heapMiB, "MiB"}
		tbl.add("setup_s", setupS, "s", fmt.Sprintf("median of %d builds", setupRepeats))
		tbl.add("setup_heap_mib", heapMiB, "MiB", "live heap after set-up")
	} else {
		tr := newTracer()
		lp := measure(w, next, seconds, tr)
		res.Attempted, res.Failed = lp.ops, lp.failed
		layers, err := layerMetrics(w, lp, tr)
		if err != nil {
			return err
		}
		for _, m := range layers {
			res.Metrics[m.name] = metric{m.value, m.unit}
			tbl.add(m.name, m.value, m.unit, m.note)
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
		printSelfTimes(tr)
	}
	res.Correct = res.Failed == 0
	tbl.add("error_ratio", float64(res.Failed)/float64(res.Attempted), "ratio",
		fmt.Sprintf("%d failed or wrong of %d attempted", res.Failed, res.Attempted))
	tbl.print()

	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed or produced wrong output", res.Failed, res.Attempted)
	}
	return nil
}

// setUp builds the workload setupRepeats times and keeps the last
// build. It returns the median build time and the live heap once the
// kept build is all that is left.
//
// Each build starts from a collected heap, and the collector is paused
// while the builds run. Every build then reuses the pages the previous
// one freed, rather than sometimes re-faulting pages the runtime has
// just returned to the operating system. That had spread the set-up
// time of runs by 40% of its median. The figure is the build's own
// work.
func setUp(spec workloadSpec, in *inputs) (workload, float64, float64, error) {
	var w workload
	times := make([]float64, 0, setupRepeats)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < setupRepeats; i++ {
		w = nil
		runtime.GC()
		start := now()
		var err error
		w, err = spec.setup(in)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return w, median(times), float64(ms.HeapAlloc) / (1 << 20), nil
}

// warmUp serves requests untimed until pools, plan caches and the
// heap reach their steady state, and returns the next request id.
// Request ids run on across the warm-up and the loops of one run, so
// no loop replays another's requests.
func warmUp(w workload, seconds float64) int {
	deadline := now().Add(time.Duration(math.Min(1, seconds/10) * float64(time.Second)))
	req := 0
	for ; now().Before(deadline) || req < 3; req++ {
		_ = w.run(req, nil, -1)
	}
	return req
}

// loop is what one measured closed loop observed.
type loop struct {
	ops, failed int
	lat         []float64 // wall time in seconds of each untraced op
	tlat        []float64 // the same of each traced op
	busy        float64   // sum of lat
	mallocs     uint64
	allocBytes  uint64
	stats       opStats
}

// measure runs the closed loop for the given time from request id
// first: serve a request, stop its clock, check its output, repeat.
// Only the request itself is timed; the check runs between requests.
// With a tracer, every other request is traced, so that traced and
// untraced requests share whatever the host does meanwhile.
func measure(w workload, first int, seconds float64, tr *tracer) loop {
	lp := loop{lat: make([]float64, 0, 1<<16)}
	w.resetStats()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	deadline := now().Add(time.Duration(seconds * float64(time.Second)))
	for req := first; now().Before(deadline); req++ {
		rt := tr
		if req%2 == 0 {
			rt = nil
		}
		root := rt.begin("request", -1, req)
		start := now()
		err := w.run(req, rt, root)
		d := time.Since(start).Seconds()
		rt.end(root)
		v := rt.begin("verify", -1, req)
		bad := 0
		if err == nil {
			bad = w.verify()
		}
		rt.end(v)
		lp.ops++
		if err != nil || bad != 0 {
			lp.failed++
			if lp.failed <= 3 {
				fmt.Fprintf(os.Stderr, "request %d: error %v, %d wrong output bytes\n", req, err, bad)
			}
		}
		if rt != nil {
			lp.tlat = append(lp.tlat, d)
			continue
		}
		lp.lat = append(lp.lat, d)
		lp.busy += d
	}
	runtime.ReadMemStats(&after)
	lp.mallocs = after.Mallocs - before.Mallocs
	lp.allocBytes = after.TotalAlloc - before.TotalAlloc
	lp.stats = w.stats()
	return lp
}

// addEndToEnd stores the loop's end-to-end metrics and their table
// rows.
func (lp loop) addEndToEnd(ms map[string]metric, tbl *table) {
	sorted := sortedCopy(lp.lat)
	n := float64(len(lp.lat))
	p50, p90 := percentile(sorted, 0.5)*1e6, percentile(sorted, 0.9)*1e6
	add := func(name string, v float64, unit, note string) {
		ms[name] = metric{v, unit}
		tbl.add(name, v, unit, note)
	}
	add("latency_p50_us", p50, "us", fmt.Sprintf("%d samples", lp.ops))
	add("latency_p90_us", p90, "us", fmt.Sprintf("%d samples, %d beyond", lp.ops, lp.ops-int(math.Ceil(0.9*n))))
	add("ops_per_s", n/lp.busy, "1/s", "ops over the summed op wall time of one closed-loop caller")
	add("allocs_per_op", float64(lp.mallocs)/n, "count", "")
	add("alloc_bytes_per_op", float64(lp.allocBytes)/n, "B", "")
	tbl.add("model_time_us", lp.stats.modelUS/float64(lp.stats.ops), "us",
		"modeled C1*beta+C2*tau under SP1 (TimeTopo on the topology machine); not a measurement")
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// table is the human-readable report printed above the JSON line.
type table struct{ rows [][4]string }

func (t *table) add(name string, v float64, unit, note string) {
	t.rows = append(t.rows, [4]string{name, fmt.Sprintf("%.6g", v), unit, note})
}

func (t *table) print() {
	for _, r := range t.rows {
		fmt.Printf("  %-32s %14s %-6s %s\n", r[0], r[1], r[2], r[3])
	}
}

// now reads the wall clock. It is the benchmark's only clock read:
// time.Since derives from it.
func now() time.Time {
	//lint:allow detrand wall-clock time is the quantity this benchmark measures; nothing here is snapshotted
	return time.Now()
}
