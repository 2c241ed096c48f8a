package collective

import (
	"strings"
	"testing"

	"bruck/internal/buffers"
	"bruck/internal/mpsim"
)

// checkConfig compiles one plan for the static-verification tests.
type checkConfig struct {
	name    string
	n, k, b int
	compile func(t *testing.T, e *mpsim.Engine, g *mpsim.Group, b int) *Plan
}

func compileIndexT(opt IndexOptions) func(*testing.T, *mpsim.Engine, *mpsim.Group, int) *Plan {
	return func(t *testing.T, e *mpsim.Engine, g *mpsim.Group, b int) *Plan {
		t.Helper()
		pl, err := CompileIndex(e, g, b, opt)
		if err != nil {
			t.Fatalf("CompileIndex: %v", err)
		}
		return pl
	}
}

func compileConcatT(opt ConcatOptions) func(*testing.T, *mpsim.Engine, *mpsim.Group, int) *Plan {
	return func(t *testing.T, e *mpsim.Engine, g *mpsim.Group, b int) *Plan {
		t.Helper()
		pl, err := CompileConcat(e, g, b, opt)
		if err != nil {
			t.Fatalf("CompileConcat: %v", err)
		}
		return pl
	}
}

func compileReduceT(kind ReduceKind, opt ReduceOptions) func(*testing.T, *mpsim.Engine, *mpsim.Group, int) *Plan {
	return func(t *testing.T, e *mpsim.Engine, g *mpsim.Group, b int) *Plan {
		t.Helper()
		kern, err := buffers.Kernel(buffers.Sum, buffers.Int32)
		if err != nil {
			t.Fatalf("buffers.Kernel: %v", err)
		}
		opt.Kernel = kern
		pl, err := CompileReduce(e, g, kind, b, opt)
		if err != nil {
			t.Fatalf("CompileReduce: %v", err)
		}
		return pl
	}
}

func checkConfigs() []checkConfig {
	return []checkConfig{
		{"index-bruck-n8-k1-r2", 8, 1, 4, compileIndexT(IndexOptions{Radix: 2})},
		{"index-bruck-n12-k3", 12, 3, 4, compileIndexT(IndexOptions{})},
		{"index-bruck-n7-k2", 7, 2, 3, compileIndexT(IndexOptions{})},
		{"index-direct-n8-k2", 8, 2, 4, compileIndexT(IndexOptions{Algorithm: IndexDirect})},
		{"index-xor-n8-k2", 8, 2, 4, compileIndexT(IndexOptions{Algorithm: IndexPairwiseXOR})},
		{"concat-circulant-n11-k2", 11, 2, 5, compileConcatT(ConcatOptions{Algorithm: ConcatCirculant})},
		{"concat-circulant-n13-k3", 13, 3, 4, compileConcatT(ConcatOptions{Algorithm: ConcatCirculant})},
		{"concat-trivial-n5-k4", 5, 4, 4, compileConcatT(ConcatOptions{Algorithm: ConcatCirculant})},
		{"concat-folklore-n6-k2", 6, 2, 4, compileConcatT(ConcatOptions{Algorithm: ConcatFolklore})},
		{"concat-ring-n6-k1", 6, 1, 4, compileConcatT(ConcatOptions{Algorithm: ConcatRing})},
		{"concat-recdbl-n8-k1", 8, 1, 4, compileConcatT(ConcatOptions{Algorithm: ConcatRecursiveDoubling})},
		{"reducescatter-bruck-n9-k2-r3", 9, 2, 8, compileReduceT(ReduceScatterKind, ReduceOptions{Algorithm: ReduceBruck, Radix: 3})},
		{"allreduce-bruck-n6-k2", 6, 2, 8, compileReduceT(AllReduceKind, ReduceOptions{Algorithm: ReduceBruck})},
	}
}

func compileCheckPlan(t *testing.T, c checkConfig) *Plan {
	t.Helper()
	e, err := mpsim.New(c.n, mpsim.Ports(c.k))
	if err != nil {
		t.Fatalf("mpsim.New: %v", err)
	}
	return c.compile(t, e, mpsim.WorldGroup(c.n), c.b)
}

// TestCheckCleanPlans proves every compiled schedule family passes the
// static verifier untouched.
func TestCheckCleanPlans(t *testing.T) {
	for _, c := range checkConfigs() {
		t.Run(c.name, func(t *testing.T) {
			pl := compileCheckPlan(t, c)
			if v := pl.Check(); len(v) != 0 {
				t.Fatalf("Check() on a clean plan reported:\n  %s", strings.Join(v, "\n  "))
			}
		})
	}
}

// dropLastBlock returns a copy of runs without its last block id.
func dropLastBlock(runs []blockRun) []blockRun {
	out := append([]blockRun(nil), runs...)
	last := &out[len(out)-1]
	if last.count--; last.count == 0 {
		out = out[:len(out)-1]
	}
	return out
}

// TestCheckPerturbations mutates compiled plan tables the ways a
// miscompiled schedule would drift and asserts Check rejects each one
// with a violation naming the break.
func TestCheckPerturbations(t *testing.T) {
	bruck := checkConfig{"", 8, 2, 4, compileIndexT(IndexOptions{})}
	circ := checkConfig{"", 11, 2, 5, compileConcatT(ConcatOptions{Algorithm: ConcatCirculant})}
	cases := []struct {
		name    string
		base    checkConfig
		mutate  func(pl *Plan)
		wantSub string
	}{
		{
			name: "index extra transfer breaks k-port",
			base: bruck,
			mutate: func(pl *Plan) {
				rd := &pl.rounds[0]
				rd.xfers = append(rd.xfers, indexXfer{offset: 3, bytes: pl.blockLen, runs: []blockRun{{0, 1}}}, indexXfer{offset: 5, bytes: pl.blockLen, runs: []blockRun{{1, 1}}})
			},
			wantSub: "k-port",
		},
		{
			name: "index dropped block breaks accounting and delivery",
			base: bruck,
			mutate: func(pl *Plan) {
				x := &pl.rounds[0].xfers[0]
				x.runs = dropLastBlock(x.runs)
			},
			wantSub: "bytes",
		},
		{
			name: "index dropped block with fixed bytes breaks delivery",
			base: bruck,
			mutate: func(pl *Plan) {
				x := &pl.rounds[0].xfers[0]
				x.runs = dropLastBlock(x.runs)
				x.bytes = x.blockCount() * pl.blockLen
				pl.c2 = 0
				for _, rd := range pl.rounds {
					m := 0
					for _, x := range rd.xfers {
						if x.bytes > m {
							m = x.bytes
						}
					}
					pl.c2 += m
				}
			},
			wantSub: "delivery",
		},
		{
			name:    "index wrong c2",
			base:    bruck,
			mutate:  func(pl *Plan) { pl.c2++ },
			wantSub: "c2",
		},
		{
			name:    "index c1 below lower bound",
			base:    bruck,
			mutate:  func(pl *Plan) { pl.c1lb = pl.c1 + 1 },
			wantSub: "lower bound",
		},
		{
			name: "index self-send offset",
			base: bruck,
			mutate: func(pl *Plan) {
				pl.rounds[0].xfers[0].offset = 0
			},
			wantSub: "offset",
		},
		{
			name: "index duplicate partner offset",
			base: bruck,
			mutate: func(pl *Plan) {
				rd := &pl.rounds[0]
				rd.xfers = append(rd.xfers, indexXfer{offset: rd.xfers[0].offset, bytes: pl.blockLen, runs: []blockRun{{0, 1}}})
			},
			wantSub: "duplicate offset",
		},
		{
			name:    "index dropped round",
			base:    bruck,
			mutate:  func(pl *Plan) { pl.rounds = pl.rounds[:len(pl.rounds)-1]; pl.c1-- },
			wantSub: "delivery",
		},
		{
			name:    "concat wrong c1",
			base:    circ,
			mutate:  func(pl *Plan) { pl.c1++ },
			wantSub: "c1",
		},
		{
			name: "concat premature doubling send",
			base: circ,
			mutate: func(pl *Plan) {
				pl.dbl[len(pl.dbl)-1].count++
			},
			wantSub: "",
		},
		{
			name: "concat dropped last round",
			base: circ,
			mutate: func(pl *Plan) {
				pl.last = pl.last[:len(pl.last)-1]
				pl.c1--
			},
			wantSub: "filled",
		},
		{
			name: "concat run outside block",
			base: circ,
			mutate: func(pl *Plan) {
				runs := pl.last[0].areas[0].runs
				runs[0].NRows = pl.blockLen + 1
			},
			wantSub: "outside block",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := compileCheckPlan(t, tc.base)
			tc.mutate(pl)
			v := pl.Check()
			if len(v) == 0 {
				t.Fatalf("Check() accepted the perturbed plan")
			}
			if tc.wantSub != "" {
				found := false
				for _, msg := range v {
					if strings.Contains(msg, tc.wantSub) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("no violation mentions %q; got:\n  %s", tc.wantSub, strings.Join(v, "\n  "))
				}
			}
		})
	}
}
