package collective

import (
	"testing"

	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
)

// TestPlanCacheLRU fills the cache past capacity after touching its
// oldest entry: the entry evicted must be the least recently used one,
// not the oldest inserted or an arbitrary one.
func TestPlanCacheLRU(t *testing.T) {
	e := mpsim.MustNew(4)
	g := mpsim.WorldGroup(4)
	c := NewPlanCache()
	spec := func(b int) Spec { return Spec{Op: OpConcat, BlockLen: b, Concat: ConcatOptions{Algorithm: ConcatRing}} }
	plans := make([]*Plan, maxCachedPlans+1)
	for b := 0; b < maxCachedPlans; b++ {
		pl, err := c.Plan(e, g, spec(b))
		if err != nil {
			t.Fatal(err)
		}
		plans[b] = pl
	}
	if c.Len() != maxCachedPlans {
		t.Fatalf("cache holds %d plans, want %d", c.Len(), maxCachedPlans)
	}
	if pl, _ := c.Plan(e, g, spec(0)); pl != plans[0] { // touch the oldest
		t.Fatal("a cached plan was recompiled before the cache was full")
	}
	if _, err := c.Plan(e, g, spec(maxCachedPlans)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != maxCachedPlans {
		t.Errorf("cache holds %d plans after an eviction, want %d", c.Len(), maxCachedPlans)
	}
	cached := func(b int) bool {
		s := spec(b)
		n := s.normalize()
		_, ok := c.entries[n.key(e, g)]
		return ok
	}
	if cached(1) {
		t.Error("the least recently used plan (block size 1) survived the eviction")
	}
	for _, b := range []int{0, 2, maxCachedPlans - 1, maxCachedPlans} {
		if !cached(b) {
			t.Errorf("the plan for block size %d was evicted in place of the least recently used", b)
		}
	}
	if pl, _ := c.Plan(e, g, spec(0)); pl != plans[0] {
		t.Error("the touched plan was evicted")
	}
}

// TestSpecNormalization: specs that differ only in fields their
// compiler ignores return the identical cached *Plan.
func TestSpecNormalization(t *testing.T) {
	const n, b = 8, 64
	kern, err := buffers.Kernel(buffers.Sum, buffers.Int32)
	if err != nil {
		t.Fatal(err)
	}
	sum := ReduceOptions{Kernel: kern, ElemSize: 4, KernelKey: "sum/int32"}
	with := func(o ReduceOptions, set func(*ReduceOptions)) ReduceOptions { set(&o); return o }
	topo := hierTopo(t, []int{4, 4})
	sp1 := costmodel.SP1
	cases := []struct {
		name string
		a, b Spec
	}{
		{"direct index radix", Spec{Op: OpIndex, BlockLen: b, Index: IndexOptions{Algorithm: IndexDirect}},
			Spec{Op: OpIndex, BlockLen: b, Index: IndexOptions{Algorithm: IndexDirect, Radix: 3}}},
		{"direct index segments and no-pack", Spec{Op: OpIndex, BlockLen: b, Index: IndexOptions{Algorithm: IndexDirect}},
			Spec{Op: OpIndex, BlockLen: b, Index: IndexOptions{Algorithm: IndexDirect, Segments: 4, NoPack: true}}},
		{"xor index radix and segments", Spec{Op: OpIndex, BlockLen: b, Index: IndexOptions{Algorithm: IndexPairwiseXOR}},
			Spec{Op: OpIndex, BlockLen: b, Index: IndexOptions{Algorithm: IndexPairwiseXOR, Radix: 4, Segments: AutoSegments}}},
		{"index segments 0 vs 1", Spec{Op: OpIndex, BlockLen: b, Index: IndexOptions{Radix: 2}},
			Spec{Op: OpIndex, BlockLen: b, Index: IndexOptions{Radix: 2, Segments: 1}}},
		{"no-pack index segments", Spec{Op: OpIndex, BlockLen: b, Index: IndexOptions{NoPack: true}},
			Spec{Op: OpIndex, BlockLen: b, Index: IndexOptions{NoPack: true, Segments: 4}}},
		{"mixed-radix index options", Spec{Op: OpIndex, BlockLen: b, Radices: []int{2, 4}},
			Spec{Op: OpIndex, BlockLen: b, Radices: []int{2, 4}, Index: IndexOptions{Radix: 3, Segments: 2}}},
		{"ring concat last round", Spec{Op: OpConcat, BlockLen: b, Concat: ConcatOptions{Algorithm: ConcatRing}},
			Spec{Op: OpConcat, BlockLen: b, Concat: ConcatOptions{Algorithm: ConcatRing, LastRound: partition.MinRounds}}},
		{"folklore concat last round", Spec{Op: OpConcat, BlockLen: b, Concat: ConcatOptions{Algorithm: ConcatFolklore}},
			Spec{Op: OpConcat, BlockLen: b, Concat: ConcatOptions{Algorithm: ConcatFolklore, LastRound: partition.MinVolume}}},
		{"recursive-doubling concat last round", Spec{Op: OpConcat, BlockLen: b, Concat: ConcatOptions{Algorithm: ConcatRecursiveDoubling}},
			Spec{Op: OpConcat, BlockLen: b, Concat: ConcatOptions{Algorithm: ConcatRecursiveDoubling, LastRound: partition.MinRounds}}},
		{"reduce-scatter last round", Spec{Op: OpReduceScatter, BlockLen: b, Reduce: sum},
			Spec{Op: OpReduceScatter, BlockLen: b, Reduce: with(sum, func(o *ReduceOptions) { o.LastRound = partition.MinRounds })}},
		{"ring reduction radix and segments", Spec{Op: OpAllReduce, BlockLen: b, Reduce: sum},
			Spec{Op: OpAllReduce, BlockLen: b, Reduce: with(sum, func(o *ReduceOptions) { o.Radix, o.Segments = 3, 4 })}},
		{"halving reduction radix and segments",
			Spec{Op: OpReduceScatter, BlockLen: b, Reduce: with(sum, func(o *ReduceOptions) { o.Algorithm = ReduceHalving })},
			Spec{Op: OpReduceScatter, BlockLen: b, Reduce: with(sum, func(o *ReduceOptions) { o.Algorithm, o.Radix, o.Segments = ReduceHalving, 2, AutoSegments })}},
		{"bruck reduction segments 0 vs 1",
			Spec{Op: OpAllReduce, BlockLen: b, Reduce: with(sum, func(o *ReduceOptions) { o.Algorithm = ReduceBruck })},
			Spec{Op: OpAllReduce, BlockLen: b, Reduce: with(sum, func(o *ReduceOptions) { o.Algorithm, o.Segments = ReduceBruck, 1 })}},
		{"hierarchical concat radices", Spec{Op: OpConcat, BlockLen: b, Hier: true, Topology: topo},
			Spec{Op: OpConcat, BlockLen: b, Hier: true, Topology: topo, HierOpt: HierOptions{IntraRadix: 2, InterRadix: 2}}},
		{"hierarchical allreduce radices and options", Spec{Op: OpAllReduce, BlockLen: b, Reduce: sum, Hier: true, Topology: topo},
			Spec{Op: OpAllReduce, BlockLen: b, Hier: true, Topology: topo, HierOpt: HierOptions{IntraRadix: 3},
				Reduce: with(sum, func(o *ReduceOptions) { o.Algorithm, o.LastRound = ReduceBruck, partition.MinRounds })}},
		{"flat fixed-size concat ignores auto and topology", Spec{Op: OpConcat, BlockLen: b},
			Spec{Op: OpConcat, BlockLen: b, Auto: &sp1, Topology: hierTopo(t, []int{8})}},
	}
	for _, tc := range cases {
		e := mpsim.MustNew(n)
		g := mpsim.WorldGroup(n)
		c := NewPlanCache()
		pa, err := c.Plan(e, g, tc.a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		pb, err := c.Plan(e, g, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if pa != pb || c.Len() != 1 {
			t.Errorf("%s: equivalent specs compiled %d cache entries", tc.name, c.Len())
		}
	}
}
