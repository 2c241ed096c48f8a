package collective

// One spec-keyed plan lookup. The paper's schedules depend only on
// (n, k, r), and Section 3.5 chooses among them with T = C1*beta +
// C2*tau, so the cache's job is to compile each configuration once and
// to price candidate plans when asked. A Spec names the configuration;
// PlanCache.Plan normalizes it, derives its key, confirms a hit, and on
// a miss compiles it — or, for an auto spec, resolves and prices its
// candidate specs through the same lookup and memoizes the winner.

import (
	"fmt"
	"slices"

	"bruck/internal/blocks"
	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
)

// A Spec names one plan: the operation and everything its compiler
// reads. Where several selectors are set, Hier wins over Auto, Auto
// over Radices, and Radices over the operation's options.
type Spec struct {
	// Op is the collective operation.
	Op Op
	// BlockLen is the block size in bytes of a fixed-size plan.
	BlockLen int
	// Layout selects the ragged (V) plan of an index or concatenation
	// for this layout; BlockLen and Hier are then ignored.
	Layout *blocks.Layout
	// Index configures an index plan; a non-nil Radices selects the
	// mixed-radix schedule instead (subphase i uses Radices[i]).
	Index   IndexOptions
	Radices []int
	// Concat configures a concatenation plan.
	Concat ConcatOptions
	// Reduce configures a reduction plan. A reduction with an empty
	// KernelKey compiles fresh on every lookup and is never cached: the
	// cache cannot tell two user kernels apart.
	Reduce ReduceOptions
	// Hier selects the two-level schedule over Topology for a fixed-size
	// index, concatenation or allreduce; HierOpt sets the index's
	// per-level radices.
	Hier    bool
	HierOpt HierOptions
	// Topology is the machine's two-level topology, nil on a flat
	// machine. Only hierarchical and topology-priced auto specs read it.
	Topology *costmodel.Topology
	// Auto picks the plan by the linear cost model over compiled
	// candidates. Ragged plans, and reductions on a flat machine, are
	// priced with Time(*Auto); fixed-size plans on a nontrivial Topology
	// are priced with TimeTopo(Topology), which also adds hierarchical
	// candidates. Fixed-size index and concatenation specs on a flat
	// machine ignore it.
	Auto *costmodel.Profile
}

func (s *Spec) reduction() bool { return s.Op == OpReduceScatter || s.Op == OpAllReduce }

// normalize returns the spec with every field its compiler ignores
// zeroed, so that equivalent specs share one cache entry.
func (s *Spec) normalize() Spec {
	fixed := s.Layout == nil
	n := Spec{Op: s.Op, Layout: s.Layout}
	if fixed {
		n.BlockLen = s.BlockLen
	}
	if s.reduction() {
		n.Reduce = ReduceOptions{Kernel: s.Reduce.Kernel, ElemSize: s.Reduce.ElemSize, KernelKey: s.Reduce.KernelKey}
		if s.Op == OpAllReduce {
			n.Reduce.LastRound = s.Reduce.LastRound
		}
	}
	topoAuto := fixed && s.Auto != nil && s.Topology != nil && !s.Topology.Trivial()
	switch {
	case fixed && s.Hier:
		n.Hier, n.Topology = true, s.Topology
		n.Reduce.LastRound = 0 // the hierarchical allreduce has no concatenation phase
		if s.Op == OpIndex {
			n.HierOpt = s.HierOpt
		}
	case s.Auto != nil && (!fixed || s.reduction() || topoAuto):
		n.Auto = s.Auto
		if topoAuto {
			n.Topology = s.Topology
		}
		if s.Op == OpConcat {
			n.Concat.LastRound = s.Concat.LastRound
		}
	case s.Op == OpIndex && s.Radices != nil:
		n.Radices = s.Radices
	case s.Op == OpIndex:
		n.Index.Algorithm = s.Index.Algorithm
		if s.Index.Algorithm == IndexBruck {
			n.Index.Radix, n.Index.NoPack = s.Index.Radix, s.Index.NoPack
			if fixed && !s.Index.NoPack && s.Index.Segments != 1 {
				n.Index.Segments = s.Index.Segments
			}
		}
	case s.Op == OpConcat:
		n.Concat.Algorithm = s.Concat.Algorithm
		if s.Concat.Algorithm == ConcatCirculant {
			n.Concat.LastRound = s.Concat.LastRound
		}
	case s.reduction():
		n.Reduce.Algorithm = s.Reduce.Algorithm
		if s.Reduce.Algorithm == ReduceBruck {
			n.Reduce.Radix = s.Reduce.Radix
			if s.Reduce.Segments != 1 {
				n.Reduce.Segments = s.Reduce.Segments
			}
		}
	}
	return n
}

// planKey identifies a normalized spec on one (engine, group) inside a
// PlanCache. The engine is part of the key, so a cache may serve
// several engines without handing one engine's plan to another; groups
// key by pointer identity, so callers that reuse a *Group hit the
// cache and distinct pointers with equal members merely recompile.
type planKey struct {
	e         *mpsim.Engine
	g         *mpsim.Group
	op        Op
	blockLen  int
	layout    uint64 // Layout digest
	radices   uint64 // Radices digest
	topo      uint64 // Topology digest
	index     IndexOptions
	concat    ConcatOptions
	ralg      ReduceAlgorithm
	rradix    int
	rlast     partition.Policy
	rsegments int
	kernel    string
	hierOpt   HierOptions
	beta, tau float64
	ragged    bool
	mixed     bool
	hier      bool
	auto      bool
}

// key derives the cache key of a normalized spec. Layouts, topologies
// and radix vectors enter by digest (a hit is confirmed by sameInputs),
// the kernel by its KernelKey, and the auto profile by its Beta and Tau
// — two profiles with equal parameters rank every candidate alike — and
// only where it prices the candidates. Every Spec field is read here;
// the planlife analyzer enforces that.
func (s *Spec) key(e *mpsim.Engine, g *mpsim.Group) planKey {
	k := planKey{
		e: e, g: g, op: s.Op, blockLen: s.BlockLen,
		index: s.Index, concat: s.Concat,
		mixed: s.Radices != nil, radices: digestInts(s.Radices),
		ralg: s.Reduce.Algorithm, rradix: s.Reduce.Radix, kernel: s.Reduce.KernelKey,
		rlast: s.Reduce.LastRound, rsegments: s.Reduce.Segments,
		hier: s.Hier, hierOpt: s.HierOpt,
	}
	if s.Layout != nil {
		k.ragged, k.layout = true, s.Layout.Digest()
	}
	if s.Topology != nil {
		k.topo = s.Topology.Digest()
	}
	if s.Auto != nil {
		k.auto = true
		if s.Topology == nil {
			k.beta, k.tau = s.Auto.Beta, s.Auto.Tau
		}
	}
	return k
}

// digestInts is the FNV-1a hash over the 64-bit words of a radix
// vector.
func digestInts(v []int) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return h
}

// sameInputs confirms a digest-keyed hit: the layouts, topologies and
// radix vectors of the two specs are equal, not merely their digests.
func (s *Spec) sameInputs(o *Spec) bool {
	sameLayout := s.Layout == o.Layout || (s.Layout != nil && o.Layout != nil && s.Layout.Equal(o.Layout))
	return sameLayout && s.Topology.Equal(o.Topology) && slices.Equal(s.Radices, o.Radices)
}

// maxCachedPlans bounds a PlanCache. Schedules are cheap to recompile
// (microseconds), so when callers churn through configurations — e.g.
// a fresh ephemeral *Group per request, which never hits the
// pointer-keyed cache — the cache evicts rather than growing without
// bound and pinning every dead group.
const maxCachedPlans = 256

// PlanCache memoizes compiled plans and auto-dispatch verdicts per
// (engine, group, normalized Spec), holding at most maxCachedPlans
// entries and evicting the least recently used one beyond that. Like
// the engines it serves, a PlanCache is not safe for concurrent use.
type PlanCache struct {
	entries map[planKey]*cacheEntry
	// recent is the sentinel of the recency list: recent.next is the
	// most recently used entry, recent.prev the least.
	recent cacheEntry
}

type cacheEntry struct {
	key        planKey
	spec       Spec // normalized; confirms digest hits
	plan       *Plan
	prev, next *cacheEntry
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	c := &PlanCache{entries: make(map[planKey]*cacheEntry)}
	c.recent.prev, c.recent.next = &c.recent, &c.recent
	return c
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int { return len(c.entries) }

// Plan returns the plan spec names for group g on engine e, compiling
// and caching it on first use. An auto spec resolves each of its
// candidate specs through Plan, in a fixed order, and memoizes the
// cheapest — the first candidate wins an exact tie. A digest hit that
// does not confirm (a collision between distinct layouts, topologies
// or radix vectors) compiles a fresh plan and leaves the cache alone,
// so the wrong schedule is never served.
func (c *PlanCache) Plan(e *mpsim.Engine, g *mpsim.Group, spec Spec) (*Plan, error) {
	s := spec.normalize()
	if s.reduction() && s.Reduce.KernelKey == "" {
		return c.compile(e, g, s)
	}
	key := s.key(e, g)
	if ent, ok := c.entries[key]; ok {
		if !ent.spec.sameInputs(&s) {
			return c.compile(e, g, s)
		}
		c.unlink(ent)
		c.pushFront(ent)
		return ent.plan, nil
	}
	pl, err := c.compile(e, g, s)
	if err != nil {
		return nil, err
	}
	ent := &cacheEntry{}
	if len(c.entries) >= maxCachedPlans {
		ent = c.recent.prev // reuse the least recently used entry
		c.unlink(ent)
		delete(c.entries, ent.key)
	}
	s.Radices = slices.Clone(s.Radices)
	*ent = cacheEntry{key: key, spec: s, plan: pl}
	c.entries[key] = ent
	c.pushFront(ent)
	return pl, nil
}

func (c *PlanCache) unlink(ent *cacheEntry) {
	ent.prev.next, ent.next.prev = ent.next, ent.prev
}

func (c *PlanCache) pushFront(ent *cacheEntry) {
	ent.prev, ent.next = &c.recent, c.recent.next
	c.recent.next.prev = ent
	c.recent.next = ent
}

// compile builds the plan of a normalized spec: an auto spec through
// its priced candidates, anything else through its Compile function.
func (c *PlanCache) compile(e *mpsim.Engine, g *mpsim.Group, s Spec) (*Plan, error) {
	if s.Auto != nil {
		return c.autoPlan(e, g, s)
	}
	kind := ReduceScatterKind
	if s.Op == OpAllReduce {
		kind = AllReduceKind
	}
	switch {
	case s.Op == OpIndex && s.Hier:
		return CompileHierarchicalIndex(e, g, s.BlockLen, s.Topology, s.HierOpt)
	case s.Op == OpIndex && s.Layout != nil && s.Radices != nil:
		return CompileIndexVMixed(e, g, s.Layout, s.Radices)
	case s.Op == OpIndex && s.Layout != nil:
		return CompileIndexV(e, g, s.Layout, s.Index)
	case s.Op == OpIndex && s.Radices != nil:
		return CompileIndexMixed(e, g, s.BlockLen, s.Radices)
	case s.Op == OpIndex:
		return CompileIndex(e, g, s.BlockLen, s.Index)
	case s.Op == OpConcat && s.Hier:
		return CompileHierarchicalConcat(e, g, s.BlockLen, s.Topology, s.HierOpt)
	case s.Op == OpConcat && s.Layout != nil:
		return CompileConcatV(e, g, s.Layout, s.Concat)
	case s.Op == OpConcat:
		return CompileConcat(e, g, s.BlockLen, s.Concat)
	case !s.reduction():
		return nil, fmt.Errorf("collective: unknown operation %v", s.Op)
	case s.Layout != nil:
		return nil, fmt.Errorf("collective: %v has no layout variant", s.Op)
	case s.Hier:
		return CompileHierarchicalReduce(e, g, kind, s.BlockLen, s.Topology, s.Reduce)
	default:
		return CompileReduce(e, g, kind, s.BlockLen, s.Reduce)
	}
}

// autoPlan resolves a normalized auto spec: the cheapest of its
// candidates under Time(*Auto), or under TimeTopo(Topology) when the
// topology prices them.
func (c *PlanCache) autoPlan(e *mpsim.Engine, g *mpsim.Group, s Spec) (*Plan, error) {
	cands, err := s.candidates(e, g)
	if err != nil {
		return nil, err
	}
	var best *Plan
	var bestTime float64
	for _, cand := range cands {
		pl, err := c.Plan(e, g, cand)
		if err != nil {
			return nil, err
		}
		t := pl.Time(*s.Auto)
		if s.Topology != nil {
			t = pl.TimeTopo(s.Topology)
		}
		if best == nil || t < bestTime {
			best, bestTime = pl, t
		}
	}
	return best, nil
}

// candidates lists the candidate specs of a normalized auto spec in the
// order that breaks exact model ties.
//
// Candidates are always monolithic: a pipelined plan's merged-round C2
// can dip below the volume bound by multiplexing ports, so pricing it
// against monolithic plans would over-reward it. The segment axis has
// its own dispatch — AutoSegments resolves through OptimalSegments at
// compile time.
func (s *Spec) candidates(e *mpsim.Engine, g *mpsim.Group) ([]Spec, error) {
	n, k := g.Size(), e.Ports()
	base := Spec{Op: s.Op, BlockLen: s.BlockLen, Layout: s.Layout, Reduce: s.Reduce}
	var out []Spec
	add := func(set func(c *Spec)) {
		c := base
		set(&c)
		out = append(out, c)
	}
	topo := s.Topology
	profile := *s.Auto
	var intra costmodel.Profile
	if topo != nil {
		// The topology's per-class profiles price everything; the single
		// profile a caller hands WithAuto carries no per-link information.
		profile, intra = topo.ClassProfile(costmodel.LinkInter), topo.ClassProfile(costmodel.LinkIntra)
	}
	switch {
	case s.Op == OpIndex && s.Layout != nil:
		// The Bruck family on padded slots against the padding-free
		// direct exchange. Direct goes first so that an exact tie —
		// common on layouts whose largest extent dominates every round,
		// where padded r = n Bruck and direct coincide — resolves to the
		// zero-copy schedule.
		if err := checkIndexLayout(s.Layout, n); err != nil {
			return nil, err
		}
		if n > 1 {
			add(func(c *Spec) { c.Index.Algorithm = IndexDirect })
		}
		for _, r := range candidateRadices(profile, n, s.Layout.Max(), k) {
			add(func(c *Spec) { c.Index.Radix = r })
		}
	case s.Op == OpConcat && s.Layout != nil:
		// The padded circulant schedule against the exact-extent ring.
		add(func(c *Spec) { c.Concat.LastRound = s.Concat.LastRound })
		add(func(c *Spec) { c.Concat.Algorithm = ConcatRing })
	case s.Op == OpIndex:
		// Flat Bruck radices against hierarchical radix pairs. The inter
		// level's messages are whole per-group bundles, so its radix
		// tunes against the bundle size, not the block size.
		for _, r := range candidateRadices(profile, n, s.BlockLen, k) {
			add(func(c *Spec) { c.Index.Radix = r })
		}
		maxSize, groups := hierLevels(topo)
		for _, ri := range candidateRadices(intra, maxSize, s.BlockLen, k) {
			for _, rj := range candidateRadices(profile, groups, maxSize*maxSize*s.BlockLen, k) {
				add(func(c *Spec) { c.Hier, c.Topology, c.HierOpt = true, topo, HierOptions{IntraRadix: ri, InterRadix: rj} })
			}
		}
	case s.Op == OpConcat:
		// The circulant schedule has no radix axis at either level.
		add(func(c *Spec) { c.Concat.LastRound = s.Concat.LastRound })
		add(func(c *Spec) { c.Hier, c.Topology = true, topo })
	default:
		// Ring, recursive halving on power-of-two groups and the Bruck
		// family; for AllReduceKind every flat candidate carries the
		// identical concatenation phase, so the reduce-scatter phase
		// decides. Only the allreduce has a hierarchical schedule.
		add(func(c *Spec) { c.Reduce.Algorithm = ReduceRing })
		if intmath.IsPow(2, n) && n > 1 {
			add(func(c *Spec) { c.Reduce.Algorithm = ReduceHalving })
		}
		for _, r := range candidateRadices(profile, n, s.BlockLen, k) {
			add(func(c *Spec) { c.Reduce.Algorithm, c.Reduce.Radix = ReduceBruck, r })
		}
		if topo != nil && s.Op == OpAllReduce {
			add(func(c *Spec) { c.Hier, c.Topology = true, topo })
		}
	}
	return out, nil
}

// candidateRadices returns the deduplicated, clamped radix candidates
// of the auto dispatch: 2 (round-minimal), k+1, the closed-form
// optimum for the slot size, and n.
func candidateRadices(p costmodel.Profile, n, slot, k int) []int {
	if n <= 2 {
		return []int{2}
	}
	var out []int
	for _, r := range []int{2, k + 1, OptimalRadix(p, n, slot, k, false), n} {
		r = min(max(r, 2), n)
		if !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	return out
}

// hierLevels returns the two level sizes radix tuning sees: the
// largest group (the intra problem size) and the group count (the
// inter problem size).
func hierLevels(topo *costmodel.Topology) (maxSize, numGroups int) {
	for _, m := range topo.Groups {
		maxSize = max(maxSize, m)
	}
	return maxSize, topo.NumGroups()
}
