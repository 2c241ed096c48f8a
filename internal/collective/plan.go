package collective

import (
	"fmt"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/lowerbound"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
)

// A Plan is a compiled collective schedule: the full round, partner and
// packing layout of one operation on one (engine, group, block size,
// options) configuration, precomputed once so that repeated executions
// perform zero schedule recomputation. The paper's schedules are fixed
// functions of (n, k, r) — nothing about them depends on the payload —
// which is exactly what makes them compilable.
//
// A Plan is immutable after compilation and remains valid for the
// lifetime of its engine, across any number of runs and across the
// engine's post-deadlock fencing (each execution picks up the engine's
// current transport and pools). Execute runs the plan alone;
// ExecutePlans runs several plans with pairwise disjoint groups
// concurrently inside a single engine run.
type Plan struct {
	engine   *mpsim.Engine
	group    *mpsim.Group
	op       Op
	blockLen int

	// in/out are the buffers bound by Bind for ExecutePlans; Execute
	// takes explicit buffers and ignores them.
	in, out *buffers.Buffers

	// Layout plans (IndexV / ConcatV). layout is the input layout the
	// plan was compiled for and outLayout the shape of its result; slot
	// is the padded slot size (layout.Max()) the two-phase packing runs
	// the fixed-size schedule on. Classic fixed-size plans leave layout
	// nil. vin/vout are the ragged buffers bound by BindV.
	layout    *blocks.Layout
	outLayout *blocks.Layout
	slot      int
	vin, vout *buffers.Ragged

	// Index plans (Bruck family, uniform and mixed radix).
	ialg   IndexAlgorithm
	noPack bool
	rounds []indexRound

	// Segment-pipelined plans. segments > 1 means every block is split
	// into that many byte spans (segSpans, the SplitSpans partition of
	// blockLen) and the compiled rounds replay as a pipeline: merged
	// step t carries segment s's round t-s for every live segment, so
	// the schedule drains in len(rounds)+segments-1 merged rounds.
	// segments == 0 is the monolithic replay. Only packed uniform
	// Bruck round tables pipeline; everything else stays monolithic.
	segments int
	segSpans []buffers.Span

	// Concat plans — and the concatenation phase of AllReduce plans.
	calg    ConcatAlgorithm
	trivial bool // k >= n-1: single all-pairs round
	n1      int  // (k+1)^(d-1), first block outside the doubling phase
	dbl     []dblRound
	last    []lastRound

	// Reduction plans (ReduceScatter / AllReduce). combine is the
	// kernel the executor applies on receive in place of a plain copy;
	// ReduceBruck plans reuse rounds above for the index phase, and
	// AllReduce plans reuse dbl/last/trivial/n1 for the concatenation
	// phase.
	ralg    ReduceAlgorithm
	combine buffers.CombineFunc

	// Hierarchical (two-level) plans. Non-nil hier marks a schedule
	// compiled by CompileHierarchicalIndex/Concat/Reduce: the flat round
	// tables above are unused and the phase structure lives in hier (see
	// hier.go). op, group, blockLen and the c1/c2/bound fields keep their
	// meanings.
	hier *hierPlan

	// poolHint is the largest pool buffer any execution acquires. The
	// bodies make sure each run's first pool acquisition has this size —
	// the Bruck working region is exactly hint-sized, and the circulant
	// body pre-acquires it before its mixed-size last rounds — so the
	// processor-local pool reaches steady state in one step instead of
	// thrashing through the pool's bounded scan.
	poolHint int
	// c1 is the number of communication rounds the schedule performs.
	c1 int
	// c2 is the schedule's predicted data volume (sum over rounds of the
	// round's largest message, in bytes) — the quantity the auto
	// dispatcher evaluates the linear cost model on. The simulator's
	// measured C2 matches it exactly.
	c2 int
	// c2lb is the layout's data-volume lower bound (package lowerbound),
	// carried into every Result this plan produces.
	c2lb int
	// c1lb is the round-count lower bound, carried the same way. Zero
	// for ragged layouts, where the dissemination bound need not apply
	// (a zero row removes dependencies).
	c1lb int
}

// Op names the collective operation a plan performs.
type Op int

const (
	OpIndex Op = iota
	OpConcat
	OpReduceScatter
	OpAllReduce
)

func (o Op) String() string {
	switch o {
	case OpIndex:
		return "index"
	case OpConcat:
		return "concat"
	case OpReduceScatter:
		return "reduce-scatter"
	case OpAllReduce:
		return "allreduce"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// indexRound is one k-port round of a compiled Bruck-family index
// schedule: up to k independent transfers.
type indexRound struct {
	xfers []indexXfer
}

// indexXfer is one message of an index round. The processor with group
// rank me sends the listed working-region blocks to rank me+offset and
// receives the same-shaped payload from rank me-offset (mod n) — the
// schedule is translation invariant, so one compiled transfer serves
// every group member.
type indexXfer struct {
	offset int        // partner offset in group ranks
	bytes  int        // payload size
	runs   []blockRun // working-region block ids carried, as ascending runs
}

// blockRun is count consecutive working-region block ids starting at
// first. The blocks of a run are adjacent in the working region, so
// the full-width replay packs and unpacks each run with one copy.
type blockRun struct {
	first, count int
}

// blockCount returns the number of blocks the transfer carries.
func (x indexXfer) blockCount() int {
	c := 0
	for _, r := range x.runs {
		c += r.count
	}
	return c
}

// blockIDs expands the transfer's runs into its ascending block ids.
func (x indexXfer) blockIDs() []int {
	ids := make([]int, 0, x.blockCount())
	for _, r := range x.runs {
		for j := r.first; j < r.first+r.count; j++ {
			ids = append(ids, j)
		}
	}
	return ids
}

// dblRound is one doubling round of the circulant concatenation: the
// processor sends its first count blocks with offset t*base for
// t = 1..k and receives the same shapes into blocks t*base onward.
type dblRound struct {
	base  int // (k+1)^round
	count int // blocks held entering the round
}

// lastRound is one byte-granular last round of the circulant
// concatenation: the table-partition areas of the round with their
// communication offsets resolved at compile time.
type lastRound struct {
	areas []lastArea
}

type lastArea struct {
	offset int // communication offset o; cells travel as block n1+col-o
	size   int // payload bytes
	runs   []partition.Run
}

// Op returns "index" or "concat".
func (pl *Plan) Op() string { return pl.op.String() }

// Algorithm returns the compiled schedule's algorithm name ("bruck",
// "direct", "pairwise-xor", "circulant", "ring", "halving",
// "hierarchical", ...).
func (pl *Plan) Algorithm() string {
	if pl.hier != nil {
		return "hierarchical"
	}
	switch pl.op {
	case OpIndex:
		return pl.ialg.String()
	case OpReduceScatter, OpAllReduce:
		return pl.ralg.String()
	default:
		return pl.calg.String()
	}
}

// Group returns the group the plan was compiled for.
func (pl *Plan) Group() *mpsim.Group { return pl.group }

// BlockLen returns the block size in bytes the plan was compiled for;
// for layout plans this is the padded slot size (Layout().Max()) the
// two-phase packing runs the fixed-size schedule on.
func (pl *Plan) BlockLen() int { return pl.blockLen }

// Rounds returns the number of communication rounds (the paper's C1)
// the compiled schedule executes. For a segment-pipelined plan this is
// the merged-round count rounds + segments - 1.
func (pl *Plan) Rounds() int { return pl.c1 }

// Segments returns the segment count of a pipelined plan, or 0 for a
// monolithic one. (1 never occurs: a one-segment request compiles to
// the monolithic schedule.)
func (pl *Plan) Segments() int { return pl.segments }

// MaxMessageBytes returns the largest pooled buffer an execution
// acquires — the pre-sizing hint handed to the processor-local pools.
func (pl *Plan) MaxMessageBytes() int { return pl.poolHint }

// PredictedC2 returns the schedule's data volume in bytes (the paper's
// C2, sum over rounds of the round's largest message), known exactly at
// compile time. Executions measure the same value.
func (pl *Plan) PredictedC2() int { return pl.c2 }

// C2LowerBound returns the layout's data-volume lower bound (package
// lowerbound; the non-uniform generalization of Propositions 2.2/2.4
// for layout plans). Every Result the plan produces carries it.
func (pl *Plan) C2LowerBound() int { return pl.c2lb }

// Time returns the linear-model estimate C1*Beta + C2*Tau of one
// execution of the plan — the quantity the auto dispatcher minimizes
// over candidate plans.
func (pl *Plan) Time(p costmodel.Profile) float64 {
	return p.Time(pl.c1, pl.c2)
}

// Layout returns the input layout of a layout plan (CompileIndexV /
// CompileConcatV), or nil for a classic fixed-size plan.
func (pl *Plan) Layout() *blocks.Layout { return pl.layout }

// OutLayout returns the output layout a layout plan requires (the
// transpose for index, the n x n concatenation shape for concat), or
// nil for a classic plan.
func (pl *Plan) OutLayout() *blocks.Layout { return pl.outLayout }

// result builds the Result of one execution of this plan.
func (pl *Plan) result(m *mpsim.Metrics) *Result {
	res := resultFrom(m)
	res.C2LowerBound = pl.c2lb
	res.C1LowerBound = pl.c1lb
	if h := pl.hier; h != nil {
		intra := &LevelStats{C1LowerBound: h.intraC1LB, C2LowerBound: h.intraC2LB}
		inter := &LevelStats{C1LowerBound: h.interC1LB, C2LowerBound: h.interC2LB}
		if m.ClassRoundSizes(mpsim.ClassIntra) != nil {
			// The engine tags link classes: report the measured split.
			intra.C1, intra.C2 = m.ClassRounds(mpsim.ClassIntra), m.ClassVolume(mpsim.ClassIntra)
			inter.C1, inter.C2 = m.ClassRounds(mpsim.ClassInter), m.ClassVolume(mpsim.ClassInter)
		} else {
			// Flat engine: fall back to the compiled per-phase split,
			// which the phase-ordered schedule realizes exactly.
			intra.C1, intra.C2 = pl.PredictedClassC1(mpsim.ClassIntra), pl.PredictedClassC2(mpsim.ClassIntra)
			inter.C1, inter.C2 = pl.PredictedClassC1(mpsim.ClassInter), pl.PredictedClassC2(mpsim.ClassInter)
		}
		res.Intra, res.Inter = intra, inter
	}
	return res
}

// CompileIndex compiles the index schedule selected by opt for group g
// on engine e at block size blockLen. See IndexOptions for the radix
// and algorithm choices; the compiled plan executes the exact schedule
// IndexFlat would, with identical Results.
func CompileIndex(e *mpsim.Engine, g *mpsim.Group, blockLen int, opt IndexOptions) (*Plan, error) {
	n := g.Size()
	if err := checkGroup(e, g); err != nil {
		return nil, err
	}
	if blockLen < 0 {
		return nil, fmt.Errorf("collective: negative block size %d", blockLen)
	}
	k := e.Ports()
	r := opt.Radix
	if r == 0 {
		r = intmath.Min(k+1, n)
	}
	if opt.Algorithm == IndexBruck && n > 1 && (r < 2 || r > n) {
		return nil, fmt.Errorf("collective: index radix %d out of range [2, %d]", r, n)
	}
	if opt.Algorithm == IndexPairwiseXOR && !intmath.IsPow(2, n) {
		return nil, fmt.Errorf("collective: pairwise-xor index requires a power-of-two group size, got %d", n)
	}
	pl := &Plan{
		engine:   e,
		group:    g,
		op:       OpIndex,
		blockLen: blockLen,
		ialg:     opt.Algorithm,
		noPack:   opt.NoPack,
	}
	switch opt.Algorithm {
	case IndexBruck:
		pl.rounds = compileBruckRounds(n, k, blockLen, func(int) int { return r }, opt.NoPack)
	case IndexDirect, IndexPairwiseXOR:
		// Partner arithmetic is the whole schedule; nothing to precompute
		// beyond the round count.
	default:
		return nil, fmt.Errorf("collective: unknown index algorithm %v", opt.Algorithm)
	}
	pl.finishIndex(n, k)
	s := opt.Segments
	if s == AutoSegments {
		s = OptimalSegments(costmodel.SP1, n, blockLen, r, k)
	}
	pl.finishSegments(s)
	pl.c2lb = lowerbound.IndexVolume(n, blockLen, k)
	pl.c1lb = lowerbound.IndexRounds(n, k)
	if pl.segments > 1 {
		// A pipelined schedule multiplexes up to `segments` compiled
		// rounds per port in one merged round, so the one-round-per-port
		// volume bound scales down by the segment count:
		// (n-1)*b <= segments * k * sum of per-step maxima.
		pl.c2lb = intmath.CeilDiv(pl.c2lb, pl.segments)
	}
	return pl, nil
}

// CompileIndexMixed compiles the mixed-radix index schedule: subphase i
// uses radices[i]. The compiled plan executes the exact schedule
// IndexMixedFlat would. Mixed-radix plans are always monolithic: the
// segment pipeline (IndexOptions.Segments) applies to the uniform
// schedule only.
func CompileIndexMixed(e *mpsim.Engine, g *mpsim.Group, blockLen int, radices []int) (*Plan, error) {
	n := g.Size()
	if err := checkGroup(e, g); err != nil {
		return nil, err
	}
	if blockLen < 0 {
		return nil, fmt.Errorf("collective: negative block size %d", blockLen)
	}
	if err := ValidateRadices(n, radices); err != nil {
		return nil, err
	}
	pl := &Plan{
		engine:   e,
		group:    g,
		op:       OpIndex,
		blockLen: blockLen,
		ialg:     IndexBruck,
	}
	pl.rounds = compileBruckRounds(n, e.Ports(), blockLen, func(i int) int { return radices[i] }, false)
	pl.finishIndex(n, e.Ports())
	pl.c2lb = lowerbound.IndexVolume(n, blockLen, e.Ports())
	pl.c1lb = lowerbound.IndexRounds(n, e.Ports())
	return pl, nil
}

// finishIndex derives the round count, predicted data volume and pool
// hint of a compiled index plan from its representation. For layout
// plans blockLen is the padded slot size, and the ragged direct/xor
// volumes are overwritten afterwards from the layout's exact extents.
func (pl *Plan) finishIndex(n, k int) {
	switch pl.ialg {
	case IndexBruck:
		pl.c1 = len(pl.rounds)
		hint := n * pl.blockLen // working region
		for _, rd := range pl.rounds {
			roundMax := 0
			for _, x := range rd.xfers {
				if x.bytes > hint {
					hint = x.bytes
				}
				if x.bytes > roundMax {
					roundMax = x.bytes
				}
			}
			pl.c2 += roundMax
		}
		pl.poolHint = hint
	case IndexDirect, IndexPairwiseXOR:
		pl.c1 = intmath.CeilDiv(n-1, k)
		pl.c2 = pl.c1 * pl.blockLen
		pl.poolHint = pl.blockLen // transport payloads only
	}
}

// finishSegments installs the segment dimension on a compiled index
// plan: s > 1 splits every block into the SplitSpans partition and
// replaces the monolithic round count and volume that finishIndex
// derived with the pipelined measures — C1 = rounds + s - 1 merged
// rounds, C2 = the sum over merged rounds of the largest in-flight
// message. The request is clamped to what the schedule can pipeline:
// at most one span per block byte, and at most minOffsetGap rounds in
// flight so no merged round addresses one partner twice. Requests that
// clamp to 1 — including every non-Bruck, noPack, mixed-radix or
// sub-2-round schedule — leave the plan monolithic.
func (pl *Plan) finishSegments(s int) {
	if s <= 1 || pl.ialg != IndexBruck || pl.noPack || len(pl.rounds) < 2 || pl.blockLen < 2 {
		return
	}
	if s > pl.blockLen {
		s = pl.blockLen
	}
	if gap := minOffsetGap(pl.rounds); s > gap {
		s = gap
	}
	if s <= 1 {
		return
	}
	pl.segments = s
	pl.segSpans = buffers.SplitSpans(pl.blockLen, s)
	pl.c1 = costmodel.PipelinedC1(len(pl.rounds), s)
	pl.c2 = pipelinedC2(pl.rounds, pl.segSpans)
}

// minOffsetGap returns the largest window size w such that any w
// consecutive rounds of the table have pairwise distinct partner
// offsets — the number of rounds a pipeline may hold in flight in one
// merged round without addressing a partner twice. For the Bruck
// tables the offsets z*weight are globally distinct across the whole
// table (z*weight stays below the subphase's next weight), so this
// returns len(rounds); it is computed rather than assumed as a
// defensive clamp.
func minOffsetGap(rounds []indexRound) int {
	gap := len(rounds)
	for i := range rounds {
		for j := i + 1; j < len(rounds) && j-i < gap; j++ {
			for _, xi := range rounds[i].xfers {
				for _, xj := range rounds[j].xfers {
					if xi.offset == xj.offset && j-i < gap {
						gap = j - i
					}
				}
			}
		}
	}
	return gap
}

// pipelinedC2 walks the merged rounds of a pipelined replay and sums
// the largest in-flight message of each: merged round t carries, for
// every live segment seg, the transfers of compiled round t-seg at
// segment seg's span length. The executor's payload sizes match this
// walk exactly, so the measured C2 equals it.
func pipelinedC2(rounds []indexRound, spans []buffers.Span) int {
	R, s := len(rounds), len(spans)
	c2 := 0
	for t := 0; t < R+s-1; t++ {
		lo, hi := t-R+1, t
		if lo < 0 {
			lo = 0
		}
		if hi > s-1 {
			hi = s - 1
		}
		stepMax := 0
		for seg := lo; seg <= hi; seg++ {
			for _, x := range rounds[t-seg].xfers {
				if b := x.blockCount() * spans[seg].Len; b > stepMax {
					stepMax = b
				}
			}
		}
		c2 += stepMax
	}
	return c2
}

// compileBruckRounds builds the k-port round structure of the
// Bruck-family index algorithm for group size n: radixAt(i) is the
// radix of subphase i (a constant function for the uniform algorithm).
// Each subphase selects, for every digit value z in 1..h-1, the block
// ids whose digit at the subphase's weight equals z; packed mode groups
// up to k digit values into one round, noPack mode emits one
// single-block round per selected block (the paper's packing ablation).
func compileBruckRounds(n, k, blockLen int, radixAt func(int) int, noPack bool) []indexRound {
	var rounds []indexRound
	weight := 1
	for sub := 0; weight < n; sub++ {
		r := radixAt(sub)
		h := intmath.Min(r, intmath.CeilDiv(n, weight))
		if noPack {
			for z := 1; z < h; z++ {
				for _, run := range digitRuns(n, weight, r, z) {
					for j := run.first; j < run.first+run.count; j++ {
						rounds = append(rounds, indexRound{xfers: []indexXfer{{
							offset: z * weight,
							bytes:  blockLen,
							runs:   []blockRun{{first: j, count: 1}},
						}}})
					}
				}
			}
		} else {
			for start := 1; start < h; start += k {
				end := intmath.Min(start+k-1, h-1)
				rd := indexRound{xfers: make([]indexXfer, 0, end-start+1)}
				for z := start; z <= end; z++ {
					x := indexXfer{offset: z * weight, runs: digitRuns(n, weight, r, z)}
					x.bytes = x.blockCount() * blockLen
					rd.xfers = append(rd.xfers, x)
				}
				rounds = append(rounds, rd)
			}
		}
		weight *= r
	}
	return rounds
}

// digitRuns returns the block ids j < n whose radix-r digit at weight
// (j / weight mod r) equals z, as maximal runs: the ids
// [m*r*weight + z*weight, m*r*weight + (z+1)*weight) for m = 0, 1, ...,
// clipped to n.
func digitRuns(n, weight, r, z int) []blockRun {
	runs := make([]blockRun, 0, intmath.CeilDiv(n-z*weight, r*weight))
	for first := z * weight; first < n; first += r * weight {
		runs = append(runs, blockRun{first: first, count: intmath.Min(weight, n-first)})
	}
	return runs
}

// CompileConcat compiles the concatenation schedule selected by opt for
// group g on engine e at block size blockLen. For the circulant
// algorithm this solves the last-round table partition and resolves the
// per-area communication offsets once; ConcatFlat re-solves them on
// every call.
func CompileConcat(e *mpsim.Engine, g *mpsim.Group, blockLen int, opt ConcatOptions) (*Plan, error) {
	n := g.Size()
	if err := checkGroup(e, g); err != nil {
		return nil, err
	}
	if blockLen < 0 {
		return nil, fmt.Errorf("collective: negative block size %d", blockLen)
	}
	if opt.Algorithm == ConcatRecursiveDoubling && !intmath.IsPow(2, n) {
		return nil, fmt.Errorf("collective: recursive doubling requires a power-of-two group size, got %d", n)
	}
	k := e.Ports()
	pl := &Plan{
		engine:   e,
		group:    g,
		op:       OpConcat,
		blockLen: blockLen,
		calg:     opt.Algorithm,
		poolHint: blockLen,
	}
	switch opt.Algorithm {
	case ConcatCirculant:
		if err := pl.compileCirculant(n, k, blockLen, opt.LastRound); err != nil {
			return nil, err
		}
	case ConcatFolklore, ConcatRing, ConcatRecursiveDoubling:
		// The baseline bodies compute their trees and rings on the fly;
		// there is no per-call schedule solving to amortize. C1 and C2
		// for reporting and auto dispatch only.
		switch opt.Algorithm {
		case ConcatFolklore:
			if n > 1 {
				pl.c1, pl.c2 = FolkloreConcatCost(n, blockLen, k)
			}
			pl.poolHint = n * blockLen
		case ConcatRing:
			pl.c1, pl.c2 = RingConcatCost(n, blockLen)
		case ConcatRecursiveDoubling:
			if n > 1 {
				pl.c1, pl.c2 = RecursiveDoublingConcatCost(n, blockLen)
			}
		}
	default:
		return nil, fmt.Errorf("collective: unknown concat algorithm %v", opt.Algorithm)
	}
	pl.c2lb = lowerbound.ConcatVolume(n, blockLen, k)
	if blockLen > 0 {
		// The dissemination bound assumes there is data to disseminate;
		// a zero-byte concatenation compiles without its last rounds and
		// legitimately finishes in fewer.
		pl.c1lb = lowerbound.ConcatRounds(n, k)
	}
	return pl, nil
}

// compileCirculant fills the circulant-concatenation round structure of
// pl for group size n at block (or padded slot) size blockLen: the
// doubling rounds, the solved last-round table partition with its area
// offsets, or the trivial single all-pairs round when k >= n-1. The
// schedule's rounds and volume are ADDED to pl.c1/pl.c2 and pl.poolHint
// is raised to the largest last-round area, so AllReduce plans can
// stack the concatenation phase on top of a compiled reduce-scatter
// phase; CompileConcat calls it on zeroed counters.
func (pl *Plan) compileCirculant(n, k, blockLen int, policy partition.Policy) error {
	if n == 1 {
		return nil
	}
	if k >= n-1 {
		pl.trivial = true
		pl.c1++
		pl.c2 += blockLen
		return nil
	}
	d := intmath.CeilLog(k+1, n)
	count := 1
	for round := 0; round < d-1; round++ {
		pl.dbl = append(pl.dbl, dblRound{base: count, count: count})
		pl.c2 += count * blockLen
		count *= k + 1
	}
	pl.n1 = count
	part, err := partition.Solve(blockLen, n-pl.n1, pl.n1, k, policy)
	if err != nil {
		return err
	}
	if err := part.Validate(); err != nil {
		return err
	}
	for _, areas := range part.Rounds {
		offsets, err := assignAreaOffsets(areas, pl.n1)
		if err != nil {
			return err
		}
		lr := lastRound{areas: make([]lastArea, len(areas))}
		roundMax := 0
		for ai, area := range areas {
			lr.areas[ai] = lastArea{offset: offsets[ai], size: area.Size, runs: area.Runs}
			if area.Size > pl.poolHint {
				pl.poolHint = area.Size
			}
			if area.Size > roundMax {
				roundMax = area.Size
			}
		}
		pl.c2 += roundMax
		pl.last = append(pl.last, lr)
	}
	pl.c1 += len(pl.dbl) + len(pl.last)
	return nil
}

// checkGroup validates a group against the engine.
func checkGroup(e *mpsim.Engine, g *mpsim.Group) error {
	if g == nil || g.Size() == 0 {
		return fmt.Errorf("collective: empty group")
	}
	for _, id := range g.IDs() {
		if id >= e.N() {
			return fmt.Errorf("collective: group member %d outside engine with %d processors", id, e.N())
		}
	}
	return nil
}

// checkBuffers validates an (in, out) pair against the plan's shape:
// index plans need two index-shaped buffers, concat plans a
// concat-shaped input and an index-shaped output.
func (pl *Plan) checkBuffers(in, out *buffers.Buffers) error {
	n := pl.group.Size()
	if pl.layout != nil {
		return fmt.Errorf("collective: %s layout plan takes ragged buffers (use ExecuteV/BindV)", pl.op)
	}
	if in == nil || out == nil {
		return fmt.Errorf("collective: nil flat buffer")
	}
	if in == out {
		return fmt.Errorf("collective: flat output must not alias the input")
	}
	wantInBlocks, wantOutBlocks := n, n
	switch pl.op {
	case OpConcat:
		wantInBlocks = 1
	case OpReduceScatter:
		wantOutBlocks = 1
	}
	if in.Procs() != n || in.Blocks() != wantInBlocks || in.BlockLen() != pl.blockLen {
		return fmt.Errorf("collective: %s plan input is %dx%d blocks of %d bytes, want %dx%d of %d",
			pl.op, in.Procs(), in.Blocks(), in.BlockLen(), n, wantInBlocks, pl.blockLen)
	}
	if out.Procs() != n || out.Blocks() != wantOutBlocks || out.BlockLen() != pl.blockLen {
		return fmt.Errorf("collective: %s plan output is %dx%d blocks of %d bytes, want %dx%d of %d",
			pl.op, out.Procs(), out.Blocks(), out.BlockLen(), n, wantOutBlocks, pl.blockLen)
	}
	return nil
}

// Bind validates and attaches an (in, out) buffer pair to the plan for
// use by ExecutePlans. Binding may be repeated to retarget the plan;
// Execute ignores the binding.
func (pl *Plan) Bind(in, out *buffers.Buffers) error {
	if err := pl.checkBuffers(in, out); err != nil {
		return err
	}
	pl.in, pl.out = in, out
	return nil
}

// Bound returns the buffers attached by Bind, or nils.
func (pl *Plan) Bound() (in, out *buffers.Buffers) { return pl.in, pl.out }

// Execute runs the compiled schedule on its engine with the given
// buffers: for index plans out.Block(i, j) ends up equal to
// in.Block(j, i), for concat plans out.Block(i, j) equals
// in.Block(j, 0). The schedule — and therefore the Result — is
// byte-identical to the corresponding IndexFlat/ConcatFlat call; only
// the per-call schedule construction is gone.
func (pl *Plan) Execute(in, out *buffers.Buffers) (*Result, error) {
	if err := pl.checkBuffers(in, out); err != nil {
		return nil, err
	}
	return pl.run(func(p *mpsim.Proc) error {
		return pl.body(p, in, out)
	})
}

// checkRagged validates an (in, out) ragged pair against a layout
// plan's input and output layouts.
func (pl *Plan) checkRagged(in, out *buffers.Ragged) error {
	if pl.layout == nil {
		return fmt.Errorf("collective: %s fixed-size plan takes flat buffers (use Execute/Bind)", pl.op)
	}
	if in == nil || out == nil {
		return fmt.Errorf("collective: nil ragged buffer")
	}
	if in == out {
		return fmt.Errorf("collective: ragged output must not alias the input")
	}
	if !in.Layout().Equal(pl.layout) {
		return fmt.Errorf("collective: %s plan input layout is %dx%d, want the plan's compiled layout (%dx%d)",
			pl.op, in.Layout().Rows(), in.Layout().Cols(), pl.layout.Rows(), pl.layout.Cols())
	}
	if !out.Layout().Equal(pl.outLayout) {
		return fmt.Errorf("collective: %s plan output layout does not match the plan's output shape (want %dx%d, the input's %s)",
			pl.op, pl.outLayout.Rows(), pl.outLayout.Cols(),
			map[Op]string{OpIndex: "transpose", OpConcat: "concatenation"}[pl.op])
	}
	return nil
}

// ExecuteV runs a compiled layout plan: for index plans out.Block(i, j)
// ends up equal to in.Block(j, i) (at its true, possibly zero, length),
// for concat plans out.Block(i, j) equals in.Block(j, 0). On a uniform
// layout the schedule — and therefore the Result — is byte-identical to
// the corresponding fixed-size plan's.
func (pl *Plan) ExecuteV(in, out *buffers.Ragged) (*Result, error) {
	if err := pl.checkRagged(in, out); err != nil {
		return nil, err
	}
	return pl.run(func(p *mpsim.Proc) error {
		return pl.vbody(p, in, out)
	})
}

// run executes body as the plan's sole program and builds the Result
// from that run's own metrics, so a run rejected as overlapping never
// reads another run's.
func (pl *Plan) run(body func(p *mpsim.Proc) error) (*Result, error) {
	metrics, err := pl.engine.RunPrograms([]mpsim.Program{{Body: body}})
	if err != nil {
		return nil, err
	}
	return pl.result(metrics[0]), nil
}

// BindV validates and attaches a ragged (in, out) pair to a layout plan
// for use by ExecutePlans, the ragged counterpart of Bind.
func (pl *Plan) BindV(in, out *buffers.Ragged) error {
	if err := pl.checkRagged(in, out); err != nil {
		return err
	}
	pl.vin, pl.vout = in, out
	return nil
}

// BoundV returns the ragged buffers attached by BindV, or nils.
func (pl *Plan) BoundV() (in, out *buffers.Ragged) { return pl.vin, pl.vout }

// ExecutePlans runs several compiled plans concurrently inside one
// engine run. The plans must all belong to engine e, have pairwise
// disjoint groups, and carry buffers attached with Bind. Each plan
// keeps its own metrics; the returned Results are in plan order. The
// k-port constraint is enforced per processor as always, and schedule
// validation applies per plan group.
func ExecutePlans(e *mpsim.Engine, plans []*Plan) ([]*Result, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("collective: no plans to execute")
	}
	seen := make(map[int]int, e.N())
	progs := make([]mpsim.Program, len(plans))
	for i, pl := range plans {
		if pl == nil {
			return nil, fmt.Errorf("collective: plan %d is nil", i)
		}
		if pl.engine != e {
			return nil, fmt.Errorf("collective: plan %d was compiled for a different engine", i)
		}
		if pl.layout != nil {
			if pl.vin == nil || pl.vout == nil {
				return nil, fmt.Errorf("collective: layout plan %d has no bound ragged buffers (call BindV)", i)
			}
		} else if pl.in == nil || pl.out == nil {
			return nil, fmt.Errorf("collective: plan %d has no bound buffers (call Bind)", i)
		}
		for _, id := range pl.group.IDs() {
			if prev, dup := seen[id]; dup {
				return nil, fmt.Errorf("collective: plans %d and %d share processor %d; groups must be disjoint", prev, i, id)
			}
			seen[id] = i
		}
		pl := pl
		body := func(p *mpsim.Proc) error {
			return pl.body(p, pl.in, pl.out)
		}
		if pl.layout != nil {
			body = func(p *mpsim.Proc) error {
				return pl.vbody(p, pl.vin, pl.vout)
			}
		}
		progs[i] = mpsim.Program{
			Members: pl.group.IDs(),
			Body:    body,
		}
	}
	metrics, err := e.RunPrograms(progs)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(metrics))
	for i, m := range metrics {
		results[i] = plans[i].result(m)
	}
	return results, nil
}

// body dispatches the per-processor program of the plan.
func (pl *Plan) body(p *mpsim.Proc, in, out *buffers.Buffers) error {
	me := pl.group.Rank(p.Rank())
	if me < 0 {
		return nil
	}
	if pl.hier != nil {
		if err := pl.hierBody(p, in.Proc(me), out.Proc(me)); err != nil {
			return fmt.Errorf("group rank %d: %w", me, err)
		}
		return nil
	}
	var err error
	switch pl.op {
	case OpIndex:
		switch pl.ialg {
		case IndexBruck:
			err = pl.bruckBody(p, in.Proc(me), out.Proc(me))
		case IndexDirect:
			err = directIndexFlatBody(p, pl.group, in.Proc(me), out.Proc(me), pl.blockLen)
		case IndexPairwiseXOR:
			err = xorIndexFlatBody(p, pl.group, in.Proc(me), out.Proc(me), pl.blockLen)
		}
	case OpConcat:
		switch pl.calg {
		case ConcatCirculant:
			err = pl.circulantBody(p, in.Proc(me), out.Proc(me))
		case ConcatFolklore:
			err = folkloreConcatFlatBody(p, pl.group, in.Proc(me), out.Proc(me), pl.blockLen)
		case ConcatRing:
			err = ringConcatFlatBody(p, pl.group, in.Proc(me), out.Proc(me), pl.blockLen)
		case ConcatRecursiveDoubling:
			err = recursiveDoublingConcatFlatBody(p, pl.group, in.Proc(me), out.Proc(me), pl.blockLen)
		}
	case OpReduceScatter:
		err = pl.reduceScatterBody(p, in.Proc(me), out.Proc(me))
	case OpAllReduce:
		err = pl.allReduceBody(p, in.Proc(me), out.Proc(me))
	}
	if err != nil {
		return fmt.Errorf("group rank %d: %w", me, err)
	}
	return nil
}

// bruckBody is the per-processor program of a compiled Bruck-family
// index plan (uniform or mixed radix, packed or not): Phase 1 rotates
// the input into the working region, Phase 2 replays the precomputed
// rounds, Phase 3 writes the output permutation. All schedule decisions
// — partners, payload sizes, which blocks travel together — were made
// at compile time.
func (pl *Plan) bruckBody(p *mpsim.Proc, in, out []byte) error {
	g := pl.group
	n := g.Size()
	me := g.Rank(p.Rank())
	bl := pl.blockLen

	work := p.AcquireBuf(n * bl)
	defer p.ReleaseBuf(work)
	cut := me * bl
	copy(work, in[cut:])
	copy(work[len(in)-cut:], in[:cut])

	if err := pl.replayBruckRounds(p, work, bl); err != nil {
		return err
	}

	// Output block j is working slot (me-j) mod n: walk q down from me,
	// wrapping once.
	for j, q := 0, me; j < n; j, q = j+1, q-1 {
		if q < 0 {
			q += n
		}
		copy(out[j*bl:(j+1)*bl], work[q*bl:q*bl+bl])
	}
	return nil
}

// replayBruckRounds runs the compiled Phase 2 rounds on a working
// region of n slots of bl bytes — shared by the fixed-size body (bl is
// the block size), the layout body (bl is the padded slot size of the
// two-phase packing) and the Bruck reduce-scatter.
//
// The replay is a pipeline over the block's byte spans: merged round t
// moves, for every live segment seg (those with 0 <= t-seg <
// len(rounds)), the transfers of compiled round t-seg restricted to
// segment seg's span of each block. An unsegmented plan is the
// one-segment case — one full-width span, merged round t is compiled
// round t — and packs each run of adjacent blocks with a single copy.
// Payloads travel by ownership transfer in both directions
// (Proc.ExchangeOwned): the packed send buffer is handed to the
// transport uncopied, and the received buffer is unpacked and
// recycled here, so every message costs two copies.
//
// Within one merged round all partner offsets are distinct
// (finishSegments clamps the segment count to minOffsetGap), every
// rank runs the same merged-round count, and all packs precede the
// exchange while all unpacks follow it — so a round's send and receive
// of the same working blocks keep pack-before-unpack order, and
// distinct segments touch disjoint byte spans. On error the in-flight
// payloads stay with the transport; the engine's post-run drain
// recovers them into the pools.
func (pl *Plan) replayBruckRounds(p *mpsim.Proc, work []byte, bl int) error {
	g := pl.group
	n := g.Size()
	me := g.Rank(p.Rank())
	spans := pl.segSpans
	if pl.segments <= 1 {
		full := [1]buffers.Span{{Len: bl}}
		spans = full[:]
	}
	s, R := len(spans), len(pl.rounds)
	sends, froms, out := p.RoundScratch(s * p.Ports())

	for t := 0; t < R+s-1; t++ {
		lo, hi := max(0, t-R+1), min(t, s-1)
		sends, froms = sends[:0], froms[:0]
		for seg := lo; seg <= hi; seg++ {
			sp := spans[seg]
			for _, x := range pl.rounds[t-seg].xfers {
				size := x.bytes // full width: bl bytes per block
				if sp.Len != bl {
					size = x.blockCount() * sp.Len
				}
				payload := p.AcquireBuf(size)
				packRuns(payload, work, x.runs, bl, sp)
				sends = append(sends, mpsim.Send{To: g.ID(intmath.Mod(me+x.offset, n)), Data: payload})
				froms = append(froms, g.ID(intmath.Mod(me-x.offset, n)))
			}
		}
		out = out[:len(froms)]
		if err := p.ExchangeOwned(sends, froms, out, hi-lo+1); err != nil {
			return err
		}
		i := 0
		for seg := lo; seg <= hi; seg++ {
			sp := spans[seg]
			for _, x := range pl.rounds[t-seg].xfers {
				unpackRuns(work, out[i], x.runs, bl, sp)
				p.ReleaseBuf(out[i])
				i++
			}
		}
	}
	return nil
}

// packRuns gathers span sp of every block in runs, in order, from a
// working region of bl-byte slots into payload. A full-width span
// copies each run of adjacent blocks at once.
func packRuns(payload, work []byte, runs []blockRun, bl int, sp buffers.Span) {
	off := 0
	for _, r := range runs {
		if sp.Len == bl {
			off += copy(payload[off:], work[r.first*bl:(r.first+r.count)*bl])
			continue
		}
		for j := r.first; j < r.first+r.count; j++ {
			off += copy(payload[off:off+sp.Len], work[j*bl+sp.Off:])
		}
	}
}

// unpackRuns is the inverse of packRuns: it scatters payload back into
// span sp of every block in runs.
func unpackRuns(work, payload []byte, runs []blockRun, bl int, sp buffers.Span) {
	off := 0
	for _, r := range runs {
		if sp.Len == bl {
			off += copy(work[r.first*bl:(r.first+r.count)*bl], payload[off:])
			continue
		}
		for j := r.first; j < r.first+r.count; j++ {
			off += copy(work[j*bl+sp.Off:j*bl+sp.Off+sp.Len], payload[off:])
		}
	}
}

// circulantBody is the per-processor program of a compiled circulant
// concatenation plan: the doubling rounds and the byte-granular last
// rounds replay precomputed shapes; the table partition and its area
// offsets were solved at compile time. The output region is the
// accumulation buffer, as in circulantConcatFlatBody.
func (pl *Plan) circulantBody(p *mpsim.Proc, myBlock, out []byte) error {
	g := pl.group
	n := g.Size()
	me := g.Rank(p.Rank())
	bl := pl.blockLen

	copy(out[:bl], myBlock)
	if n == 1 {
		return nil
	}

	if pl.trivial {
		sends, froms, into := p.RoundScratch(n - 1)
		for q := 1; q < n; q++ {
			sends = append(sends, mpsim.Send{To: g.ID(intmath.Mod(me-q, n)), Data: myBlock})
			froms = append(froms, g.ID(intmath.Mod(me+q, n)))
			into = append(into, out[q*bl:(q+1)*bl])
		}
		if err := p.ExchangeInto(sends, froms, into); err != nil {
			return err
		}
		buffers.RotateUp(out, n, bl, n-me)
		return nil
	}

	if len(pl.last) > 0 && pl.poolHint > 0 {
		// Pre-size the pool: one hint-sized acquisition up front means
		// every mixed-size area payload of the last rounds finds a
		// fitting buffer within the pool's bounded scan.
		p.ReleaseBuf(p.AcquireBuf(pl.poolHint))
	}

	if err := pl.replayCirculantRounds(p, out, bl); err != nil {
		return err
	}

	buffers.RotateUp(out, n, bl, n-me)
	return nil
}

// replayCirculantRounds runs the compiled doubling and last rounds on
// an accumulation region of n slots of bl bytes in successor order
// (slot q holds the block of group rank me+q) — shared by the
// fixed-size body (acc is the output region, bl the block size) and the
// layout body (acc is a pooled padded working region, bl the slot
// size).
func (pl *Plan) replayCirculantRounds(p *mpsim.Proc, acc []byte, bl int) error {
	g := pl.group
	n := g.Size()
	me := g.Rank(p.Rank())
	k := p.Ports()

	sends, froms, into := p.RoundScratch(k)
	for _, rd := range pl.dbl {
		sends, froms, into = sends[:0], froms[:0], into[:0]
		for t := 1; t <= k; t++ {
			sends = append(sends, mpsim.Send{
				To:   g.ID(intmath.Mod(me-t*rd.base, n)),
				Data: acc[:rd.count*bl],
			})
			froms = append(froms, g.ID(intmath.Mod(me+t*rd.base, n)))
			into = append(into, acc[t*rd.base*bl:(t*rd.base+rd.count)*bl])
		}
		if err := p.ExchangeInto(sends, froms, into); err != nil {
			return err
		}
	}

	for _, lr := range pl.last {
		sends, froms, into = sends[:0], froms[:0], into[:0]
		for _, area := range lr.areas {
			payload := p.AcquireBuf(area.size)
			off := 0
			for _, run := range area.runs {
				q := pl.n1 + run.Col - area.offset
				blk := acc[q*bl : (q+1)*bl]
				off += copy(payload[off:], blk[run.Row0:run.Row0+run.NRows])
			}
			sends = append(sends, mpsim.Send{To: g.ID(intmath.Mod(me-area.offset, n)), Data: payload})
			froms = append(froms, g.ID(intmath.Mod(me+area.offset, n)))
			into = append(into, p.AcquireBuf(area.size))
		}
		err := p.ExchangeInto(sends, froms, into)
		if err == nil {
			for ai, area := range lr.areas {
				payload := into[ai]
				off := 0
				for _, run := range area.runs {
					q := pl.n1 + run.Col
					blk := acc[q*bl : (q+1)*bl]
					copy(blk[run.Row0:run.Row0+run.NRows], payload[off:off+run.NRows])
					off += run.NRows
				}
			}
		}
		for i := range sends {
			p.ReleaseBuf(sends[i].Data)
			p.ReleaseBuf(into[i])
		}
		if err != nil {
			return err
		}
	}
	return nil
}
