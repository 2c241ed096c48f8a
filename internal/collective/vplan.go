package collective

// Ragged-layout collectives: IndexV (MPI_Alltoallv) and ConcatV
// (MPI_Allgatherv), the variable-block-size generalizations of the
// paper's two operations.
//
// The paper's schedules are fixed functions of (n, k, r): every block
// travels through intermediate processors on a route that never depends
// on the payload. That is exactly what makes them reusable for ragged
// layouts via two-phase local packing, the technique production MPI
// libraries use to run the Bruck algorithm under Alltoallv on small
// messages: each processor packs its variable-size blocks into uniform
// slots of the layout's largest block (padding is transferred but never
// read), the unchanged fixed-size schedule runs on the padded slots,
// and the destination unpacks each block at its true length — the
// layout is global knowledge compiled into the plan, so every receiver
// knows every true length. Algorithms whose blocks travel directly
// between source and destination (direct exchange, pairwise-XOR, ring)
// need no padding at all: their compiled plans carry per-transfer byte
// extents straight from the layout.
//
// The trade-off is the auto dispatcher's reason to exist: padding makes
// the log-round schedules pay C2 proportional to the largest block,
// while the direct schedules pay many rounds but move only true bytes.
// Which side wins depends on the layout's skew and the machine's
// beta/tau ratio, and the linear cost model T = C1*beta + C2*tau
// decides it per layout from the compiled candidates' exact (C1, C2).

import (
	"fmt"

	"bruck/internal/blocks"
	"bruck/internal/buffers"
	"bruck/internal/intmath"
	"bruck/internal/lowerbound"
	"bruck/internal/mpsim"
)

// CompileIndexV compiles the index schedule selected by opt for group g
// at the given layout: an n x n table whose Count(i, j) is the number
// of bytes group rank i holds for rank j. On a uniform layout the
// compiled rounds are byte-identical to CompileIndex's at the same
// block size, so uniform IndexV executions match IndexFlat exactly in
// both results and Reports. Layout plans always run monolithic:
// opt.Segments is ignored (the ragged replay packs true extents per
// block, which the span-splitting pipeline does not model).
func CompileIndexV(e *mpsim.Engine, g *mpsim.Group, l *blocks.Layout, opt IndexOptions) (*Plan, error) {
	n := g.Size()
	if err := checkGroup(e, g); err != nil {
		return nil, err
	}
	if err := checkIndexLayout(l, n); err != nil {
		return nil, err
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
	slot := l.Max()
	pl := &Plan{
		engine:    e,
		group:     g,
		op:        OpIndex,
		blockLen:  slot,
		ialg:      opt.Algorithm,
		noPack:    opt.NoPack,
		layout:    l,
		outLayout: l.Transpose(),
		slot:      slot,
	}
	switch opt.Algorithm {
	case IndexBruck:
		pl.rounds = compileBruckRounds(n, k, slot, func(int) int { return r }, opt.NoPack)
	case IndexDirect, IndexPairwiseXOR:
		// Partner arithmetic plus the layout's extent tables are the
		// whole schedule; these algorithms move exact block sizes with
		// no padding.
	default:
		return nil, fmt.Errorf("collective: unknown index algorithm %v", opt.Algorithm)
	}
	pl.finishIndex(n, k)
	if !l.Uniform() {
		switch opt.Algorithm {
		case IndexDirect:
			pl.c2 = directVC2(l, n, k)
		case IndexPairwiseXOR:
			pl.c2 = xorVC2(l, n, k)
		}
	}
	pl.c2lb = lowerbound.IndexVVolume(l.CountsMatrix(), k)
	if l.Uniform() {
		pl.c1lb = lowerbound.IndexRounds(n, k)
	}
	return pl, nil
}

// CompileIndexVMixed compiles the mixed-radix index schedule for a
// layout: subphase i uses radices[i], on padded slots for ragged
// layouts exactly as CompileIndexV.
func CompileIndexVMixed(e *mpsim.Engine, g *mpsim.Group, l *blocks.Layout, radices []int) (*Plan, error) {
	n := g.Size()
	if err := checkGroup(e, g); err != nil {
		return nil, err
	}
	if err := checkIndexLayout(l, n); err != nil {
		return nil, err
	}
	if err := ValidateRadices(n, radices); err != nil {
		return nil, err
	}
	slot := l.Max()
	pl := &Plan{
		engine:    e,
		group:     g,
		op:        OpIndex,
		blockLen:  slot,
		ialg:      IndexBruck,
		layout:    l,
		outLayout: l.Transpose(),
		slot:      slot,
	}
	pl.rounds = compileBruckRounds(n, e.Ports(), slot, func(i int) int { return radices[i] }, false)
	pl.finishIndex(n, e.Ports())
	pl.c2lb = lowerbound.IndexVVolume(l.CountsMatrix(), e.Ports())
	if l.Uniform() {
		pl.c1lb = lowerbound.IndexRounds(n, e.Ports())
	}
	return pl, nil
}

// CompileConcatV compiles the concatenation schedule selected by opt
// for group g at the given layout: an n x 1 table whose Count(i, 0) is
// group rank i's contribution. The circulant algorithm runs on padded
// slots (two-phase packing); the ring baseline moves exact block sizes.
// The folklore and recursive-doubling baselines have no V variant. On a
// uniform layout the compiled schedule is byte-identical to
// CompileConcat's at the same block size.
func CompileConcatV(e *mpsim.Engine, g *mpsim.Group, l *blocks.Layout, opt ConcatOptions) (*Plan, error) {
	n := g.Size()
	if err := checkGroup(e, g); err != nil {
		return nil, err
	}
	if l == nil {
		return nil, fmt.Errorf("collective: nil layout")
	}
	if l.Rows() != n || l.Cols() != 1 {
		return nil, fmt.Errorf("collective: concat layout is %dx%d, group needs %dx1", l.Rows(), l.Cols(), n)
	}
	outLayout, err := l.ConcatOut()
	if err != nil {
		return nil, err
	}
	k := e.Ports()
	slot := l.Max()
	pl := &Plan{
		engine:    e,
		group:     g,
		op:        OpConcat,
		blockLen:  slot,
		calg:      opt.Algorithm,
		layout:    l,
		outLayout: outLayout,
		slot:      slot,
		poolHint:  slot,
	}
	switch opt.Algorithm {
	case ConcatCirculant:
		if err := pl.compileCirculant(n, k, slot, opt.LastRound); err != nil {
			return nil, err
		}
		if !pl.trivial && n > 1 {
			// The ragged body accumulates in a pooled padded working region
			// instead of the output slab, so the hint covers it.
			pl.poolHint = n * slot
		}
	case ConcatRing:
		pl.c1, pl.c2 = RingConcatCost(n, slot)
	case ConcatFolklore, ConcatRecursiveDoubling:
		return nil, fmt.Errorf("collective: %v has no V variant (ConcatV supports circulant and ring)", opt.Algorithm)
	default:
		return nil, fmt.Errorf("collective: unknown concat algorithm %v", opt.Algorithm)
	}
	pl.c2lb = lowerbound.ConcatVVolume(l.CountsVector(), k)
	if l.Uniform() {
		pl.c1lb = lowerbound.ConcatRounds(n, k)
	}
	return pl, nil
}

// checkIndexLayout validates an index layout against the group size.
func checkIndexLayout(l *blocks.Layout, n int) error {
	if l == nil {
		return fmt.Errorf("collective: nil layout")
	}
	if l.Rows() != n || l.Cols() != n {
		return fmt.Errorf("collective: index layout is %dx%d, group needs %dx%d", l.Rows(), l.Cols(), n, n)
	}
	return nil
}

// directVC2 returns the data volume of the ragged direct exchange: the
// sum over its round groups of the largest exact extent any processor
// sends in that group.
func directVC2(l *blocks.Layout, n, k int) int {
	c2 := 0
	for start := 1; start < n; start += k {
		end := intmath.Min(start+k-1, n-1)
		roundMax := 0
		for me := 0; me < n; me++ {
			for z := start; z <= end; z++ {
				if c := l.Count(me, intmath.Mod(me+z, n)); c > roundMax {
					roundMax = c
				}
			}
		}
		c2 += roundMax
	}
	return c2
}

// xorVC2 is directVC2 for the pairwise-XOR partner structure.
func xorVC2(l *blocks.Layout, n, k int) int {
	c2 := 0
	for start := 1; start < n; start += k {
		end := intmath.Min(start+k-1, n-1)
		roundMax := 0
		for me := 0; me < n; me++ {
			for z := start; z <= end; z++ {
				if c := l.Count(me, me^z); c > roundMax {
					roundMax = c
				}
			}
		}
		c2 += roundMax
	}
	return c2
}

// vbody dispatches the per-processor program of a layout plan.
func (pl *Plan) vbody(p *mpsim.Proc, in, out *buffers.Ragged) error {
	me := pl.group.Rank(p.Rank())
	if me < 0 {
		return nil
	}
	var err error
	switch pl.op {
	case OpIndex:
		switch pl.ialg {
		case IndexBruck:
			err = pl.bruckVBody(p, in, out)
		case IndexDirect:
			err = pl.directVBody(p, in, out)
		case IndexPairwiseXOR:
			err = pl.xorVBody(p, in, out)
		}
	case OpConcat:
		switch pl.calg {
		case ConcatCirculant:
			err = pl.circulantVBody(p, in, out)
		case ConcatRing:
			err = pl.ringVBody(p, in, out)
		}
	}
	if err != nil {
		return fmt.Errorf("group rank %d: %w", me, err)
	}
	return nil
}

// bruckVBody is the layout counterpart of bruckBody: Phase 1 packs the
// ragged input row into padded slots (the local pack of the two-phase
// generalization), Phase 2 replays the identical compiled rounds on the
// padded working region, Phase 3 unpacks each block at its true length.
// Slot padding travels but is never read.
func (pl *Plan) bruckVBody(p *mpsim.Proc, in, out *buffers.Ragged) error {
	g := pl.group
	n := g.Size()
	me := g.Rank(p.Rank())
	s := pl.slot

	work := p.AcquireBuf(n * s)
	defer p.ReleaseBuf(work)
	in.PackRow(me, me, 1, s, work)

	if err := pl.replayBruckRounds(p, work, s); err != nil {
		return err
	}

	out.UnpackRow(me, me, -1, s, work)
	return nil
}

// directVBody sends block B[me, dst] straight to dst at its exact
// extent and receives B[src, me] straight into the ragged output block
// — the fully zero-copy, padding-free member of the family, and the
// volume-minimal one on skewed layouts. Zero-length blocks still travel
// as empty messages so every processor walks the same round structure.
func (pl *Plan) directVBody(p *mpsim.Proc, in, out *buffers.Ragged) error {
	g := pl.group
	n := g.Size()
	me := g.Rank(p.Rank())
	k := p.Ports()

	copy(out.Block(me, me), in.Block(me, me))

	sends := make([]mpsim.Send, 0, k)
	froms := make([]int, 0, k)
	into := make([][]byte, 0, k)
	for start := 1; start < n; start += k {
		end := intmath.Min(start+k-1, n-1)
		sends, froms, into = sends[:0], froms[:0], into[:0]
		for z := start; z <= end; z++ {
			dst := intmath.Mod(me+z, n)
			src := intmath.Mod(me-z, n)
			sends = append(sends, mpsim.Send{To: g.ID(dst), Data: in.Block(me, dst)})
			froms = append(froms, g.ID(src))
			into = append(into, out.Block(me, src))
		}
		if err := p.ExchangeInto(sends, froms, into); err != nil {
			return err
		}
	}
	return nil
}

// xorVBody is the ragged pairwise-XOR exchange: exact extents, partner
// me XOR z, power-of-two group sizes.
func (pl *Plan) xorVBody(p *mpsim.Proc, in, out *buffers.Ragged) error {
	g := pl.group
	n := g.Size()
	me := g.Rank(p.Rank())
	k := p.Ports()

	copy(out.Block(me, me), in.Block(me, me))

	sends := make([]mpsim.Send, 0, k)
	froms := make([]int, 0, k)
	into := make([][]byte, 0, k)
	for start := 1; start < n; start += k {
		end := intmath.Min(start+k-1, n-1)
		sends, froms, into = sends[:0], froms[:0], into[:0]
		for z := start; z <= end; z++ {
			partner := me ^ z
			sends = append(sends, mpsim.Send{To: g.ID(partner), Data: in.Block(me, partner)})
			froms = append(froms, g.ID(partner))
			into = append(into, out.Block(me, partner))
		}
		if err := p.ExchangeInto(sends, froms, into); err != nil {
			return err
		}
	}
	return nil
}

// circulantVBody is the layout counterpart of circulantBody: the
// contribution is packed into slot 0 of a pooled padded working region,
// the compiled doubling and last rounds replay on the padded slots, and
// the accumulated concatenation unpacks into the ragged output at true
// lengths (the unpack performs the final rotation, so no RotateUp is
// needed). The trivial k >= n-1 round skips padding entirely and moves
// exact extents.
func (pl *Plan) circulantVBody(p *mpsim.Proc, in, out *buffers.Ragged) error {
	g := pl.group
	n := g.Size()
	me := g.Rank(p.Rank())
	s := pl.slot

	my := in.Block(me, 0)
	copy(out.Block(me, me), my)
	if n == 1 {
		return nil
	}

	if pl.trivial {
		sends := make([]mpsim.Send, 0, n-1)
		froms := make([]int, 0, n-1)
		into := make([][]byte, 0, n-1)
		for q := 1; q < n; q++ {
			sends = append(sends, mpsim.Send{To: g.ID(intmath.Mod(me-q, n)), Data: my})
			froms = append(froms, g.ID(intmath.Mod(me+q, n)))
			into = append(into, out.Block(me, intmath.Mod(me+q, n)))
		}
		return p.ExchangeInto(sends, froms, into)
	}

	// The working region is the plan's pool hint, so acquiring it first
	// also pre-sizes the pool for the mixed-size last-round payloads.
	work := p.AcquireBuf(n * s)
	defer p.ReleaseBuf(work)
	copy(work[:len(my)], my)

	if err := pl.replayCirculantRounds(p, work, s); err != nil {
		return err
	}

	out.UnpackRow(me, me, 1, s, work)
	return nil
}

// ringVBody is the ragged ring: in round q the processor forwards the
// block it received in round q-1 (starting with its own) to its
// predecessor at the block's exact extent, and receives the next block
// directly into its ragged output slot. No padding, no scratch, C1 =
// n-1.
func (pl *Plan) ringVBody(p *mpsim.Proc, in, out *buffers.Ragged) error {
	g := pl.group
	n := g.Size()
	me := g.Rank(p.Rank())

	copy(out.Block(me, me), in.Block(me, 0))
	if n == 1 {
		return nil
	}
	pred := g.ID(intmath.Mod(me-1, n))
	succ := g.ID(intmath.Mod(me+1, n))
	sends := make([]mpsim.Send, 1)
	froms := []int{succ}
	into := make([][]byte, 1)
	for q := 1; q < n; q++ {
		sends[0] = mpsim.Send{To: pred, Data: out.Block(me, intmath.Mod(me+q-1, n))}
		into[0] = out.Block(me, intmath.Mod(me+q, n))
		if err := p.ExchangeInto(sends, froms, into); err != nil {
			return err
		}
	}
	return nil
}

// IndexVFlat compiles the layout schedule and executes it once on
// ragged slabs: in's layout is the plan's layout, out's must be its
// transpose. Repeated callers should hold a Plan from CompileIndexV (or
// go through a PlanCache, as the public Machine API does).
func IndexVFlat(e *mpsim.Engine, g *mpsim.Group, in, out *buffers.Ragged, opt IndexOptions) (*Result, error) {
	if in == nil || out == nil {
		return nil, fmt.Errorf("collective: nil ragged buffer")
	}
	pl, err := CompileIndexV(e, g, in.Layout(), opt)
	if err != nil {
		return nil, err
	}
	return pl.ExecuteV(in, out)
}

// ConcatVFlat compiles the layout concatenation and executes it once;
// in is a concat-shaped ragged slab (n x 1) and out its n x n
// concatenation shape (Layout.ConcatOut).
func ConcatVFlat(e *mpsim.Engine, g *mpsim.Group, in, out *buffers.Ragged, opt ConcatOptions) (*Result, error) {
	if in == nil || out == nil {
		return nil, fmt.Errorf("collective: nil ragged buffer")
	}
	pl, err := CompileConcatV(e, g, in.Layout(), opt)
	if err != nil {
		return nil, err
	}
	return pl.ExecuteV(in, out)
}
