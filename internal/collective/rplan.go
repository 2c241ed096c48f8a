package collective

// Reduction collectives: ReduceScatter and AllReduce, compiled through
// the same Plan machinery as the paper's two operations.
//
// The classic composition allreduce = reduce-scatter + allgather is the
// reduction counterpart of the paper's pair: the reduce-scatter phase
// has exactly the data movement of the index operation (every processor
// holds one block per destination; block (i, j) must reach processor j)
// plus an elementwise combine at the destination, and the allgather
// phase IS the concatenation operation. A compiled reduction plan
// therefore reuses the compiled Bruck-index round structure and the
// circulant-concatenation round structure verbatim and adds exactly one
// new ingredient: a combine kernel the executor applies where a plain
// collective would copy.
//
// Three reduce-scatter schedules are provided:
//
//   - ReduceRing: the partial sum for chunk c travels once around the
//     ring, combining each processor's contribution as it passes.
//     C1 = n-1 rounds, C2 = (n-1)*b bytes — volume-optimal against the
//     send-side bound b(n-1)/k at k = 1, for any n.
//   - ReduceHalving: recursive vector halving; each round exchanges and
//     combines half the remaining chunks with partner me XOR h.
//     C1 = log2 n rounds, C2 = (n-1)*b — round- and volume-optimal at
//     k = 1, but only for power-of-two n.
//   - ReduceBruck: the compiled radix-r Bruck index schedule moves
//     every block to its destination (blocks of different chunks never
//     combine in transit, so the index machinery applies unchanged),
//     and the destination combines its n received blocks locally.
//     C1/C2 are exactly the index algorithm's, so the radix dials the
//     paper's C1/C2 trade-off for reductions too — with k ports this is
//     the only family that goes below log2 n rounds.
//
// AllReduce appends the circulant concatenation (the paper's optimal
// allgather) to any of the three, inside the same engine run.

import (
	"fmt"

	"bruck/internal/buffers"
	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/lowerbound"
	"bruck/internal/mpsim"
	"bruck/internal/partition"
)

// ReduceKind selects which reduction operation to compile.
type ReduceKind int

const (
	// ReduceScatterKind: input is index-shaped (n blocks per processor,
	// block (i, j) is rank i's contribution to chunk j); rank i's output
	// is the single combined chunk i.
	ReduceScatterKind ReduceKind = iota
	// AllReduceKind: same input; every rank's output is the full
	// combined vector of n chunks.
	AllReduceKind
)

func (k ReduceKind) String() string {
	if k == ReduceScatterKind {
		return "reduce-scatter"
	}
	return "allreduce"
}

// ReduceAlgorithm selects the reduce-scatter schedule (and thereby the
// first phase of AllReduce).
type ReduceAlgorithm int

const (
	// ReduceRing (default): n-1 rounds, (n-1)*b volume, any n.
	ReduceRing ReduceAlgorithm = iota
	// ReduceHalving: recursive vector halving, log2 n rounds, (n-1)*b
	// volume, power-of-two n only.
	ReduceHalving
	// ReduceBruck: the radix-r Bruck index schedule with a local combine
	// at the destination; C1/C2 are the index algorithm's.
	ReduceBruck
)

func (a ReduceAlgorithm) String() string {
	switch a {
	case ReduceRing:
		return "ring"
	case ReduceHalving:
		return "halving"
	case ReduceBruck:
		return "bruck"
	default:
		return fmt.Sprintf("ReduceAlgorithm(%d)", int(a))
	}
}

// ReduceOptions configures a reduction compile.
type ReduceOptions struct {
	// Algorithm selects the reduce-scatter schedule; default ReduceRing.
	Algorithm ReduceAlgorithm
	// Radix is the Bruck radix for ReduceBruck (2 <= r <= n; 0 selects
	// k+1). Ignored by the other algorithms.
	Radix int
	// Kernel combines a received partial into the local accumulator.
	// Required whenever blockLen > 0.
	Kernel buffers.CombineFunc //lint:allow planlife a func is not comparable; KernelKey identifies it in the cache key
	// ElemSize is the kernel's element width for block-size validation;
	// 0 skips the divisibility check (raw byte kernels).
	ElemSize int //lint:allow planlife fixed by the kernel, which KernelKey identifies
	// KernelKey identifies the kernel for plan caching (the built-in
	// kernels use "op/type", see buffers.KernelKey). Empty marks an
	// uncacheable user kernel: such configurations compile a fresh plan
	// on every call.
	KernelKey string
	// LastRound is the circulant concatenation's special-range policy
	// for the AllReduce concatenation phase.
	LastRound partition.Policy
	// Segments pipelines the ReduceBruck reduce-scatter phase exactly as
	// IndexOptions.Segments pipelines the index schedule: the blocks
	// split into this many byte spans streaming one merged round apart.
	// 0 and 1 run the monolithic schedule; AutoSegments lets the SP-1
	// cost model pick. Ignored by the ring and halving schedules and by
	// the concatenation phase of AllReduce, which always run monolithic.
	Segments int
}

// checkReduce validates the common reduction compile parameters.
func checkReduce(e *mpsim.Engine, g *mpsim.Group, blockLen int, opt ReduceOptions) error {
	if err := checkGroup(e, g); err != nil {
		return err
	}
	if blockLen < 0 {
		return fmt.Errorf("collective: negative block size %d", blockLen)
	}
	if blockLen > 0 && opt.Kernel == nil {
		return fmt.Errorf("collective: reduction requires a combine kernel (set ReduceOptions.Kernel)")
	}
	if opt.ElemSize > 0 && blockLen%opt.ElemSize != 0 {
		return fmt.Errorf("collective: block size %d is not a multiple of the kernel's %d-byte elements", blockLen, opt.ElemSize)
	}
	n := g.Size()
	if opt.Algorithm == ReduceHalving && !intmath.IsPow(2, n) {
		return fmt.Errorf("collective: recursive halving requires a power-of-two group size, got %d", n)
	}
	if opt.Algorithm == ReduceBruck && n > 1 {
		r := opt.Radix
		if r != 0 && (r < 2 || r > n) {
			return fmt.Errorf("collective: reduce radix %d out of range [2, %d]", r, n)
		}
	}
	return nil
}

// CompileReduce compiles the reduction selected by kind for group g on
// engine e at block size blockLen: the reduce-scatter schedule chosen
// by opt.Algorithm, plus — for AllReduceKind — the circulant
// concatenation of the combined chunks, both replayed inside one engine
// run per execution. The plan's Execute takes an index-shaped input
// (block (i, j) = rank i's contribution to chunk j) and a concat-shaped
// output for ReduceScatterKind or an index-shaped output for
// AllReduceKind.
func CompileReduce(e *mpsim.Engine, g *mpsim.Group, kind ReduceKind, blockLen int, opt ReduceOptions) (*Plan, error) {
	if err := checkReduce(e, g, blockLen, opt); err != nil {
		return nil, err
	}
	n := g.Size()
	k := e.Ports()
	op := OpReduceScatter
	if kind == AllReduceKind {
		op = OpAllReduce
	}
	pl := &Plan{
		engine:   e,
		group:    g,
		op:       op,
		blockLen: blockLen,
		ralg:     opt.Algorithm,
		combine:  opt.Kernel,
		poolHint: blockLen,
	}
	switch opt.Algorithm {
	case ReduceRing:
		if n > 1 {
			pl.c1 = n - 1
			pl.c2 = (n - 1) * blockLen
		}
	case ReduceHalving:
		if n > 1 {
			pl.c1 = intmath.CeilLog(2, n)
			pl.c2 = (n - 1) * blockLen
			pl.poolHint = n * blockLen // working row
		}
	case ReduceBruck:
		r := opt.Radix
		if r == 0 {
			r = intmath.Min(k+1, n)
		}
		pl.rounds = compileBruckRounds(n, k, blockLen, func(int) int { return r }, false)
		pl.ialg = IndexBruck // reuse the index replay and tally machinery
		pl.finishIndex(n, k)
		s := opt.Segments
		if s == AutoSegments {
			s = OptimalSegments(costmodel.SP1, n, blockLen, r, k)
		}
		pl.finishSegments(s)
	default:
		return nil, fmt.Errorf("collective: unknown reduce algorithm %v", opt.Algorithm)
	}
	if kind == AllReduceKind {
		if err := pl.compileCirculant(n, k, blockLen, opt.LastRound); err != nil {
			return nil, err
		}
		pl.c2lb = lowerbound.AllReduceVolume(n, blockLen, k)
		pl.c1lb = lowerbound.AllReduceRounds(n, k)
	} else {
		pl.c2lb = lowerbound.ReduceScatterVolume(n, blockLen, k)
		pl.c1lb = lowerbound.ReduceScatterRounds(n, k)
	}
	if pl.segments > 1 {
		// A merged pipelined round multiplexes up to segments compiled
		// rounds over the ports, so the per-round-maximum C2 measure can
		// dip below the monolithic volume bound by up to that factor; see
		// the matching scaling in CompileIndex.
		pl.c2lb = intmath.CeilDiv(pl.c2lb, pl.segments)
	}
	return pl, nil
}

// combineInto applies the plan's kernel — dst = dst op src — guarding
// the zero-length case: kernels are never invoked on empty slabs.
func (pl *Plan) combineInto(dst, src []byte) {
	if len(dst) == 0 {
		return
	}
	pl.combine(dst, src)
}

// reduceScatterBody dispatches the per-processor reduce-scatter
// program: in is the rank's n contribution blocks, out its single
// combined chunk.
func (pl *Plan) reduceScatterBody(p *mpsim.Proc, in, out []byte) error {
	switch pl.ralg {
	case ReduceRing:
		return pl.ringReduceBody(p, in, out)
	case ReduceHalving:
		return pl.halvingReduceBody(p, in, out)
	case ReduceBruck:
		return pl.bruckReduceBody(p, in, out)
	default:
		return fmt.Errorf("collective: unknown reduce algorithm %v", pl.ralg)
	}
}

// ringReduceBody: the partial for chunk c starts at rank c+1 with that
// rank's own contribution and travels the ring once, each rank
// combining its contribution as the partial passes; after n-1 rounds
// the fully combined chunk me arrives at rank me. The round's receive
// lands in the same pooled buffer the send was copied out of, so the
// body needs exactly one scratch buffer of one block.
func (pl *Plan) ringReduceBody(p *mpsim.Proc, in, out []byte) error {
	g := pl.group
	n := g.Size()
	me := g.Rank(p.Rank())
	bl := pl.blockLen

	if n == 1 {
		copy(out, in[me*bl:(me+1)*bl])
		return nil
	}
	succ := g.ID(intmath.Mod(me+1, n))
	pred := g.ID(intmath.Mod(me-1, n))
	cur := p.AcquireBuf(bl)
	defer p.ReleaseBuf(cur)
	copy(cur, in[intmath.Mod(me-1, n)*bl:])
	sends := make([]mpsim.Send, 1)
	froms := []int{pred}
	into := [][]byte{cur}
	for t := 1; t < n; t++ {
		sends[0] = mpsim.Send{To: succ, Data: cur}
		if err := p.ExchangeInto(sends, froms, into); err != nil {
			return err
		}
		c := intmath.Mod(me-t-1, n)
		pl.combineInto(cur, in[c*bl:(c+1)*bl])
	}
	copy(out, cur)
	return nil
}

// halvingReduceBody: recursive vector halving for power-of-two n. The
// working row starts as the rank's full contribution vector; each round
// sends the half not containing chunk me to partner me XOR h and
// combines the partner's partial for the kept half. After log2 n
// rounds the single remaining chunk is the fully combined chunk me.
func (pl *Plan) halvingReduceBody(p *mpsim.Proc, in, out []byte) error {
	g := pl.group
	n := g.Size()
	me := g.Rank(p.Rank())
	bl := pl.blockLen

	if n == 1 {
		copy(out, in[me*bl:(me+1)*bl])
		return nil
	}
	work := p.AcquireBuf(n * bl)
	defer p.ReleaseBuf(work)
	copy(work, in)

	sends := make([]mpsim.Send, 1)
	froms := make([]int, 1)
	into := make([][]byte, 1)
	lo := 0
	for size := n; size > 1; size /= 2 {
		half := size / 2
		partner := me ^ half
		keepLo, sendLo := lo, lo+half
		if me&half != 0 {
			keepLo, sendLo = lo+half, lo
			lo += half
		}
		rcv := p.AcquireBuf(half * bl)
		sends[0] = mpsim.Send{To: g.ID(partner), Data: work[sendLo*bl : (sendLo+half)*bl]}
		froms[0] = g.ID(partner)
		into[0] = rcv
		err := p.ExchangeInto(sends, froms, into)
		if err == nil {
			pl.combineInto(work[keepLo*bl:(keepLo+half)*bl], rcv)
		}
		p.ReleaseBuf(rcv)
		if err != nil {
			return err
		}
	}
	copy(out, work[me*bl:(me+1)*bl])
	return nil
}

// bruckReduceBody: Phase 1 and Phase 2 are exactly the compiled Bruck
// index body — rotate the contribution row into the working region and
// replay the precomputed rounds — and Phase 3 combines instead of
// permuting: after Phase 2 working slot q holds rank (me-q)'s
// contribution to chunk me, so the n slots fold into the output chunk
// with n-1 kernel applications (own contribution first, then sources
// me-1, me-2, ... — a fixed order, so repeated executions are
// bit-identical).
func (pl *Plan) bruckReduceBody(p *mpsim.Proc, in, out []byte) error {
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

	copy(out, work[:bl])
	for q := 1; q < n; q++ {
		pl.combineInto(out, work[q*bl:(q+1)*bl])
	}
	return nil
}

// allReduceBody composes the phases inside one run: the reduce-scatter
// schedule leaves the combined chunk me in output slot 0, then the
// compiled circulant concatenation rounds replay on the output region
// exactly as in circulantBody, and the final rotation puts chunk j in
// slot j on every rank.
func (pl *Plan) allReduceBody(p *mpsim.Proc, in, out []byte) error {
	g := pl.group
	n := g.Size()
	me := g.Rank(p.Rank())
	bl := pl.blockLen

	if n == 1 {
		copy(out, in)
		return nil
	}
	if err := pl.reduceScatterBody(p, in, out[:bl]); err != nil {
		return err
	}

	if pl.trivial {
		sends := make([]mpsim.Send, 0, n-1)
		froms := make([]int, 0, n-1)
		into := make([][]byte, 0, n-1)
		for q := 1; q < n; q++ {
			sends = append(sends, mpsim.Send{To: g.ID(intmath.Mod(me-q, n)), Data: out[:bl]})
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
		// Pre-size the pool for the mixed-size last-round payloads, as in
		// circulantBody.
		p.ReleaseBuf(p.AcquireBuf(pl.poolHint))
	}
	if err := pl.replayCirculantRounds(p, out, bl); err != nil {
		return err
	}
	buffers.RotateUp(out, n, bl, n-me)
	return nil
}

// checkReduceShape validates the flat buffer pair of one reduction
// call before plan resolution (the plan's own checkBuffers re-validates
// against the compiled shape).
func checkReduceShape(g *mpsim.Group, kind ReduceKind, in, out *buffers.Buffers) error {
	n := g.Size()
	if n == 0 {
		return fmt.Errorf("collective: empty group")
	}
	if in == nil || out == nil {
		return fmt.Errorf("collective: nil flat buffer")
	}
	if in.Procs() != n || in.Blocks() != n {
		return fmt.Errorf("collective: %v input is %dx%d blocks, group needs %dx%d",
			kind, in.Procs(), in.Blocks(), n, n)
	}
	return nil
}

// ReduceScatterFlat compiles the reduce-scatter schedule and executes
// it once. Repeated callers should hold a Plan from CompileReduce or go
// through a PlanCache, as the public Machine API does.
func ReduceScatterFlat(e *mpsim.Engine, g *mpsim.Group, in, out *buffers.Buffers, opt ReduceOptions) (*Result, error) {
	if err := checkReduceShape(g, ReduceScatterKind, in, out); err != nil {
		return nil, err
	}
	pl, err := CompileReduce(e, g, ReduceScatterKind, in.BlockLen(), opt)
	if err != nil {
		return nil, err
	}
	return pl.Execute(in, out)
}

// AllReduceFlat compiles the allreduce schedule and executes it once.
func AllReduceFlat(e *mpsim.Engine, g *mpsim.Group, in, out *buffers.Buffers, opt ReduceOptions) (*Result, error) {
	if err := checkReduceShape(g, AllReduceKind, in, out); err != nil {
		return nil, err
	}
	pl, err := CompileReduce(e, g, AllReduceKind, in.BlockLen(), opt)
	if err != nil {
		return nil, err
	}
	return pl.Execute(in, out)
}
