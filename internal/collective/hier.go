package collective

import (
	"fmt"

	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/lowerbound"
	"bruck/internal/mpsim"
)

// Two-level hierarchical schedules.
//
// A hierarchical plan runs one collective over a machine partitioned
// into node-groups (costmodel.Topology): each group's first member acts
// as its leader, the operation decomposes into a fixed sequence of
// phases, and every phase moves data over exactly one link class —
// intra-group phases reuse the paper's flat schedules inside each group
// concurrently, inter-group phases run a flat schedule over the leaders
// only. Because phases never mix link classes, the per-class C1/C2
// split is known exactly at compile time, which is what the
// topology-priced model T = sum over classes of C1c*beta_c + C2c*tau_c
// needs. On machines where inter links are much slower than intra links
// (clusters of multiprocessors, the paper's Section 6 setting) the
// funneling trades extra intra traffic for far fewer and smaller
// inter-link rounds.
//
// All phases are strictly ordered on the shared round counter: at the
// end of each phase every group member skips to the phase's global
// round count, so the engine's uniformity check holds and the measured
// per-class metrics match the compiled phase table exactly — every
// phase round carries at least one message (some largest group is
// active), so a phase's round count is exactly its C1 contribution.
//
// Groups occupy contiguous runs of group ranks (topology group a owns
// ranks start[a] .. start[a]+sizes[a]-1), which lets the intra-group
// sub-schedules run directly on contiguous slices of the caller's
// buffers with no repacking.

// HierOptions configures a hierarchical index or concatenation
// compile: the Bruck radix used inside each group and the radix of the
// leader-level schedule. Zero selects min(k+1, level size) — the
// round-minimal choice — per level; nonzero values are clamped to the
// level's valid range [2, level size].
type HierOptions struct {
	IntraRadix int
	InterRadix int
}

// hierRadix resolves a requested radix for a level of size n under k
// ports: 0 means the round-minimal min(k+1, n), anything else clamps
// into [2, n]. Levels of size <= 1 have no schedule and no radix.
func hierRadix(r, n, k int) int {
	if n <= 1 {
		return 0
	}
	if r == 0 {
		return intmath.Min(k+1, n)
	}
	if r < 2 {
		r = 2
	}
	if r > n {
		r = n
	}
	return r
}

// hierPhase is one phase of a hierarchical schedule: a contiguous run
// of rounds moving data over a single link class. rounds is also the
// phase's C1 contribution (every phase round carries at least one
// message); c2 is the phase's data volume (sum over its rounds of the
// round's largest message).
type hierPhase struct {
	name   string
	class  int // mpsim.ClassIntra or mpsim.ClassInter
	rounds int
	c2     int
}

// hierPlan is the two-level structure of a hierarchical Plan: the
// topology, the contiguous group runs, the compiled flat sub-plans per
// level, and the phase table that prices the schedule per link class.
type hierPlan struct {
	topo *costmodel.Topology

	start   []int // group -> first group rank of its contiguous run
	sizes   []int // group -> member count
	groupOf []int // group rank -> topology group
	maxSize int

	subGroups   []*mpsim.Group // per-group engine subgroups
	leaderGroup *mpsim.Group   // the G group leaders

	intra      []*Plan // per-group flat sub-plan (index/concat phases)
	inter      *Plan   // leader-level flat sub-plan, nil when G == 1
	interBlock int     // padded block size of the leader-level schedule

	phases []hierPhase

	// Per-level lower bounds (package lowerbound), carried into every
	// Result's LevelStats.
	intraC1LB, intraC2LB int
	interC1LB, interC2LB int
}

// newHierPlan validates the (engine, group, topology) triple and builds
// the level structure shared by the three hierarchical compilers.
func newHierPlan(e *mpsim.Engine, g *mpsim.Group, topo *costmodel.Topology) (*hierPlan, error) {
	if err := checkGroup(e, g); err != nil {
		return nil, err
	}
	if topo == nil {
		return nil, fmt.Errorf("collective: hierarchical compile requires a topology")
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if topo.N() != g.Size() {
		return nil, fmt.Errorf("collective: topology covers %d processors but the group has %d", topo.N(), g.Size())
	}
	h := &hierPlan{topo: topo, groupOf: topo.GroupAssignment()}
	rank := 0
	leaderIDs := make([]int, 0, len(topo.Groups))
	for _, m := range topo.Groups {
		h.start = append(h.start, rank)
		h.sizes = append(h.sizes, m)
		if m > h.maxSize {
			h.maxSize = m
		}
		ids := make([]int, m)
		for i := range ids {
			ids[i] = g.ID(rank + i)
		}
		sub, err := mpsim.NewGroup(ids, e.N())
		if err != nil {
			return nil, err
		}
		h.subGroups = append(h.subGroups, sub)
		leaderIDs = append(leaderIDs, g.ID(rank))
		rank += m
	}
	lg, err := mpsim.NewGroup(leaderIDs, e.N())
	if err != nil {
		return nil, err
	}
	h.leaderGroup = lg
	return h, nil
}

// finish sums the phase table into the plan's headline C1/C2.
func (h *hierPlan) finish(pl *Plan) {
	for _, ph := range h.phases {
		pl.c1 += ph.rounds
		pl.c2 += ph.c2
	}
}

// stackPhase prices concurrent per-group flat schedules sharing one run
// of rounds: maxes[a] is group a's per-round largest message. The phase
// lasts as long as the deepest schedule, and each round's volume
// contribution is the largest message over all groups still active.
func stackPhase(maxes [][]int) (rounds, c2 int) {
	for _, ms := range maxes {
		if len(ms) > rounds {
			rounds = len(ms)
		}
	}
	for t := 0; t < rounds; t++ {
		roundMax := 0
		for _, ms := range maxes {
			if t < len(ms) && ms[t] > roundMax {
				roundMax = ms[t]
			}
		}
		c2 += roundMax
	}
	return rounds, c2
}

// fanPhase prices a leader<->member star phase: group a's leader
// exchanges one size(a)-byte message with each of its sizes[a]-1
// members, k per round, all groups concurrently. Member j transfers in
// round (j-1)/k, so group a is active for ceil((sizes[a]-1)/k) rounds.
func fanPhase(sizes []int, size func(a int) int, k int) (rounds, c2 int) {
	for _, m := range sizes {
		if r := intmath.CeilDiv(m-1, k); r > rounds {
			rounds = r
		}
	}
	for t := 0; t < rounds; t++ {
		roundMax := 0
		for a, m := range sizes {
			if intmath.CeilDiv(m-1, k) <= t {
				continue
			}
			if s := size(a); s > roundMax {
				roundMax = s
			}
		}
		c2 += roundMax
	}
	return rounds, c2
}

// hierFan is fanPhase for the phases that funnel remote data between
// members and leaders: with a single group there is nothing remote to
// move and the phase is empty. (The allreduce star phases, which move
// the full vector, use fanPhase directly — they run even with one
// group.)
func hierFan(numGroups int, sizes []int, size func(a int) int, k int) (rounds, c2 int) {
	if numGroups <= 1 {
		return 0, 0
	}
	return fanPhase(sizes, size, k)
}

// roundMaxes returns a flat plan's per-round largest message sizes —
// the shape stackPhase prices concurrent sub-schedules with. Supported
// for the schedule families the hierarchical compilers build (monolithic
// Bruck index rounds and the circulant concatenation).
func (pl *Plan) roundMaxes() []int {
	var out []int
	switch {
	case pl.op == OpIndex && pl.ialg == IndexBruck:
		for _, rd := range pl.rounds {
			roundMax := 0
			for _, x := range rd.xfers {
				if x.bytes > roundMax {
					roundMax = x.bytes
				}
			}
			out = append(out, roundMax)
		}
	case pl.op == OpConcat && pl.calg == ConcatCirculant:
		if pl.trivial {
			return []int{pl.blockLen}
		}
		for _, rd := range pl.dbl {
			out = append(out, rd.count*pl.blockLen)
		}
		for _, lr := range pl.last {
			roundMax := 0
			for _, area := range lr.areas {
				if area.size > roundMax {
					roundMax = area.size
				}
			}
			out = append(out, roundMax)
		}
	}
	return out
}

// CompileHierarchicalIndex compiles the two-level index (all-to-all)
// schedule for group g under topology topo at block size blockLen:
//
//  1. intra-alltoall — every group runs the flat Bruck index over its
//     own contiguous run of blocks, all groups concurrently;
//  2. gather — each member hands the (n-m)-block row destined outside
//     its group to the leader;
//  3. inter-alltoall — the leaders run the flat Bruck index over
//     per-group bundles padded to maxSize^2 blocks;
//  4. scatter — each leader reassembles every member's inbound remote
//     row from the received bundles and hands it back.
//
// The result is byte-identical to the flat index on the same input.
func CompileHierarchicalIndex(e *mpsim.Engine, g *mpsim.Group, blockLen int, topo *costmodel.Topology, opt HierOptions) (*Plan, error) {
	h, err := newHierPlan(e, g, topo)
	if err != nil {
		return nil, err
	}
	if blockLen < 0 {
		return nil, fmt.Errorf("collective: negative block size %d", blockLen)
	}
	n, k, G := g.Size(), e.Ports(), len(h.sizes)
	pl := &Plan{engine: e, group: g, op: OpIndex, blockLen: blockLen, ialg: IndexBruck, hier: h}

	// Phase 1: concurrent intra-group all-to-alls.
	maxes := make([][]int, 0, G)
	for a, m := range h.sizes {
		sub, err := CompileIndex(e, h.subGroups[a], blockLen, IndexOptions{
			Algorithm: IndexBruck, Radix: hierRadix(opt.IntraRadix, m, k),
		})
		if err != nil {
			return nil, fmt.Errorf("collective: intra-group %d schedule: %w", a, err)
		}
		h.intra = append(h.intra, sub)
		maxes = append(maxes, sub.roundMaxes())
	}
	r, c2 := stackPhase(maxes)
	h.phases = append(h.phases, hierPhase{name: "intra-alltoall", class: mpsim.ClassIntra, rounds: r, c2: c2})

	// Phase 2: members funnel their remote rows to the leaders. With a
	// single group there is no remote data and the funneling phases are
	// empty — the operation is the intra phase alone.
	r, c2 = hierFan(G, h.sizes, func(a int) int { return (n - h.sizes[a]) * blockLen }, k)
	h.phases = append(h.phases, hierPhase{name: "gather", class: mpsim.ClassIntra, rounds: r, c2: c2})

	// Phase 3: leader-level all-to-all over padded bundles. The bundle
	// group a sends to group c holds one blockLen block per (member of
	// a, member of c) pair; padding every bundle to maxSize^2 blocks
	// keeps the leader-level schedule uniform.
	if G > 1 {
		h.interBlock = h.maxSize * h.maxSize * blockLen
		inter, err := CompileIndex(e, h.leaderGroup, h.interBlock, IndexOptions{
			Algorithm: IndexBruck, Radix: hierRadix(opt.InterRadix, G, k),
		})
		if err != nil {
			return nil, fmt.Errorf("collective: leader-level schedule: %w", err)
		}
		h.inter = inter
		h.phases = append(h.phases, hierPhase{name: "inter-alltoall", class: mpsim.ClassInter, rounds: inter.c1, c2: inter.c2})
	} else {
		h.phases = append(h.phases, hierPhase{name: "inter-alltoall", class: mpsim.ClassInter})
	}

	// Phase 4: leaders scatter the reassembled rows, symmetric to the
	// gather.
	r, c2 = hierFan(G, h.sizes, func(a int) int { return (n - h.sizes[a]) * blockLen }, k)
	h.phases = append(h.phases, hierPhase{name: "scatter", class: mpsim.ClassIntra, rounds: r, c2: c2})

	h.finish(pl)
	pl.c2lb = lowerbound.IndexVolume(n, blockLen, k)
	pl.c1lb = lowerbound.IndexRounds(n, k)
	h.intraC1LB = lowerbound.HierIntraRounds(h.sizes, k)
	h.intraC2LB = lowerbound.HierIndexIntraVolume(h.sizes, blockLen, k)
	h.interC1LB = lowerbound.HierInterRounds(G, k)
	h.interC2LB = lowerbound.HierIndexInterVolume(h.sizes, n, blockLen, k)

	pl.poolHint = blockLen
	for a, m := range h.sizes {
		if v := h.intra[a].poolHint; v > pl.poolHint {
			pl.poolHint = v
		}
		if v := m * (n - m) * blockLen; v > pl.poolHint {
			pl.poolHint = v // the leader's gathered row matrix
		}
	}
	if h.inter != nil && h.inter.poolHint > pl.poolHint {
		pl.poolHint = h.inter.poolHint
	}
	return pl, nil
}

// CompileHierarchicalConcat compiles the two-level concatenation
// (allgather) schedule for group g under topology topo:
//
//  1. intra-allgather — every group runs the circulant concatenation
//     over its contiguous run of the output, all groups concurrently;
//  2. inter-allgather — the leaders run the circulant concatenation
//     over per-group bundles padded to maxSize blocks;
//  3. broadcast — each leader hands the blocks originating outside the
//     group to its members (the same payload to k members per round).
//
// The result is byte-identical to the flat concatenation.
func CompileHierarchicalConcat(e *mpsim.Engine, g *mpsim.Group, blockLen int, topo *costmodel.Topology, opt HierOptions) (*Plan, error) {
	h, err := newHierPlan(e, g, topo)
	if err != nil {
		return nil, err
	}
	if blockLen < 0 {
		return nil, fmt.Errorf("collective: negative block size %d", blockLen)
	}
	n, k, G := g.Size(), e.Ports(), len(h.sizes)
	pl := &Plan{engine: e, group: g, op: OpConcat, blockLen: blockLen, calg: ConcatCirculant, hier: h}

	// Phase 1: concurrent intra-group allgathers.
	maxes := make([][]int, 0, G)
	for a := range h.sizes {
		sub, err := CompileConcat(e, h.subGroups[a], blockLen, ConcatOptions{Algorithm: ConcatCirculant})
		if err != nil {
			return nil, fmt.Errorf("collective: intra-group %d schedule: %w", a, err)
		}
		h.intra = append(h.intra, sub)
		maxes = append(maxes, sub.roundMaxes())
	}
	r, c2 := stackPhase(maxes)
	h.phases = append(h.phases, hierPhase{name: "intra-allgather", class: mpsim.ClassIntra, rounds: r, c2: c2})

	// Phase 2: leader-level allgather over padded group bundles.
	if G > 1 {
		h.interBlock = h.maxSize * blockLen
		inter, err := CompileConcat(e, h.leaderGroup, h.interBlock, ConcatOptions{Algorithm: ConcatCirculant})
		if err != nil {
			return nil, fmt.Errorf("collective: leader-level schedule: %w", err)
		}
		h.inter = inter
		h.phases = append(h.phases, hierPhase{name: "inter-allgather", class: mpsim.ClassInter, rounds: inter.c1, c2: inter.c2})
	} else {
		h.phases = append(h.phases, hierPhase{name: "inter-allgather", class: mpsim.ClassInter})
	}

	// Phase 3: leaders broadcast the remote blocks to their members —
	// empty with a single group, which has no remote blocks.
	r, c2 = hierFan(G, h.sizes, func(a int) int { return (n - h.sizes[a]) * blockLen }, k)
	h.phases = append(h.phases, hierPhase{name: "broadcast", class: mpsim.ClassIntra, rounds: r, c2: c2})

	h.finish(pl)
	pl.c2lb = lowerbound.ConcatVolume(n, blockLen, k)
	if blockLen > 0 {
		// As in CompileConcat: no dissemination bound on zero-byte data.
		pl.c1lb = lowerbound.ConcatRounds(n, k)
	}
	h.intraC1LB = lowerbound.HierIntraRounds(h.sizes, k)
	h.intraC2LB = lowerbound.HierConcatIntraVolume(h.sizes, blockLen, k)
	h.interC1LB = lowerbound.HierInterRounds(G, k)
	h.interC2LB = lowerbound.HierConcatInterVolume(h.sizes, n, blockLen, k)

	pl.poolHint = blockLen
	for a, m := range h.sizes {
		if v := h.intra[a].poolHint; v > pl.poolHint {
			pl.poolHint = v
		}
		if v := (n - m) * blockLen; v > pl.poolHint {
			pl.poolHint = v // the broadcast payload / member row
		}
	}
	if h.inter != nil {
		if v := G * h.interBlock; v > pl.poolHint {
			pl.poolHint = v // the leader's bundle accumulation region
		}
		if h.inter.poolHint > pl.poolHint {
			pl.poolHint = h.inter.poolHint
		}
	}
	return pl, nil
}

// CompileHierarchicalReduce compiles the two-level allreduce for group
// g under topology topo: a star reduction inside each group (members
// funnel full vectors to the leader, which folds them in ascending
// member order), a star reduction of the group accumulators onto the
// first leader, and the two symmetric broadcast phases back out:
//
//  1. reduce          (intra)  2. inter-reduce    (inter)
//  3. inter-broadcast (inter)  4. broadcast       (intra)
//
// Every message is the full n*blockLen vector. Only AllReduceKind has a
// two-level decomposition here — a hierarchical reduce-scatter would
// need a different redistribution phase — and the fixed fold order
// (ascending member, then ascending group) makes the result
// byte-identical to the flat schedules only for kernels that are exact
// and commutative on their element type, such as the integer-sum
// kernels; floating-point kernels may round differently.
func CompileHierarchicalReduce(e *mpsim.Engine, g *mpsim.Group, kind ReduceKind, blockLen int, topo *costmodel.Topology, opt ReduceOptions) (*Plan, error) {
	if kind != AllReduceKind {
		return nil, fmt.Errorf("collective: hierarchical reduction supports AllReduceKind only, got %v", kind)
	}
	h, err := newHierPlan(e, g, topo)
	if err != nil {
		return nil, err
	}
	if blockLen < 0 {
		return nil, fmt.Errorf("collective: negative block size %d", blockLen)
	}
	if blockLen > 0 && opt.Kernel == nil {
		return nil, fmt.Errorf("collective: reduction requires a combine kernel (set ReduceOptions.Kernel)")
	}
	if opt.ElemSize > 0 && blockLen%opt.ElemSize != 0 {
		return nil, fmt.Errorf("collective: block size %d is not a multiple of the kernel's %d-byte elements", blockLen, opt.ElemSize)
	}
	n, k, G := g.Size(), e.Ports(), len(h.sizes)
	vec := n * blockLen
	pl := &Plan{engine: e, group: g, op: OpAllReduce, blockLen: blockLen, combine: opt.Kernel, hier: h}

	r, c2 := fanPhase(h.sizes, func(int) int { return vec }, k)
	h.phases = append(h.phases, hierPhase{name: "reduce", class: mpsim.ClassIntra, rounds: r, c2: c2})

	interR := 0
	if G > 1 {
		interR = intmath.CeilDiv(G-1, k)
	}
	h.phases = append(h.phases, hierPhase{name: "inter-reduce", class: mpsim.ClassInter, rounds: interR, c2: interR * vec})
	h.phases = append(h.phases, hierPhase{name: "inter-broadcast", class: mpsim.ClassInter, rounds: interR, c2: interR * vec})

	r, c2 = fanPhase(h.sizes, func(int) int { return vec }, k)
	h.phases = append(h.phases, hierPhase{name: "broadcast", class: mpsim.ClassIntra, rounds: r, c2: c2})

	h.finish(pl)
	pl.c2lb = lowerbound.AllReduceVolume(n, blockLen, k)
	pl.c1lb = lowerbound.AllReduceRounds(n, k)
	h.intraC1LB = lowerbound.HierIntraRounds(h.sizes, k)
	h.intraC2LB = lowerbound.HierAllReduceIntraVolume(h.sizes, n, blockLen, k)
	h.interC1LB = lowerbound.HierInterRounds(G, k)
	h.interC2LB = lowerbound.HierAllReduceInterVolume(G, n, blockLen, k)
	pl.poolHint = vec
	return pl, nil
}

// hierBody dispatches a hierarchical plan's per-processor program.
func (pl *Plan) hierBody(p *mpsim.Proc, in, out []byte) error {
	switch pl.op {
	case OpIndex:
		return pl.hierIndexBody(p, in, out)
	case OpConcat:
		return pl.hierConcatBody(p, in, out)
	case OpAllReduce:
		return pl.hierAllReduceBody(p, in, out)
	default:
		return fmt.Errorf("collective: hierarchical plan with unsupported op %v", pl.op)
	}
}

// hierRemoteRow packs the blocks of an n-block row that lie outside the
// group's contiguous run [start, start+m) — the two flanking spans — in
// ascending destination order.
func hierRemoteRow(dst, row []byte, start, m, b int) {
	w := copy(dst, row[:start*b])
	copy(dst[w:], row[(start+m)*b:])
}

// hierUnpackRemote is the inverse: it spreads an (n-m)-block remote row
// into the two spans of an n-block row flanking [start, start+m).
func hierUnpackRemote(row, src []byte, start, m, b int) {
	copy(row[:start*b], src[:start*b])
	copy(row[(start+m)*b:], src[start*b:])
}

// hierIndexBody is the per-processor program of a hierarchical index
// plan. See CompileHierarchicalIndex for the phase structure.
func (pl *Plan) hierIndexBody(p *mpsim.Proc, in, out []byte) error {
	h := pl.hier
	g := pl.group
	n := g.Size()
	b := pl.blockLen
	k := p.Ports()
	me := g.Rank(p.Rank())
	a := h.groupOf[me]
	start, m := h.start[a], h.sizes[a]
	j := me - start // group-local rank; 0 is the leader
	G := len(h.sizes)
	remoteLen := (n - m) * b

	// Phase 1: intra-group all-to-all over the group's contiguous run
	// of both rows; shallower groups wait out the deepest group.
	sub := h.intra[a]
	if err := sub.bruckBody(p, in[start*b:(start+m)*b], out[start*b:(start+m)*b]); err != nil {
		return err
	}
	p.SkipN(h.phases[0].rounds - sub.c1)

	if G == 1 {
		return nil // the remaining phases are empty
	}

	// Phase 2: gather. Member j hands its remote row to the leader in
	// round (j-1)/k; the leader receives k rows per round into a
	// row-major m x (n-m)-block matrix whose row 0 is its own.
	gRounds := h.phases[1].rounds
	var rows []byte
	if j == 0 {
		rows = p.AcquireBuf(m * remoteLen)
		hierRemoteRow(rows[:remoteLen], in, start, m, b)
		myR := intmath.CeilDiv(m-1, k)
		froms := make([]int, 0, k)
		into := make([][]byte, 0, k)
		for t := 0; t < myR; t++ {
			froms, into = froms[:0], into[:0]
			for i := t*k + 1; i <= intmath.Min((t+1)*k, m-1); i++ {
				froms = append(froms, g.ID(start+i))
				into = append(into, rows[i*remoteLen:(i+1)*remoteLen])
			}
			if err := p.ExchangeInto(nil, froms, into); err != nil {
				p.ReleaseBuf(rows)
				return err
			}
		}
		p.SkipN(gRounds - myR)
	} else {
		row := p.AcquireBuf(remoteLen)
		hierRemoteRow(row, in, start, m, b)
		sendRound := (j - 1) / k
		p.SkipN(sendRound)
		_, err := p.Exchange([]mpsim.Send{{To: g.ID(start), Data: row}}, nil)
		p.ReleaseBuf(row)
		if err != nil {
			return err
		}
		p.SkipN(gRounds - sendRound - 1)
	}

	// Phase 3: leader-level all-to-all. The bundle for group c packs,
	// for each member i of this group in order, the m_c blocks of row i
	// addressed to group c's run (which sits at offset start_c in the
	// full row, minus this group's own run if c follows it).
	iRounds := h.phases[2].rounds
	B := h.interBlock
	var interOut []byte
	if j == 0 {
		interIn := p.AcquireBuf(G * B)
		for c := 0; c < G; c++ {
			if c == a {
				continue
			}
			mc := h.sizes[c]
			pos := h.start[c]
			if c > a {
				pos -= m
			}
			for i := 0; i < m; i++ {
				copy(interIn[c*B+i*mc*b:c*B+(i+1)*mc*b],
					rows[i*remoteLen+pos*b:i*remoteLen+(pos+mc)*b])
			}
		}
		p.ReleaseBuf(rows)
		interOut = p.AcquireBuf(G * B)
		err := h.inter.bruckBody(p, interIn, interOut)
		p.ReleaseBuf(interIn)
		if err != nil {
			p.ReleaseBuf(interOut)
			return err
		}
		p.SkipN(iRounds - h.inter.c1)
	} else {
		p.SkipN(iRounds)
	}

	// Phase 4: scatter. The leader reassembles each member's inbound
	// remote row — ascending over source groups, and within a source
	// group's bundle the block of (source member i, dest member j) sits
	// at slot i*m+j — and hands it over; members unpack into the two
	// output spans flanking their group's run.
	sRounds := h.phases[3].rounds
	if j == 0 {
		assemble := func(dst []byte, member int) {
			off := 0
			for c := 0; c < G; c++ {
				if c == a {
					continue
				}
				bun := interOut[c*B:]
				for i := 0; i < h.sizes[c]; i++ {
					copy(dst[off:off+b], bun[(i*m+member)*b:(i*m+member+1)*b])
					off += b
				}
			}
		}
		own := p.AcquireBuf(remoteLen)
		assemble(own, 0)
		hierUnpackRemote(out, own, start, m, b)
		p.ReleaseBuf(own)
		myR := intmath.CeilDiv(m-1, k)
		sends := make([]mpsim.Send, 0, k)
		for t := 0; t < myR; t++ {
			sends = sends[:0]
			for i := t*k + 1; i <= intmath.Min((t+1)*k, m-1); i++ {
				row := p.AcquireBuf(remoteLen)
				assemble(row, i)
				sends = append(sends, mpsim.Send{To: g.ID(start + i), Data: row})
			}
			_, err := p.Exchange(sends, nil)
			for _, s := range sends {
				p.ReleaseBuf(s.Data)
			}
			if err != nil {
				p.ReleaseBuf(interOut)
				return err
			}
		}
		p.ReleaseBuf(interOut)
		p.SkipN(sRounds - myR)
	} else {
		recvRound := (j - 1) / k
		p.SkipN(recvRound)
		row := p.AcquireBuf(remoteLen)
		err := p.ExchangeInto(nil, []int{g.ID(start)}, [][]byte{row})
		if err == nil {
			hierUnpackRemote(out, row, start, m, b)
		}
		p.ReleaseBuf(row)
		if err != nil {
			return err
		}
		p.SkipN(sRounds - recvRound - 1)
	}
	return nil
}

// hierConcatBody is the per-processor program of a hierarchical
// concatenation plan. See CompileHierarchicalConcat for the phases.
func (pl *Plan) hierConcatBody(p *mpsim.Proc, myBlock, out []byte) error {
	h := pl.hier
	g := pl.group
	n := g.Size()
	b := pl.blockLen
	k := p.Ports()
	me := g.Rank(p.Rank())
	a := h.groupOf[me]
	start, m := h.start[a], h.sizes[a]
	j := me - start
	G := len(h.sizes)

	// Phase 1: intra-group allgather into the group's contiguous run of
	// the output.
	sub := h.intra[a]
	if err := sub.circulantBody(p, myBlock, out[start*b:(start+m)*b]); err != nil {
		return err
	}
	p.SkipN(h.phases[0].rounds - sub.c1)
	if G == 1 {
		return nil
	}

	// Phase 2: leaders allgather the padded group bundles, then unpack
	// every other group's run into the output.
	iRounds := h.phases[1].rounds
	B := h.interBlock
	if j == 0 {
		bundle := p.AcquireBuf(B)
		copy(bundle, out[start*b:(start+m)*b])
		region := p.AcquireBuf(G * B)
		err := h.inter.circulantBody(p, bundle, region)
		if err == nil {
			for c := 0; c < G; c++ {
				if c == a {
					continue
				}
				copy(out[h.start[c]*b:(h.start[c]+h.sizes[c])*b], region[c*B:c*B+h.sizes[c]*b])
			}
		}
		p.ReleaseBuf(bundle)
		p.ReleaseBuf(region)
		if err != nil {
			return err
		}
		p.SkipN(iRounds - h.inter.c1)
	} else {
		p.SkipN(iRounds)
	}

	// Phase 3: the leader hands the blocks originating outside the
	// group to its members — the same packed payload to up to k members
	// per round.
	bRounds := h.phases[2].rounds
	remoteLen := (n - m) * b
	if j == 0 {
		myR := intmath.CeilDiv(m-1, k)
		if myR > 0 {
			payload := p.AcquireBuf(remoteLen)
			hierRemoteRow(payload, out, start, m, b)
			sends := make([]mpsim.Send, 0, k)
			for t := 0; t < myR; t++ {
				sends = sends[:0]
				for i := t*k + 1; i <= intmath.Min((t+1)*k, m-1); i++ {
					sends = append(sends, mpsim.Send{To: g.ID(start + i), Data: payload})
				}
				if _, err := p.Exchange(sends, nil); err != nil {
					p.ReleaseBuf(payload)
					return err
				}
			}
			p.ReleaseBuf(payload)
		}
		p.SkipN(bRounds - myR)
	} else {
		recvRound := (j - 1) / k
		p.SkipN(recvRound)
		row := p.AcquireBuf(remoteLen)
		err := p.ExchangeInto(nil, []int{g.ID(start)}, [][]byte{row})
		if err == nil {
			hierUnpackRemote(out, row, start, m, b)
		}
		p.ReleaseBuf(row)
		if err != nil {
			return err
		}
		p.SkipN(bRounds - recvRound - 1)
	}
	return nil
}

// hierAllReduceBody is the per-processor program of a hierarchical
// allreduce plan. See CompileHierarchicalReduce for the phases and the
// fold-order caveat.
func (pl *Plan) hierAllReduceBody(p *mpsim.Proc, in, out []byte) error {
	h := pl.hier
	g := pl.group
	b := pl.blockLen
	k := p.Ports()
	me := g.Rank(p.Rank())
	a := h.groupOf[me]
	start, m := h.start[a], h.sizes[a]
	j := me - start
	G := len(h.sizes)
	vec := g.Size() * b

	copy(out, in)

	// Phase 1: members funnel their contribution vectors to the leader,
	// which folds them into its accumulator in ascending member order.
	r0 := h.phases[0].rounds
	if j == 0 {
		myR := intmath.CeilDiv(m-1, k)
		froms := make([]int, 0, k)
		into := make([][]byte, 0, k)
		for t := 0; t < myR; t++ {
			froms, into = froms[:0], into[:0]
			for i := t*k + 1; i <= intmath.Min((t+1)*k, m-1); i++ {
				froms = append(froms, g.ID(start+i))
				into = append(into, p.AcquireBuf(vec))
			}
			err := p.ExchangeInto(nil, froms, into)
			if err == nil {
				for _, buf := range into {
					pl.combineInto(out, buf)
				}
			}
			for _, buf := range into {
				p.ReleaseBuf(buf)
			}
			if err != nil {
				return err
			}
		}
		p.SkipN(r0 - myR)
	} else {
		sendRound := (j - 1) / k
		p.SkipN(sendRound)
		if _, err := p.Exchange([]mpsim.Send{{To: g.ID(start), Data: in}}, nil); err != nil {
			return err
		}
		p.SkipN(r0 - sendRound - 1)
	}

	// Phase 2: leaders fold their group accumulators onto leader 0 in
	// ascending group order.
	r1 := h.phases[1].rounds
	switch {
	case j != 0 || G == 1:
		p.SkipN(r1)
	case a == 0:
		froms := make([]int, 0, k)
		into := make([][]byte, 0, k)
		for t := 0; t < r1; t++ {
			froms, into = froms[:0], into[:0]
			for c := t*k + 1; c <= intmath.Min((t+1)*k, G-1); c++ {
				froms = append(froms, g.ID(h.start[c]))
				into = append(into, p.AcquireBuf(vec))
			}
			err := p.ExchangeInto(nil, froms, into)
			if err == nil {
				for _, buf := range into {
					pl.combineInto(out, buf)
				}
			}
			for _, buf := range into {
				p.ReleaseBuf(buf)
			}
			if err != nil {
				return err
			}
		}
	default:
		sendRound := (a - 1) / k
		p.SkipN(sendRound)
		if _, err := p.Exchange([]mpsim.Send{{To: g.ID(h.start[0]), Data: out}}, nil); err != nil {
			return err
		}
		p.SkipN(r1 - sendRound - 1)
	}

	// Phase 3: leader 0 hands the fully combined vector back to the
	// other leaders.
	r2 := h.phases[2].rounds
	switch {
	case j != 0 || G == 1:
		p.SkipN(r2)
	case a == 0:
		sends := make([]mpsim.Send, 0, k)
		for t := 0; t < r2; t++ {
			sends = sends[:0]
			for c := t*k + 1; c <= intmath.Min((t+1)*k, G-1); c++ {
				sends = append(sends, mpsim.Send{To: g.ID(h.start[c]), Data: out})
			}
			if _, err := p.Exchange(sends, nil); err != nil {
				return err
			}
		}
	default:
		recvRound := (a - 1) / k
		p.SkipN(recvRound)
		if err := p.ExchangeInto(nil, []int{g.ID(h.start[0])}, [][]byte{out}); err != nil {
			return err
		}
		p.SkipN(r2 - recvRound - 1)
	}

	// Phase 4: leaders hand the vector to their members.
	r3 := h.phases[3].rounds
	if j == 0 {
		myR := intmath.CeilDiv(m-1, k)
		sends := make([]mpsim.Send, 0, k)
		for t := 0; t < myR; t++ {
			sends = sends[:0]
			for i := t*k + 1; i <= intmath.Min((t+1)*k, m-1); i++ {
				sends = append(sends, mpsim.Send{To: g.ID(start + i), Data: out})
			}
			if _, err := p.Exchange(sends, nil); err != nil {
				return err
			}
		}
		p.SkipN(r3 - myR)
	} else {
		recvRound := (j - 1) / k
		p.SkipN(recvRound)
		if err := p.ExchangeInto(nil, []int{g.ID(start)}, [][]byte{out}); err != nil {
			return err
		}
		p.SkipN(r3 - recvRound - 1)
	}
	return nil
}

// Hierarchical reports whether the plan is a compiled two-level
// schedule.
func (pl *Plan) Hierarchical() bool { return pl.hier != nil }

// Topology returns the topology a hierarchical plan was compiled for,
// nil for flat plans.
func (pl *Plan) Topology() *costmodel.Topology {
	if pl.hier == nil {
		return nil
	}
	return pl.hier.topo
}

// PlanPhase describes one phase of a hierarchical plan: a contiguous
// run of rounds moving data over a single link class.
type PlanPhase struct {
	Name   string
	Class  int // mpsim.ClassIntra or mpsim.ClassInter
	First  int // first global round of the phase
	Rounds int // rounds the phase occupies (== its C1 contribution)
	C2     int // data volume of the phase, in bytes
}

// Phases returns the phase table of a hierarchical plan in execution
// order, nil for flat plans. Every phase round carries at least one
// message, so a phase's Rounds is exactly its C1 contribution, and
// phases never mix link classes, so the per-class splits sum to the
// plan's Rounds() and PredictedC2().
func (pl *Plan) Phases() []PlanPhase {
	if pl.hier == nil {
		return nil
	}
	out := make([]PlanPhase, 0, len(pl.hier.phases))
	first := 0
	for _, ph := range pl.hier.phases {
		out = append(out, PlanPhase{Name: ph.name, Class: ph.class, First: first, Rounds: ph.rounds, C2: ph.c2})
		first += ph.rounds
	}
	return out
}

// PredictedClassC1 returns the compiled round count of one link class
// of a hierarchical plan. Flat plans return 0 — their rounds have no
// compiled class.
func (pl *Plan) PredictedClassC1(class int) int {
	if pl.hier == nil {
		return 0
	}
	c1 := 0
	for _, ph := range pl.hier.phases {
		if ph.class == class {
			c1 += ph.rounds
		}
	}
	return c1
}

// PredictedClassC2 is PredictedClassC1 for the data volume.
func (pl *Plan) PredictedClassC2(class int) int {
	if pl.hier == nil {
		return 0
	}
	c2 := 0
	for _, ph := range pl.hier.phases {
		if ph.class == class {
			c2 += ph.c2
		}
	}
	return c2
}

// TimeTopo returns the topology-priced linear-model estimate of one
// execution: hierarchical plans price each phase under its link class's
// profile, flat plans price their whole schedule under FlatTime (the
// conservative worst-link profile). This is the quantity the
// topology-aware auto dispatcher minimizes. t must be non-nil.
func (pl *Plan) TimeTopo(t *costmodel.Topology) float64 {
	if pl.hier == nil {
		return t.FlatTime(pl.c1, pl.c2)
	}
	total := 0.0
	for _, ph := range pl.hier.phases {
		total += t.ClassProfile(costmodel.LinkClass(ph.class)).Time(ph.rounds, ph.c2)
	}
	return total
}

// checkHier statically verifies a hierarchical plan for Plan.Check: the
// topology must tile the group with contiguous runs, every flat
// sub-plan must pass its own Check (which simulates its transpose or
// fill), the phase table must be single-class-per-phase with the
// expected names in the expected order, its totals must reproduce the
// plan's C1/C2, and the star phases must match their closed forms.
func (pl *Plan) checkHier(n, k int, add func(string, ...any)) {
	h := pl.hier
	if err := h.topo.Validate(); err != nil {
		add("topology: %v", err)
		return
	}
	if h.topo.N() != n {
		add("topology covers %d processors but the group has %d", h.topo.N(), n)
		return
	}
	rank := 0
	for a, m := range h.sizes {
		if h.start[a] != rank || m < 1 {
			add("group %d spans [%d, %d+%d) but the contiguous tiling expects start %d",
				a, h.start[a], h.start[a], m, rank)
		}
		rank += m
	}
	if rank != n {
		add("groups tile %d of %d group ranks", rank, n)
	}
	for a, sub := range h.intra {
		for _, viol := range sub.Check() {
			add("intra[%d]: %s", a, viol)
		}
	}
	if h.inter != nil {
		for _, viol := range h.inter.Check() {
			add("inter: %s", viol)
		}
	}

	c1, c2 := 0, 0
	for i, ph := range h.phases {
		if ph.class != mpsim.ClassIntra && ph.class != mpsim.ClassInter {
			add("phase %d (%s): unknown link class %d", i, ph.name, ph.class)
		}
		if ph.rounds < 0 || ph.c2 < 0 {
			add("phase %d (%s): negative shape rounds=%d c2=%d", i, ph.name, ph.rounds, ph.c2)
		}
		c1 += ph.rounds
		c2 += ph.c2
	}
	if c1 != pl.c1 {
		add("c1=%d but the phases sum to %d rounds", pl.c1, c1)
	}
	if c2 != pl.c2 {
		add("c2=%d but the phases sum to %d bytes", pl.c2, c2)
	}

	names := func(want ...string) {
		if len(h.phases) != len(want) {
			add("%d phases, want %d", len(h.phases), len(want))
			return
		}
		for i, w := range want {
			if h.phases[i].name != w {
				add("phase %d is %q, want %q", i, h.phases[i].name, w)
			}
		}
	}
	expectClass := func(i, class int) {
		if i < len(h.phases) && h.phases[i].class != class {
			add("phase %d (%s) has class %d, want %d", i, h.phases[i].name, h.phases[i].class, class)
		}
	}
	expectShape := func(i, r, v int) {
		if i < len(h.phases) && (h.phases[i].rounds != r || h.phases[i].c2 != v) {
			add("phase %d (%s) is %d rounds / %d bytes, closed form gives %d / %d",
				i, h.phases[i].name, h.phases[i].rounds, h.phases[i].c2, r, v)
		}
	}
	b := pl.blockLen
	G := len(h.sizes)
	remote := func(a int) int { return (n - h.sizes[a]) * b }
	switch pl.op {
	case OpIndex:
		names("intra-alltoall", "gather", "inter-alltoall", "scatter")
		expectClass(0, mpsim.ClassIntra)
		expectClass(1, mpsim.ClassIntra)
		expectClass(2, mpsim.ClassInter)
		expectClass(3, mpsim.ClassIntra)
		fr, fv := hierFan(G, h.sizes, remote, k)
		expectShape(1, fr, fv)
		expectShape(3, fr, fv)
	case OpConcat:
		names("intra-allgather", "inter-allgather", "broadcast")
		expectClass(0, mpsim.ClassIntra)
		expectClass(1, mpsim.ClassInter)
		expectClass(2, mpsim.ClassIntra)
		fr, fv := hierFan(G, h.sizes, remote, k)
		expectShape(2, fr, fv)
	case OpAllReduce:
		names("reduce", "inter-reduce", "inter-broadcast", "broadcast")
		expectClass(0, mpsim.ClassIntra)
		expectClass(1, mpsim.ClassInter)
		expectClass(2, mpsim.ClassInter)
		expectClass(3, mpsim.ClassIntra)
		fr, fv := fanPhase(h.sizes, func(int) int { return n * b }, k)
		expectShape(0, fr, fv)
		expectShape(3, fr, fv)
		interR := 0
		if G > 1 {
			interR = intmath.CeilDiv(G-1, k)
		}
		expectShape(1, interR, interR*n*b)
		expectShape(2, interR, interR*n*b)
	default:
		add("hierarchical plan with unsupported op %v", pl.op)
	}
	if h.inter != nil {
		// The inter phase replays the leader-level sub-plan verbatim.
		for i, ph := range h.phases {
			if ph.class == mpsim.ClassInter && pl.op != OpAllReduce {
				if ph.rounds != h.inter.c1 || ph.c2 != h.inter.c2 {
					add("phase %d (%s) is %d rounds / %d bytes, leader-level sub-plan compiles to %d / %d",
						i, ph.name, ph.rounds, ph.c2, h.inter.c1, h.inter.c2)
				}
			}
		}
	}
}
