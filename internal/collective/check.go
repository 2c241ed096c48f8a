package collective

// Static plan verification: Plan.Check proves a compiled plan
// well-formed from its tables alone, without executing it on the
// engine. Where the golden-trace tooling verifies a live run against a
// recorded artifact, Check verifies the compiled representation against
// the algebra it claims to implement:
//
//   - every round respects the k-port model (at most k transfers per
//     processor, distinct non-zero partner offsets, no self-sends);
//   - every transfer's byte count is accounted for by the blocks or
//     byte runs it declares;
//   - C1 and C2 are recomputed from the tables and must equal the
//     plan's stored predictions (for the table-driven index and
//     circulant concatenation schedules) or respect the paper's lower
//     bounds (for formula-driven and reduction schedules);
//   - a label simulation replays the tables symbolically over all n
//     ranks and proves delivery: the Bruck index rounds must realize
//     the full transpose out[j] = in[j][me] at block granularity, and
//     the circulant doubling/last rounds must fill every processor's
//     accumulation region byte-for-byte with its successors' blocks.
//
// The simulation costs O(n^2) block moves (bytes only enter as run
// bounds), so checking a whole corpus is milliseconds — cheap enough
// for `bruckctl vet` to gate CI on it.

import (
	"fmt"

	"bruck/internal/costmodel"
	"bruck/internal/intmath"
)

// maxCheckViolations bounds a Check report.
const maxCheckViolations = 20

// Check statically verifies the compiled plan and returns all
// violations found (capped at maxCheckViolations), or nil for a
// well-formed plan.
func (pl *Plan) Check() []string {
	var v []string
	add := func(format string, args ...any) {
		if len(v) < maxCheckViolations {
			v = append(v, fmt.Sprintf(format, args...))
		}
	}
	if pl.engine == nil || pl.group == nil {
		add("plan has no engine or group")
		return v
	}
	n := pl.group.Size()
	k := pl.engine.Ports()
	if n < 1 || k < 1 {
		add("degenerate configuration n=%d k=%d", n, k)
		return v
	}
	if pl.blockLen < 0 {
		add("negative block length %d", pl.blockLen)
		return v
	}
	if pl.c1 < pl.c1lb {
		add("c1=%d below the paper's lower bound %d", pl.c1, pl.c1lb)
	}
	if pl.c2 < pl.c2lb {
		add("c2=%d below the paper's lower bound %d", pl.c2, pl.c2lb)
	}
	if pl.hier != nil {
		// Hierarchical plans verify structurally: the contiguous group
		// tiling, the phase table against its closed forms, and every
		// flat sub-plan recursively (which runs the per-level transpose
		// and fill simulations).
		pl.checkHier(n, k, add)
		return v
	}
	switch pl.op {
	case OpIndex:
		if pl.ialg == IndexBruck {
			pl.checkIndexRounds(n, k, add)
			pl.simulateIndex(n, add)
		} else if pl.layout == nil {
			// Formula-driven baselines: closed-form complexity.
			c1 := intmath.CeilDiv(n-1, k)
			if pl.c1 != c1 || pl.c2 != c1*pl.blockLen {
				add("%s predicts c1=%d c2=%d, closed form gives c1=%d c2=%d",
					pl.ialg, pl.c1, pl.c2, c1, c1*pl.blockLen)
			}
		}
	case OpConcat:
		if pl.calg == ConcatCirculant {
			pl.checkCirculant(n, k, add)
		} else if pl.layout == nil {
			var c1, c2 int
			switch pl.calg {
			case ConcatFolklore:
				c1, c2 = FolkloreConcatCost(n, pl.blockLen, k)
			case ConcatRing:
				c1, c2 = RingConcatCost(n, pl.blockLen)
			case ConcatRecursiveDoubling:
				c1, c2 = RecursiveDoublingConcatCost(n, pl.blockLen)
			}
			if pl.c1 != c1 || pl.c2 != c2 {
				add("%s predicts c1=%d c2=%d, closed form gives c1=%d c2=%d",
					pl.calg, pl.c1, pl.c2, c1, c2)
			}
		}
	case OpReduceScatter, OpAllReduce:
		// Reduction round tables reuse the index machinery; their replay
		// semantics differ (combine instead of overwrite), so they get the
		// structural checks but not the transpose simulation. A pipelined
		// reduce-scatter phase gets the segment-table checks but not the
		// merged-round accounting: an allreduce plan's totals include the
		// concatenation phase.
		if len(pl.rounds) > 0 {
			pl.checkIndexRoundShape(n, k, add)
			if pl.segments > 1 {
				pl.checkSegmentSpans(add)
			}
		}
		if pl.op == OpAllReduce && (len(pl.dbl) > 0 || len(pl.last) > 0 || pl.trivial) {
			pl.checkCirculantShape(n, k, add)
		}
	}
	return v
}

// checkIndexRoundShape validates the per-round structure of a Bruck
// round table: k-port limits, offset sanity, block accounting.
func (pl *Plan) checkIndexRoundShape(n, k int, add func(string, ...any)) {
	for i, rd := range pl.rounds {
		if len(rd.xfers) == 0 || len(rd.xfers) > k {
			add("round %d: %d transfers, want 1..%d (k-port)", i, len(rd.xfers), k)
		}
		seen := map[int]bool{}
		for xi, x := range rd.xfers {
			if x.offset <= 0 || x.offset >= n {
				add("round %d transfer %d: offset %d outside (0, %d)", i, xi, x.offset, n)
				continue
			}
			if seen[x.offset] {
				add("round %d: duplicate offset %d (two messages to one partner in one round)", i, x.offset)
			}
			seen[x.offset] = true
			ids := x.blockIDs()
			if want := len(ids) * pl.blockLen; x.bytes != want {
				add("round %d transfer %d: %d blocks of %d account for %d bytes, transfer says %d",
					i, xi, len(ids), pl.blockLen, want, x.bytes)
			}
			for _, r := range x.runs {
				if r.count < 1 {
					add("round %d transfer %d: empty block run at %d", i, xi, r.first)
				}
			}
			for bi, b := range ids {
				if b < 0 || b >= n {
					add("round %d transfer %d: block %d outside working region of %d", i, xi, b, n)
				}
				if bi > 0 && b <= ids[bi-1] {
					add("round %d transfer %d: blocks not ascending: %v", i, xi, ids)
					break
				}
			}
		}
	}
}

// checkIndexRounds adds the index plan's complexity accounting on top
// of the structural shape: monolithic plans must match the round-table
// recomputation, pipelined plans the merged-round one.
func (pl *Plan) checkIndexRounds(n, k int, add func(string, ...any)) {
	pl.checkIndexRoundShape(n, k, add)
	if pl.segments > 1 {
		pl.checkSegmentSpans(add)
		if c1 := costmodel.PipelinedC1(len(pl.rounds), pl.segments); pl.c1 != c1 {
			add("c1=%d but the pipeline drains in %d merged rounds", pl.c1, c1)
		}
		if c2 := pipelinedC2(pl.rounds, pl.segSpans); pl.c2 != c2 {
			add("c2=%d but the merged-round maxima sum to %d", pl.c2, c2)
		}
		return
	}
	if len(pl.rounds) != pl.c1 {
		add("c1=%d but the round table has %d rounds", pl.c1, len(pl.rounds))
	}
	c2 := 0
	for _, rd := range pl.rounds {
		roundMax := 0
		for _, x := range rd.xfers {
			if x.bytes > roundMax {
				roundMax = x.bytes
			}
		}
		c2 += roundMax
	}
	if c2 != pl.c2 {
		add("c2=%d but the round maxima sum to %d", pl.c2, c2)
	}
}

// checkSegmentSpans verifies a pipelined plan's segment tables: the
// spans tile the block contiguously, and the segment count stays within
// the schedule's minimum partner-offset gap, which is what guarantees a
// merged round never addresses one partner twice (the k-port model's
// distinctness rule, lifted to merged rounds).
func (pl *Plan) checkSegmentSpans(add func(string, ...any)) {
	s := pl.segments
	if len(pl.segSpans) != s {
		add("segments=%d but the plan carries %d spans", s, len(pl.segSpans))
		return
	}
	off := 0
	for i, sp := range pl.segSpans {
		if sp.Off != off || sp.Len < 1 {
			add("segment span %d covers [%d, %d), want contiguous nonzero span from %d",
				i, sp.Off, sp.Off+sp.Len, off)
			return
		}
		off += sp.Len
	}
	if off != pl.blockLen {
		add("segment spans tile %d bytes of a %d-byte block", off, pl.blockLen)
	}
	if gap := minOffsetGap(pl.rounds); s > gap {
		add("segments=%d exceeds the schedule's minimum offset gap %d (a merged round would address one partner twice)", s, gap)
	}
}

// simulateIndex replays the Bruck round table symbolically over all n
// ranks and proves the transpose: starting from each rank's rotated
// working region (slot s of rank r holds r's input block (r+s) mod n),
// the rounds must deliver work[(me-j) mod n] = in[j][me] for every
// (me, j) — which is exactly what Phase 3 reads out.
func (pl *Plan) simulateIndex(n int, add func(string, ...any)) {
	type blk struct{ owner, idx int }
	work := make([][]blk, n)
	for r := 0; r < n; r++ {
		work[r] = make([]blk, n)
		for s := 0; s < n; s++ {
			work[r][s] = blk{owner: r, idx: (r + s) % n}
		}
	}
	for _, rd := range pl.rounds {
		next := make([][]blk, n)
		for r := 0; r < n; r++ {
			next[r] = append([]blk(nil), work[r]...)
		}
		for _, x := range rd.xfers {
			if x.offset <= 0 || x.offset >= n {
				return // shape violation already reported
			}
			ids := x.blockIDs()
			for me := 0; me < n; me++ {
				src := intmath.Mod(me-x.offset, n)
				for _, j := range ids {
					if j < 0 || j >= n {
						return
					}
					next[me][j] = work[src][j]
				}
			}
		}
		work = next
	}
	bad := 0
	for me := 0; me < n && bad < 3; me++ {
		for j := 0; j < n; j++ {
			got := work[me][intmath.Mod(me-j, n)]
			if got != (blk{owner: j, idx: me}) {
				add("delivery: rank %d output slot %d holds block (%d,%d), want in[%d][%d]",
					me, j, got.owner, got.idx, j, me)
				bad++
				if bad >= 3 {
					break
				}
			}
		}
	}
}

// checkCirculantShape validates the circulant concatenation tables and
// runs the byte-granular fill simulation; it reports rounds/volume via
// its return values so pure concat plans can compare them against
// c1/c2 while allreduce plans (whose totals include the reduction
// phase) use only the structural part.
func (pl *Plan) checkCirculantShape(n, k int, add func(string, ...any)) (rounds, volume int) {
	bl := pl.blockLen
	if pl.trivial {
		if n-1 > k {
			add("trivial all-pairs round needs n-1=%d ports but k=%d", n-1, k)
		}
		if len(pl.dbl) != 0 || len(pl.last) != 0 {
			add("trivial plan carries %d doubling and %d last rounds", len(pl.dbl), len(pl.last))
		}
		return 1, bl
	}
	if n == 1 {
		return 0, 0
	}
	// valid[q][row] records which bytes of accumulation slot q are
	// known, identically on every rank (the schedule is translation
	// invariant); slot 0 is the processor's own block.
	valid := make([][]bool, n)
	for q := range valid {
		valid[q] = make([]bool, bl)
	}
	fill(valid[0], 0, bl, true)

	for i, rd := range pl.dbl {
		if rd.base < 1 || rd.count < 1 {
			add("doubling round %d: degenerate base=%d count=%d", i, rd.base, rd.count)
			return 0, 0
		}
		seen := map[int]bool{}
		for t := 1; t <= k; t++ {
			off := intmath.Mod(t*rd.base, n)
			if off == 0 || seen[off] {
				add("doubling round %d: port %d offset %d is a self-send or duplicate", i, t, off)
			}
			seen[off] = true
			hi := t*rd.base + rd.count
			if hi > n {
				add("doubling round %d: port %d writes slots [%d, %d) beyond the region of %d", i, t, t*rd.base, hi, n)
				return 0, 0
			}
		}
		for q := 0; q < rd.count; q++ {
			if !allTrue(valid[q]) {
				add("doubling round %d: sends slot %d before it is filled", i, q)
			}
		}
		for t := 1; t <= k; t++ {
			for q := 0; q < rd.count; q++ {
				fill(valid[t*rd.base+q], 0, bl, true)
			}
		}
		rounds++
		volume += rd.count * bl
	}

	for i, lr := range pl.last {
		if len(lr.areas) == 0 || len(lr.areas) > k {
			add("last round %d: %d areas, want 1..%d (k-port)", i, len(lr.areas), k)
		}
		// Areas exchange simultaneously: reads see the pre-round state.
		snapshot := make([][]bool, n)
		for q := range snapshot {
			snapshot[q] = append([]bool(nil), valid[q]...)
		}
		seen := map[int]bool{}
		roundMax := 0
		for ai, area := range lr.areas {
			if area.offset <= 0 || area.offset >= n {
				add("last round %d area %d: offset %d outside (0, %d)", i, ai, area.offset, n)
				continue
			}
			if seen[area.offset] {
				add("last round %d: duplicate offset %d", i, area.offset)
			}
			seen[area.offset] = true
			if area.size > roundMax {
				roundMax = area.size
			}
			total := 0
			for _, run := range area.runs {
				qSrc := pl.n1 + run.Col - area.offset
				qDst := pl.n1 + run.Col
				if qSrc < 0 || qDst >= n {
					add("last round %d area %d: run column %d maps slots %d->%d outside [0, %d)", i, ai, run.Col, qSrc, qDst, n)
					continue
				}
				if run.NRows <= 0 || run.Row0 < 0 || run.Row0+run.NRows > bl {
					add("last round %d area %d: rows [%d, %d) outside block of %d", i, ai, run.Row0, run.Row0+run.NRows, bl)
					continue
				}
				for row := run.Row0; row < run.Row0+run.NRows; row++ {
					if !snapshot[qSrc][row] {
						add("last round %d area %d: sends slot %d row %d before it is filled", i, ai, qSrc, row)
						break
					}
				}
				fill(valid[qDst], run.Row0, run.Row0+run.NRows, true)
				total += run.NRows
			}
			if total != area.size {
				add("last round %d area %d: runs account for %d bytes, area says %d", i, ai, total, area.size)
			}
		}
		rounds++
		volume += roundMax
	}

	missing := 0
	for q := 0; q < n; q++ {
		if !allTrue(valid[q]) {
			missing++
		}
	}
	if missing > 0 {
		add("delivery: %d of %d accumulation slots never completely filled", missing, n)
	}
	return rounds, volume
}

// checkCirculant adds the concat plan's complexity accounting on top of
// the structural shape and fill simulation.
func (pl *Plan) checkCirculant(n, k int, add func(string, ...any)) {
	rounds, volume := pl.checkCirculantShape(n, k, add)
	if n == 1 {
		return
	}
	if pl.c1 != rounds {
		add("c1=%d but the tables describe %d rounds", pl.c1, rounds)
	}
	if pl.c2 != volume {
		add("c2=%d but the tables carry %d bytes of round maxima", pl.c2, volume)
	}
}

func fill(row []bool, lo, hi int, v bool) {
	for i := lo; i < hi; i++ {
		row[i] = v
	}
}

func allTrue(row []bool) bool {
	for _, b := range row {
		if !b {
			return false
		}
	}
	return true
}
