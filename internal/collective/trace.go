package collective

// Canonical trace export: every compiled Plan — index, concat,
// reduction, fixed-size or layout — can emit the trace.Schedule of one
// execution, pairing the engine's recorded event stream with the plan's
// compiled pattern. The golden tooling (internal/golden, cmd/trace)
// snapshots and verifies these artifacts.

import (
	"bruck/internal/costmodel"
	"bruck/internal/intmath"
	"bruck/internal/mpsim"
	"bruck/internal/trace"
)

// Schedule builds the canonical trace of this plan from the recorded
// events of one execution (Metrics.Events of a run on an engine created
// with mpsim.Record(true); nil is legal and yields an empty Rounds
// section, e.g. for n = 1 plans that send nothing).
//
// The Rounds section is the live execution; the Pattern section is the
// compiled rank-0 schedule for table-driven plans (Bruck-family index
// rounds, circulant doubling/last/trivial rounds) and empty for
// formula-driven ones, whose partner arithmetic leaves nothing compiled
// to export. Because the schedules are pure functions of (n, k, r), the
// trace is independent of the transport backend the run used.
func (pl *Plan) Schedule(events []mpsim.Event) *trace.Schedule {
	s := &trace.Schedule{
		Op:        pl.op.String(),
		Algorithm: pl.Algorithm(),
		N:         pl.group.Size(),
		K:         pl.engine.Ports(),
		BlockLen:  pl.blockLen,
		Ragged:    pl.layout != nil,
		Segments:  pl.segments,
		C1:        pl.c1,
		C2:        pl.c2,
		Rounds:    GroupEvents(events),
	}
	if h := pl.hier; h != nil {
		// Hierarchical schedules export their phase table in place of a
		// Pattern: the leader-routed phases are not translation
		// invariant, so there is no single rank-0 view to compile.
		s.Topology = h.topo.Spec()
		s.Groups = append([]int(nil), h.sizes...)
		for _, ph := range pl.Phases() {
			s.Phases = append(s.Phases, trace.SchedulePhase{
				Name:   ph.Name,
				Class:  costmodel.LinkClass(ph.Class).String(),
				First:  ph.First,
				Rounds: ph.Rounds,
				C1:     ph.Rounds,
				C2:     ph.C2,
			})
		}
		return s
	}
	s.Pattern = pl.pattern()
	return s
}

// GroupEvents converts a (round, src, dst)-sorted event stream — the
// shape Metrics.Events returns — into the trace's per-round grouping.
func GroupEvents(events []mpsim.Event) []trace.ScheduleRound {
	rounds := []trace.ScheduleRound{}
	for _, ev := range events {
		if len(rounds) == 0 || rounds[len(rounds)-1].Round != ev.Round {
			rounds = append(rounds, trace.ScheduleRound{Round: ev.Round})
		}
		last := &rounds[len(rounds)-1]
		last.Sends = append(last.Sends, trace.ScheduleSend{Src: ev.Src, Dst: ev.Dst, Bytes: ev.Size})
	}
	return rounds
}

// pattern exports the compiled rank-0 round structure. A reduction plan
// contributes its Bruck index rounds (ring and halving reductions are
// formula-driven), and an allreduce plan additionally contributes its
// concatenation phase, in execution order.
func (pl *Plan) pattern() []trace.PatternRound {
	n := pl.group.Size()
	var out []trace.PatternRound

	// Bruck-family index rounds (index plans, mixed radix, layout index
	// plans, and the reduce-scatter phase of ReduceBruck). A pipelined
	// plan exports one pattern round per merged round: segment seg runs
	// compiled round t-seg in merged round t, so each entry multiplexes
	// every live segment's transfers at that segment's span length —
	// exactly the sends the executor issues.
	if pl.segments > 1 {
		R, segs := len(pl.rounds), pl.segments
		for t := 0; t < R+segs-1; t++ {
			pr := trace.PatternRound{Phase: "bruck"}
			lo, hi := t-R+1, t
			if lo < 0 {
				lo = 0
			}
			if hi > segs-1 {
				hi = segs - 1
			}
			for seg := lo; seg <= hi; seg++ {
				sp := pl.segSpans[seg]
				for _, x := range pl.rounds[t-seg].xfers {
					pr.Transfers = append(pr.Transfers, trace.PatternTransfer{
						Offset: x.offset,
						Bytes:  x.blockCount() * sp.Len,
						Blocks: x.blockIDs(),
					})
				}
			}
			out = append(out, pr)
		}
	} else {
		for _, rd := range pl.rounds {
			pr := trace.PatternRound{Phase: "bruck"}
			for _, x := range rd.xfers {
				pr.Transfers = append(pr.Transfers, trace.PatternTransfer{
					Offset: x.offset,
					Bytes:  x.bytes,
					Blocks: x.blockIDs(),
				})
			}
			out = append(out, pr)
		}
	}

	// Circulant concatenation rounds (concat plans and the allgather
	// phase of allreduce plans). A transfer's Offset is the destination
	// offset — rank me sends to me+Offset — so the doubling round's send
	// to me-t*base appears as offset -t*base mod n.
	if pl.trivial {
		pr := trace.PatternRound{Phase: "trivial"}
		for q := 1; q < n; q++ {
			pr.Transfers = append(pr.Transfers, trace.PatternTransfer{
				Offset: intmath.Mod(-q, n),
				Bytes:  pl.blockLen,
				Blocks: []int{0},
			})
		}
		out = append(out, pr)
	}
	k := pl.engine.Ports()
	for _, rd := range pl.dbl {
		pr := trace.PatternRound{Phase: "doubling"}
		blocks := make([]int, rd.count)
		for j := range blocks {
			blocks[j] = j
		}
		for t := 1; t <= k; t++ {
			pr.Transfers = append(pr.Transfers, trace.PatternTransfer{
				Offset: intmath.Mod(-t*rd.base, n),
				Bytes:  rd.count * pl.blockLen,
				Blocks: blocks,
			})
		}
		out = append(out, pr)
	}
	for _, lr := range pl.last {
		pr := trace.PatternRound{Phase: "last"}
		for _, area := range lr.areas {
			x := trace.PatternTransfer{
				Offset: intmath.Mod(-area.offset, n),
				Bytes:  area.size,
			}
			for _, run := range area.runs {
				// Extents name the receive-side placement: the bytes land in
				// accumulation slot n1+col at [Row0, Row0+NRows); the sender
				// gathered them from slot n1+col-offset.
				x.Extents = append(x.Extents, trace.Extent{
					Block: pl.n1 + run.Col,
					Off:   run.Row0,
					Len:   run.NRows,
				})
			}
			pr.Transfers = append(pr.Transfers, x)
		}
		out = append(out, pr)
	}
	return out
}
