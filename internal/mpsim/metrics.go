package mpsim

import "fmt"

// Metrics records the communication activity of one Engine.Run and
// exposes the paper's two complexity measures:
//
//   - C1 (Rounds): the number of communication rounds in which at least
//     one message was sent;
//   - C2 (DataVolume): the sum over rounds of the largest message (over
//     all ports of all processors) sent in that round.
//
// The engine builds a Metrics after the run's join by merging the
// counters each processor kept on its own Proc; it is immutable
// afterwards and safe for concurrent reads.
type Metrics struct {
	// roundMax[i] is the largest message, in bytes, sent in round i.
	roundMax []int
	// roundSends[i] is the number of messages sent in round i.
	roundSends []int

	// classes is set on engines with a topology; classRoundMax[c][i]
	// and classRoundSends[c][i] are roundMax and roundSends restricted
	// to sends of link class c. Without a topology every send is intra.
	classes         bool
	classRoundMax   [NumLinkClasses][]int
	classRoundSends [NumLinkClasses][]int

	totalBytes   int64 // sum of all message sizes over all sends
	messageCount int64 // total number of messages sent

	// perProcBytesIn[p] is the number of bytes received by processor p
	// over all of its ports; the per-port lower bounds in the paper
	// divide this by k.
	perProcBytesIn  []int
	perProcBytesOut []int

	finishRound []int // final round counter of each processor

	events []Event // sorted by (round, src, dst); nil unless recording
}

// mergeMetrics builds one Metrics per program of the run that just
// joined from the member Procs' counters, and reports whether the
// transport is certainly empty: every message handed to it was taken
// out again.
func (e *Engine) mergeMetrics(programs int) ([]*Metrics, bool) {
	c := e.crew
	if cap(e.roundsOf) < programs {
		e.roundsOf = make([]int, programs)
	}
	rounds := e.roundsOf[:programs]
	clear(rounds)
	nevents := 0
	var sends, recvs int64
	for _, p := range c.active {
		rounds[p.prog] = max(rounds[p.prog], len(p.stats.roundMax))
		nevents += len(p.stats.events)
		sends += p.stats.sends
		recvs += p.stats.recvs
	}
	metrics := make([]*Metrics, programs)
	for pi := range metrics {
		R := rounds[pi]
		perProc := make([]int, 3*e.n)
		m := &Metrics{
			perProcBytesIn:  perProc[:e.n:e.n],
			perProcBytesOut: perProc[e.n : 2*e.n : 2*e.n],
			finishRound:     perProc[2*e.n:],
			classes:         e.groupOf != nil,
		}
		if R > 0 {
			perRound := make([]int, 2*R)
			m.roundMax, m.roundSends = perRound[:R:R], perRound[R:]
			if m.classes {
				perClass := make([]int, 2*NumLinkClasses*R)
				for cl := 0; cl < NumLinkClasses; cl++ {
					m.classRoundMax[cl] = perClass[2*cl*R : (2*cl+1)*R : (2*cl+1)*R]
					m.classRoundSends[cl] = perClass[(2*cl+1)*R : (2*cl+2)*R : (2*cl+2)*R]
				}
			}
		}
		if e.record && nevents > 0 {
			m.events = make([]Event, 0, nevents)
		}
		metrics[pi] = m
	}
	for _, p := range c.active {
		m, st := metrics[p.prog], &p.stats
		for r, size := range st.roundMax {
			m.roundMax[r] = max(m.roundMax[r], size)
			m.roundSends[r] += st.roundSends[r]
		}
		for cl := range st.classRoundMax {
			for r, size := range st.classRoundMax[cl] {
				m.classRoundMax[cl][r] = max(m.classRoundMax[cl][r], size)
				m.classRoundSends[cl][r] += st.classRoundSends[cl][r]
			}
		}
		m.totalBytes += int64(st.bytesOut)
		m.messageCount += st.sends
		m.perProcBytesIn[p.rank] = st.bytesIn
		m.perProcBytesOut[p.rank] = st.bytesOut
		m.finishRound[p.rank] = st.finish
		m.events = append(m.events, st.events...)
	}
	for _, m := range metrics {
		sortEvents(m.events)
	}
	return metrics, sends == recvs
}

// Rounds returns C1: the number of rounds in which at least one message
// was sent. Rounds skipped by every processor do not count.
func (m *Metrics) Rounds() int {
	c1 := 0
	for _, sends := range m.roundSends {
		if sends > 0 {
			c1++
		}
	}
	return c1
}

// DataVolume returns C2: the sum over rounds of the largest message sent
// in that round, in bytes (the paper's "amount of data transferred in a
// sequence").
func (m *Metrics) DataVolume() int {
	c2 := 0
	for _, max := range m.roundMax {
		c2 += max
	}
	return c2
}

// RoundSizes returns a copy of the per-round largest message sizes, in
// bytes, indexed by round.
func (m *Metrics) RoundSizes() []int {
	out := make([]int, len(m.roundMax))
	copy(out, m.roundMax)
	return out
}

// TotalBytes returns the total number of payload bytes sent over all
// messages of the run (the "total transmissions" quantity of Thm 2.7).
func (m *Metrics) TotalBytes() int64 {
	return m.totalBytes
}

// Messages returns the total number of point-to-point messages sent.
func (m *Metrics) Messages() int64 {
	return m.messageCount
}

// BytesInto returns the number of bytes received by processor rank over
// the whole run.
func (m *Metrics) BytesInto(rank int) int {
	return m.perProcBytesIn[rank]
}

// BytesOutOf returns the number of bytes sent by processor rank over the
// whole run.
func (m *Metrics) BytesOutOf(rank int) int {
	return m.perProcBytesOut[rank]
}

// MaxBytesIntoAnyProc returns the largest per-processor receive volume;
// divided by k this is the per-port volume bounded below by b(n-1)/k in
// Propositions 2.2 and 2.4.
func (m *Metrics) MaxBytesIntoAnyProc() int {
	max := 0
	for _, v := range m.perProcBytesIn {
		if v > max {
			max = v
		}
	}
	return max
}

// ClassRounds returns the number of rounds in which at least one
// message of the given link class was sent — the per-class split of
// C1 on an engine with a topology. Without a topology every send is
// ClassIntra, so ClassRounds(ClassIntra) equals Rounds() and
// ClassRounds(ClassInter) is 0.
func (m *Metrics) ClassRounds(class int) int {
	if !m.classes {
		if class == ClassIntra {
			c1 := 0
			for _, sends := range m.roundSends {
				if sends > 0 {
					c1++
				}
			}
			return c1
		}
		return 0
	}
	if class < 0 || class >= NumLinkClasses {
		return 0
	}
	c1 := 0
	for _, sends := range m.classRoundSends[class] {
		if sends > 0 {
			c1++
		}
	}
	return c1
}

// ClassVolume returns the sum over rounds of the largest message of
// the given link class sent in that round — the per-class split of
// C2. The class splits sum to at least DataVolume() and equal it
// exactly when no round mixes link classes, which holds for the
// hierarchical schedules (each phase is single-class).
func (m *Metrics) ClassVolume(class int) int {
	if !m.classes {
		if class == ClassIntra {
			c2 := 0
			for _, max := range m.roundMax {
				c2 += max
			}
			return c2
		}
		return 0
	}
	if class < 0 || class >= NumLinkClasses {
		return 0
	}
	c2 := 0
	for _, max := range m.classRoundMax[class] {
		c2 += max
	}
	return c2
}

// ClassRoundSizes returns a copy of the per-round largest message
// sizes of one link class, indexed by round; nil on engines without a
// topology.
func (m *Metrics) ClassRoundSizes(class int) []int {
	if !m.classes || class < 0 || class >= NumLinkClasses {
		return nil
	}
	out := make([]int, len(m.classRoundMax[class]))
	copy(out, m.classRoundMax[class])
	return out
}

// uniformityError reports an error if participating processors finished
// on different round counters, which indicates a misaligned SPMD
// schedule (a missing Skip). Processors that never advanced their round
// counter did not take part in the operation (for example processors
// outside the Group of a collective) and are exempt. Called by the
// engine when validation is on.
func (m *Metrics) uniformityError() error {
	first, firstRank := -1, -1
	for rank, r := range m.finishRound {
		if r == 0 {
			continue
		}
		if first == -1 {
			first, firstRank = r, rank
			continue
		}
		if r != first {
			return fmt.Errorf("mpsim: misaligned schedule: p%d finished at round %d but p%d finished at round %d",
				firstRank, first, rank, r)
		}
	}
	return nil
}
