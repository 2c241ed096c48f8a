package mpsim

import (
	"fmt"
	"sort"
	"strings"
)

// Link classes of a two-level topology (WithTopology). Engines without
// a topology tag every event ClassIntra.
const (
	// ClassIntra marks a message between processors of the same
	// node-group.
	ClassIntra = 0
	// ClassInter marks a message crossing node-groups.
	ClassInter = 1
	// NumLinkClasses is the number of distinct link classes.
	NumLinkClasses = 2
)

// Event records one message of a run: src sent Size bytes to Dst in
// round Round. Class is the link class of the (src, dst) pair under
// the engine's topology (ClassIntra on engines without one). Events
// are collected only when the engine was created with Record(true).
type Event struct {
	Round, Src, Dst, Size int
	Class                 int
}

// Record enables event collection: every message of a run is logged
// with its round, endpoints and size, available from Metrics.Events.
// Off by default (it costs memory proportional to the message count).
func Record(on bool) Option {
	return func(e *Engine) { e.record = on }
}

// Events returns the recorded messages of the run sorted by (round,
// src, dst), or nil if recording was not enabled.
func (m *Metrics) Events() []Event {
	return append([]Event(nil), m.events...)
}

// MergeEvents merges the recorded event streams of several Metrics —
// typically the per-program metrics of one RunPrograms pass — into a
// single stream sorted by (round, src, dst). Programs record rounds
// independently, so the merged stream interleaves same-numbered rounds
// of different programs; consumers that group by round (for example
// costmodel.CriticalPath) handle that, and disjoint-group programs
// never couple within a round. Nil metrics are skipped; the result is
// nil when no events were recorded.
func MergeEvents(ms ...*Metrics) []Event {
	var out []Event
	for _, m := range ms {
		if m == nil {
			continue
		}
		out = append(out, m.events...)
	}
	sortEvents(out)
	return out
}

// sortEvents orders events by (round, src, dst).
func sortEvents(evs []Event) {
	if len(evs) < 2 {
		return
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Round != evs[j].Round {
			return evs[i].Round < evs[j].Round
		}
		if evs[i].Src != evs[j].Src {
			return evs[i].Src < evs[j].Src
		}
		return evs[i].Dst < evs[j].Dst
	})
}

// RoundEvents returns the recorded messages of one round, sorted by
// (src, dst).
func (m *Metrics) RoundEvents(round int) []Event {
	var out []Event
	for _, ev := range m.Events() {
		if ev.Round == round {
			out = append(out, ev)
		}
	}
	return out
}

// Timeline renders the recorded schedule round by round, one line per
// message, in the form "p3 -> p5: 128B". Useful for debugging
// schedules and for the figure tooling.
func (m *Metrics) Timeline() string {
	events := m.Events()
	if len(events) == 0 {
		return "(no recorded events)\n"
	}
	var sb strings.Builder
	cur := -1
	for _, ev := range events {
		if ev.Round != cur {
			cur = ev.Round
			fmt.Fprintf(&sb, "round %d:\n", cur)
		}
		fmt.Fprintf(&sb, "  p%d -> p%d: %dB\n", ev.Src, ev.Dst, ev.Size)
	}
	return sb.String()
}

// PortViolations scans the recorded events for rounds in which a
// processor sent or received more than k messages. With validation on
// this is always empty; it exists for analyzing runs executed with
// Validate(false).
func (m *Metrics) PortViolations(k int) []string {
	type key struct{ round, proc int }
	sends := make(map[key]int)
	recvs := make(map[key]int)
	for _, ev := range m.Events() {
		sends[key{ev.Round, ev.Src}]++
		recvs[key{ev.Round, ev.Dst}]++
	}
	var out []string
	for kk, c := range sends {
		if c > k {
			out = append(out, fmt.Sprintf("p%d sent %d messages in round %d (k=%d)", kk.proc, c, kk.round, k))
		}
	}
	for kk, c := range recvs {
		if c > k {
			out = append(out, fmt.Sprintf("p%d received %d messages in round %d (k=%d)", kk.proc, c, kk.round, k))
		}
	}
	sort.Strings(out)
	return out
}
