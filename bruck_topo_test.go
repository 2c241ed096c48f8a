package bruck

// Public-API coverage of the two-level topology surface: WithTopology
// machines, forced Hierarchical() schedules, the topology-aware
// WithAuto dispatch with its memoized verdict, per-level Reports and
// the topology-priced critical path.

import (
	"bytes"
	"strings"
	"testing"
)

// topo4x4 is the canonical 10:1 test machine: four nodes of four
// processors, intra links at SP1, inter links ten times slower.
func topo4x4(t *testing.T) *Topology {
	t.Helper()
	topo, err := ParseTopology("4x4")
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestTopologyMachineHierIndex(t *testing.T) {
	topo := topo4x4(t)
	m := MustNewMachine(16, WithTopology(topo))
	if m.Topology() != topo {
		t.Fatal("Topology() should return the attached topology")
	}
	in := indexInput(16, 8)
	out, rep, err := m.Index(in, Hierarchical())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if !bytes.Equal(out[i][j], in[j][i]) {
				t.Fatalf("out[%d][%d] != in[%d][%d]", i, j, j, i)
			}
		}
	}
	if rep.Intra == nil || rep.Inter == nil {
		t.Fatal("hierarchical Report must carry the per-level split")
	}
	if rep.Intra.C1+rep.Inter.C1 != rep.C1 {
		t.Errorf("level C1 split %d+%d != total %d", rep.Intra.C1, rep.Inter.C1, rep.C1)
	}
	if rep.Intra.C2+rep.Inter.C2 != rep.C2 {
		t.Errorf("level C2 split %d+%d != total %d", rep.Intra.C2, rep.Inter.C2, rep.C2)
	}
	if rep.TimeTopo(topo) <= 0 {
		t.Error("topology-priced time must be positive")
	}
}

func TestTopologyMachineHierConcat(t *testing.T) {
	topo := topo4x4(t)
	m := MustNewMachine(16, WithTopology(topo))
	in := make([][]byte, 16)
	for i := range in {
		in[i] = []byte{byte(i), byte(i * 3), byte(255 - i)}
	}
	out, rep, err := m.Concat(in, Hierarchical())
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		for j := range out[i] {
			if !bytes.Equal(out[i][j], in[j]) {
				t.Fatalf("out[%d][%d] wrong", i, j)
			}
		}
	}
	if rep.Intra == nil || rep.Inter == nil {
		t.Fatal("hierarchical Report must carry the per-level split")
	}
}

func TestTopologyMachineHierAllReduce(t *testing.T) {
	topo := topo4x4(t)
	m := MustNewMachine(16, WithTopology(topo))
	n, b := 16, 8
	in, _ := NewIndexBuffers(n, b)
	out, _ := NewIndexBuffers(n, b)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			PutInt32s(in.Block(i, j), []int32{int32(i*31 + j), int32(i - 2*j)})
		}
	}
	rep, err := m.AllReduceFlat(in, out, WithKernel(ReduceSum, Int32), Hierarchical())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		var s0, s1 int32
		for p := 0; p < n; p++ {
			s0 += int32(p*31 + j)
			s1 += int32(p - 2*j)
		}
		for i := 0; i < n; i++ {
			got := Int32s(out.Block(i, j))
			if got[0] != s0 || got[1] != s1 {
				t.Fatalf("rank %d chunk %d: got (%d,%d), want (%d,%d)", i, j, got[0], got[1], s0, s1)
			}
		}
	}
	if rep.Intra == nil || rep.Inter == nil {
		t.Fatal("hierarchical Report must carry the per-level split")
	}
}

func TestTopologyAutoPicksHierarchicalAndMemoizes(t *testing.T) {
	topo := topo4x4(t)
	m := MustNewMachine(16, WithTopology(topo))

	// Latency-dominated shape: on a 10:1 machine the hierarchical
	// schedule's cheap intra rounds beat any flat schedule, whose every
	// round pays the inter profile.
	pl, err := m.CompileIndex(1, WithAuto(SP1))
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Hierarchical() {
		t.Fatal("auto dispatch on a 10:1 4x4 machine should pick the hierarchical index")
	}
	for _, r := range []int{2, 4, 16} {
		flat, err := m.CompileIndex(1, WithRadix(r))
		if err != nil {
			t.Fatal(err)
		}
		if pl.TimeTopo(topo) >= flat.TimeTopo(topo) {
			t.Errorf("hier time %g should beat flat radix-%d time %g",
				pl.TimeTopo(topo), r, flat.TimeTopo(topo))
		}
	}
	again, err := m.CompileIndex(1, WithAuto(SP1))
	if err != nil {
		t.Fatal(err)
	}
	if again != pl {
		t.Error("repeated auto call should hit the memoized verdict")
	}

	cpl, err := m.CompileConcat(1, WithAuto(SP1))
	if err != nil {
		t.Fatal(err)
	}
	if !cpl.Hierarchical() {
		t.Fatal("auto dispatch on a 10:1 4x4 machine should pick the hierarchical concatenation")
	}
	if again, err := m.CompileConcat(1, WithAuto(SP1)); err != nil || again != cpl {
		t.Errorf("repeated concat auto call should hit the memoized verdict (err %v)", err)
	}

	// The reduction dispatch must return the modeled winner and memoize
	// it; whether that winner is hierarchical depends on the vector
	// size, so assert optimality against the hierarchical candidate
	// rather than a fixed shape.
	rpl, err := m.CompileReduce(AllReduceKind, 4, WithAuto(SP1), WithKernel(ReduceSum, Int32))
	if err != nil {
		t.Fatal(err)
	}
	hier, err := m.CompileReduce(AllReduceKind, 4, WithKernel(ReduceSum, Int32), Hierarchical())
	if err != nil {
		t.Fatal(err)
	}
	if rpl.TimeTopo(topo) > hier.TimeTopo(topo) {
		t.Errorf("auto winner time %g must not lose to the hierarchical candidate %g",
			rpl.TimeTopo(topo), hier.TimeTopo(topo))
	}
	if again, err := m.CompileReduce(AllReduceKind, 4, WithAuto(SP1), WithKernel(ReduceSum, Int32)); err != nil || again != rpl {
		t.Errorf("repeated reduce auto call should hit the memoized verdict (err %v)", err)
	}
}

func TestTopologyAutoExecutesCorrectly(t *testing.T) {
	topo := topo4x4(t)
	m := MustNewMachine(16, WithTopology(topo))
	in := indexInput(16, 1)
	out, rep, err := m.Index(in, WithAuto(SP1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if !bytes.Equal(out[i][j], in[j][i]) {
				t.Fatalf("out[%d][%d] != in[%d][%d]", i, j, j, i)
			}
		}
	}
	if rep.Intra == nil {
		t.Error("the auto winner here is hierarchical, so the Report must split per level")
	}
}

func TestTopologyValidation(t *testing.T) {
	topo := topo4x4(t)
	if _, err := NewMachine(8, WithTopology(topo)); err == nil {
		t.Error("topology for 16 processors on an 8-processor machine must be rejected")
	}
	m := MustNewMachine(16)
	if _, err := m.CompileIndex(4, Hierarchical()); err == nil ||
		!strings.Contains(err.Error(), "WithTopology") {
		t.Errorf("Hierarchical without WithTopology should fail clearly, got %v", err)
	}
	mt := MustNewMachine(16, WithTopology(topo))
	if _, err := mt.CompileReduce(ReduceScatterKind, 4, WithKernel(ReduceSum, Int32), Hierarchical()); err == nil {
		t.Error("hierarchical reduce-scatter is unsupported and must error")
	}
}

func TestTopologyCriticalPath(t *testing.T) {
	topo := topo4x4(t)
	m := MustNewMachine(16, WithTopology(topo), RecordEvents())
	in := indexInput(16, 4)
	if _, _, err := m.Index(in, Hierarchical()); err != nil {
		t.Fatal(err)
	}
	ct, err := m.CriticalPathTopoTime()
	if err != nil {
		t.Fatal(err)
	}
	if ct <= 0 {
		t.Fatal("topology critical path must be positive")
	}
	// Pricing the same events with every link at the inter profile must
	// not be cheaper: the topology clock runs the intra phases faster.
	flat, err := m.CriticalPathTime(ScaledProfile(SP1, DefaultInterRatio))
	if err != nil {
		t.Fatal(err)
	}
	if ct > flat {
		t.Errorf("topology critical path %g should not exceed all-inter pricing %g", ct, flat)
	}

	flatOnly := MustNewMachine(16)
	if _, err := flatOnly.CriticalPathTopoTime(); err == nil {
		t.Error("CriticalPathTopoTime without WithTopology must error")
	}
}

// TestTopologyAutoVerdictPerPolicy: on a topology machine the auto
// verdicts of the concatenation and the allreduce depend on the
// last-round policy, because their flat candidates compile with it.
// After a call under every other policy, each policy's verdict must
// still equal a fresh machine's. (At 4x4, k = 2, b = 1024 the verdict
// memoized under the default policy has C2 7680, while a fresh
// machine's LastRoundMinRounds verdict has C2 8192.)
func TestTopologyAutoVerdictPerPolicy(t *testing.T) {
	const n, k, b = 16, 2, 1024
	topo := topo4x4(t)
	policies := []CollectiveOption{
		WithLastRoundPolicy(LastRoundPreferOptimal),
		WithLastRoundPolicy(LastRoundMinRounds),
		WithLastRoundPolicy(LastRoundMinVolume),
	}
	ops := map[string]func(m *Machine, policy CollectiveOption) (*Plan, error){
		"concat": func(m *Machine, policy CollectiveOption) (*Plan, error) {
			return m.CompileConcat(b, WithAuto(SP1), policy)
		},
		"allreduce": func(m *Machine, policy CollectiveOption) (*Plan, error) {
			return m.CompileReduce(AllReduceKind, b, WithAuto(SP1), WithKernel(ReduceSum, Int32), policy)
		},
	}
	for name, compile := range ops {
		for want := range policies {
			fresh, err := compile(MustNewMachine(n, Ports(k), WithTopology(topo)), policies[want])
			if err != nil {
				t.Fatal(err)
			}
			for before := range policies {
				if before == want {
					continue
				}
				m := MustNewMachine(n, Ports(k), WithTopology(topo))
				if _, err := compile(m, policies[before]); err != nil {
					t.Fatal(err)
				}
				got, err := compile(m, policies[want])
				if err != nil {
					t.Fatal(err)
				}
				if got.Algorithm() != fresh.Algorithm() || got.Rounds() != fresh.Rounds() || got.PredictedC2() != fresh.PredictedC2() {
					t.Errorf("%s policy %d after policy %d: verdict %s C1=%d C2=%d, fresh machine gives %s C1=%d C2=%d",
						name, want, before, got.Algorithm(), got.Rounds(), got.PredictedC2(),
						fresh.Algorithm(), fresh.Rounds(), fresh.PredictedC2())
				}
			}
		}
	}
}

// TestTopologyHierReduceScatterAfterAllReduce: the hierarchical
// schedule exists for the allreduce only, and a cached hierarchical
// allreduce must not be served for a reduce-scatter request.
func TestTopologyHierReduceScatterAfterAllReduce(t *testing.T) {
	m := MustNewMachine(16, WithTopology(topo4x4(t)))
	if _, err := m.CompileReduce(AllReduceKind, 8, WithKernel(ReduceSum, Int32), Hierarchical()); err != nil {
		t.Fatal(err)
	}
	if pl, err := m.CompileReduce(ReduceScatterKind, 8, WithKernel(ReduceSum, Int32), Hierarchical()); err == nil {
		t.Errorf("hierarchical reduce-scatter accepted, got a %s plan", pl.Op())
	}
}
