package bruck

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"bruck/internal/lowerbound"
)

// raggedIndexInput builds an n x n legacy block matrix with skewed,
// zero-including block lengths and identifying contents.
func raggedIndexInput(n int) [][][]byte {
	in := make([][][]byte, n)
	for i := range in {
		in[i] = make([][]byte, n)
		for j := range in[i] {
			ln := (i*7 + j*3) % 19
			if (i*n+j)%5 == 0 {
				ln = 0
			}
			blk := make([]byte, ln)
			for x := range blk {
				blk[x] = byte(i*131 + j*31 + x*7)
			}
			in[i][j] = blk
		}
	}
	return in
}

// TestIndexVUniformIdenticalToIndex is the public half of the uniform
// equivalence acceptance: equal-length legacy input through IndexV must
// produce the same bytes and the same Report as Index, on both
// transports, across the (n, k) acceptance grid.
func TestIndexVUniformIdenticalToIndex(t *testing.T) {
	const blockLen = 8
	for _, backend := range []Backend{BackendChan, BackendSlot} {
		for n := 1; n <= 16; n++ {
			for k := 1; k <= 3 && (k == 1 || k <= n-1); k++ {
				m := MustNewMachine(n, Ports(k), WithTransport(backend))
				in := make([][][]byte, n)
				for i := range in {
					in[i] = make([][]byte, n)
					for j := range in[i] {
						blk := make([]byte, blockLen)
						for x := range blk {
							blk[x] = byte(i*37 + j*11 + x)
						}
						in[i][j] = blk
					}
				}
				out1, rep1, err := m.Index(in)
				if err != nil {
					t.Fatalf("%v n=%d k=%d: Index: %v", backend, n, k, err)
				}
				out2, rep2, err := m.IndexV(in)
				if err != nil {
					t.Fatalf("%v n=%d k=%d: IndexV: %v", backend, n, k, err)
				}
				if !reflect.DeepEqual(out1, out2) {
					t.Fatalf("%v n=%d k=%d: IndexV bytes differ from Index", backend, n, k)
				}
				if !reflect.DeepEqual(rep1, rep2) {
					t.Fatalf("%v n=%d k=%d: IndexV report %+v differs from Index report %+v", backend, n, k, rep2, rep1)
				}
			}
		}
	}
}

// TestConcatVUniformIdenticalToConcat is the concatenation side.
func TestConcatVUniformIdenticalToConcat(t *testing.T) {
	const blockLen = 6
	for _, backend := range []Backend{BackendChan, BackendSlot} {
		for n := 1; n <= 16; n++ {
			for k := 1; k <= 3 && (k == 1 || k <= n-1); k++ {
				m := MustNewMachine(n, Ports(k), WithTransport(backend))
				in := make([][]byte, n)
				for i := range in {
					in[i] = make([]byte, blockLen)
					for x := range in[i] {
						in[i][x] = byte(i*53 + x*3)
					}
				}
				out1, rep1, err := m.Concat(in)
				if err != nil {
					t.Fatalf("%v n=%d k=%d: Concat: %v", backend, n, k, err)
				}
				out2, rep2, err := m.ConcatV(in)
				if err != nil {
					t.Fatalf("%v n=%d k=%d: ConcatV: %v", backend, n, k, err)
				}
				if !reflect.DeepEqual(out1, out2) {
					t.Fatalf("%v n=%d k=%d: ConcatV bytes differ from Concat", backend, n, k)
				}
				if !reflect.DeepEqual(rep1, rep2) {
					t.Fatalf("%v n=%d k=%d: ConcatV report %+v differs from Concat report %+v", backend, n, k, rep2, rep1)
				}
			}
		}
	}
}

// TestIndexVRagged drives the public ragged path — default, fixed
// radix, mixed radices, auto dispatch — against the defining
// permutation, with zero-length blocks in the mix.
func TestIndexVRagged(t *testing.T) {
	for _, backend := range []Backend{BackendChan, BackendSlot} {
		for _, n := range []int{2, 8, 13} {
			in := raggedIndexInput(n)
			for _, tc := range []struct {
				name string
				opts []CollectiveOption
			}{
				{"default", nil},
				{"radix-n", []CollectiveOption{WithRadix(n)}},
				{"direct", []CollectiveOption{WithIndexAlgorithm(IndexDirect)}},
				{"auto", []CollectiveOption{WithAuto(SP1)}},
			} {
				m := MustNewMachine(n, WithTransport(backend))
				out, rep, err := m.IndexV(in, tc.opts...)
				if err != nil {
					t.Fatalf("%v n=%d %s: %v", backend, n, tc.name, err)
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if !bytes.Equal(out[i][j], in[j][i]) {
							t.Fatalf("%v n=%d %s: out[%d][%d] != in[%d][%d]", backend, n, tc.name, i, j, j, i)
						}
					}
				}
				counts := make([][]int, n)
				for i := range counts {
					counts[i] = make([]int, n)
					for j := range counts[i] {
						counts[i][j] = len(in[i][j])
					}
				}
				if want := lowerbound.IndexVVolume(counts, 1); rep.C2LowerBound != want {
					t.Errorf("%v n=%d %s: report lower bound %d, want %d", backend, n, tc.name, rep.C2LowerBound, want)
				}
				if rep.C2 < rep.C2LowerBound {
					t.Errorf("%v n=%d %s: C2 = %d below its lower bound %d", backend, n, tc.name, rep.C2, rep.C2LowerBound)
				}
			}
		}
	}
}

// TestIndexVMixedRadices exercises WithRadices through the V path.
func TestIndexVMixedRadices(t *testing.T) {
	const n = 12
	m := MustNewMachine(n)
	in := raggedIndexInput(n)
	out, _, err := m.IndexV(in, WithRadices([]int{2, 3, 2}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !bytes.Equal(out[i][j], in[j][i]) {
				t.Fatalf("out[%d][%d] != in[%d][%d]", i, j, j, i)
			}
		}
	}
}

// TestConcatVRagged drives the public ragged concatenation, including
// the ring algorithm, auto dispatch and a zero-length contribution.
func TestConcatVRagged(t *testing.T) {
	for _, backend := range []Backend{BackendChan, BackendSlot} {
		for _, n := range []int{2, 9, 16} {
			in := make([][]byte, n)
			for i := range in {
				ln := (i * 5) % 23
				in[i] = make([]byte, ln)
				for x := range in[i] {
					in[i][x] = byte(i*61 + x*13)
				}
			}
			for _, tc := range []struct {
				name string
				opts []CollectiveOption
			}{
				{"circulant", nil},
				{"ring", []CollectiveOption{WithConcatAlgorithm(ConcatRing)}},
				{"auto", []CollectiveOption{WithAuto(SP1)}},
			} {
				m := MustNewMachine(n, WithTransport(backend))
				out, rep, err := m.ConcatV(in, tc.opts...)
				if err != nil {
					t.Fatalf("%v n=%d %s: %v", backend, n, tc.name, err)
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if !bytes.Equal(out[i][j], in[j]) {
							t.Fatalf("%v n=%d %s: out[%d][%d] != in[%d]", backend, n, tc.name, i, j, j)
						}
					}
				}
				counts := make([]int, n)
				for i := range counts {
					counts[i] = len(in[i])
				}
				if want := lowerbound.ConcatVVolume(counts, 1); rep.C2LowerBound != want {
					t.Errorf("%v n=%d %s: report lower bound %d, want %d", backend, n, tc.name, rep.C2LowerBound, want)
				}
			}
		}
	}
}

// TestIndexVFlatOnGroup runs the zero-copy ragged path on a strict
// subgroup of the machine.
func TestIndexVFlatOnGroup(t *testing.T) {
	m := MustNewMachine(9)
	g, err := m.NewGroup([]int{1, 3, 4, 7})
	if err != nil {
		t.Fatal(err)
	}
	counts := [][]int{
		{2, 0, 7, 1},
		{3, 5, 0, 2},
		{0, 1, 4, 6},
		{8, 2, 3, 0},
	}
	l, err := NewIndexLayout(counts)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewRaggedBuffers(l)
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewRaggedBuffers(l.Transpose())
	if err != nil {
		t.Fatal(err)
	}
	data := in.Bytes()
	for x := range data {
		data[x] = byte(x*17 + 1)
	}
	if _, err := m.IndexVFlat(in, out, OnGroup(g)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !bytes.Equal(out.Block(i, j), in.Block(j, i)) {
				t.Fatalf("out.Block(%d,%d) != in.Block(%d,%d)", i, j, j, i)
			}
		}
	}
}

// TestRunPlansMixedUniformAndRagged is the serving scenario at API
// level: a fixed-size index plan and a ragged concat plan bound to
// disjoint groups execute in one RunPlans pass.
func TestRunPlansMixedUniformAndRagged(t *testing.T) {
	m := MustNewMachine(8)
	gU, err := m.NewGroup([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	gR, err := m.NewGroup([]int{4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}

	uni, err := m.CompileIndex(16, OnGroup(gU))
	if err != nil {
		t.Fatal(err)
	}
	uin, _ := NewIndexBuffers(4, 16)
	uout, _ := NewIndexBuffers(4, 16)
	for x, data := 0, uin.Bytes(); x < len(data); x++ {
		data[x] = byte(x*5 + 2)
	}
	if err := uni.Bind(uin, uout); err != nil {
		t.Fatal(err)
	}

	l, err := NewConcatLayout([]int{12, 0, 5, 33})
	if err != nil {
		t.Fatal(err)
	}
	rag, err := m.CompileConcatV(l, OnGroup(gR))
	if err != nil {
		t.Fatal(err)
	}
	rin, err := NewRaggedBuffers(l)
	if err != nil {
		t.Fatal(err)
	}
	rout, err := NewRaggedBuffers(rag.OutLayout())
	if err != nil {
		t.Fatal(err)
	}
	for x, data := 0, rin.Bytes(); x < len(data); x++ {
		data[x] = byte(x*9 + 4)
	}
	if err := rag.BindV(rin, rout); err != nil {
		t.Fatal(err)
	}

	reports, err := m.RunPlans([]*Plan{uni, rag})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !bytes.Equal(uout.Block(i, j), uin.Block(j, i)) {
				t.Fatalf("uniform plan: out.Block(%d,%d) wrong", i, j)
			}
			if !bytes.Equal(rout.Block(i, j), rin.Block(j, 0)) {
				t.Fatalf("ragged plan: out.Block(%d,%d) wrong", i, j)
			}
		}
	}
	if reports[1].C2LowerBound != lowerbound.ConcatVVolume([]int{12, 0, 5, 33}, 1) {
		t.Errorf("ragged report lower bound %d wrong", reports[1].C2LowerBound)
	}
}

// TestIndexVShapeErrors pins the user-facing validation.
func TestIndexVShapeErrors(t *testing.T) {
	m := MustNewMachine(4)
	if _, _, err := m.IndexV([][][]byte{{{1}}, {{1}}}); err == nil {
		t.Error("IndexV accepted a 2x1 matrix on a 4-processor world")
	}
	if _, err := m.IndexVFlat(nil, nil); err == nil {
		t.Error("IndexVFlat accepted nil buffers")
	}
	l, _ := NewIndexLayout([][]int{{1, 2}, {3, 4}})
	in, _ := NewRaggedBuffers(l)
	badOut, _ := NewRaggedBuffers(l) // not the transpose
	g, _ := m.NewGroup([]int{0, 1})
	if _, err := m.IndexVFlat(in, badOut, OnGroup(g)); err == nil {
		t.Error("IndexVFlat accepted a non-transposed output layout")
	}
	if _, _, err := m.ConcatV([][]byte{{1}, {2, 3}}, WithConcatAlgorithm(ConcatFolklore)); err == nil {
		t.Error("ConcatV accepted the folklore baseline on a ragged layout")
	}
}

// TestIndexVFlatSteadyStateAllocs pins the uniform fast path to its
// measured allocation numbers (9 allocs/op for IndexFlat and 8 for
// ConcatFlat at this configuration, with reused engine Procs and their
// round scratch; small headroom absorbs scheduler jitter) and bounds
// the ragged steady state relative to the uniform one.
func TestIndexVFlatSteadyStateAllocs(t *testing.T) {
	const n, blockLen, runs = 16, 128, 10
	m := MustNewMachine(n)

	fin, _ := NewIndexBuffers(n, blockLen)
	fout, _ := NewIndexBuffers(n, blockLen)
	var opErr error
	m.IndexFlat(fin, fout, WithRadix(2)) // warm pools and plan cache
	flat := testing.AllocsPerRun(runs, func() {
		if _, err := m.IndexFlat(fin, fout, WithRadix(2)); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		t.Fatal(opErr)
	}
	if flat > 11 {
		t.Errorf("uniform IndexFlat fast path allocates %.0f/op, pin is 9 (+ headroom 11)", flat)
	}

	cin, _ := NewConcatBuffers(n, blockLen)
	cout, _ := NewIndexBuffers(n, blockLen)
	m.ConcatFlat(cin, cout)
	cflat := testing.AllocsPerRun(runs, func() {
		if _, err := m.ConcatFlat(cin, cout); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		t.Fatal(opErr)
	}
	if cflat > 10 {
		t.Errorf("uniform ConcatFlat fast path allocates %.0f/op, pin is 8 (+ headroom 10)", cflat)
	}

	// The ragged steady state reuses the same pooled machinery; allow a
	// 25%% margin over the uniform path for the layout bookkeeping.
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
		for j := range counts[i] {
			counts[i][j] = 1 + (i*7+j*3)%blockLen
		}
	}
	l, err := NewIndexLayout(counts)
	if err != nil {
		t.Fatal(err)
	}
	vin, _ := NewRaggedBuffers(l)
	vout, _ := NewRaggedBuffers(l.Transpose())
	m.IndexVFlat(vin, vout, WithRadix(2))
	ragged := testing.AllocsPerRun(runs, func() {
		if _, err := m.IndexVFlat(vin, vout, WithRadix(2)); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		t.Fatal(opErr)
	}
	if ragged > flat*5/4+5 {
		t.Errorf("ragged IndexVFlat steady state allocates %.0f/op, uniform is %.0f/op; want within 25%%", ragged, flat)
	}
}

// TestIndexVPlanReuseAcrossCalls checks the layout-digest cache: two
// calls with equal layouts must not recompile (observable through the
// plan pointer identity of CompileIndexV).
func TestIndexVPlanReuseAcrossCalls(t *testing.T) {
	m := MustNewMachine(6)
	counts := [][]int{
		{1, 2, 3, 4, 5, 6},
		{6, 5, 4, 3, 2, 1},
		{1, 1, 2, 2, 3, 3},
		{0, 9, 0, 9, 0, 9},
		{2, 4, 6, 8, 10, 12},
		{1, 3, 5, 7, 9, 11},
	}
	l1, _ := NewIndexLayout(counts)
	l2, _ := NewIndexLayout(counts)
	p1, err := m.CompileIndexV(l1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.CompileIndexV(l2)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("equal layouts recompiled instead of hitting the cache")
	}
	if p1.Layout() == nil || p1.OutLayout() == nil {
		t.Error("layout plan does not expose its layouts")
	}
	if fmt.Sprint(p1.Op()) != "index" {
		t.Errorf("plan op %q, want index", p1.Op())
	}
}
