package collective

// Unit tests for the compiled packing layout of index plans, the
// successor of the packDigit/unpackDigit kernels (the paper's Appendix
// A pack and unpack): each compiled transfer must carry exactly the
// blocks SelectDigit/SelectAt enumerate, in increasing id order, with
// the payload size and partner offset that follow from them.
import (
	"testing"
	"testing/quick"

	"bruck/internal/blocks"
	"bruck/internal/intmath"
	"bruck/internal/mpsim"
)

// TestCompiledRoundsMatchSelectDigit cross-validates the uniform-radix
// compiled rounds against the blocks package's digit selection for the
// one-port model, where every transfer is its own round in (pos, z)
// order.
func TestCompiledRoundsMatchSelectDigit(t *testing.T) {
	f := func(nRaw, rRaw, bRaw uint8) bool {
		n := int(nRaw)%20 + 2
		r := int(rRaw)%(n-1) + 2 // 2..n
		if r > n {
			r = n
		}
		b := int(bRaw)%8 + 1
		rounds := compileBruckRounds(n, 1, b, func(int) int { return r }, false)
		w := blocks.NumDigits(n, r)
		dist := 1
		ri := 0
		for pos := 0; pos < w; pos++ {
			h := intmath.Min(r, intmath.CeilDiv(n, dist))
			for z := 1; z < h; z++ {
				if ri >= len(rounds) || len(rounds[ri].xfers) != 1 {
					return false
				}
				x := rounds[ri].xfers[0]
				ids := blocks.SelectDigit(n, r, pos, z)
				got := x.blockIDs()
				if x.offset != z*dist || x.bytes != len(ids)*b || len(got) != len(ids) {
					return false
				}
				for i, id := range ids {
					if got[i] != id {
						return false
					}
				}
				ri++
			}
			dist *= r
		}
		return ri == len(rounds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCompiledRoundsKPortGrouping checks that the k-port compiler packs
// up to k consecutive digit values into one round and never more, and
// that grouping neither adds nor drops transfers.
func TestCompiledRoundsKPortGrouping(t *testing.T) {
	for _, tc := range []struct{ n, k, r int }{
		{16, 2, 4}, {16, 3, 4}, {27, 2, 3}, {10, 3, 10}, {64, 3, 8},
	} {
		rounds := compileBruckRounds(tc.n, tc.k, 1, func(int) int { return tc.r }, false)
		total := 0
		for _, rd := range rounds {
			if len(rd.xfers) == 0 || len(rd.xfers) > tc.k {
				t.Errorf("n=%d k=%d r=%d: round with %d transfers", tc.n, tc.k, tc.r, len(rd.xfers))
			}
			total += len(rd.xfers)
		}
		one := compileBruckRounds(tc.n, 1, 1, func(int) int { return tc.r }, false)
		if total != len(one) {
			t.Errorf("n=%d k=%d r=%d: %d transfers, one-port schedule has %d", tc.n, tc.k, tc.r, total, len(one))
		}
	}
}

// TestCompiledMixedRoundsMatchSelectAt validates mixed-radix compiled
// rounds against SelectAt at each digit weight.
func TestCompiledMixedRoundsMatchSelectAt(t *testing.T) {
	n := 24
	radices := []int{2, 3, 4} // product 24
	rounds := compileBruckRounds(n, 1, 1, func(i int) int { return radices[i] }, false)
	ri := 0
	weight := 1
	for _, r := range radices {
		h := intmath.Min(r, intmath.CeilDiv(n, weight))
		for z := 1; z < h; z++ {
			ids := blocks.SelectAt(n, weight, r, z)
			x := rounds[ri].xfers[0]
			got := x.blockIDs()
			if x.offset != z*weight || len(got) != len(ids) {
				t.Fatalf("round %d: offset %d blocks %v, want offset %d blocks %v",
					ri, x.offset, got, z*weight, ids)
			}
			for i, id := range ids {
				if got[i] != id {
					t.Fatalf("round %d: blocks %v, want %v", ri, got, ids)
				}
			}
			ri++
		}
		weight *= r
	}
	if ri != len(rounds) {
		t.Fatalf("compiled %d rounds, enumerated %d", len(rounds), ri)
	}
}

// TestCompiledNoPackRounds: the ablation compiles one single-block
// round per selected block, carrying the same total block count as the
// packed schedule.
func TestCompiledNoPackRounds(t *testing.T) {
	n, r, b := 9, 3, 4
	packed := compileBruckRounds(n, 1, b, func(int) int { return r }, false)
	unpacked := compileBruckRounds(n, 1, b, func(int) int { return r }, true)
	var wantBlocks, gotBlocks int
	for _, rd := range packed {
		wantBlocks += rd.xfers[0].blockCount()
	}
	for _, rd := range unpacked {
		if len(rd.xfers) != 1 || rd.xfers[0].blockCount() != 1 || rd.xfers[0].bytes != b {
			t.Fatalf("noPack round %+v is not a single-block round", rd)
		}
		gotBlocks++
	}
	if gotBlocks != wantBlocks {
		t.Fatalf("noPack carries %d blocks, packed carries %d", gotBlocks, wantBlocks)
	}
}

// TestPlanReportsShape: compiled plans expose the schedule's round
// count and largest pooled buffer.
func TestPlanReportsShape(t *testing.T) {
	e := mpsim.MustNew(16)
	g := mpsim.WorldGroup(16)
	pl, err := CompileIndex(e, g, 8, IndexOptions{Radix: 2})
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := IndexCost(16, 8, 2, 1)
	if pl.Rounds() != c1 {
		t.Errorf("plan rounds = %d, closed form C1 = %d", pl.Rounds(), c1)
	}
	if pl.Op() != "index" || pl.BlockLen() != 8 || pl.Group() != g {
		t.Errorf("plan identity accessors wrong: %s %d", pl.Op(), pl.BlockLen())
	}
	if pl.MaxMessageBytes() != 16*8 {
		t.Errorf("pool hint = %d, want %d (working region)", pl.MaxMessageBytes(), 16*8)
	}
}
