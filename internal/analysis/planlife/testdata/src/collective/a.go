// Package collective is a structural fixture for the planlife
// analyzer: it mirrors the real package's shapes (a Plan type, a Spec
// with option structs, a planKey, ExecutePlans) so the analyzer's
// suffix-based type matching applies without importing unexported
// internals.
package collective

import "bruck/internal/mpsim"

type Plan struct {
	c1, c2 int
	engine *mpsim.Engine
}

type FakeOptions struct {
	Algorithm int
	Radix     int
}

type ReduceOptions struct {
	Algorithm int
	Radix     int    // want "Spec field Reduce.Radix never reaches the cache key built by key"
	Kernel    func() //lint:allow planlife not comparable; Algorithm stands in for it
}

type Layout struct{ rows, cols int }

func (l *Layout) Digest() uint64 { return uint64(l.rows*31 + l.cols) }

// Spec mirrors the real plan spec: key below must read every field.
type Spec struct {
	Op      int
	Layout  *Layout
	Fake    FakeOptions
	Reduce  ReduceOptions
	Dropped int // want "Spec field Dropped never reaches the cache key built by key"
}

type planKey struct {
	op, alg, radix, ralg int
	layout               uint64
}

// CompileFake is compile-pipeline by name: field writes are fine here.
func CompileFake(e *mpsim.Engine, opt FakeOptions) *Plan {
	pl := &Plan{engine: e}
	pl.c1 = opt.Algorithm + opt.Radix
	return pl
}

// finishFake is compile-pipeline by prefix.
func (pl *Plan) finishFake() {
	pl.c2 = pl.c1 * 2
}

func retune(pl *Plan) {
	pl.c2 = 0 // want "assignment to plan field c2"
}

func buildLocal(e *mpsim.Engine) *Plan {
	pl := &Plan{engine: e}
	pl.c1 = 1 // locally constructed: not yet shared
	return pl
}

func ExecutePlans(e *mpsim.Engine, plans []*Plan) error {
	_ = e
	_ = plans
	return nil
}

func wrongEngine(e1, e2 *mpsim.Engine, opt FakeOptions) error {
	pl := CompileFake(e1, opt)
	return ExecutePlans(e2, []*Plan{pl}) // want "compiled for engine e1 but is executed on e2"
}

func rightEngine(e *mpsim.Engine, opt FakeOptions) error {
	pl := CompileFake(e, opt)
	return ExecutePlans(e, []*Plan{pl})
}

// key reads Fake whole (covering its fields), Layout through a method,
// and Reduce field by field — but never Reduce.Radix or Dropped.
func (s Spec) key() planKey {
	k := planKey{op: s.Op, ralg: s.Reduce.Algorithm}
	fake := s.Fake
	k.alg, k.radix = fake.Algorithm, fake.Radix
	if s.Layout != nil {
		k.layout = s.Layout.Digest()
	}
	return k
}

// keyOf takes the spec as a parameter and hands it on whole: that
// counts as reading every field.
func keyOf(s Spec) planKey {
	return s.key()
}
