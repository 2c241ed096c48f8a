// Package collective implements the all-to-all communication algorithms
// of Bruck, Ho, Kipnis, Upfal and Weathersby on the mpsim multiport
// fully connected message-passing simulator:
//
//   - Index (all-to-all personalized communication, MPI_Alltoall): the
//     radix-r algorithm family of Section 3 with the C1/C2 trade-off,
//     for the one-port and k-port models, plus the direct-exchange and
//     pairwise-XOR baselines.
//
//   - Concatenation (all-to-all broadcast, MPI_Allgather): the
//     circulant-graph algorithm of Section 4 with the table-partitioned
//     last round, plus the folklore gather+broadcast, ring and
//     recursive-doubling baselines.
//
//   - The one-to-all primitives (binomial broadcast, gather, scatter)
//     the baselines are built from.
//
// All operations take an mpsim.Engine and an mpsim.Group and run as SPMD
// programs: processors in the group execute the schedule, processors
// outside it idle. Inputs and outputs are indexed by group rank.
//
// # Flat and legacy data paths
//
// Every operation exists in two layouts. The flat entry points
// (IndexFlat, IndexMixedFlat, ConcatFlat) work on buffers.Buffers
// slabs: packing and unpacking write into pool-recycled round buffers,
// receives land directly in caller-owned memory via
// mpsim.Proc.ExchangeInto, and the concatenation algorithms accumulate
// in the output slab itself, finishing with an in-place rotation. On a
// reused engine a flat operation performs no per-block or per-message
// allocations. The legacy [][][]byte entry points (Index, IndexMixed,
// Concat) are thin adapters over the flat paths — one copy in, one copy
// out — so both layouts execute the identical schedule and produce
// byte-identical results.
//
// # Compiled plans
//
// The paper's schedules are fixed functions of (n, k, r) — nothing
// about them depends on the payload — so schedule construction is
// split from execution. CompileIndex, CompileIndexMixed and
// CompileConcat build a Plan: the complete round, partner and packing
// layout (for the circulant concatenation including the solved
// last-round table partition and its area offsets), plus pool-sizing
// hints. Plan.Execute replays the schedule with zero recomputation;
// the one-shot entry points above are thin compile-and-execute
// wrappers.
//
// PlanCache is the one lookup in front of the compilers (plancache.go).
// A Spec names a plan: the op, the block size or layout, the index,
// concat and reduce options, the mixed radices, the hierarchical flag
// with its options and the topology, and an optional auto profile.
// PlanCache.Plan normalizes the spec (zeroing every field its compiler
// ignores, so equivalent specs share one entry), derives the key
// (layouts, topologies and radix vectors by digest, the kernel by its
// KernelKey, the auto profile by its Beta and Tau), confirms a hit
// against the stored spec, and on a miss compiles through one switch
// over the Compile functions. An auto spec lists its candidate specs
// in a fixed order, resolves each through Plan, prices them with
// Plan.Time (or Plan.TimeTopo on a topology) and memoizes the winner,
// so a repeated auto call is one lookup. The cache holds at most 256
// plans and evicts the least recently used one in O(1). The public
// Machine API routes every call through it, so repeated configurations
// compile exactly once.
//
// # Bruck replay
//
// Every Bruck-family round table — fixed-size, mixed-radix, layout
// (IndexV) and the ReduceBruck reduce-scatter phase — replays through
// one executor. A compiled transfer lists its blocks as runs of
// consecutive working-region ids, and a run's blocks are adjacent in
// the working region, so packing and unpacking cost one copy per run
// (radix 2 at n = 256 packs 255 runs per rank where a per-block loop
// copied 1024 blocks). Payloads move by ownership transfer
// (mpsim.Proc.ExchangeOwned): the packed pool buffer itself travels,
// and the receiver unpacks and recycles it, so each message costs two
// copies — pack and unpack — and no more. An unsegmented plan is the
// one-segment case of the pipelined replay below; its round scratch
// lives on the engine's Proc (mpsim.Proc.RoundScratch), so a warm
// replay allocates nothing.
//
// # Pipelined (segmented) plans
//
// IndexOptions.Segments and ReduceOptions.Segments pipeline the packed
// uniform Bruck schedules (the radix-r index and the ReduceBruck
// reduce-scatter phase): every block is split into S spans
// (buffers.SplitSpans) and span i streams through the round structure
// one merged round behind span i-1, so the schedule runs rounds + S - 1
// merged rounds (costmodel.PipelinedC1) while each merged round moves
// only a span-sized fraction of every message. The trade is the paper's
// C1/C2 tension in miniature: S - 1 extra start-ups buy an up-to-S-fold
// cut in the bandwidth term, so pipelining loses on latency-bound small
// blocks and wins on bandwidth-bound large ones — `bruckctl run
// -crossover-segments` tabulates the crossover. Within one merged round
// the live segments' sends share the engine's k ports as lanes of one
// ExchangeOwned call, and the executor's payload slabs come from the
// engine pool, so the segmented steady state allocates like the
// monolithic one.
//
// Segmented-plan rules:
//
//   - Segments = 0 (or 1) is the monolithic schedule; AutoSegments
//     defers to the cost model (OptimalSegments) at compile time.
//   - The compiler clamps the requested count to the block size and the
//     schedule's round count, and quietly falls back to monolithic
//     where pipelining does not apply: non-Bruck algorithms, unpacked
//     tables, single-round schedules, blocks under two bytes, and every
//     V/layout plan. The option is inert there, never an error, so
//     callers can set it unconditionally.
//   - Segmentation never changes bytes: a segmented plan's output is
//     byte-identical to the monolithic plan's, only the round structure
//     and the Report's (C1, C2) differ (SegmentedIndexCost is the
//     closed form; Plan.Check proves the segment spans tile each
//     block).
//   - Segments is part of the plan cache key wherever the compiler
//     reads it; 0 and 1 share one entry.
//
// # Asynchronous execution (the bruck.Machine front door)
//
// The root package's IndexAsync, ConcatAsync and AllReduceAsync wrap
// these plans in a non-blocking submission: the plan resolves (or
// compiles) synchronously, the execution runs on a background
// goroutine, and the returned bruck.Handle is the only view of the
// running operation. The handle rules — one operation in flight per
// Machine, the operation owns its input and output buffers until Wait
// (or a true Test), execution errors including watchdog fencing surface
// on Wait — are documented on bruck.Handle and statically enforced by
// the planlife analyzer (discarded handles, resubmission before Wait).
// The engine enforces the first rule at run time as well: a blocking
// call that reaches the engine while the operation is still executing
// fails with mpsim.ErrRunInProgress.
//
// # Ragged layouts
//
// IndexV and ConcatV (vplan.go) generalize both operations to
// variable block sizes, the MPI_Alltoallv/MPI_Allgatherv shapes. A
// blocks.Layout carries the per-(src, dst) count and displacement
// tables; CompileIndexV/CompileIndexVMixed/CompileConcatV compile it
// into the same Plan machinery. Schedules that forward blocks through
// intermediate processors (the Bruck family, the circulant
// concatenation) run unchanged on slots padded to the layout's largest
// block — two-phase local packing: pack at the source, fixed-size
// schedule on padded slots, unpack at true lengths (the layout is
// global knowledge, so every receiver knows every extent; padding
// travels but is never read). Schedules whose blocks travel directly
// (direct exchange, pairwise-XOR, ring) carry exact per-transfer
// extents with no padding. A uniform layout — including any all-equal
// count table, which construction normalizes — compiles to rounds
// byte-identical to the fixed-size plan's, so uniform V executions are
// byte- and Report-identical to the flat paths. An auto spec with a
// layout picks the algorithm and radix per layout by evaluating the
// linear cost model over the compiled candidates' exact (C1, C2);
// verdicts are memoized in the cache.
//
// Plan lifecycle rules (immutability, engine affinity and cache-key
// completeness — every Spec field, nested option fields included,
// reaches the key or carries a //lint:allow planlife reason at its
// declaration — are statically enforced by the planlife analyzer,
// internal/analysis/planlife, run via cmd/brucklint; compiled tables
// are proved well-formed by Plan.Check, run via `bruckctl vet`):
//
//   - A Plan is immutable after compilation and bound to the engine
//     and group it was compiled for; executing it on another engine is
//     rejected.
//   - Layout plans (CompileIndexV/CompileConcatV) additionally bind to
//     their input layout; the cache keys them by the layout's 64-bit
//     digest (confirmed with Layout.Equal on every hit — a colliding
//     digest compiles a fresh uncached plan, never serves the wrong
//     schedule). Layouts are immutable, so a cached layout plan can
//     never go stale.
//   - Layout plans execute through ExecuteV/BindV on buffers.Ragged
//     slabs of the plan's input layout and its output layout (the
//     transpose for index, Layout.ConcatOut for concat); handing them
//     fixed-size Buffers — or a fixed-size plan ragged slabs — is
//     rejected. ExecutePlans accepts any mix of Bind-ed fixed-size and
//     BindV-ed layout plans on disjoint groups.
//   - A Plan holds no reference to any transport generation: each
//     execution runs through the engine's current transport and pools,
//     so plans remain valid across the engine's post-deadlock fencing
//     (the run that deadlocked fails; the plan's next execution simply
//     uses the fresh transport).
//   - Buffers are per-execution state, not plan state: Execute takes
//     them explicitly, and Bind attaches a pair only as the standing
//     target for ExecutePlans. Rebinding retargets the plan; the
//     schedule never changes.
//   - ExecutePlans runs several plans with pairwise disjoint groups
//     concurrently inside one engine run (one mpsim.Program per plan),
//     with per-plan metrics. Plans of overlapping groups, unbound
//     plans, and plans of a different engine are rejected up front.
//   - Like the engine itself, plans and caches are not safe for
//     concurrent use from multiple goroutines; the concurrency model
//     is disjoint groups inside one run, not concurrent Executes.
//
// # Reduction plans
//
// ReduceScatter and AllReduce (rplan.go) extend the machinery to the
// classic reduction composition allreduce = reduce-scatter + allgather.
// The reduce-scatter phase has the index operation's data movement plus
// an elementwise combine, and the allgather phase is the concatenation,
// so CompileReduce reuses the compiled Bruck-index rounds (ReduceBruck)
// and the circulant-concatenation rounds (the AllReduce second phase)
// verbatim; the ring and recursive-halving schedules combine on receive
// directly. buffers.CombineFunc is the one new ingredient: the executor
// applies it where a plain collective would copy.
//
// Reduction-plan lifecycle rules, in addition to the plan rules above:
//
//   - The kernel is part of the compiled plan: the cache keys built-in
//     kernels by their KernelKey (op/type), and configurations with an
//     anonymous user kernel are compiled fresh on every call and never
//     cached — the cache cannot tell two functions apart. Callers that
//     reuse a user kernel should hold the Plan themselves.
//   - Kernel-safety: a CombineFunc must treat dst and src as
//     non-overlapping equal-length slices, write only dst, and must not
//     retain either slice (src is pooled transport memory, recycled
//     immediately after the call). It is never invoked on an empty slab
//     — zero-length blocks travel as empty messages and skip the
//     combine, preserving the round structure and the pool's
//     zero-length fast path.
//   - Determinism: each compiled plan applies its combines in a fixed
//     order (the ring in ring order, halving along its binary tree, the
//     Bruck variant in descending source order at the destination), so
//     repeated executions of one plan are bit-identical. Different
//     algorithms associate differently; reductions must be associative
//     and commutative for the result to be schedule-independent, which
//     floating-point summation satisfies only up to the last ulp.
//   - Shapes: reduce plans take an index-shaped input (block (i, j) is
//     rank i's contribution to chunk j) and a concat-shaped
//     (reduce-scatter) or index-shaped (allreduce) output. Bind
//     enforces this, and ExecutePlans runs reduction plans alongside
//     index, concat and layout plans on disjoint groups.
//
// # Hierarchical plans
//
// CompileHierarchicalIndex, CompileHierarchicalConcat and
// CompileHierarchicalReduce (hier.go) compile the two-level schedule
// for a machine partitioned into node-groups (costmodel.Topology): the
// paper's flat schedules run concurrently inside each group, one
// leader-level schedule crosses groups, and gather/scatter fan phases
// funnel remote data through the leaders. The result is one ordinary
// Plan — byte-identical output to the flat operation — whose round
// structure is a strictly ordered sequence of phases, each moving data
// over exactly one link class. That single-class-per-phase discipline
// is the load-bearing invariant: it makes the per-class (C1, C2) split
// an exact compile-time fact (Result.Intra/Result.Inter, each carrying
// its own lower bounds), lets Plan.TimeTopo price each phase at its
// class profile, and gives trace.Schedule a phase table that
// schedcheck can verify statically (phases tile the rounds, per-phase
// C2 sums to the header, intra phases never cross groups, inter
// phases never stay inside one).
//
// Hierarchical-plan lifecycle rules, in addition to the plan rules
// above:
//
//   - The topology is part of the compiled plan: it must cover exactly
//     the group (Topology.N() == group size), groups occupy contiguous
//     runs of group ranks, and each group's first rank is its leader.
//     Treat a Topology as immutable once a plan is compiled from it —
//     the plan holds it by reference, like plans hold their layouts.
//   - The cache keys hierarchical plans by the topology's 64-bit
//     digest plus the index's per-level radices (HierOptions; the
//     concatenation and allreduce ignore them), confirming every
//     digest hit with Topology.Equal; a colliding digest compiles a
//     fresh uncached plan, never serves the wrong schedule. Names do
//     not participate: differently named but parameter-identical
//     topologies share cache entries.
//   - The flat-vs-hierarchical auto dispatch (an auto spec on a
//     fixed-size plan with a nontrivial topology; bruck.WithAuto on a
//     topology machine) prices flat candidates at Topology.FlatTime —
//     every round pays the slowest class — and hierarchical candidates
//     phase by phase, memoizing the winner under the same digest-keyed
//     scheme. The flat candidates keep the spec's last-round policy,
//     so the policy is part of the verdict's key. Trivial topologies
//     (one group, or all singleton groups) dispatch nothing: a
//     fixed-size index or concatenation ignores Auto there, and a
//     reduction is priced with the auto profile as on a flat machine.
//   - Reductions are AllReduceKind only: the composition reduces each
//     group onto its leader, reduces across leaders, and broadcasts
//     back out, yielding the full vector everywhere. A hierarchical
//     reduce-scatter would need a different redistribution phase, so
//     CompileHierarchicalReduce rejects ReduceScatterKind. The fixed
//     fold order matches the flat schedules byte-for-byte only for
//     exact commutative kernels (the integer kernels); floating-point
//     kernels may round differently.
//   - Segments has no hierarchical axis: HierOptions carries the
//     per-level radices only, and the pipelining option does not apply
//     to two-level schedules.
//   - Execution follows the ordinary plan rules (engine affinity,
//     explicit buffers, fencing survival). The compilers do not
//     require it, but an engine created with mpsim.WithTopology (the
//     group-assignment form bruck.WithTopology arranges) tags every
//     recorded event with its link class, so measured per-class
//     metrics can be checked against the compiled phase table.
//
// The closed-form complexity functions in cost.go predict C1 and C2 for
// every algorithm; the tests assert that the schedules executed on the
// simulator match the closed forms exactly, and that both respect the
// lower bounds of package lowerbound.
package collective
