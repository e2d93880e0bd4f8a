package sim

import (
	"fmt"
	"testing"
)

// runEpochsReference is the reference dispatcher: the straight-line loop
// whose Step call sequence defines the engine's semantics. Run goes through
// RunEpochsBatched, which must produce the identical sequence with the
// bookkeeping amortized (pinned by TestRunEpochsBatchedEquivalence).
func runEpochsReference(e *Engine, epochs int) {
	e.stopped = false
	budgets := make([]int, len(e.actors))
	for ep := 0; ep < epochs && !e.stopped; ep++ {
		// Compute per-epoch budgets with fractional carry, so low-rate
		// actors still make progress over multiple epochs.
		for i, a := range e.actors {
			want := a.OpsPerSecond(e.now)/EpochsPerSecond + e.carry[i]
			b := int(want)
			e.carry[i] = want - float64(b)
			budgets[i] = b
		}
		// Interleave: divide each actor's budget across slices.
		for s := 0; s < InterleaveSlices; s++ {
			sliceTick := e.now + Tick(s*TicksPerEpoch/InterleaveSlices)
			for i, a := range e.actors {
				share := budgets[i] / InterleaveSlices
				if s < budgets[i]%InterleaveSlices {
					share++
				}
				if share > 0 {
					a.Step(sliceTick, share)
				}
			}
		}
		e.now += TicksPerEpoch
		if e.now%TicksPerSecond == 0 {
			for _, o := range e.observers {
				o.OnSecond(e.now)
			}
			e.ffSkipped = 0
		}
	}
}

// traceActor records every Step call so dispatcher variants can be compared
// call-for-call. Its rate varies with time (bursty, fractional, or zero) to
// exercise carry accumulation and the zero-budget filtering paths.
type traceActor struct {
	name  string
	rate  func(now Tick) float64
	trace []stepCall
}

type stepCall struct {
	now    Tick
	budget int
}

func (a *traceActor) Name() string                  { return a.name }
func (a *traceActor) OpsPerSecond(now Tick) float64 { return a.rate(now) }
func (a *traceActor) Step(now Tick, budget int) int {
	a.trace = append(a.trace, stepCall{now, budget})
	return budget
}

// mixedActors builds a representative actor set: steady high-rate, fractional
// low-rate, bursty (zero outside a duty window, like the NIC), and always-zero.
func mixedActors() []*traceActor {
	return []*traceActor{
		{name: "steady", rate: func(Tick) float64 { return 90000 }},
		{name: "fractional", rate: func(Tick) float64 { return 333 }},
		{name: "bursty", rate: func(now Tick) float64 {
			if now%(100*TicksPerEpoch) < 10*TicksPerEpoch {
				return 50000
			}
			return 0
		}},
		{name: "idle", rate: func(Tick) float64 { return 0 }},
		{name: "sub-epoch", rate: func(Tick) float64 { return 7.3 }},
	}
}

// TestRunEpochsBatchedEquivalence pins the batched dispatcher to the
// reference loop: the Step call sequence (actor order, slice times, budgets),
// observer call times, final clock, and subsequent behaviour (which depends
// on the fractional carries) must be identical. The run starts misaligned
// from a second boundary and is split across multiple calls to exercise the
// boundary countdown's re-derivation.
func TestRunEpochsBatchedEquivalence(t *testing.T) {
	ref, refActors := NewEngine(1), mixedActors()
	bat, batActors := NewEngine(1), mixedActors()
	var refSec, batSec []Tick
	for _, a := range refActors {
		ref.AddActor(a)
	}
	for _, a := range batActors {
		bat.AddActor(a)
	}
	ref.AddObserver(FuncObserver(func(now Tick) { refSec = append(refSec, now) }))
	bat.AddObserver(FuncObserver(func(now Tick) { batSec = append(batSec, now) }))

	for _, epochs := range []int{137, 1500, 863, 2000} {
		runEpochsReference(ref, epochs)
		bat.RunEpochsBatched(epochs)
	}

	if ref.Now() != bat.Now() {
		t.Fatalf("clock diverged: reference %d, batched %d", ref.Now(), bat.Now())
	}
	if fmt.Sprint(refSec) != fmt.Sprint(batSec) {
		t.Errorf("observer cadence diverged:\nreference %v\nbatched   %v", refSec, batSec)
	}
	for i := range refActors {
		r, b := refActors[i], batActors[i]
		if len(r.trace) != len(b.trace) {
			t.Fatalf("actor %s: %d reference Step calls, %d batched", r.name, len(r.trace), len(b.trace))
		}
		for j := range r.trace {
			if r.trace[j] != b.trace[j] {
				t.Fatalf("actor %s Step call %d: reference %+v, batched %+v", r.name, j, r.trace[j], b.trace[j])
			}
		}
	}
}

// TestRNGSkip pins Skip(n) to n discarded draws for the draw counts the
// fast-forward path produces, including zero and beyond-int32 counts.
func TestRNGSkip(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 7, 1000, 1 << 20, 1 << 40} {
		a, b := NewRNG(42), NewRNG(42)
		a.Skip(n)
		for i := uint64(0); i < n && n <= 1<<20; i++ {
			b.Uint64()
		}
		if n <= 1<<20 {
			if av, bv := a.Uint64(), b.Uint64(); av != bv {
				t.Errorf("Skip(%d) diverged from %d draws: %x vs %x", n, n, av, bv)
			}
			continue
		}
		// Large counts: verify the algebraic identity Skip(n) ∘ Skip(m) =
		// Skip(n+m) instead of drawing 2^40 values.
		c := NewRNG(42)
		c.Skip(n - 1)
		c.Skip(1)
		if a.State() != c.State() {
			t.Errorf("Skip(%d) != Skip(%d)+Skip(1)", n, n-1)
		}
	}
}

// ffActor counts FastForward calls and the interval they covered.
type ffActor struct {
	countingActor
	ffCalls []stepCall // now, dt (reusing the pair shape)
}

func (a *ffActor) FastForward(now, dt Tick) {
	a.ffCalls = append(a.ffCalls, stepCall{now, int(dt)})
}

// TestEngineFastForward pins the gap semantics: chunks never straddle second
// boundaries, observers fire at every boundary with SkippedTicks showing the
// skipped portion of that second, and the counter resets afterwards — both
// for fully skipped seconds and for seconds mixing detailed and skipped
// epochs.
func TestEngineFastForward(t *testing.T) {
	e := NewEngine(1)
	a := &ffActor{countingActor: countingActor{name: "ff", rate: 1000}}
	e.AddActor(a)
	type obsCall struct{ now, skipped Tick }
	var obs []obsCall
	e.AddObserver(FuncObserver(func(now Tick) {
		obs = append(obs, obsCall{now, e.SkippedTicks()})
	}))

	e.RunEpochsBatched(300) // 0.3 s detailed
	e.FastForward(700)      // rest of second 1 skipped
	e.FastForward(1000)     // all of second 2 skipped
	e.RunEpochsBatched(1000)

	if e.Now() != 3*TicksPerSecond {
		t.Fatalf("clock at %d, want %d", e.Now(), 3*TicksPerSecond)
	}
	want := []obsCall{
		{1 * TicksPerSecond, 700 * TicksPerEpoch},
		{2 * TicksPerSecond, TicksPerSecond},
		{3 * TicksPerSecond, 0},
	}
	if fmt.Sprint(obs) != fmt.Sprint(want) {
		t.Errorf("observer calls %v, want %v", obs, want)
	}
	wantFF := []stepCall{
		{300 * TicksPerEpoch, 700 * TicksPerEpoch},
		{1 * TicksPerSecond, TicksPerSecond},
	}
	if fmt.Sprint(a.ffCalls) != fmt.Sprint(wantFF) {
		t.Errorf("FastForward calls %v, want %v", a.ffCalls, wantFF)
	}
	if e.SkippedTicks() != 0 {
		t.Errorf("SkippedTicks = %d after run, want 0", e.SkippedTicks())
	}

	// A gap spanning a boundary must split into per-second chunks.
	e2 := NewEngine(1)
	b := &ffActor{countingActor: countingActor{name: "ff", rate: 0}}
	e2.AddActor(b)
	e2.RunEpochsBatched(600)
	e2.FastForward(900) // 400 to the boundary, 500 into the next second
	if len(b.ffCalls) != 2 || b.ffCalls[0].budget != 400*TicksPerEpoch || b.ffCalls[1].budget != 500*TicksPerEpoch {
		t.Errorf("boundary-spanning gap chunks: %v", b.ffCalls)
	}
	if e2.SkippedTicks() != 500*TicksPerEpoch {
		t.Errorf("mid-second SkippedTicks = %d, want %d", e2.SkippedTicks(), 500*TicksPerEpoch)
	}
}

// TestFastForwardRequiresInterface pins the by-name panic for actors that
// cannot fast-forward, so a mis-built sampled scenario fails loudly.
func TestFastForwardRequiresInterface(t *testing.T) {
	e := NewEngine(1)
	e.AddActor(&countingActor{name: "plain", rate: 1})
	defer func() {
		if recover() == nil {
			t.Errorf("FastForward over a non-FastForwarder should panic")
		}
	}()
	e.FastForward(1)
}

// countActor is a minimal Actor for dispatch benchmarks: a fixed rate and a
// Step that only counts, so the benchmark prices the dispatcher rather than
// model work.
type countActor struct {
	rate  float64
	steps int64
}

func (c *countActor) Name() string                  { return "count" }
func (c *countActor) OpsPerSecond(now Tick) float64 { return c.rate }
func (c *countActor) Step(now Tick, budget int) int {
	c.steps += int64(budget)
	return budget
}

// BenchmarkDispatch prices the two dispatchers on actor sets where dispatch
// overhead is visible (Step is a counter, not a simulation model). The
// "busy" shape is the scenario regime — a handful of always-active actors —
// where the two loops are equivalent and model work would dominate anyway.
// The "idle-heavy" shape is where batching's zero-budget filtering pays:
// many registered actors with nothing to do this epoch (burst-shaped NICs
// outside their window, drained devices), which the reference loop
// re-examines in all InterleaveSlices passes.
func BenchmarkDispatch(b *testing.B) {
	shapes := []struct {
		name string
		mk   func() []*countActor
	}{
		{"busy-6", func() []*countActor {
			as := make([]*countActor, 6)
			for i := range as {
				as[i] = &countActor{rate: 90000}
			}
			return as
		}},
		{"idle-heavy-64", func() []*countActor {
			as := make([]*countActor, 64)
			for i := range as {
				if i < 8 {
					as[i] = &countActor{rate: 90000}
				} else {
					as[i] = &countActor{rate: 0}
				}
			}
			return as
		}},
	}
	for _, sh := range shapes {
		b.Run(sh.name+"/reference", func(b *testing.B) {
			e := NewEngine(1)
			for _, a := range sh.mk() {
				e.AddActor(a)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runEpochsReference(e, EpochsPerSecond)
			}
		})
		b.Run(sh.name+"/batched", func(b *testing.B) {
			e := NewEngine(1)
			for _, a := range sh.mk() {
				e.AddActor(a)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.RunEpochsBatched(EpochsPerSecond)
			}
		})
	}
}
