package sim

import (
	"testing"

	"a4sim/internal/codec"
)

// TestStopDoesNotLatch is the regression test for the latched-stop bug: a
// Stop during one Run (e.g. warm-up) must not turn the next Run (the
// measurement window) into a silent no-op.
func TestStopDoesNotLatch(t *testing.T) {
	e := NewEngine(1)
	a := &countingActor{name: "a", rate: 1000}
	e.AddActor(a)
	stop := true
	e.AddObserver(FuncObserver(func(now Tick) {
		if stop {
			e.Stop()
		}
	}))
	e.Run(5.0) // stopped at the first second boundary
	if got := e.Now(); got != TicksPerSecond {
		t.Fatalf("first run should stop at 1s, ran to %v", got)
	}
	stop = false
	e.Run(2.0)
	if got := e.Now(); got != 3*TicksPerSecond {
		t.Errorf("second run was truncated by a latched stop: now=%v, want %v", got, 3*TicksPerSecond)
	}
}

// TestStopBetweenRunsIsDiscarded pins the reset-at-entry semantics: a Stop
// issued while no Run is in progress does not cancel the next Run.
func TestStopBetweenRunsIsDiscarded(t *testing.T) {
	e := NewEngine(1)
	e.AddActor(&countingActor{name: "a", rate: 1000})
	e.Stop()
	e.Run(1.0)
	if got := e.Now(); got != TicksPerSecond {
		t.Errorf("pending stop should be discarded at Run entry: now=%v", got)
	}
}

// TestEngineStateContinues checks the engine's half of the snapshot
// contract: an engine rebuilt with equivalent actors and restored from the
// encoded state replays the same schedule (time, budgets, carries), and a
// state with a different actor count fails the read.
func TestEngineStateContinues(t *testing.T) {
	e := NewEngine(7)
	a := &countingActor{name: "a", rate: 333} // fractional carry is the point
	e.AddActor(a)
	var secs []Tick
	e.AddObserver(FuncObserver(func(now Tick) { secs = append(secs, now) }))
	e.Run(1.5)

	w := &codec.Writer{}
	e.EncodeState(w)
	fa := *a // countingActor state is plain data
	f := NewEngine(99)
	f.AddActor(&fa)
	f.AddObserver(FuncObserver(func(Tick) {}))
	r := codec.NewReader(w.Bytes())
	f.DecodeState(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if f.Now() != e.Now() {
		t.Fatalf("restored time %v != original %v", f.Now(), e.Now())
	}
	e.Run(1.5)
	f.Run(1.5)
	if fa.ops != a.ops || fa.steps != a.steps || fa.lastAt != a.lastAt {
		t.Errorf("restored actor diverged: ops %d vs %d, steps %d vs %d",
			fa.ops, a.ops, fa.steps, a.steps)
	}

	r = codec.NewReader(w.Bytes())
	NewEngine(7).DecodeState(r)
	if r.Err() == nil {
		t.Errorf("decoding onto an engine with a different actor count should fail")
	}
}

// TestRNGStateContinues pins that restoring a generator's state word
// continues the identical stream.
func TestRNGStateContinues(t *testing.T) {
	r := NewRNG(42)
	r.Uint64()
	c := NewRNG(1)
	c.SetState(r.State())
	for i := 0; i < 32; i++ {
		if r.Uint64() != c.Uint64() {
			t.Fatalf("restored generator diverged at draw %d", i)
		}
	}
}
