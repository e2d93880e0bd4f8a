// Package sim provides the discrete, epoch-driven simulation engine that
// drives every other component of the A4 reproduction: a simulated clock,
// an actor scheduler that interleaves CPU workloads and I/O devices within
// each epoch, and deterministic randomness.
//
// Simulated time advances in microsecond Ticks grouped into millisecond
// Epochs. Actors receive per-epoch operation budgets proportional to their
// configured rates and are stepped in interleaved slices, so that device DMA
// traffic and CPU memory traffic mix at fine grain the way they do on real
// hardware. Observers (the A4 daemon, counter samplers) run at simulated
// one-second boundaries, mirroring the paper's 1 s monitoring loop.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Tick is one microsecond of simulated time.
type Tick int64

const (
	// TicksPerEpoch groups ticks into 1 ms scheduling epochs.
	TicksPerEpoch = 1000
	// EpochsPerSecond is the number of epochs in one simulated second.
	EpochsPerSecond = 1000
	// TicksPerSecond is one simulated second in ticks.
	TicksPerSecond = TicksPerEpoch * EpochsPerSecond
	// InterleaveSlices is how many round-robin slices each epoch is divided
	// into; higher values mix actor traffic at finer grain at slightly more
	// scheduling overhead.
	InterleaveSlices = 8
)

// Seconds converts a tick count to simulated seconds.
func (t Tick) Seconds() float64 { return float64(t) / TicksPerSecond }

// Actor is anything that issues simulated work: a workload thread, a NIC, an
// SSD. Each epoch the engine grants the actor a budget of operations derived
// from OpsPerSecond and calls Step in interleaved slices.
type Actor interface {
	// Name identifies the actor in traces and error messages.
	Name() string
	// OpsPerSecond is the actor's current operation rate at the given time.
	// It is re-sampled every epoch, so actors may throttle themselves
	// dynamically or shape their load (e.g. bursty arrivals).
	OpsPerSecond(now Tick) float64
	// Step performs up to budget operations and returns how many were
	// actually performed (an actor may run out of work, e.g. an empty ring).
	Step(now Tick, budget int) int
}

// Observer runs control-plane logic at simulated one-second boundaries.
type Observer interface {
	// OnSecond is called once per simulated second with the boundary time.
	OnSecond(now Tick)
}

// FastForwarder is an actor that can advance its statistical state across a
// skipped interval without per-operation detail — the functional-warming
// half of sampled execution. FastForward(now, dt) must leave the actor in a
// state representative of having idled from now to now+dt under the
// freeze-and-shift model: queued work and cache-resident state stay frozen
// (the post-warm-up steady state is the drift model), queued timestamps
// shift by dt so latency measurements never absorb skipped time, and RNG
// streams advance by the number of draws the skipped work would have
// consumed (RNG.Skip), so a fast-forwarded run remains deterministic and a
// Fork taken afterwards is byte-identical to a fork of any other run that
// reached the same state. FastForward must not perform hierarchy accesses
// or charge performance counters: metric extrapolation is the monitor's
// job, keyed off Engine.SkippedTicks.
type FastForwarder interface {
	Actor
	FastForward(now Tick, dt Tick)
}

// Engine owns simulated time and the actor/observer sets.
type Engine struct {
	now       Tick
	actors    []Actor
	observers []Observer
	rng       *RNG
	carry     []float64     // fractional op budget carried between epochs, per actor
	active    []actorShares // per-epoch scratch for the batched dispatcher

	// ffSkipped counts the ticks of the current simulated second that were
	// fast-forwarded rather than executed in detail. Observers read it via
	// SkippedTicks during OnSecond to scale per-second deltas; it resets to
	// zero after each second's observers fire.
	ffSkipped Tick

	// Stop, when set by an observer or actor callback, ends Run early.
	stopped bool
}

// actorShares is one epoch's dispatch entry for an actor with a non-zero
// budget: its index plus the budget split across interleave slices
// (quotient and remainder), precomputed once per epoch instead of per slice.
type actorShares struct {
	idx  int32
	q, r int32
}

// NewEngine returns an engine with simulated time at zero.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Tick { return e.now }

// RNG returns the engine's root random source; components should Fork it.
func (e *Engine) RNG() *RNG { return e.rng }

// AddActor registers an actor. Actors are stepped in registration order
// within each interleave slice.
func (e *Engine) AddActor(a Actor) {
	e.actors = append(e.actors, a)
	e.carry = append(e.carry, 0)
}

// AddObserver registers a per-second observer.
func (e *Engine) AddObserver(o Observer) {
	e.observers = append(e.observers, o)
}

// Stop requests that Run return at the end of the current epoch. The stop is
// consumed by the Run in progress (or, if none is running, by the next one):
// RunEpochsBatched clears it on entry, so a stopped engine can be driven
// again.
func (e *Engine) Stop() { e.stopped = true }

// Actors returns the registered actors in registration order (a copy; the
// engine's own list is not exposed for mutation).
func (e *Engine) Actors() []Actor {
	return append([]Actor(nil), e.actors...)
}

// Observers returns the registered observers in registration order (a copy).
func (e *Engine) Observers() []Observer {
	return append([]Observer(nil), e.observers...)
}

// Fork returns an engine that continues this one's simulated time, RNG
// stream, and per-actor budget carries, but steps the given actor and
// observer sets instead. The caller supplies deep copies of the original
// actors in the same registration order, so the fork replays exactly the
// schedule the original would have run — this is the engine's half of the
// scenario snapshot/fork contract. Fork panics if the actor count differs
// from the original's, since the budget carries are matched by position.
func (e *Engine) Fork(actors []Actor, observers []Observer) *Engine {
	if len(actors) != len(e.actors) {
		panic(fmt.Sprintf("sim: Fork with %d actors, engine has %d", len(actors), len(e.actors)))
	}
	return &Engine{
		now:       e.now,
		actors:    append([]Actor(nil), actors...),
		observers: append([]Observer(nil), observers...),
		rng:       e.rng.Clone(),
		carry:     append([]float64(nil), e.carry...),
		ffSkipped: e.ffSkipped,
	}
}

// SkippedTicks returns how many ticks of the current simulated second were
// fast-forwarded rather than executed in detail. It is meaningful during an
// OnSecond callback (where TicksPerSecond - SkippedTicks() is the detailed
// portion of the just-ended second) and is zero whenever no fast-forwarding
// happened, so observers can branch to extrapolation only in sampled runs.
func (e *Engine) SkippedTicks() Tick { return e.ffSkipped }

// Run advances simulated time by the given number of simulated seconds.
// Fractional seconds convert to epochs by rounding half-up: Run(0.29) runs
// exactly 290 epochs even though 0.29*1000 is 289.999… in float64. Pinning
// the conversion matters for the telemetry plane — a run split as
// Run(a); Run(b) must cross the same whole-second boundaries as Run(a+b),
// or per-second series cadence would drift (truncation loses an epoch per
// call and accumulates).
func (e *Engine) Run(seconds float64) {
	epochs := int(math.Floor(seconds*EpochsPerSecond + 0.5))
	e.RunEpochsBatched(epochs)
}

// sliceOffsets are the slice start times within an epoch, hoisted out of the
// dispatch loop.
var sliceOffsets = func() [InterleaveSlices]Tick {
	var o [InterleaveSlices]Tick
	for s := range o {
		o[s] = Tick(s * TicksPerEpoch / InterleaveSlices)
	}
	return o
}()

// RunEpochsBatched advances simulated time by the given number of epochs
// with the dispatch bookkeeping amortized. A pending Stop from before the
// call is discarded: Stop ends the run it interrupts, it does not latch
// future runs into no-ops. The Step call sequence — which actors, in which
// order, at which slice times, with which budgets — is byte-identical to
// the straight-line reference loop kept beside its equivalence test
// (TestRunEpochsBatchedEquivalence); only the loop overhead differs:
//
//   - each actor's per-slice share split (quotient/remainder) is computed
//     once per epoch instead of div/mod per slice,
//   - zero-budget actors (a burst-shaped NIC outside its window, an idle
//     SSD) are filtered out before the slice loop instead of being
//     re-examined in all InterleaveSlices passes, and
//   - the second-boundary check is an epoch countdown instead of a modulo
//     of the tick clock.
func (e *Engine) RunEpochsBatched(epochs int) {
	e.stopped = false
	if cap(e.active) < len(e.actors) {
		e.active = make([]actorShares, len(e.actors))
	}
	toBoundary := EpochsPerSecond - int(e.now%TicksPerSecond)/TicksPerEpoch
	for ep := 0; ep < epochs && !e.stopped; ep++ {
		active := e.active[:0]
		for i, a := range e.actors {
			want := a.OpsPerSecond(e.now)/EpochsPerSecond + e.carry[i]
			b := int(want)
			e.carry[i] = want - float64(b)
			if b > 0 {
				active = append(active, actorShares{
					idx: int32(i),
					q:   int32(b / InterleaveSlices),
					r:   int32(b % InterleaveSlices),
				})
			}
		}
		for s := int32(0); s < InterleaveSlices; s++ {
			sliceTick := e.now + sliceOffsets[s]
			for _, as := range active {
				share := as.q
				if s < as.r {
					share++
				}
				if share > 0 {
					e.actors[as.idx].Step(sliceTick, int(share))
				}
			}
		}
		e.now += TicksPerEpoch
		toBoundary--
		if toBoundary == 0 {
			for _, o := range e.observers {
				o.OnSecond(e.now)
			}
			e.ffSkipped = 0
			toBoundary = EpochsPerSecond
		}
	}
}

// FastForward advances simulated time by the given number of epochs without
// detailed execution: every actor's FastForward hook runs once per chunk
// (chunks never straddle a second boundary), observers still fire at every
// second boundary, and SkippedTicks reports the skipped portion of the
// second to them. Actors that do not implement FastForwarder panic by name —
// the harness validates the actor set before scheduling any gap. A pending
// Stop is discarded on entry, exactly as in RunEpochsBatched.
func (e *Engine) FastForward(epochs int) {
	e.stopped = false
	for epochs > 0 && !e.stopped {
		chunk := EpochsPerSecond - int(e.now%TicksPerSecond)/TicksPerEpoch
		if chunk > epochs {
			chunk = epochs
		}
		dt := Tick(chunk) * TicksPerEpoch
		for _, a := range e.actors {
			ff, ok := a.(FastForwarder)
			if !ok {
				panic(fmt.Sprintf("sim: actor %s does not implement FastForwarder", a.Name()))
			}
			ff.FastForward(e.now, dt)
		}
		e.now += dt
		e.ffSkipped += dt
		epochs -= chunk
		if e.now%TicksPerSecond == 0 {
			for _, o := range e.observers {
				o.OnSecond(e.now)
			}
			e.ffSkipped = 0
		}
	}
}

// FuncObserver adapts a plain function to the Observer interface.
type FuncObserver func(now Tick)

// OnSecond implements Observer.
func (f FuncObserver) OnSecond(now Tick) { f(now) }

// Duration formats simulated time for human-readable traces.
func Duration(t Tick) string {
	return fmt.Sprint(time.Duration(t) * time.Microsecond)
}
