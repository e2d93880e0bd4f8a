package harness

import (
	"fmt"

	"a4sim/internal/core"
)

// This file implements the scenario snapshot/fork contract: a running
// scenario can be captured mid-flight and continued as any number of
// independent copies whose execution is byte-identical to the original's
// would-be continuation. There is one state contract, the snapshot codec
// (snapcodec.go): a snapshot is the encoded dynamic state plus the recipe
// that built the scenario, and a fork replays the recipe onto a fresh
// skeleton and decodes the state onto it. Memory, the durable store and
// the wire therefore all carry the same bytes, and a layer adds state in
// exactly one place, its EncodeState/DecodeState pair.
//
// The contract is what makes warm-state reuse sound: sweeps whose points
// share a scenario prefix (same construction, same warm-up) run the prefix
// once, snapshot it, fork per point, and diverge — see internal/figures'
// prefix runner and internal/service's snapshot cache.

// recipe is a scenario's construction: the Params NewScenario was given
// and each outermost construction call (Ensure*, Add*, Start,
// Monitor.EnableSeries) with copied arguments. Replaying it yields a
// skeleton structurally identical to the recorded scenario at the instant
// it started; everything that changes afterwards — CAT masks, DCA
// switches, an open measurement window — is dynamic state and travels in
// the encoded stream.
type recipe struct {
	params Params
	steps  []func(*Scenario)
}

// record appends one construction step to the scenario's recipe.
func (s *Scenario) record(step func(*Scenario)) {
	s.recipe.steps = append(s.recipe.steps, step)
}

// build replays the recipe onto a new scenario.
func (r recipe) build() *Scenario {
	s := NewScenario(r.params)
	for _, step := range r.steps {
		step(s)
	}
	return s
}

// Snapshot is an immutable capture of a scenario's full state: the encoded
// state and the recipe that rebuilds the scenario's skeleton. It is safe to
// fork from multiple goroutines concurrently; each Fork yields a fresh,
// independently runnable scenario, so one warmed prefix fans out to any
// number of divergent continuations.
type Snapshot struct {
	data   []byte
	recipe recipe
	window int // WindowEpochs, read off the captured state
}

// WindowEpochs is how far the captured measurement window has run: the
// state's engine time minus its window start, in epochs. A continuation
// that measures sim.Epochs(total) minus this many more epochs ends where
// an unsplit window of total seconds ends.
func (sn *Snapshot) WindowEpochs() int { return sn.window }

// Snapshot encodes the scenario's state at the current instant. The live
// scenario keeps running without affecting the snapshot.
//
// Scenarios carrying actors or observers the harness did not register
// (e.g. streaming sim.FuncObservers attached by a CLI) cannot be captured
// and panic with the offending type: the replayed skeleton would silently
// drop them.
func (s *Scenario) Snapshot() *Snapshot {
	s.mustOwnEngine()
	data, err := s.encode()
	if err != nil {
		panic(err)
	}
	// The recipe only grows, so sharing its steps with the live scenario
	// is safe: later appends never touch the snapshot's prefix.
	return &Snapshot{data: data, recipe: s.recipe, window: s.windowEpochs()}
}

// Fork returns an independent copy of the scenario at its current instant;
// it is Snapshot().Fork(). Fork only reads the receiver, so multiple
// goroutines may fork one scenario concurrently.
func (s *Scenario) Fork() *Scenario {
	return s.Snapshot().Fork()
}

// Fork materializes a runnable scenario from the captured state: the
// recipe rebuilds the skeleton and the encoded state is decoded onto it.
// Per-execution taps (Monitor row hooks, controller trace logs) are not
// part of the state; whoever forks attaches its own.
func (sn *Snapshot) Fork() *Scenario {
	f := sn.recipe.build()
	if err := f.decode(sn.data); err != nil {
		// The bytes were produced by Encode or validated by DecodeSnapshot
		// onto a skeleton from the same recipe.
		panic(fmt.Sprintf("harness: fork: %v", err))
	}
	return f
}

// mustOwnEngine panics unless every engine actor and observer is one the
// scenario registered itself. The harness registers every NIC, SSD and
// workload it builds and an engine never drops an actor, so a count that
// matches means no foreign actor.
func (s *Scenario) mustOwnEngine() {
	own := len(s.Workloads)
	if s.NIC != nil {
		own++
	}
	if s.SSD != nil {
		own++
	}
	if n := len(s.Engine.Actors()); n != own {
		panic(fmt.Sprintf("harness: cannot snapshot a scenario with %d engine actors, %d registered by the scenario", n, own))
	}
	for _, o := range s.Engine.Observers() {
		switch o := o.(type) {
		case *Monitor:
			if o == s.Monitor {
				continue
			}
		case *core.Controller:
			if o == s.Controller {
				continue
			}
		}
		panic(fmt.Sprintf("harness: cannot snapshot a scenario with foreign observer type %T", o))
	}
}
