package harness

import (
	"bytes"
	"fmt"
	"sort"

	"a4sim/internal/codec"
	"a4sim/internal/pcm"
	"a4sim/internal/sim"
	"a4sim/internal/stats"
	"a4sim/internal/workload"
)

// This file implements the snapshot codec, the one form in which scenario
// state is copied: Scenario.Snapshot serializes a scenario's dynamic state
// to bytes, and decoding restores it onto a freshly constructed scenario —
// one replayed from the recorded construction (Snapshot.Fork) or built
// from the same spec (DecodeSnapshot). The split is "structure from
// construction, state from blob": the byte stream carries only mutable
// state (RNG streams, cache arrays, ring/command queues, controller state
// machine, open telemetry window), while everything structural — geometry,
// workload set, column layout — is rebuilt by the receiver and validated
// against the stream's fingerprint. A decoded snapshot forks into
// continuations that are byte-identical to the original's (pinned by
// internal/scenario's round-trip tests), which is what lets the service
// spill warm state to disk and the cluster ship it between backends:
// anything restored can be re-derived by plain re-execution, so a failed
// decode degrades to a fresh run, never to wrong bytes.

// snapMagic and snapVersion identify the encoding. The version covers the
// entire layer order and every per-package wire shape; any change to either
// must bump it, and decoders reject versions they do not know — stale
// snapshots are then re-executed, never misparsed.
// Version history: v2 added the sampled-execution state (engine skipped-tick
// counter, Synthetic fast-forward rate trackers, the window's schedule
// anchor and detailed-second tally, and the sampling-spec fingerprint); v3
// writes the cache and directory arrays sparsely (valid slots only) and
// carries no count derived from the slots: occupancy counts are walks of
// the restored arrays.
const (
	snapMagic   = "A4SN"
	snapVersion = 3
)

// Workload kind tags in the encoded stream.
const (
	wlKindDPDK      = 1
	wlKindFIO       = 2
	wlKindSynthetic = 3
)

func wlKind(w workload.Workload) (uint8, error) {
	switch w.(type) {
	case *workload.DPDK:
		return wlKindDPDK, nil
	case *workload.FIO:
		return wlKindFIO, nil
	case *workload.Synthetic:
		return wlKindSynthetic, nil
	default:
		return 0, fmt.Errorf("harness: cannot encode workload type %T", w)
	}
}

// Encode returns the captured state's encoding. The result decodes only
// onto a scenario built from the same spec (same workloads, geometry,
// manager, and series options); DecodeSnapshot validates that
// structurally. The bytes are the snapshot's own: callers must not modify
// them.
func (sn *Snapshot) Encode() ([]byte, error) { return sn.data, nil }

// encoders recycles encode buffers. Each encoding is copied out at its
// exact length, so a snapshot holds no spare capacity and the buffer's
// growth is paid once per process rather than once per snapshot. It is a
// free list, not a sync.Pool, because a pool may drop a buffer at any GC
// and each drop costs a snapshot-sized regrowth. Four buffers cover the
// concurrent snapshots of a sweep or serving worker pool on a few cores;
// a snapshot taken while all four are out encodes into a new buffer.
var encoders = make(chan *codec.Writer, 4)

// encode serializes the scenario's dynamic state.
func (s *Scenario) encode() ([]byte, error) {
	var w *codec.Writer
	select {
	case w = <-encoders:
	default:
		w = &codec.Writer{}
	}
	defer func() {
		w.Reset()
		select {
		case encoders <- w:
		default:
		}
	}()
	if err := s.encodeTo(w); err != nil {
		return nil, err
	}
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	return out, nil
}

// encodeTo appends the encoding of s to w.
func (s *Scenario) encodeTo(w *codec.Writer) error {
	w.Raw([]byte(snapMagic))
	w.U32(snapVersion)

	// Structural fingerprint, checked before any state is touched.
	w.Int(len(s.Engine.Actors()))
	w.Int(len(s.Workloads))
	w.Bool(s.NIC != nil)
	w.Bool(s.SSD != nil)
	w.Int(s.Fabric.NumWorkloads())
	w.Bool(s.Controller != nil)
	// The sampling schedule is structural (it changes which state the blob
	// carries meaning): fingerprint it so a sampled snapshot never restores
	// onto a detailed scenario or vice versa.
	w.I64(s.P.Sample.DetailUs)
	w.I64(s.P.Sample.PeriodUs)

	s.Engine.EncodeState(w)
	w.I64(int64(s.measureStart))
	w.U64(s.rng.State())
	s.Fabric.EncodeState(w)
	s.H.EncodeState(w)
	s.Alloc.EncodeState(w)
	if s.NIC != nil {
		s.NIC.EncodeState(w)
	}
	if s.SSD != nil {
		s.SSD.EncodeState(w)
	}
	for _, wl := range s.Workloads {
		kind, err := wlKind(wl)
		if err != nil {
			return err
		}
		w.U8(kind)
		switch wl := wl.(type) {
		case *workload.DPDK:
			wl.EncodeState(w)
		case *workload.FIO:
			wl.EncodeState(w)
		case *workload.Synthetic:
			wl.EncodeState(w)
		}
	}
	s.Monitor.encodeState(w)
	if s.Controller != nil {
		s.Controller.EncodeState(w)
	}
	return nil
}

// DecodeSnapshot restores encoded state onto fresh, a just-started
// scenario built from the same spec the snapshot was taken from (the
// caller obtains it by re-running the spec's construction — cheap, no
// simulation), validating it in full. On success the returned snapshot
// holds fresh's recipe and a copy of data, so it never aliases the
// caller's buffer. The encoding is canonical (a decoder accepts only bytes
// that re-encode to themselves), so those are the encoder's own bytes for
// the restored state without encoding it again. fresh is consumed either
// way: on error it is in an undefined state.
func DecodeSnapshot(data []byte, fresh *Scenario) (*Snapshot, error) {
	if !fresh.started {
		return nil, fmt.Errorf("harness: DecodeSnapshot needs a started scenario")
	}
	if err := fresh.decode(data); err != nil {
		return nil, err
	}
	fresh.mustOwnEngine()
	return &Snapshot{data: bytes.Clone(data), recipe: fresh.recipe, window: fresh.windowEpochs()}, nil
}

// decode restores encoded state onto s, a skeleton built by the recipe of
// the scenario the state was taken from, validating structure first.
func (s *Scenario) decode(data []byte) error {
	r := codec.NewReader(data)
	if string(r.Raw(len(snapMagic))) != snapMagic {
		return fmt.Errorf("harness: not a snapshot (bad magic)")
	}
	if v := r.U32(); v != snapVersion {
		return fmt.Errorf("harness: snapshot version %d, want %d", v, snapVersion)
	}

	nActors := r.Int()
	nWorkloads := r.Int()
	hasNIC := r.Bool()
	hasSSD := r.Bool()
	nFabric := r.Int()
	hasController := r.Bool()
	sampleDetail := r.I64()
	samplePeriod := r.I64()
	if err := r.Err(); err != nil {
		return err
	}
	switch {
	case nActors != len(s.Engine.Actors()):
		return fmt.Errorf("harness: snapshot has %d actors, scenario has %d", nActors, len(s.Engine.Actors()))
	case nWorkloads != len(s.Workloads):
		return fmt.Errorf("harness: snapshot has %d workloads, scenario has %d", nWorkloads, len(s.Workloads))
	case hasNIC != (s.NIC != nil):
		return fmt.Errorf("harness: snapshot and scenario disagree on NIC presence")
	case hasSSD != (s.SSD != nil):
		return fmt.Errorf("harness: snapshot and scenario disagree on SSD presence")
	case nFabric != s.Fabric.NumWorkloads():
		return fmt.Errorf("harness: snapshot has %d fabric workloads, scenario has %d", nFabric, s.Fabric.NumWorkloads())
	case hasController != (s.Controller != nil):
		return fmt.Errorf("harness: snapshot and scenario disagree on controller presence")
	case sampleDetail != s.P.Sample.DetailUs || samplePeriod != s.P.Sample.PeriodUs:
		return fmt.Errorf("harness: snapshot sampling schedule %d/%d differs from scenario's %d/%d",
			sampleDetail, samplePeriod, s.P.Sample.DetailUs, s.P.Sample.PeriodUs)
	}

	s.Engine.DecodeState(r)
	s.measureStart = sim.Tick(r.I64())
	s.rng.SetState(r.U64())
	s.Fabric.DecodeState(r)
	s.H.DecodeState(r)
	s.Alloc.DecodeState(r)
	if s.NIC != nil {
		s.NIC.DecodeState(r)
	}
	if s.SSD != nil {
		s.SSD.DecodeState(r)
	}
	for i, wl := range s.Workloads {
		want, err := wlKind(wl)
		if err != nil {
			return err
		}
		if got := r.U8(); r.Err() == nil && got != want {
			return fmt.Errorf("harness: snapshot workload %d has kind %d, scenario has %d", i, got, want)
		}
		switch wl := wl.(type) {
		case *workload.DPDK:
			wl.DecodeState(r)
		case *workload.FIO:
			wl.DecodeState(r)
		case *workload.Synthetic:
			wl.DecodeState(r)
		}
	}
	s.Monitor.decodeState(r)
	if s.Controller != nil {
		s.Controller.DecodeState(r)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("harness: decode snapshot: %w", err)
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("harness: snapshot has %d trailing bytes", n)
	}
	return nil
}

// encodeState appends the sampler's dynamic state: the last sample set,
// memory-bandwidth baselines, window progress, the progress marks, and an
// open measurement window's series and delta baselines. The series options
// are structural (the scenario layer derives them from the spec) but are
// encoded for validation.
func (m *Monitor) encodeState(w *codec.Writer) {
	w.Int(len(m.last))
	for i := range m.last {
		m.last[i].EncodeState(w)
	}
	w.F64(m.lastMemRd)
	w.F64(m.lastMemWr)
	w.Bool(m.collecting)
	w.Int(m.secs)
	w.F64(m.detailSecs)
	w.Bool(m.opts.Devices)
	w.Bool(m.opts.Occupancy)
	w.Bool(m.opts.Controller)
	w.Bool(m.opts.Export)

	w.Bool(m.progressMark != nil)
	if m.progressMark != nil {
		ids := make([]pcm.WorkloadID, 0, len(m.progressMark))
		for id := range m.progressMark {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		w.Int(len(ids))
		for _, id := range ids {
			w.I64(int64(id))
			w.I64(m.progressMark[id])
		}
	}

	w.Bool(m.win != nil)
	if m.win != nil {
		m.win.series.EncodeState(w)
		w.I64s(m.win.lastProg)
		w.I64(m.win.lastNICDrops)
	}
}

// decodeState restores state written by encodeState. The window's column
// layout is rebuilt with newWindow (a pure function of the scenario and the
// options) and validated against the encoded series' column names, so a
// snapshot from a structurally different scenario fails the read instead
// of misaligning columns.
func (m *Monitor) decodeState(r *codec.Reader) {
	nLast := r.Int()
	if r.Err() != nil {
		return
	}
	if nLast < 0 || nLast > r.Remaining() {
		r.Failf("harness: snapshot claims %d samples", nLast)
		return
	}
	last := make([]pcm.Sample, nLast)
	for i := range last {
		last[i].DecodeState(r)
	}
	lastMemRd := r.F64()
	lastMemWr := r.F64()
	collecting := r.Bool()
	secs := r.Int()
	detailSecs := r.F64()
	opts := SeriesOpts{
		Devices:    r.Bool(),
		Occupancy:  r.Bool(),
		Controller: r.Bool(),
		Export:     r.Bool(),
	}
	if r.Err() != nil {
		return
	}
	if opts != m.opts {
		r.Failf("harness: snapshot series options %+v differ from scenario's %+v", opts, m.opts)
		return
	}

	var progressMark map[pcm.WorkloadID]int64
	if r.Bool() {
		n := r.Int()
		if r.Err() != nil {
			return
		}
		if n < 0 || n*16 > r.Remaining() {
			r.Failf("harness: snapshot claims %d progress marks", n)
			return
		}
		progressMark = make(map[pcm.WorkloadID]int64, n)
		for i := 0; i < n; i++ {
			id := pcm.WorkloadID(r.I64())
			progressMark[id] = r.I64()
		}
	}

	var win *window
	if r.Bool() {
		series := stats.DecodeSeriesState(r)
		lastProg := r.I64s()
		lastNICDrops := r.I64()
		if r.Err() != nil {
			return
		}
		win = m.newWindow()
		want := win.series.Names()
		got := series.Names()
		if len(got) != len(want) {
			r.Failf("harness: snapshot window has %d columns, scenario lays out %d", len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				r.Failf("harness: snapshot window column %d is %q, scenario lays out %q", i, got[i], want[i])
				return
			}
		}
		if len(lastProg) != len(win.lastProg) {
			r.Failf("harness: snapshot window has %d progress baselines, scenario has %d", len(lastProg), len(win.lastProg))
			return
		}
		win.series = series
		copy(win.lastProg, lastProg)
		win.lastNICDrops = lastNICDrops
		if n := series.Len(); n > 0 {
			// Re-prime the row scratch from the last recorded row: the
			// sampled path replicates it across fully skipped seconds.
			series.Row(n-1, win.row[:0])
		}
	}
	if r.Err() != nil {
		return
	}

	m.last = last
	m.lastMemRd = lastMemRd
	m.lastMemWr = lastMemWr
	m.collecting = collecting
	m.secs = secs
	m.detailSecs = detailSecs
	m.progressMark = progressMark
	m.win = win
}
