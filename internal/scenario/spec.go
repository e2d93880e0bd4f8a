// Package scenario turns experiments into data. A Spec is a declarative,
// JSON-serializable description of one co-location scenario — global
// parameters, LLC manager, workload list, and run windows — that replaces
// the hand-built harness wiring previously repeated across cmd/ and
// examples/. Specs validate against a workload-constructor registry,
// normalize to a canonical encoding, and hash to a stable content address;
// because the simulation is deterministic, the hash fully identifies the
// report, which is what makes the result cache in internal/service sound.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"a4sim/internal/cat"
	"a4sim/internal/core"
	"a4sim/internal/harness"
)

// Spec declares one scenario. The zero value of every optional field means
// "use the default"; Normalize makes the defaults explicit so that two
// specs differing only in spelled-out defaults share one canonical form.
type Spec struct {
	// Name labels the scenario in reports; it does not affect execution
	// identity but is part of the canonical form.
	Name string `json:"name,omitempty"`
	// Manager is the LLC management scheme: default, isolate, a4-a, a4-b,
	// a4-c, a4-d (alias a4).
	Manager string `json:"manager"`
	// Params overrides global knobs; zero fields take harness defaults.
	Params ParamSpec `json:"params"`
	// Workloads lists the co-located jobs in placement order.
	Workloads []WorkloadSpec `json:"workloads"`
	// WarmupSec and MeasureSec are the run windows in simulated seconds.
	WarmupSec  float64 `json:"warmup_sec"`
	MeasureSec float64 `json:"measure_sec"`
	// Series, when present, attaches per-second telemetry series to the
	// report (the time-resolved plane). Absent means aggregates only and
	// leaves the canonical encoding — and therefore the content and prefix
	// hashes — exactly what they were before the field existed, so every
	// cached report stays addressable.
	Series *SeriesSpec `json:"series,omitempty"`
	// Sampling, when present, runs the measurement window in sampled mode:
	// of every period_us of measured time the first detail_us execute in
	// full detail and the remainder fast-forwards, with per-second metrics
	// extrapolated from the detailed windows (warm-up is always detailed).
	// Absent means fully detailed execution and leaves the canonical
	// encoding — and therefore the content and prefix hashes — exactly what
	// they were before the field existed, so every cached report and golden
	// stays addressable. When present it is part of the prefix hash: sampled
	// and detailed runs produce different warm state, so they must not share
	// snapshot lineages.
	Sampling *SamplingSpec `json:"sampling,omitempty"`
	// A4, when present, overrides the A4 controller's Table 1 thresholds
	// and timing (the Fig. 15 sensitivity study). It is valid only under
	// the a4-* managers; absent leaves the canonical encoding unchanged.
	A4 *A4Spec `json:"a4,omitempty"`
}

// A4Spec is the JSON view of the A4 controller knobs Fig. 15 sweeps
// (core.Thresholds, core.Timing). Zero fields take the Table 1 values;
// Normalize spells them out so equivalent blocks share one hash.
type A4Spec struct {
	// T1..T5 are the thresholds of Table 1: HPW LLC-hit drop, DCA miss
	// (leak), storage share of PCIe writes, storage LLC miss, and the
	// antagonist MLC/LLC miss rate. A value above 1 switches a detector off.
	T1 float64 `json:"t1,omitempty"`
	T2 float64 `json:"t2,omitempty"`
	T3 float64 `json:"t3,omitempty"`
	T4 float64 `json:"t4,omitempty"`
	T5 float64 `json:"t5,omitempty"`
	// StableSec is the stable interval before a revert probe, in seconds.
	StableSec int `json:"stable_sec,omitempty"`
	// Oracle disables revert probes entirely.
	Oracle bool `json:"oracle,omitempty"`
}

// SamplingSpec is the JSON view of the harness sampling schedule
// (harness.SampleSpec). Zero fields take the default schedule.
type SamplingSpec struct {
	// DetailUs is the detailed interval per period in simulated µs: a
	// positive multiple of 1000 (the epoch length). Default 200000 (200 ms).
	DetailUs int64 `json:"detail_us,omitempty"`
	// PeriodUs is the schedule period in simulated µs: a multiple of
	// 1000000 (one second), at least DetailUs. Default 1000000 (1 s).
	PeriodUs int64 `json:"period_us,omitempty"`
}

// Default sampling schedule: 200 ms of detail per second, a 5× ideal
// speedup, enough to cover two NIC burst periods per detailed window.
const (
	DefaultSampleDetailUs = 200_000
	DefaultSamplePeriodUs = 1_000_000
)

// SeriesSpec selects the telemetry column groups recorded at 1 Hz during
// the measurement window and exported with the report.
type SeriesSpec struct {
	// Metrics lists the column groups: "core" (per-workload rates, IPC,
	// I/O, progress, memory and port bandwidth), "devices" (NIC drops and
	// ring depth, SSD queue depth), "occupancy" (per-workload LLC lines),
	// "controller" (A4 state, feature mask, LP zone). Empty means all.
	Metrics []string `json:"metrics,omitempty"`
}

// SeriesGroups are the valid SeriesSpec metric groups, sorted.
var SeriesGroups = []string{"controller", "core", "devices", "occupancy"}

// ParamSpec is the JSON view of the harness.Params knobs a spec may set.
// Fields left zero take the harness defaults (Table 1 testbed).
type ParamSpec struct {
	RateScale   float64 `json:"rate_scale,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	NICGbps     float64 `json:"nic_gbps,omitempty"`
	PacketBytes int     `json:"packet_bytes,omitempty"`
	RingEntries int     `json:"ring_entries,omitempty"`
	SSDGBps     float64 `json:"ssd_gbps,omitempty"`
	// DCA turns Data Direct I/O off: "off" globally, "ssd-off" only on the
	// SSD's port (the hidden perfctrlsts_0 knob of §4.2). Absent leaves it
	// on everywhere. Valid only under the default manager.
	DCA string `json:"dca,omitempty"`

	// Ablation knobs (DESIGN.md §4). The percentages are present-means-set
	// because 0 is a real value: MigrationStickPct is the share of
	// consumed DMA lines that migrate instead of bloating, LLCVictimRandPct
	// the share of LLC victims picked at random (imperfect LRU).
	MigrationStickPct *int `json:"migration_stick_pct,omitempty"`
	LLCVictimRandPct  *int `json:"llc_victim_rand_pct,omitempty"`
	// SSDParallelism is the array's internal concurrency window (≥ 1).
	SSDParallelism *int `json:"ssd_parallelism,omitempty"`
	// SmoothNIC replaces the bursty packet arrivals with smooth ones.
	SmoothNIC bool `json:"smooth_nic,omitempty"`
}

// DCA settings of ParamSpec.DCA.
const (
	DCAOff    = "off"
	DCASSDOff = "ssd-off"
)

// WorkloadSpec declares one workload. Kind selects the constructor from the
// registry; the remaining fields are kind-specific knobs (see the registry
// table in registry.go for which apply).
type WorkloadSpec struct {
	Kind     string `json:"kind"`
	Name     string `json:"name,omitempty"`
	Cores    []int  `json:"cores,omitempty"`
	Priority string `json:"priority,omitempty"` // hpw | lpw (default lpw)
	// Ways, when set, is the [lo, hi] LLC way range the workload's cores
	// are confined to by CAT, as intel-cmt-cat programs it. Valid only
	// under the default manager; absent leaves the whole LLC.
	Ways []int `json:"ways,omitempty"`

	// dpdk: process packet payloads (DPDK-T vs DPDK-NT).
	Touch bool `json:"touch,omitempty"`
	// fio: block size and queue depth.
	BlockKB    int `json:"block_kb,omitempty"`
	QueueDepth int `json:"queue_depth,omitempty"`
	// ffsb: heavy (FFSB-H) vs light (FFSB-L) profile.
	Heavy bool `json:"heavy,omitempty"`
	// xmem / synthetic: working set and access shape.
	WSKB    int64   `json:"ws_kb,omitempty"`
	Pattern string  `json:"pattern,omitempty"` // sequential | random | zipf
	Write   bool    `json:"write,omitempty"`
	Skew    float64 `json:"skew,omitempty"`
	// synthetic: compute intensity.
	WriteFrac  float64 `json:"write_frac,omitempty"`
	InstrPerOp int     `json:"instr_per_op,omitempty"`
	CPIBase    float64 `json:"cpi_base,omitempty"`
	Overlap    int     `json:"overlap,omitempty"`
	// spec: SPEC CPU2017 benchmark name.
	Bench string `json:"bench,omitempty"`
	// redis: QoS class of the client half (defaults to Priority).
	ClientPriority string `json:"client_priority,omitempty"`
}

// Default run windows for specs that leave them zero.
const (
	DefaultWarmupSec  = 2
	DefaultMeasureSec = 3
)

// Execution-cost bounds, enforced by CheckBudget. Wall-clock cost scales
// with simulated seconds and inversely with the rate scale, so the budget
// caps their product: a spec may simulate up to MaxWorkUnits seconds at
// the default scale (256), proportionally less at smaller scales. Far
// beyond any legitimate served experiment, but one hostile spec cannot
// occupy a service worker near-indefinitely.
const (
	MaxWindowSec = 3600
	MinRateScale = 1
	MaxWorkUnits = 3600
)

// CheckBudget rejects specs whose execution cost exceeds the serving
// bounds. It is a serving policy, distinct from Validate: the service
// applies it to untrusted submissions, while local CLI runs (a4d, the
// examples) may simulate as long as they like.
func (sp *Spec) CheckBudget() error {
	if sp.WarmupSec > MaxWindowSec || sp.MeasureSec > MaxWindowSec {
		return fmt.Errorf("scenario: run window exceeds %d simulated seconds (warmup %g, measure %g)",
			MaxWindowSec, sp.WarmupSec, sp.MeasureSec)
	}
	if sp.Params.RateScale > 0 && sp.Params.RateScale < MinRateScale {
		return fmt.Errorf("scenario: rate_scale %g below %d (smaller scales multiply simulation cost)",
			sp.Params.RateScale, MinRateScale)
	}
	if w := sp.workUnits(); w > MaxWorkUnits {
		return fmt.Errorf("scenario: windows × rate-scale budget %.0f exceeds %d work units (shrink the windows or raise rate_scale)",
			w, MaxWorkUnits)
	}
	return nil
}

// workUnits is the spec's execution budget usage: simulated seconds
// normalized to the default rate scale.
func (sp *Spec) workUnits() float64 {
	warm, meas := sp.WarmupSec, sp.MeasureSec
	if warm == 0 {
		warm = DefaultWarmupSec
	}
	if meas == 0 {
		meas = DefaultMeasureSec
	}
	scale := sp.Params.RateScale
	if scale <= 0 {
		scale = harness.DefaultParams().RateScale
	}
	return (warm + meas) * harness.DefaultParams().RateScale / scale
}

// StrictDecode unmarshals one JSON value strictly: unknown fields and
// trailing data are errors, so typos fail loudly instead of silently
// taking defaults. Shared by Parse and the a4serve request handlers.
func StrictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// Parse decodes a spec from JSON via StrictDecode.
func Parse(data []byte) (*Spec, error) {
	var sp Spec
	if err := StrictDecode(data, &sp); err != nil {
		return nil, fmt.Errorf("scenario: decode spec: %w", err)
	}
	return &sp, nil
}

// Normalize makes every defaulted field explicit in place: manager aliases
// and priority case are folded, per-kind knob defaults are filled in, and
// fixed-name kinds get their effective names. It returns an error for specs
// that fail Validate, so a normalized spec is always buildable.
func (sp *Spec) Normalize() error {
	if err := sp.Validate(); err != nil {
		return err
	}
	mgr, _ := ManagerByName(sp.Manager)
	sp.Manager = mgr.Name() // fold aliases: "a4" -> "a4-d"
	if sp.WarmupSec == 0 {
		sp.WarmupSec = DefaultWarmupSec
	}
	if sp.MeasureSec == 0 {
		sp.MeasureSec = DefaultMeasureSec
	}
	for i := range sp.Workloads {
		w := &sp.Workloads[i]
		w.Priority = strings.ToLower(w.Priority)
		w.ClientPriority = strings.ToLower(w.ClientPriority)
		k := kinds[w.Kind]
		k.normalize(w)
		if w.Priority == "" {
			w.Priority = "lpw"
		}
	}
	if sp.Sampling != nil {
		// Spell out the default schedule so equivalent blocks share a hash.
		eff := sp.sampleSpec()
		sp.Sampling.DetailUs = eff.DetailUs
		sp.Sampling.PeriodUs = eff.PeriodUs
	}
	if sp.A4 != nil {
		// Spell out the Table 1 defaults so equivalent blocks share a hash.
		cfg := core.DefaultConfig()
		sp.A4.apply(&cfg)
		th, tm := cfg.Thresholds, cfg.Timing
		*sp.A4 = A4Spec{
			T1: th.HPWLLCHitThr, T2: th.DMALkDCAMsThr, T3: th.DMALkIOTpThr,
			T4: th.DMALkLLCMsThr, T5: th.AntCacheMissThr,
			StableSec: tm.StableInterval, Oracle: tm.Oracle,
		}
	}
	if sp.Series != nil {
		// Fold case, duplicates, and the empty all-groups shorthand to one
		// canonical sorted list, so equivalent selections share one hash.
		set := map[string]bool{}
		for _, m := range sp.Series.Metrics {
			set[strings.ToLower(m)] = true
		}
		if len(set) == 0 {
			for _, g := range SeriesGroups {
				set[g] = true
			}
		}
		sp.Series.Metrics = sp.Series.Metrics[:0]
		for _, g := range SeriesGroups {
			if set[g] {
				sp.Series.Metrics = append(sp.Series.Metrics, g)
			}
		}
	}
	return nil
}

// Canonical returns the canonical encoding: the normalized spec marshalled
// with the fixed field order of the Go struct. Two specs that describe the
// same scenario — regardless of JSON field order or spelled-out defaults —
// produce identical bytes.
func (sp *Spec) Canonical() ([]byte, error) {
	c := sp.Clone()
	if err := c.Normalize(); err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// Hash returns the spec's content address: the hex sha256 of the canonical
// encoding. Identical hashes mean identical scenarios, and — because the
// simulation is deterministic — byte-identical reports.
func (sp *Spec) Hash() (string, error) {
	c, err := sp.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// PrefixHash returns the content address of the spec's run prefix: the
// canonical spec with the measurement window zeroed. Two specs share a
// prefix hash exactly when their simulations are identical up to (and
// through) any point of the measurement window — same construction, same
// manager, same warm-up — differing only in how long the window runs. That
// is the key the service's snapshot cache uses to continue longer runs from
// shorter ones instead of restarting (see internal/service).
func (sp *Spec) PrefixHash() (string, error) {
	c := sp.Clone()
	if err := c.Normalize(); err != nil {
		return "", err
	}
	c.MeasureSec = 0
	data, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Digest computes the spec's canonical encoding, content hash, and prefix
// hash in one normalization pass. Submit-and-hash paths that need all three
// — the cluster coordinator routes by prefix hash, indexes results by
// content hash, and forwards the canonical bytes — would otherwise clone
// and normalize the spec three times over.
func (sp *Spec) Digest() (canonical []byte, hash, prefixHash string, err error) {
	c := sp.Clone()
	if err := c.Normalize(); err != nil {
		return nil, "", "", err
	}
	canonical, err = json.Marshal(c)
	if err != nil {
		return nil, "", "", err
	}
	sum := sha256.Sum256(canonical)
	hash = hex.EncodeToString(sum[:])
	c.MeasureSec = 0
	prefix, err := json.Marshal(c)
	if err != nil {
		return nil, "", "", err
	}
	psum := sha256.Sum256(prefix)
	return canonical, hash, hex.EncodeToString(psum[:]), nil
}

// Clone deep-copies the spec, so callers can derive grid points or
// normalize for hashing without mutating the original.
func (sp *Spec) Clone() *Spec {
	c := *sp
	c.Workloads = make([]WorkloadSpec, len(sp.Workloads))
	for i, w := range sp.Workloads {
		c.Workloads[i] = w
		c.Workloads[i].Cores = append([]int(nil), w.Cores...)
		if w.Ways != nil {
			c.Workloads[i].Ways = append([]int(nil), w.Ways...)
		}
	}
	for _, p := range []**int{&c.Params.MigrationStickPct, &c.Params.LLCVictimRandPct, &c.Params.SSDParallelism} {
		if *p != nil {
			v := **p
			*p = &v
		}
	}
	if sp.A4 != nil {
		a := *sp.A4
		c.A4 = &a
	}
	if sp.Series != nil {
		c.Series = &SeriesSpec{Metrics: append([]string(nil), sp.Series.Metrics...)}
	}
	if sp.Sampling != nil {
		sc := *sp.Sampling
		c.Sampling = &sc
	}
	return &c
}

// Validate checks the spec against the registry and the testbed geometry.
// Errors name the offending workload and knob.
func (sp *Spec) Validate() error {
	mgr, ok := ManagerByName(sp.Manager)
	if !ok {
		return fmt.Errorf("scenario: unknown manager %q (have %v)", sp.Manager, ManagerNames())
	}
	if len(sp.Workloads) == 0 {
		return fmt.Errorf("scenario: spec %q has no workloads", sp.Name)
	}
	if sp.WarmupSec < 0 || sp.MeasureSec < 0 {
		return fmt.Errorf("scenario: negative run window (warmup %g, measure %g)", sp.WarmupSec, sp.MeasureSec)
	}
	// Params use zero-means-default; a negative value would also run the
	// default but still be baked into the content hash, so the cache would
	// hold a report whose address claims a parameterization that never ran.
	if sp.Params.RateScale < 0 || sp.Params.NICGbps < 0 || sp.Params.SSDGBps < 0 ||
		sp.Params.PacketBytes < 0 || sp.Params.RingEntries < 0 {
		p := sp.Params
		return fmt.Errorf("scenario: negative param (params are zero-means-default; omit instead): rate_scale %g, nic_gbps %g, ssd_gbps %g, packet_bytes %d, ring_entries %d",
			p.RateScale, p.NICGbps, p.SSDGBps, p.PacketBytes, p.RingEntries)
	}
	if err := sp.validateKnobs(mgr); err != nil {
		return err
	}
	if sp.Series != nil {
		for _, m := range sp.Series.Metrics {
			if !validSeriesGroup(strings.ToLower(m)) {
				return fmt.Errorf("scenario: unknown series metric group %q (have %v)", m, SeriesGroups)
			}
		}
	}
	if sp.Sampling != nil {
		if err := sp.sampleSpec().Validate(); err != nil {
			return err
		}
		// Whole-second windows keep the schedule's periods (whole seconds by
		// construction) tiling the measurement window exactly.
		if sp.WarmupSec != math.Trunc(sp.WarmupSec) || sp.MeasureSec != math.Trunc(sp.MeasureSec) {
			return fmt.Errorf("scenario: sampling needs whole-second windows (warmup %g, measure %g)",
				sp.WarmupSec, sp.MeasureSec)
		}
	}
	numCores := harness.DefaultParams().Hierarchy.NumCores
	owner := map[int]string{}
	names := map[string]string{}
	for i := range sp.Workloads {
		w := &sp.Workloads[i]
		k, ok := kinds[w.Kind]
		if !ok {
			return fmt.Errorf("scenario: workload %d: unknown kind %q (have %v)", i, w.Kind, KindNames())
		}
		label := fmt.Sprintf("workload %d (%s)", i, w.Kind)
		switch w.Priority {
		case "", "hpw", "lpw", "HPW", "LPW":
		default:
			return fmt.Errorf("scenario: %s: bad priority %q (want hpw or lpw)", label, w.Priority)
		}
		if len(w.Cores) == 0 {
			return fmt.Errorf("scenario: %s: no cores", label)
		}
		if k.cores > 0 && len(w.Cores) != k.cores {
			return fmt.Errorf("scenario: %s: needs exactly %d core(s), got %d", label, k.cores, len(w.Cores))
		}
		for _, c := range w.Cores {
			if c < 0 || c >= numCores {
				return fmt.Errorf("scenario: %s: core %d outside [0,%d)", label, c, numCores)
			}
			if prev, taken := owner[c]; taken {
				return fmt.Errorf("scenario: %s: core %d already used by %s", label, c, prev)
			}
			owner[c] = label
		}
		if err := checkWays(i, w.Ways, mgr); err != nil {
			return fmt.Errorf("scenario: %s: %w", label, err)
		}
		if err := checkKnobs(w, k.knobs); err != nil {
			return fmt.Errorf("scenario: %s: %w", label, err)
		}
		if err := k.validate(w); err != nil {
			return fmt.Errorf("scenario: %s: %w", label, err)
		}
		// Duplicate detection runs on the effective names, which for
		// fixed-name kinds (fastclick, spec, redis) only normalize knows.
		eff := *w
		k.normalize(&eff)
		for _, n := range k.names(&eff) {
			if prev, dup := names[n]; dup {
				return fmt.Errorf("scenario: %s: workload name %q already used by %s", label, n, prev)
			}
			names[n] = label
		}
	}
	return nil
}

// validateKnobs checks the DCA, ablation and A4 knobs against their ranges
// and the manager they need.
func (sp *Spec) validateKnobs(mgr harness.ManagerSpec) error {
	switch sp.Params.DCA {
	case "":
	case DCAOff, DCASSDOff:
		if mgr.Kind != harness.ManagerDefault {
			return fmt.Errorf("scenario: params.dca needs the default manager (the %s manager programs DCA itself)", mgr.Name())
		}
	default:
		return fmt.Errorf("scenario: unknown params.dca %q (want %q or %q)", sp.Params.DCA, DCAOff, DCASSDOff)
	}
	for _, pct := range []struct {
		name string
		v    *int
	}{{"migration_stick_pct", sp.Params.MigrationStickPct}, {"llc_victim_rand_pct", sp.Params.LLCVictimRandPct}} {
		if pct.v != nil && (*pct.v < 0 || *pct.v > 100) {
			return fmt.Errorf("scenario: params.%s %d outside [0,100]", pct.name, *pct.v)
		}
	}
	if p := sp.Params.SSDParallelism; p != nil && *p < 1 {
		return fmt.Errorf("scenario: params.ssd_parallelism %d must be at least 1", *p)
	}
	if a := sp.A4; a != nil {
		if mgr.Kind != harness.ManagerA4 {
			return fmt.Errorf("scenario: an a4 block needs an a4-* manager, not %s", mgr.Name())
		}
		for _, t := range []float64{a.T1, a.T2, a.T3, a.T4, a.T5} {
			if !(t >= 0) {
				return fmt.Errorf("scenario: a4 thresholds must be non-negative: %+v", *a)
			}
		}
		if a.StableSec < 0 {
			return fmt.Errorf("scenario: a4 stable_sec %d is negative", a.StableSec)
		}
	}
	return nil
}

// checkWays validates workload i's CAT way range.
func checkWays(i int, ways []int, mgr harness.ManagerSpec) error {
	if ways == nil {
		return nil
	}
	if mgr.Kind != harness.ManagerDefault {
		return fmt.Errorf("ways need the default manager (the %s manager programs CAT itself)", mgr.Name())
	}
	n := harness.DefaultParams().Hierarchy.LLC.Ways
	if len(ways) != 2 || ways[0] < 0 || ways[0] > ways[1] || ways[1] >= n {
		return fmt.Errorf("ways %v is not a [lo, hi] range within the %d-way LLC", ways, n)
	}
	if i+1 >= cat.MaxCLOS {
		return fmt.Errorf("ways on workload %d need CLOS %d, beyond the %d classes of service", i, i+1, cat.MaxCLOS)
	}
	return nil
}

// apply overrides cfg with the block's non-zero knobs.
func (a *A4Spec) apply(cfg *core.Config) {
	th := &cfg.Thresholds
	for _, k := range []struct {
		dst *float64
		v   float64
	}{{&th.HPWLLCHitThr, a.T1}, {&th.DMALkDCAMsThr, a.T2}, {&th.DMALkIOTpThr, a.T3}, {&th.DMALkLLCMsThr, a.T4}, {&th.AntCacheMissThr, a.T5}} {
		if k.v != 0 {
			*k.dst = k.v
		}
	}
	if a.StableSec != 0 {
		cfg.Timing.StableInterval = a.StableSec
	}
	if a.Oracle {
		cfg.Timing.Oracle = true
	}
}

// Params resolves the harness parameters for the spec.
func (sp *Spec) harnessParams() harness.Params {
	p := harness.DefaultParams()
	if sp.Params.RateScale > 0 {
		p.RateScale = sp.Params.RateScale
	}
	if sp.Params.Seed != 0 {
		p.Seed = sp.Params.Seed
	}
	if sp.Params.NICGbps > 0 {
		p.NICGbps = sp.Params.NICGbps
	}
	if sp.Params.PacketBytes > 0 {
		p.PacketBytes = sp.Params.PacketBytes
	}
	if sp.Params.RingEntries > 0 {
		p.RingEntries = sp.Params.RingEntries
	}
	if sp.Params.SSDGBps > 0 {
		p.SSDGBps = sp.Params.SSDGBps
	}
	if v := sp.Params.MigrationStickPct; v != nil {
		p.Hierarchy.MigrationStickPct = *v
	}
	if v := sp.Params.LLCVictimRandPct; v != nil {
		p.Hierarchy.LLCVictimRandPct = *v
	}
	if v := sp.Params.SSDParallelism; v != nil {
		p.SSDParallelism = *v
	}
	if sp.Params.SmoothNIC {
		p.NICBurstPeriod = -1 // harness: negative requests smooth arrivals
	}
	p.Sample = sp.sampleSpec()
	return p
}

// sampleSpec resolves the spec's sampling block (nil means disabled, zero
// fields mean the default schedule) to the harness schedule.
func (sp *Spec) sampleSpec() harness.SampleSpec {
	if sp.Sampling == nil {
		return harness.SampleSpec{}
	}
	s := harness.SampleSpec{DetailUs: sp.Sampling.DetailUs, PeriodUs: sp.Sampling.PeriodUs}
	if s.DetailUs == 0 {
		s.DetailUs = DefaultSampleDetailUs
	}
	if s.PeriodUs == 0 {
		s.PeriodUs = DefaultSamplePeriodUs
	}
	return s
}

// Build validates the spec and constructs the scenario with every workload
// registered, returning it together with the resolved manager. The caller
// owns Start and Run — cmd/a4d attaches streaming observers in between.
func (sp *Spec) Build() (*harness.Scenario, harness.ManagerSpec, error) {
	if err := sp.Validate(); err != nil {
		return nil, harness.ManagerSpec{}, err
	}
	mgr, _ := ManagerByName(sp.Manager)
	if sp.A4 != nil {
		sp.A4.apply(&mgr.A4)
	}
	s := harness.NewScenario(sp.harnessParams())
	for i := range sp.Workloads {
		w := sp.Workloads[i] // copy: build may read normalized knobs
		kinds[w.Kind].normalize(&w)
		if err := kinds[w.Kind].build(s, &w); err != nil {
			return nil, harness.ManagerSpec{}, fmt.Errorf("scenario: workload %d (%s): %w", i, w.Kind, err)
		}
	}
	return s, mgr, nil
}

// Start normalizes the spec in place, builds the scenario, attaches the
// manager and programs the spec's ways and DCA setting, ready to Run.
// Normalizing first means callers that read the windows afterwards
// (s.Run(sp.WarmupSec, sp.MeasureSec)) always run the hash-covered
// defaults, never zero windows. A series block configures the monitor's
// telemetry plane before any window opens, so every measurement window
// records and exports the selection.
func (sp *Spec) Start() (*harness.Scenario, error) {
	if err := sp.Normalize(); err != nil {
		return nil, err
	}
	s, mgr, err := sp.Build()
	if err != nil {
		return nil, err
	}
	s.Start(mgr)
	if err := sp.Program(s); err != nil {
		return nil, err
	}
	if sp.Series != nil {
		s.Monitor.EnableSeries(sp.seriesOpts())
	}
	return s, nil
}

// Program applies the spec's CAT ways and DCA setting to a started
// scenario, as intel-cmt-cat and the perfctrlsts_0 knob program a live
// Xeon: workload i's cores join CLOS i+1 (numbered as
// baseline.ApplyIsolate does) with a mask over its ways, a workload
// without ways returns to CLOS 0's full LLC, and DCA is on except where
// params.dca turns it off. Start calls it. Calling it again on a running
// scenario with a valid spec that differs only in ways and dca reprograms
// that instant: new lines follow the new masks, resident ones stay (§5.5).
// Under any other manager it does nothing, because that manager owns the
// CAT and DCA state.
func (sp *Spec) Program(s *harness.Scenario) error {
	if sp.Manager != "default" {
		return nil
	}
	alloc := s.H.CAT()
	for i, w := range sp.Workloads {
		clos := 0
		if w.Ways != nil {
			clos = i + 1
			if err := alloc.SetWayRange(clos, w.Ways[0], w.Ways[1]); err != nil {
				return err
			}
		}
		for _, c := range w.Cores {
			if err := alloc.Associate(c, clos); err != nil {
				return err
			}
		}
	}
	s.H.PCIe().SetGlobalDCA(sp.Params.DCA != DCAOff)
	s.H.PCIe().SetPortDCA(harness.SSDPort, sp.Params.DCA != DCASSDOff)
	return nil
}

// validSeriesGroup reports whether g names a telemetry column group.
func validSeriesGroup(g string) bool {
	for _, s := range SeriesGroups {
		if g == s {
			return true
		}
	}
	return false
}

// seriesOpts maps the (normalized) series selection onto the monitor's
// recording options. The core group is the measurement path itself and is
// always recorded; selecting it (or nothing) just exports it.
func (sp *Spec) seriesOpts() harness.SeriesOpts {
	o := harness.SeriesOpts{Export: true}
	for _, m := range sp.Series.Metrics {
		switch strings.ToLower(m) {
		case "devices":
			o.Devices = true
		case "occupancy":
			o.Occupancy = true
		case "controller":
			o.Controller = true
		}
	}
	return o
}

// Run executes the spec end to end — build, start, warmup, measure — and
// renders the deterministic report. This is the entry point the service's
// workers use. Execution happens on a normalized clone, so the windows and
// knobs that run are exactly the ones the content hash covers.
func (sp *Spec) Run() (*Report, error) {
	run := sp.Clone()
	if err := run.Normalize(); err != nil {
		return nil, err
	}
	hash, err := run.Hash()
	if err != nil {
		return nil, err
	}
	s, err := run.Start()
	if err != nil {
		return nil, err
	}
	res := s.Run(run.WarmupSec, run.MeasureSec)
	rep := FromResult(run, hash, res)
	return rep, nil
}

// KindNames lists the registered workload kinds, sorted.
func KindNames() []string {
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
