package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// tinySpec returns a minimal valid spec for hashing tests.
func tinySpec() *Spec {
	return &Spec{
		Name:    "t",
		Manager: "a4-d",
		Workloads: []WorkloadSpec{
			{Kind: "xmem", Name: "xmem", Cores: []int{0}, Priority: "hpw", WSKB: 1024, Pattern: "sequential"},
		},
	}
}

func mustHash(t *testing.T, sp *Spec) string {
	t.Helper()
	h, err := sp.Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	return h
}

func TestHashStableAcrossFieldOrder(t *testing.T) {
	a := []byte(`{
		"manager": "a4-d",
		"name": "t",
		"workloads": [
			{"priority": "hpw", "cores": [0], "kind": "xmem", "ws_kb": 1024, "name": "xmem", "pattern": "sequential"}
		]
	}`)
	b := []byte(`{
		"name": "t",
		"workloads": [
			{"kind": "xmem", "name": "xmem", "cores": [0], "priority": "hpw", "ws_kb": 1024, "pattern": "sequential"}
		],
		"manager": "a4-d"
	}`)
	spA, err := Parse(a)
	if err != nil {
		t.Fatal(err)
	}
	spB, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha, hb := mustHash(t, spA), mustHash(t, spB); ha != hb {
		t.Fatalf("field order changed hash: %s vs %s", ha, hb)
	}
}

func TestHashStableAcrossDefaultedFields(t *testing.T) {
	implicit := tinySpec()

	explicit := tinySpec()
	explicit.WarmupSec = DefaultWarmupSec
	explicit.MeasureSec = DefaultMeasureSec
	explicit.Workloads[0].Pattern = "sequential"

	if hi, he := mustHash(t, implicit), mustHash(t, explicit); hi != he {
		t.Fatalf("spelled-out defaults changed hash: %s vs %s", hi, he)
	}

	// Priority case folds: HPW and hpw are one scenario.
	upper := tinySpec()
	upper.Workloads[0].Priority = "HPW"
	if mustHash(t, upper) != mustHash(t, implicit) {
		t.Fatal("priority case changed hash")
	}

	// Manager aliases fold to one canonical name.
	alias := tinySpec()
	alias.Manager = "a4"
	if mustHash(t, alias) != mustHash(t, implicit) {
		t.Fatal("manager alias a4 hashed differently from a4-d")
	}

	// Defaulted fio knobs equal explicit ones.
	fioImplicit := &Spec{
		Manager:   "default",
		Workloads: []WorkloadSpec{{Kind: "fio", Cores: []int{0, 1}}},
	}
	fioExplicit := &Spec{
		Manager: "default",
		Workloads: []WorkloadSpec{{
			Kind: "fio", Name: "fio", Cores: []int{0, 1}, Priority: "lpw",
			BlockKB: 128, QueueDepth: 32,
		}},
	}
	if mustHash(t, fioImplicit) != mustHash(t, fioExplicit) {
		t.Fatal("defaulted fio knobs hashed differently from explicit ones")
	}
}

func TestHashDistinguishesScenarios(t *testing.T) {
	base := tinySpec()
	seen := map[string]string{mustHash(t, base): "base"}
	variants := map[string]*Spec{}

	v := tinySpec()
	v.Manager = "isolate"
	variants["manager"] = v

	v = tinySpec()
	v.Workloads[0].WSKB = 2048
	variants["ws_kb"] = v

	v = tinySpec()
	v.Workloads[0].Cores = []int{1}
	variants["cores"] = v

	v = tinySpec()
	v.Params.Seed = 7
	variants["seed"] = v

	v = tinySpec()
	v.MeasureSec = 5
	variants["measure"] = v

	for what, sp := range variants {
		h := mustHash(t, sp)
		if prev, dup := seen[h]; dup {
			t.Errorf("%s variant collides with %s", what, prev)
		}
		seen[h] = what
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	sp, err := BuiltinMix("hpw-heavy")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	// Canonical bytes reparse to a spec with the same canonical bytes.
	sp2, err := Parse(c1)
	if err != nil {
		t.Fatalf("canonical form does not reparse: %v", err)
	}
	c2, err := sp2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("canonical not a fixed point:\n%s\nvs\n%s", c1, c2)
	}
	// Canonical never mutates the caller's spec.
	if sp2.Workloads[0].Name == "" {
		t.Fatal("normalize did not make names explicit in canonical form")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(sp *Spec)
		want string
	}{
		{"bad manager", func(sp *Spec) { sp.Manager = "lru" }, "unknown manager"},
		{"unknown kind", func(sp *Spec) { sp.Workloads[0].Kind = "memcached" }, "unknown kind"},
		{"no workloads", func(sp *Spec) { sp.Workloads = nil }, "no workloads"},
		{"no cores", func(sp *Spec) { sp.Workloads[0].Cores = nil }, "no cores"},
		{"core out of range", func(sp *Spec) { sp.Workloads[0].Cores = []int{99} }, "outside"},
		{"bad priority", func(sp *Spec) { sp.Workloads[0].Priority = "urgent" }, "bad priority"},
		{"negative window", func(sp *Spec) { sp.MeasureSec = -1 }, "negative run window"},
		{
			"overlapping cores",
			func(sp *Spec) {
				sp.Workloads = append(sp.Workloads, WorkloadSpec{
					Kind: "xmem", Name: "x2", Cores: []int{0}, WSKB: 512,
				})
			},
			"already used",
		},
		{
			"duplicate names",
			func(sp *Spec) {
				sp.Workloads = append(sp.Workloads, WorkloadSpec{
					Kind: "xmem", Name: "xmem", Cores: []int{1}, WSKB: 512,
				})
			},
			`name "xmem" already used`,
		},
		{
			"unknown SPEC bench",
			func(sp *Spec) {
				sp.Workloads = append(sp.Workloads, WorkloadSpec{
					Kind: "spec", Bench: "gcc", Cores: []int{1},
				})
			},
			"unknown SPEC benchmark",
		},
		{
			"spec core count",
			func(sp *Spec) {
				sp.Workloads = append(sp.Workloads, WorkloadSpec{
					Kind: "spec", Bench: "x264", Cores: []int{1, 2},
				})
			},
			"exactly 1 core",
		},
		{
			"bad xmem pattern",
			func(sp *Spec) { sp.Workloads[0].Pattern = "stride" },
			"bad xmem pattern",
		},
		{
			"inapplicable knob",
			func(sp *Spec) { sp.Workloads[0].QueueDepth = 64 },
			`knob "queue_depth" does not apply`,
		},
		{
			"block_kb overflow",
			func(sp *Spec) {
				sp.Workloads = []WorkloadSpec{
					{Kind: "fio", Cores: []int{0}, BlockKB: 1 << 53},
				}
			},
			"block_kb",
		},
		{
			"ws_kb overflow",
			func(sp *Spec) { sp.Workloads[0].WSKB = 1 << 53 },
			"ws_kb",
		},
		{
			"negative param",
			func(sp *Spec) { sp.Params.RateScale = -5 },
			"negative param",
		},
		{
			"fixed-name conflict",
			func(sp *Spec) {
				sp.Workloads = append(sp.Workloads, WorkloadSpec{
					Kind: "spec", Bench: "x264", Name: "my-x264", Cores: []int{1},
				})
			},
			"fixed name",
		},
		{
			"inapplicable knob on dpdk",
			func(sp *Spec) {
				sp.Workloads = []WorkloadSpec{
					{Kind: "dpdk", Cores: []int{0}, Touch: true, Bench: "x264"},
				}
			},
			`knob "bench" does not apply`,
		},
		{"ways beyond the LLC", func(sp *Spec) { sp.Manager = "default"; sp.Workloads[0].Ways = []int{9, 11} }, "11-way LLC"},
		{"ways below the LLC", func(sp *Spec) { sp.Manager = "default"; sp.Workloads[0].Ways = []int{-1, 1} }, "11-way LLC"},
		{"ways lo > hi", func(sp *Spec) { sp.Manager = "default"; sp.Workloads[0].Ways = []int{5, 4} }, "11-way LLC"},
		{"ways not a pair", func(sp *Spec) { sp.Manager = "default"; sp.Workloads[0].Ways = []int{1, 2, 3} }, "11-way LLC"},
		{"ways under a4", func(sp *Spec) { sp.Workloads[0].Ways = []int{0, 1} }, "ways need the default manager"},
		{"ways under isolate", func(sp *Spec) { sp.Manager = "isolate"; sp.Workloads[0].Ways = []int{0, 1} }, "ways need the default manager"},
		{"dca under a4", func(sp *Spec) { sp.Params.DCA = DCASSDOff }, "params.dca needs the default manager"},
		{"unknown dca", func(sp *Spec) { sp.Manager = "default"; sp.Params.DCA = "on" }, "unknown params.dca"},
		{"stick pct above 100", func(sp *Spec) { sp.Params.MigrationStickPct = intp(101) }, "migration_stick_pct 101 outside [0,100]"},
		{"victim pct below 0", func(sp *Spec) { sp.Params.LLCVictimRandPct = intp(-1) }, "llc_victim_rand_pct -1 outside [0,100]"},
		{"ssd parallelism zero", func(sp *Spec) { sp.Params.SSDParallelism = intp(0) }, "ssd_parallelism 0"},
		{"ssd parallelism negative", func(sp *Spec) { sp.Params.SSDParallelism = intp(-4) }, "ssd_parallelism -4"},
		{"a4 block under default", func(sp *Spec) { sp.Manager = "default"; sp.A4 = &A4Spec{T1: 0.3} }, "a4 block needs an a4-* manager"},
		{"a4 block under isolate", func(sp *Spec) { sp.Manager = "isolate"; sp.A4 = &A4Spec{} }, "a4 block needs an a4-* manager"},
		{"negative threshold", func(sp *Spec) { sp.A4 = &A4Spec{T3: -0.1} }, "non-negative"},
		{"negative stable interval", func(sp *Spec) { sp.A4 = &A4Spec{StableSec: -1} }, "stable_sec -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := tinySpec()
			tc.mut(sp)
			err := sp.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if _, err := sp.Hash(); err == nil {
				t.Fatal("Hash succeeded on invalid spec")
			}
		})
	}
}

func intp(v int) *int { return &v }

// TestFigureKnobsRoundTrip covers every figure knob (ways, dca, the
// ablation params, the a4 block) across the two managers they need: the
// canonical form reparses to itself, explicit zeros survive, an a4 block
// spells out its defaults, and a spec without the knobs encodes none.
func TestFigureKnobsRoundTrip(t *testing.T) {
	ablations := ParamSpec{
		RateScale:         1024,
		MigrationStickPct: intp(0),
		LLCVictimRandPct:  intp(0),
		SSDParallelism:    intp(8),
		SmoothNIC:         true,
	}
	def := &Spec{
		Manager: "default",
		Params:  ablations,
		Workloads: []WorkloadSpec{
			{Kind: "dpdk", Cores: []int{0, 1}, Touch: true, Ways: []int{5, 6}},
			{Kind: "fio", Cores: []int{2, 3}, Ways: []int{0, 10}},
		},
	}
	def.Params.DCA = DCASSDOff
	a4 := &Spec{
		Manager:   "a4-c",
		Params:    ablations,
		A4:        &A4Spec{T1: 0.3, T2: 1.01, T5: 0.8, StableSec: 5, Oracle: true},
		Workloads: []WorkloadSpec{{Kind: "xmem", Cores: []int{0}}},
	}
	for _, sp := range []*Spec{def, a4} {
		c1, err := sp.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{`"migration_stick_pct":0`, `"llc_victim_rand_pct":0`, `"ssd_parallelism":8`, `"smooth_nic":true`} {
			if !bytes.Contains(c1, []byte(key)) {
				t.Errorf("%s: canonical form lacks %s:\n%s", sp.Manager, key, c1)
			}
		}
		back, err := Parse(c1)
		if err != nil {
			t.Fatalf("%s: canonical form does not reparse: %v\n%s", sp.Manager, err, c1)
		}
		c2, err := back.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("%s: canonical not a fixed point:\n%s\nvs\n%s", sp.Manager, c1, c2)
		}
		if mustHash(t, back) != mustHash(t, sp) {
			t.Errorf("%s: hash changed across the round trip", sp.Manager)
		}
		// Clone deep-copies the new pointers and slices.
		c := sp.Clone()
		*c.Params.SSDParallelism = 99
		if *sp.Params.SSDParallelism != 8 {
			t.Errorf("%s: Clone shares params.ssd_parallelism", sp.Manager)
		}
	}
	for _, key := range []string{`"ways":[5,6]`, `"dca":"ssd-off"`} {
		if c, _ := def.Canonical(); !bytes.Contains(c, []byte(key)) {
			t.Errorf("default spec's canonical form lacks %s:\n%s", key, c)
		}
	}
	// The a4 block spells out its defaults: {} and Table 1 are one scenario.
	empty, table1 := tinySpec(), tinySpec()
	empty.A4 = &A4Spec{}
	table1.A4 = &A4Spec{T1: 0.20, T2: 0.40, T3: 0.35, T4: 0.40, T5: 0.90, StableSec: 10}
	if mustHash(t, empty) != mustHash(t, table1) {
		t.Error("an empty a4 block hashed differently from the spelled-out Table 1 values")
	}
	if mustHash(t, a4) == mustHash(t, func() *Spec { c := a4.Clone(); c.A4 = nil; return c }()) {
		t.Error("the a4 block does not change the hash")
	}
	// Absent knobs leave the canonical encoding untouched.
	plain, err := tinySpec().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"ways", "dca", "migration_stick_pct", "llc_victim_rand_pct", "ssd_parallelism", "smooth_nic", `"a4"`} {
		if bytes.Contains(plain, []byte(key)) {
			t.Errorf("canonical form of a spec without figure knobs mentions %s:\n%s", key, plain)
		}
	}
}

// TestKnobTableCoversWorkloadSpec pins knobFields to WorkloadSpec: every
// kind-specific field must appear in the table, so a future knob cannot
// bypass the misapplied-knob rejection.
func TestKnobTableCoversWorkloadSpec(t *testing.T) {
	generic := map[string]bool{"kind": true, "name": true, "cores": true, "priority": true, "ways": true}
	inTable := map[string]bool{}
	for _, k := range knobFields {
		inTable[k.name] = true
	}
	rt := reflect.TypeOf(WorkloadSpec{})
	for i := 0; i < rt.NumField(); i++ {
		tag := strings.SplitN(rt.Field(i).Tag.Get("json"), ",", 2)[0]
		if tag == "" || tag == "-" || generic[tag] {
			continue
		}
		if !inTable[tag] {
			t.Errorf("WorkloadSpec field %q (json %q) missing from knobFields", rt.Field(i).Name, tag)
		}
	}
	// Every knob a kind declares must exist in the table too.
	for kind, k := range kinds {
		for _, n := range k.knobs {
			if !inTable[n] {
				t.Errorf("kind %q declares unknown knob %q", kind, n)
			}
		}
	}
}

func TestStartNormalizesWindows(t *testing.T) {
	sp := tinySpec() // windows left zero
	s, err := sp.Start()
	if err != nil {
		t.Fatal(err)
	}
	if sp.WarmupSec != DefaultWarmupSec || sp.MeasureSec != DefaultMeasureSec {
		t.Fatalf("Start left windows at (%g, %g); examples reading them would run zero windows",
			sp.WarmupSec, sp.MeasureSec)
	}
	if s == nil {
		t.Fatal("no scenario")
	}
}

// TestCheckBudget pins the serving-policy bounds: they reject costly specs
// without making them invalid (local CLI runs stay unrestricted).
func TestCheckBudget(t *testing.T) {
	cases := []struct {
		name string
		mut  func(sp *Spec)
		want string
	}{
		{"oversized window", func(sp *Spec) { sp.MeasureSec = 1e15 }, "exceeds"},
		{"tiny rate scale", func(sp *Spec) { sp.Params.RateScale = 0.001 }, "rate_scale"},
		{"work budget", func(sp *Spec) { sp.WarmupSec = 3000; sp.MeasureSec = 600; sp.Params.RateScale = 1 }, "work units"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := tinySpec()
			tc.mut(sp)
			if err := sp.Validate(); err != nil {
				t.Fatalf("budget-bounded spec should still Validate, got %v", err)
			}
			err := sp.CheckBudget()
			if err == nil {
				t.Fatalf("CheckBudget accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := tinySpec().CheckBudget(); err != nil {
		t.Fatalf("tiny spec over budget: %v", err)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"manager": "a4-d", "wrkloads": []}`))
	if err == nil {
		t.Fatal("Parse accepted a misspelled field")
	}
}

func TestBuiltinMixesValidate(t *testing.T) {
	mixes := BuiltinMixes()
	if len(mixes) < 4 {
		t.Fatalf("expected at least 4 builtin mixes, got %v", mixes)
	}
	for _, name := range mixes {
		sp, err := BuiltinMix(name)
		if err != nil {
			t.Fatalf("BuiltinMix(%s): %v", name, err)
		}
		if sp.Name != name {
			t.Errorf("mix %s: spec name %q", name, sp.Name)
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("mix %s invalid: %v", name, err)
		}
		if _, _, err := sp.Build(); err != nil {
			t.Errorf("mix %s does not build: %v", name, err)
		}
	}
	if _, err := BuiltinMix("nope"); err == nil {
		t.Fatal("BuiltinMix accepted unknown name")
	}
}

func TestManagerRegistry(t *testing.T) {
	for _, name := range ManagerNames() {
		m, ok := ManagerByName(name)
		if !ok {
			t.Fatalf("ManagerByName(%s) missing", name)
		}
		if m.Name() != name {
			t.Errorf("ManagerByName(%s).Name() = %s", name, m.Name())
		}
	}
	if _, ok := ManagerByName("a4"); !ok {
		t.Error("alias a4 not accepted")
	}
	if _, ok := ManagerByName("bogus"); ok {
		t.Error("bogus manager accepted")
	}
}

func TestRunTinyDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	sp, err := BuiltinMix("tiny")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sp.Clone().Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sp.Clone().Run()
	if err != nil {
		t.Fatal(err)
	}
	b1, err := r1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("two runs of the same spec encoded differently:\n%s\nvs\n%s", b1, b2)
	}
	if r1.W("dpdk-t").ProgressRate <= 0 {
		t.Error("tiny mix report has no dpdk-t progress")
	}
	dec, err := DecodeReport(b1)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Hash != r1.Hash || dec.W("xmem").LLCHitRate != r1.W("xmem").LLCHitRate {
		t.Error("report did not round-trip through Encode/DecodeReport")
	}
}

// TestDigestMatchesIndividualHashes pins that the one-pass Digest — the
// cluster coordinator's routing primitive — agrees exactly with the
// separately computed Canonical, Hash, and PrefixHash.
func TestDigestMatchesIndividualHashes(t *testing.T) {
	sp, err := BuiltinMix("tiny")
	if err != nil {
		t.Fatal(err)
	}
	canon, hash, prefix, err := sp.Digest()
	if err != nil {
		t.Fatal(err)
	}
	wantCanon, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, wantCanon) {
		t.Errorf("Digest canonical differs from Canonical():\n%s\nvs\n%s", canon, wantCanon)
	}
	wantHash, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hash != wantHash {
		t.Errorf("Digest hash %s != Hash() %s", hash, wantHash)
	}
	wantPrefix, err := sp.PrefixHash()
	if err != nil {
		t.Fatal(err)
	}
	if prefix != wantPrefix {
		t.Errorf("Digest prefix %s != PrefixHash() %s", prefix, wantPrefix)
	}

	// Specs differing only in measure_sec share the prefix but not the hash.
	longer := sp.Clone()
	longer.MeasureSec = sp.MeasureSec + 3
	_, lHash, lPrefix, err := longer.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if lPrefix != prefix {
		t.Error("measure_sec change moved the prefix hash")
	}
	if lHash == hash {
		t.Error("measure_sec change did not move the content hash")
	}

	// Digest hashes a normalized clone; the receiver keeps its raw form.
	if sp.MeasureSec != 1 {
		t.Errorf("Digest mutated the spec: measure_sec = %g", sp.MeasureSec)
	}

	bad := sp.Clone()
	bad.Manager = "bogus"
	if _, _, _, err := bad.Digest(); err == nil {
		t.Error("Digest accepted an invalid spec")
	}
}
