package figures

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"a4sim/internal/scenario"
)

// detOpts builds fast figure options at the given worker-pool degree: a
// high rate scale keeps per-point simulation cheap while still exercising
// every scenario-construction and report-assembly path.
func detOpts(workers int) Options {
	return Options{RateScale: 4096, Quick: true, Warmup: 1, Measure: 1, Workers: workers}
}

// reportDigests pins the SHA-256 of every serial detOpts report. Serial ≡
// parallel alone would still pass a rewrite that changed a figure's
// numbers; these digests catch that. A deliberate model change updates
// the table and says why.
var reportDigests = map[string]string{
	"3a":           "6e0086f9dda8979c023943898ddea90dabd23449edd204ead90e57efde071017",
	"3b":           "0cb322469b6b1d445a2009c37ab68fe64955f8dde2054408292e6972968b3ac6",
	"4":            "31a6608ef0bac191712c2a9cfdc642aff4a27de2119397ac1373eafa15d43d1b",
	"5":            "16e45d3a21bb354ddac9e9e87af66f2ffe1f7e86f35e51a65952e366bcefb5c5",
	"6":            "783747e88ca55dbd568903672cfd865b93b6b5d70706fe72578ab6bc63fda451",
	"7":            "63d2f51e988f1e2e2e43f8e75a09c7fc23c565279ffead08b530865bdc7cc3c3",
	"8a":           "ef43c67a2a59456ccb819cd924a00758d7ab744bf0746f73e570cd98eb9883f7",
	"8b":           "e85b92594f20a263ec7613e22dba5f6215a38d6863428198c685fff3ce1c226e",
	"11":           "82ea2d9d9c7280716cc02b63e659e15587cc2b6632d6a082edf86408f2a996ea",
	"12":           "7db9036f45e2ba23cb0e115579bce68636b80a2b21d114431bee4d3a58701787",
	"13a":          "80632d1120339318b9e4faf754b92cb8bb8e811175b4992778ee803fa3d5fbec",
	"13b":          "88795d734edfff23c95332b43b5dc4e25d21ce4a3bb222cbb4d332f570fa9be6",
	"14":           "bd1b3dce123f690967c74909b3c7224740d0a82bdfb538e08d9053b3617d5cbf",
	"15a":          "034f282f4f1ce094ac50908e4ada1e1d1afc81b5d984c4a92920875eff0fdbec",
	"15b":          "8b4554ff5e82041c3f0f85e125c5c591d320f1101b3875d398bb857de7fbbf57",
	"15c":          "92cf09451f5c682206b812fcddd48623e7d76cfafece4d5d92c252ef163e3d54",
	"transient":    "cb1e4fa6a34d3bb1425d94f12d21788a76d3c2453e976b5ebda47e0b27b92051",
	"ab-migration": "a337c8dafbf71dffc2638588b1d6672f7122d67a5f13f5bb881b955b6e771b86",
	"ab-plru":      "fa40b78b7cbeb45d4679899db9f7b50c006b47f1290e74afd57f1821f4744eb6",
	"ab-burst":     "ce9441fe9f9cb2bda966811d7964925f2c76a05237d3bfc688006f346dd16e33",
	"ab-ssdpar":    "c9c1c7e864f8fb39cc34dc8f2e37cc7ec159d5a332af507143b182e5a9cd242d",
}

// checkDigest fails t unless report's SHA-256 matches the pinned digest.
func checkDigest(t *testing.T, id, report string) {
	t.Helper()
	sum := sha256.Sum256([]byte(report))
	if got, want := hex.EncodeToString(sum[:]), reportDigests[id]; got != want {
		t.Errorf("%s: report digest %s, pinned %s\n%s", id, got, want, report)
	}
}

// TestParallelSweepDeterminism asserts the tentpole guarantee of the sweep
// runner: every figure point owns its engine and seeded RNGs, so running
// the sweep on a multi-goroutine pool produces a byte-identical Report to
// serial execution. It covers every figure, so each one executes in the
// tier-1 suite, and pins each serial report to its digest.
func TestParallelSweepDeterminism(t *testing.T) {
	for _, id := range IDs() {
		fn, ok := Registry[id]
		if !ok {
			t.Fatalf("unknown figure %s", id)
		}
		serial := fn(detOpts(1)).String()
		checkDigest(t, id, serial)
		parallel := fn(detOpts(4)).String()
		if serial != parallel {
			t.Errorf("figure %s: parallel report differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s", id, serial, parallel)
		}
		// A second parallel run must also be self-consistent (no hidden
		// shared state between pool runs).
		if again := fn(detOpts(4)).String(); again != parallel {
			t.Errorf("figure %s: repeated parallel runs differ", id)
		}
	}
}

// TestParallelAblationDeterminism covers every ablation's sweep.
func TestParallelAblationDeterminism(t *testing.T) {
	for _, id := range AblationIDs() {
		fn := AblationRegistry[id]
		serial := fn(detOpts(1)).String()
		checkDigest(t, id, serial)
		parallel := fn(detOpts(3)).String()
		if serial != parallel {
			t.Errorf("%s: parallel report differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s", id, serial, parallel)
		}
	}
}

// TestSampledQuickFigure is `a4bench -fig 3a -quick -sampled` at a cheap
// rate scale: the default sampling schedule with the Quick windows and no
// window override must run, and serially ≡ in parallel.
func TestSampledQuickFigure(t *testing.T) {
	opts := func(workers int) Options {
		return Options{RateScale: 4096, Sampling: &scenario.SamplingSpec{}, Quick: true, Workers: workers}
	}
	serial := Fig3a(opts(1)).String()
	if parallel := Fig3a(opts(2)).String(); parallel != serial {
		t.Errorf("sampled fig 3a: parallel report differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}
