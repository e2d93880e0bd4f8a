package scenario

import (
	"bytes"
	"testing"
)

// FuzzParseSpec fuzzes the spec decode/normalize/hash pipeline with the
// invariants the service relies on:
//
//   - Parse never panics, whatever the bytes.
//   - A spec that canonicalizes must hash, its canonical form must reparse,
//     and the reparse must canonicalize to the same bytes (round-trip
//     fixpoint) with the same content hash — otherwise the result cache
//     would fragment or, worse, alias distinct scenarios.
//   - The prefix hash is equally stable, or snapshot continuation would
//     fork the wrong warm state.
//
// Run with `go test -fuzz FuzzParseSpec ./internal/scenario`; the embedded
// builtin mixes plus the hand-written cases below seed the corpus, and
// testdata/fuzz holds regression inputs.
func FuzzParseSpec(f *testing.F) {
	for _, mix := range BuiltinMixes() {
		data, err := mixFS.ReadFile("mixes/" + mix + ".json")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"manager":"a4","workloads":[{"kind":"xmem","cores":[0]}]}`))
	f.Add([]byte(`{"manager":"isolate","params":{"rate_scale":512,"seed":7},` +
		`"workloads":[{"kind":"redis","cores":[1,2],"priority":"HPW"}],"warmup_sec":1,"measure_sec":2}`))
	f.Add([]byte(`{"manager":"default","workloads":[{"kind":"synthetic","name":"s",` +
		`"cores":[3],"ws_kb":64,"pattern":"zipf","skew":0.5}]}`))
	f.Add([]byte(`{"manager":"nope"}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"manager":"default","workloads":[{"kind":"spec","bench":"mcf","cores":[0]}]}`))
	f.Add([]byte(`{"manager":"default","series":{},"workloads":[{"kind":"xmem","cores":[0]}]}`))
	f.Add([]byte(`{"manager":"a4-d","series":{"metrics":["DEVICES","core","devices"]},` +
		`"workloads":[{"kind":"dpdk","cores":[0,1],"touch":true}]}`))
	f.Add([]byte(`{"manager":"default","series":{"metrics":["nope"]},"workloads":[{"kind":"xmem","cores":[0]}]}`))
	f.Add([]byte(`{"manager":"default","params":{"dca":"ssd-off"},"workloads":[` +
		`{"kind":"dpdk","cores":[0,1],"touch":true,"ways":[5,6]},{"kind":"fio","cores":[2],"ways":[2,3]}]}`))
	f.Add([]byte(`{"manager":"default","params":{"dca":"off"},"workloads":[{"kind":"xmem","cores":[0],"ways":[9,10]}]}`))
	f.Add([]byte(`{"manager":"a4-d","workloads":[{"kind":"xmem","cores":[0],"ways":[0,1]}]}`))
	f.Add([]byte(`{"manager":"default","params":{"migration_stick_pct":0,"llc_victim_rand_pct":25,` +
		`"ssd_parallelism":8,"smooth_nic":true},"workloads":[{"kind":"dpdk","cores":[0]}]}`))
	f.Add([]byte(`{"manager":"a4","a4":{"t1":0.3,"t2":1.01,"t3":0.35,"t4":0.4,"t5":0.8,"stable_sec":5,"oracle":true},` +
		`"workloads":[{"kind":"xmem","cores":[0]}]}`))
	f.Add([]byte(`{"manager":"a4-b","a4":{},"workloads":[{"kind":"xmem","cores":[0]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(data)
		if err != nil {
			return // rejected input; not panicking is the assertion
		}
		can, err := sp.Canonical()
		if err != nil {
			// Parseable but invalid spec: hashing must fail the same way.
			if _, herr := sp.Hash(); herr == nil {
				t.Fatalf("Canonical rejected the spec but Hash accepted it: %v", err)
			}
			return
		}
		h1, err := sp.Hash()
		if err != nil {
			t.Fatalf("canonicalizable spec failed to hash: %v", err)
		}
		p1, err := sp.PrefixHash()
		if err != nil {
			t.Fatalf("canonicalizable spec failed to prefix-hash: %v", err)
		}

		sp2, err := Parse(can)
		if err != nil {
			t.Fatalf("canonical encoding does not reparse: %v\n%s", err, can)
		}
		can2, err := sp2.Canonical()
		if err != nil {
			t.Fatalf("canonical encoding does not re-canonicalize: %v\n%s", err, can)
		}
		if !bytes.Equal(can, can2) {
			t.Fatalf("canonical encoding is not a fixpoint:\n%s\nvs\n%s", can, can2)
		}
		h2, err := sp2.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("hash unstable across canonical round-trip: %s vs %s", h1, h2)
		}
		p2, err := sp2.PrefixHash()
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 {
			t.Fatalf("prefix hash unstable across canonical round-trip: %s vs %s", p1, p2)
		}
		// A normalized spec must still validate (Normalize is not allowed to
		// produce an unbuildable spec).
		if err := sp2.Validate(); err != nil {
			t.Fatalf("canonical spec fails validation: %v\n%s", err, can)
		}
	})
}
