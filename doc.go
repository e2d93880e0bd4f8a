// Package a4sim is a from-scratch Go reproduction of "A4:
// Microarchitecture-Aware LLC Management for Datacenter Servers with
// Emerging I/O Devices" (ISCA 2025).
//
// The repository contains a cycle-approximate simulation of a Skylake-SP
// class server (non-inclusive LLC with an inclusive directory, DDIO, CAT,
// PCIe ports with the hidden per-port DCA knob, a 100 Gbps NIC and an NVMe
// RAID-0 array), the paper's workloads as synthetic traffic generators, the
// A4 runtime LLC-management framework itself, and a harness that regenerates
// every figure of the paper. See README.md for a tour and DESIGN.md for the
// system inventory.
//
// The per-access hot path stores cache and directory state in packed
// structure-of-arrays form (one 64-bit word per slot plus per-set LRU
// permutation and valid-bitmask words; see PERF.md for the profile-driven
// design), and the figure layer executes independent sweep points on a
// worker pool sized by figures.Options.Workers — deterministically, since
// every point owns its engine and seeded RNGs.
//
// Experiments are declarative: internal/scenario describes a scenario as a
// JSON spec with a workload-constructor registry, canonical encoding, and a
// stable content hash, and every binary, example and figure builds its
// scenarios through specs (builtin mixes ship embedded in the package),
// CAT way ranges, DCA switches and the ablation knobs included. On top of
// that, internal/service and cmd/a4serve serve scenario runs over HTTP with
// a worker pool, singleflight deduplication, and an LRU result cache keyed
// by spec hash — determinism makes cache hits byte-identical to fresh runs.
//
// Simulation state is forkable: every layer implements one state contract,
// the snapshot codec, and harness.Scenario.Fork/Snapshot rebuild a
// scenario from its recorded construction and decode the state onto it,
// with forked execution byte-identical to fresh execution (DESIGN.md §10). Sweeps
// whose points share a prefix warm it once and fork per point, and
// a4serve caches warm snapshots so POST /extend and measure-window sweep
// rows simulate only their additional seconds.
//
// Build with the included go.mod (module a4sim). The repository benchmark
// is perfbench/, declared by BENCHMARK.json; cmd/a4pair compares it between
// two revisions in alternating pairs, and its gate workload is CI's perf
// gate.
package a4sim
