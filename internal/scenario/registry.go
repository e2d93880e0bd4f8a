package scenario

import (
	"fmt"

	"a4sim/internal/core"
	"a4sim/internal/harness"
	"a4sim/internal/workload"
)

// ManagerByName resolves an LLC manager name to its harness spec. It is the
// single copy of the lookup previously repeated across cmd/a4d and the
// examples.
func ManagerByName(name string) (harness.ManagerSpec, bool) {
	switch name {
	case "default":
		return harness.Default(), true
	case "isolate":
		return harness.Isolate(), true
	case "a4-a":
		return harness.A4(core.VariantA), true
	case "a4-b":
		return harness.A4(core.VariantB), true
	case "a4-c":
		return harness.A4(core.VariantC), true
	case "a4-d", "a4":
		return harness.A4(core.VariantD), true
	}
	return harness.ManagerSpec{}, false
}

// ManagerNames lists the canonical manager names.
func ManagerNames() []string {
	return []string{"default", "isolate", "a4-a", "a4-b", "a4-c", "a4-d"}
}

// kindInfo is one workload-constructor registry entry.
type kindInfo struct {
	// cores, when positive, is the exact pinned-core count the kind needs.
	cores int
	// knobs names the kind-specific WorkloadSpec fields the kind reads;
	// any other knob set to a non-zero value is rejected, so a misplaced
	// knob fails loudly instead of silently changing the content hash.
	knobs []string
	// validate checks kind-specific knobs (cores/priority are checked
	// generically).
	validate func(w *WorkloadSpec) error
	// normalize fills defaulted knobs in place so the canonical encoding is
	// explicit; it must be idempotent.
	normalize func(w *WorkloadSpec)
	// names returns the workload name(s) the kind will register, used for
	// duplicate detection against Result's name-keyed reports.
	names func(w *WorkloadSpec) []string
	// build constructs the workload(s) into the scenario.
	build func(s *harness.Scenario, w *WorkloadSpec) error
}

func priorityOf(p string) workload.Priority {
	if p == "hpw" || p == "HPW" {
		return workload.HPW
	}
	return workload.LPW
}

func patternOf(p string) (workload.Pattern, bool) {
	switch p {
	case "sequential":
		return workload.Sequential, true
	case "random":
		return workload.Random, true
	case "zipf":
		return workload.Zipf, true
	}
	return 0, false
}

func defaultName(w *WorkloadSpec, name string) {
	if w.Name == "" {
		w.Name = name
	}
}

// fixedName rejects a user-supplied name that disagrees with a kind's fixed
// one — the name would otherwise be silently overwritten by normalize. The
// fixed name itself is accepted so canonical encodings reparse.
func fixedName(w *WorkloadSpec, name string) error {
	if w.Name != "" && w.Name != name {
		return fmt.Errorf("kind %q has the fixed name %q; drop name %q", w.Kind, name, w.Name)
	}
	return nil
}

func ownName(w *WorkloadSpec) []string { return []string{w.Name} }

// Knob bounds. The caps are far beyond any physical configuration but keep
// shifted byte counts (block_kb<<10, ws_kb<<10) well inside int64/int, so a
// hostile spec cannot overflow into a negative allocation and panic the
// serving daemon.
const (
	MaxBlockKB    = 1 << 20 // 1 GiB blocks
	MaxQueueDepth = 1 << 16
	MaxWSKB       = 1 << 31 // 2 TiB working set
	MaxInstrPerOp = 1 << 20
	MaxOverlap    = 1 << 10
)

// knobFields is the full table of kind-specific WorkloadSpec knobs: json
// name plus an is-set probe. A package test reflects over WorkloadSpec's
// json tags and fails if a new knob field is missing here, so every knob is
// guaranteed to go through the misapplied-knob rejection below.
var knobFields = []struct {
	name string
	set  func(w *WorkloadSpec) bool
}{
	{"touch", func(w *WorkloadSpec) bool { return w.Touch }},
	{"block_kb", func(w *WorkloadSpec) bool { return w.BlockKB != 0 }},
	{"queue_depth", func(w *WorkloadSpec) bool { return w.QueueDepth != 0 }},
	{"heavy", func(w *WorkloadSpec) bool { return w.Heavy }},
	{"ws_kb", func(w *WorkloadSpec) bool { return w.WSKB != 0 }},
	{"pattern", func(w *WorkloadSpec) bool { return w.Pattern != "" }},
	{"write", func(w *WorkloadSpec) bool { return w.Write }},
	{"skew", func(w *WorkloadSpec) bool { return w.Skew != 0 }},
	{"write_frac", func(w *WorkloadSpec) bool { return w.WriteFrac != 0 }},
	{"instr_per_op", func(w *WorkloadSpec) bool { return w.InstrPerOp != 0 }},
	{"cpi_base", func(w *WorkloadSpec) bool { return w.CPIBase != 0 }},
	{"overlap", func(w *WorkloadSpec) bool { return w.Overlap != 0 }},
	{"bench", func(w *WorkloadSpec) bool { return w.Bench != "" }},
	{"client_priority", func(w *WorkloadSpec) bool { return w.ClientPriority != "" }},
}

// checkKnobs rejects non-zero knob fields the kind does not read.
func checkKnobs(w *WorkloadSpec, allowed []string) error {
	ok := func(name string) bool {
		for _, a := range allowed {
			if a == name {
				return true
			}
		}
		return false
	}
	for _, k := range knobFields {
		if k.set(w) && !ok(k.name) {
			return fmt.Errorf("knob %q does not apply to kind %q", k.name, w.Kind)
		}
	}
	return nil
}

// kinds is the workload-constructor registry. Knobs per kind (each entry's
// knobs list is authoritative; anything else set non-zero is rejected):
//
//	dpdk       touch
//	fastclick  (none; fixed name)
//	fio        block_kb, queue_depth
//	ffsb       heavy
//	xmem       ws_kb, pattern (sequential|random), write
//	spec       bench (single core; fixed name = bench)
//	redis      client_priority (two cores; fixed names redis-s, redis-c)
//	synthetic  ws_kb, pattern, skew, write_frac, instr_per_op, cpi_base, overlap
var kinds = map[string]kindInfo{
	"dpdk": {
		knobs:     []string{"touch"},
		validate:  func(w *WorkloadSpec) error { return nil },
		normalize: func(w *WorkloadSpec) { defaultName(w, "dpdk") },
		names:     ownName,
		build: func(s *harness.Scenario, w *WorkloadSpec) error {
			s.AddDPDK(w.Name, w.Cores, w.Touch, priorityOf(w.Priority))
			return nil
		},
	},
	"fastclick": {
		knobs:     nil,
		validate:  func(w *WorkloadSpec) error { return fixedName(w, "fastclick") },
		normalize: func(w *WorkloadSpec) { w.Name = "fastclick" },
		names:     ownName,
		build: func(s *harness.Scenario, w *WorkloadSpec) error {
			s.AddFastclick(w.Cores, priorityOf(w.Priority))
			return nil
		},
	},
	"fio": {
		knobs: []string{"block_kb", "queue_depth"},
		validate: func(w *WorkloadSpec) error {
			if w.BlockKB < 0 || w.BlockKB > MaxBlockKB {
				return fmt.Errorf("block_kb %d outside [0,%d]", w.BlockKB, MaxBlockKB)
			}
			if w.QueueDepth < 0 || w.QueueDepth > MaxQueueDepth {
				return fmt.Errorf("queue_depth %d outside [0,%d]", w.QueueDepth, MaxQueueDepth)
			}
			return nil
		},
		normalize: func(w *WorkloadSpec) {
			defaultName(w, "fio")
			if w.BlockKB == 0 {
				w.BlockKB = 128
			}
			if w.QueueDepth == 0 {
				w.QueueDepth = 32
			}
		},
		names: ownName,
		build: func(s *harness.Scenario, w *WorkloadSpec) error {
			s.AddFIO(w.Name, w.Cores, w.BlockKB<<10, w.QueueDepth, priorityOf(w.Priority))
			return nil
		},
	},
	"ffsb": {
		knobs:    []string{"heavy"},
		validate: func(w *WorkloadSpec) error { return nil },
		normalize: func(w *WorkloadSpec) {
			if w.Name == "" {
				if w.Heavy {
					w.Name = "ffsb-h"
				} else {
					w.Name = "ffsb-l"
				}
			}
		},
		names: ownName,
		build: func(s *harness.Scenario, w *WorkloadSpec) error {
			s.AddFFSB(w.Name, w.Heavy, w.Cores, priorityOf(w.Priority))
			return nil
		},
	},
	"xmem": {
		knobs: []string{"ws_kb", "pattern", "write"},
		validate: func(w *WorkloadSpec) error {
			if w.Pattern != "" && w.Pattern != "sequential" && w.Pattern != "random" {
				return fmt.Errorf("bad xmem pattern %q (want sequential or random)", w.Pattern)
			}
			if w.WSKB < 0 || w.WSKB > MaxWSKB {
				return fmt.Errorf("ws_kb %d outside [0,%d]", w.WSKB, MaxWSKB)
			}
			return nil
		},
		normalize: func(w *WorkloadSpec) {
			defaultName(w, "xmem")
			if w.Pattern == "" {
				w.Pattern = "sequential"
			}
			if w.WSKB == 0 {
				w.WSKB = 4 << 10 // 4 MiB
			}
		},
		names: ownName,
		build: func(s *harness.Scenario, w *WorkloadSpec) error {
			pat, _ := patternOf(w.Pattern)
			s.AddXMem(w.Name, w.Cores, w.WSKB<<10, pat, w.Write, priorityOf(w.Priority))
			return nil
		},
	},
	"spec": {
		cores: 1,
		knobs: []string{"bench"},
		validate: func(w *WorkloadSpec) error {
			if _, ok := workload.SPECProfiles[w.Bench]; !ok {
				return fmt.Errorf("unknown SPEC benchmark %q", w.Bench)
			}
			return fixedName(w, w.Bench)
		},
		normalize: func(w *WorkloadSpec) { w.Name = w.Bench },
		names:     ownName,
		build: func(s *harness.Scenario, w *WorkloadSpec) error {
			s.AddSPEC(w.Bench, w.Cores[0], priorityOf(w.Priority))
			return nil
		},
	},
	"redis": {
		cores: 2,
		knobs: []string{"client_priority"},
		validate: func(w *WorkloadSpec) error {
			switch w.ClientPriority {
			case "", "hpw", "lpw", "HPW", "LPW":
			default:
				return fmt.Errorf("bad client_priority %q (want hpw or lpw)", w.ClientPriority)
			}
			return fixedName(w, "redis")
		},
		normalize: func(w *WorkloadSpec) {
			w.Name = "redis"
			if w.ClientPriority == "" {
				w.ClientPriority = w.Priority
				if w.ClientPriority == "" {
					w.ClientPriority = "lpw"
				}
			}
		},
		names: func(w *WorkloadSpec) []string { return []string{"redis-s", "redis-c"} },
		build: func(s *harness.Scenario, w *WorkloadSpec) error {
			s.AddRedisPair(w.Cores[0], w.Cores[1], priorityOf(w.Priority), priorityOf(w.ClientPriority))
			return nil
		},
	},
	"synthetic": {
		knobs: []string{"ws_kb", "pattern", "skew", "write_frac", "instr_per_op", "cpi_base", "overlap"},
		validate: func(w *WorkloadSpec) error {
			if w.Name == "" {
				return fmt.Errorf("synthetic workload needs a name")
			}
			if w.Pattern != "" {
				if _, ok := patternOf(w.Pattern); !ok {
					return fmt.Errorf("bad pattern %q (want sequential, random, or zipf)", w.Pattern)
				}
			}
			if w.WSKB <= 0 || w.WSKB > MaxWSKB {
				return fmt.Errorf("synthetic workload needs ws_kb in [1,%d]", MaxWSKB)
			}
			if w.WriteFrac < 0 || w.WriteFrac > 1 {
				return fmt.Errorf("write_frac %g outside [0,1]", w.WriteFrac)
			}
			if w.Skew < 0 || w.Skew > 10 {
				return fmt.Errorf("skew %g outside [0,10]", w.Skew)
			}
			if w.InstrPerOp < 0 || w.InstrPerOp > MaxInstrPerOp {
				return fmt.Errorf("instr_per_op %d outside [0,%d]", w.InstrPerOp, MaxInstrPerOp)
			}
			if w.CPIBase < 0 || w.CPIBase > 100 {
				return fmt.Errorf("cpi_base %g outside [0,100]", w.CPIBase)
			}
			if w.Overlap < 0 || w.Overlap > MaxOverlap {
				return fmt.Errorf("overlap %d outside [0,%d]", w.Overlap, MaxOverlap)
			}
			return nil
		},
		normalize: func(w *WorkloadSpec) {
			if w.Pattern == "" {
				w.Pattern = "sequential"
			}
			if w.InstrPerOp == 0 {
				w.InstrPerOp = 10
			}
			if w.CPIBase == 0 {
				w.CPIBase = 0.5
			}
			if w.Overlap == 0 {
				w.Overlap = 1
			}
		},
		names: ownName,
		build: func(s *harness.Scenario, w *WorkloadSpec) error {
			pat, _ := patternOf(w.Pattern)
			s.AddSynthetic(workload.SyntheticConfig{
				Name:       w.Name,
				Cores:      w.Cores,
				WSBytes:    w.WSKB << 10,
				Pattern:    pat,
				Skew:       w.Skew,
				WriteFrac:  w.WriteFrac,
				InstrPerOp: w.InstrPerOp,
				CPIBase:    w.CPIBase,
				Overlap:    w.Overlap,
			}, priorityOf(w.Priority))
			return nil
		},
	},
}
