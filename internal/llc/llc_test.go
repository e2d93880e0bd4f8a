package llc

import (
	"fmt"
	"testing"

	"a4sim/internal/cache"
)

func TestGeometryValidate(t *testing.T) {
	if err := SkylakeGeometry().Validate(); err != nil {
		t.Fatalf("Skylake geometry invalid: %v", err)
	}
	bad := []Geometry{
		{Sets: 0, Ways: 11},
		{Sets: 3, Ways: 11},
		{Sets: 8, Ways: 0},
		{Sets: 8, Ways: 40},
		{Sets: 8, Ways: 4, NumDCA: 3, NumInclusive: 2},
		{Sets: 8, Ways: 4, NumDCA: -1},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("geometry %+v should be invalid", g)
		}
	}
	if got := SkylakeGeometry().SizeBytes(); got != 32768*11*64 {
		t.Errorf("SizeBytes = %d", got)
	}
}

func TestWayRoles(t *testing.T) {
	l := New(TestGeometry()) // 11 ways, 2 DCA, 2 inclusive
	wantRoles := map[int]WayRole{
		0: RoleDCA, 1: RoleDCA,
		2: RoleStandard, 8: RoleStandard,
		9: RoleInclusive, 10: RoleInclusive,
	}
	for w, want := range wantRoles {
		if got := l.RoleOf(w); got != want {
			t.Errorf("RoleOf(%d) = %v, want %v", w, got, want)
		}
	}
	if l.RoleOf(-1) != RoleNone || l.RoleOf(11) != RoleNone {
		t.Errorf("out-of-range roles should be RoleNone")
	}
	if l.DCAMask() != cache.MaskRange(0, 1) {
		t.Errorf("DCA mask = %#x", uint32(l.DCAMask()))
	}
	if l.InclusiveMask() != cache.MaskRange(9, 10) {
		t.Errorf("inclusive mask = %#x", uint32(l.InclusiveMask()))
	}
	if l.StandardMask() != cache.MaskRange(2, 8) {
		t.Errorf("standard mask = %#x", uint32(l.StandardMask()))
	}
	for _, r := range []WayRole{RoleDCA, RoleStandard, RoleInclusive, RoleNone} {
		if r.String() == "" {
			t.Errorf("empty role name for %d", r)
		}
	}
}

func TestInsertDCAConfinement(t *testing.T) {
	l := New(TestGeometry())
	for i := 0; i < 50; i++ {
		addr := uint64(i * 257)
		_, way := l.InsertDCA(addr, 1, 0)
		if way != 0 && way != 1 {
			t.Fatalf("DCA insert landed in way %d", way)
		}
		line, _ := l.Probe(addr)
		if !line.Valid || !line.IO() || !line.Dirty() {
			t.Fatalf("DCA line metadata wrong: %+v", line)
		}
	}
}

func TestInsertInclusiveConfinement(t *testing.T) {
	l := New(TestGeometry())
	_, way := l.InsertInclusive(42, 1, -1, 0)
	if way != 9 && way != 10 {
		t.Fatalf("inclusive insert landed in way %d", way)
	}
	line, _ := l.Probe(42)
	if !line.Inclusive() {
		t.Fatalf("inclusive flag not set")
	}
}

func TestMigrateToInclusive(t *testing.T) {
	l := New(TestGeometry())
	// Fill the inclusive ways of set 0 first.
	set0 := func(i int) uint64 { return uint64(i) * uint64(l.Geometry().Sets) }
	l.InsertInclusive(set0(1), 1, -1, 0)
	l.InsertInclusive(set0(2), 1, -1, 0)
	// A DMA line in a DCA way migrates and evicts an inclusive-way victim.
	l.InsertDCA(set0(3), 2, 0)
	mway, evicted := l.MigrateToInclusive(set0(3))
	moved, _ := l.Probe(set0(3))
	if mway < 0 || !moved.Inclusive() || !moved.Consumed() {
		t.Fatalf("migration state wrong: %+v (way %d)", moved, mway)
	}
	if w := l.ProbeWay(set0(3)); w != 9 && w != 10 {
		t.Fatalf("migrated line in way %d", w)
	}
	if !evicted.Valid {
		t.Fatalf("expected an inclusive-way eviction")
	}
	// Migrating a non-resident line is a no-op.
	if w, _ := l.MigrateToInclusive(set0(99)); w >= 0 {
		t.Errorf("migrating a missing line should report a miss")
	}
}

func TestSetDCAMask(t *testing.T) {
	l := New(TestGeometry())
	l.SetDCAMask(cache.MaskRange(0, 3)) // widen DDIO to 4 ways
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		_, way := l.InsertDCA(uint64(i*61), 1, 0)
		seen[way] = true
	}
	for w := range seen {
		if w > 3 {
			t.Fatalf("DCA insert escaped widened mask: way %d", w)
		}
	}
}

func TestVictimInsertHonoursCAT(t *testing.T) {
	l := New(TestGeometry())
	mask := cache.MaskRange(5, 6)
	for i := 0; i < 64; i++ {
		_, way := l.InsertVictim(uint64(i*129), mask, 3, -1, cache.FlagDirty)
		if way != 5 && way != 6 {
			t.Fatalf("victim insert landed in way %d, mask [5:6]", way)
		}
	}
}

// roleCounts tallies the LLC's valid lines per way role from one walk of
// its lines: per owner, in total, and the DMA-written and not yet consumed
// populations.
type roleCounts struct {
	byOwner      map[WayRole]map[int16]int
	valid        map[WayRole]int
	ioLines      map[WayRole]int
	unconsumedIO map[WayRole]int
}

func countRoles(l *LLC) roleCounts {
	rc := roleCounts{byOwner: map[WayRole]map[int16]int{}, valid: map[WayRole]int{},
		ioLines: map[WayRole]int{}, unconsumedIO: map[WayRole]int{}}
	l.Array().ForEach(func(set, way int, line *cache.Line) {
		role := l.RoleOf(way)
		rc.valid[role]++
		if rc.byOwner[role] == nil {
			rc.byOwner[role] = map[int16]int{}
		}
		if line.Owner >= 0 {
			rc.byOwner[role][line.Owner]++
		}
		if line.IO() {
			rc.ioLines[role]++
			if !line.Consumed() {
				rc.unconsumedIO[role]++
			}
		}
	})
	return rc
}

func TestOccupancySnapshot(t *testing.T) {
	l := New(TestGeometry())
	// Two DCA lines (one consumed), one inclusive line, one standard line.
	l.InsertDCA(1, 3, 0)
	l.InsertDCA(2, 3, 0)
	if _, w := l.Probe(2); w >= 0 {
		l.MutateFlags(2, w, cache.FlagConsumed, 0)
	}
	l.InsertInclusive(3, 4, -1, 0)
	l.InsertVictim(4, cache.MaskRange(4, 4), 5, -1, 0)

	o := countRoles(l)
	if o.valid[RoleDCA] != 2 || o.valid[RoleInclusive] != 1 || o.valid[RoleStandard] != 1 {
		t.Fatalf("valid counts wrong: %+v", o.valid)
	}
	if o.ioLines[RoleDCA] != 2 || o.unconsumedIO[RoleDCA] != 1 {
		t.Fatalf("IO accounting wrong: io=%d unconsumed=%d", o.ioLines[RoleDCA], o.unconsumedIO[RoleDCA])
	}
	if o.byOwner[RoleDCA][3] != 2 || o.byOwner[RoleStandard][5] != 1 {
		t.Fatalf("owner accounting wrong: %+v", o.byOwner)
	}
	// The array's own counts agree with the walk, region by region.
	arr := l.Array()
	for role, mask := range map[WayRole]cache.WayMask{
		RoleDCA: l.DCAMask(), RoleStandard: l.StandardMask(), RoleInclusive: l.InclusiveMask(),
	} {
		if got := arr.CountValid(mask); got != o.valid[role] {
			t.Errorf("%v: CountValid %d, walk %d", role, got, o.valid[role])
		}
		occ := map[int16]int{}
		arr.OccupancyByOwner(mask, occ)
		if fmt.Sprint(occ) != fmt.Sprint(o.byOwner[role]) {
			t.Errorf("%v: OccupancyByOwner %v, walk %v", role, occ, o.byOwner[role])
		}
	}
	// LinesByOwner clears its map and counts every way.
	lines := map[int16]int{99: 7}
	l.LinesByOwner(lines)
	if want := map[int16]int{3: 2, 4: 1, 5: 1}; fmt.Sprint(lines) != fmt.Sprint(want) {
		t.Fatalf("LinesByOwner = %v, want %v", lines, want)
	}
}
