package figures

import (
	"reflect"
	"testing"

	"a4sim/internal/scenario"
	"a4sim/internal/service"
)

// TestPrefixSweepMatchesFresh pins the acceptance property of the point
// executor: every point of a prefix-shared group is identical to a fresh,
// serial, non-forking run of the same point (start, warm, program the
// boundary change, measure) — at any worker count. The points diverge in
// CAT ways and, like Fig. 8a, in the SSD port's DCA.
func TestPrefixSweepMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs are slow")
	}
	o := Options{RateScale: 4096, Workers: 4}
	start := o.spec(2, 1,
		dpdk("dpdk-t", true, 4, 5),
		fio(fioHigh, 128, 2, 3),
		scenario.WorkloadSpec{Kind: "xmem", Name: "xmem", Cores: []int{8, 9}, Priority: "hpw", WSKB: defaultXMemKB, Pattern: "sequential"},
	)
	pts := []point{
		{start: start},
		{start, withWays(start, 2, 0, 1)},
		{start, withWays(start, 2, 9, 10)},
		{start, withDCA(start, scenario.DCASSDOff)},
		{start, withDCA(withWays(start, 2, 9, 10), scenario.DCAOff)},
	}
	starts := make([]*scenario.Spec, len(pts))
	for i, p := range pts {
		starts[i] = p.start
	}
	if groups := service.GroupSpecsByPrefix(starts); len(groups) != 1 {
		t.Fatalf("points sharing a start spec formed %d groups, want 1 (no fork path)", len(groups))
	}
	forked := run(o, pts, nil)

	for i, p := range pts {
		s, err := p.start.Clone().Start()
		if err != nil {
			t.Fatal(err)
		}
		s.Warm(2)
		if p.at != nil {
			if err := p.at.Program(s); err != nil {
				t.Fatal(err)
			}
		}
		s.BeginMeasure()
		s.Measure(1)
		fresh := s.EndMeasure()
		if !reflect.DeepEqual(fresh, forked[i]) {
			t.Errorf("point %d: forked result differs from fresh run\nfresh: %+v\nfork:  %+v", i, fresh, forked[i])
		}
	}
	// The boundary changes take effect: SSD-DCA off moves the NIC workload.
	if reflect.DeepEqual(forked[0].W("dpdk-t"), forked[3].W("dpdk-t")) {
		t.Error("the SSD-DCA flip at the boundary changed nothing")
	}
}
