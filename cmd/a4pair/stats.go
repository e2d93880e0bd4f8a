package main

import (
	"fmt"
	"math"
	"sort"
)

// spread is a sample's nearest-rank median and quartiles.
type spread struct{ p25, med, p75 float64 }

func summarize(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(q float64) float64 {
		if len(s) == 0 {
			return 0
		}
		return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
	}
	return spread{q(0.25), q(0.5), q(0.75)}
}

func (s spread) iqr() float64 { return s.p75 - s.p25 }

func (s spread) String() string { return fmt.Sprintf("%.4g [%.4g–%.4g]", s.med, s.p25, s.p75) }

// better reports whether a beats b on metric m.
func better(m metricDef, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// wins counts the pairs the change wins and those the parent wins; ties
// count for neither.
func wins(m metricDef, parent, change []float64) (c, p int) {
	for i := range parent {
		if better(m, change[i], parent[i]) {
			c++
		} else if better(m, parent[i], change[i]) {
			p++
		}
	}
	return c, p
}

// verdict judges a metric by the rules in the package comment.
func verdict(m metricDef, parent, change []float64) string {
	ps, cs := summarize(parent), summarize(change)
	c, _ := wins(m, parent, change)
	diff := math.Abs(cs.med - ps.med)
	switch {
	case 10*c >= 9*len(parent) && better(m, cs.med, ps.med) && diff > ps.iqr():
		return "gain"
	case better(m, ps.med, cs.med) && diff > m.Bound*math.Abs(ps.med):
		return "regressed"
	case (ps.iqr() > m.Bound*math.Abs(ps.med) || cs.iqr() > m.Bound*math.Abs(cs.med)) && !separated(m, parent, change):
		return "unresolved"
	}
	return "flat"
}

// separated reports whether every change run beats every parent run.
func separated(m metricDef, parent, change []float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(m, c, p) {
				return false
			}
		}
	}
	return true
}

// row formats one table row.
func row(workload string, m metricDef, parent, change []float64) string {
	c, p := wins(m, parent, change)
	return fmt.Sprintf("| %s | %s (%s, %s better, bound %g) | %v | %v | %d–%d | %.2g | %s |\n",
		workload, m.Name, m.Unit, m.Better, m.Bound, summarize(parent), summarize(change),
		c, p, mannWhitneyP(parent, change), verdict(m, parent, change))
}

// mannWhitneyP is the exact two-sided p-value of the Mann–Whitney U test
// of x against y: the share of all ways to split the pooled values into
// groups of len(x) and len(y) whose U lies at least as far from its mean
// as the observed one. Ties count a half in U, so fully tied samples give
// 1. Enumerating C(n, len(x)) splits suits the 5 and 10 pairs run here.
func mannWhitneyP(x, y []float64) float64 {
	pooled := append(append([]float64(nil), x...), y...)
	inX := make([]bool, len(pooled))
	u := func() (u float64) {
		for i, a := range pooled {
			for j, b := range pooled {
				if inX[i] && !inX[j] {
					switch {
					case a > b:
						u++
					case a == b:
						u += 0.5
					}
				}
			}
		}
		return u
	}
	for i := range x {
		inX[i] = true
	}
	mean := float64(len(x)*len(y)) / 2
	observed := math.Abs(u() - mean)
	var splits, extreme float64
	var choose func(i, k int)
	choose = func(i, k int) {
		switch {
		case k == 0:
			splits++
			if math.Abs(u()-mean) >= observed-1e-9 {
				extreme++
			}
		case len(pooled)-i >= k:
			inX[i] = true
			choose(i+1, k-1)
			inX[i] = false
			choose(i+1, k)
		}
	}
	clear(inX)
	choose(0, len(x))
	return extreme / splits
}
