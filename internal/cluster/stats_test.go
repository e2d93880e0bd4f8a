package cluster

import (
	"reflect"
	"strings"
	"testing"

	"a4sim/internal/service"
)

// TestStatsFieldsDeclareFamilies: every /stats value is an integer field
// that declares its /metrics family, so a field added without one fails
// here rather than vanishing from a scrape.
func TestStatsFieldsDeclareFamilies(t *testing.T) {
	seen := map[string]bool{}
	for _, typ := range []reflect.Type{reflect.TypeFor[service.Stats](), reflect.TypeFor[Routing]()} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if k := f.Type.Kind(); k < reflect.Int || k > reflect.Uint64 {
				t.Errorf("%s.%s is %s, want an integer", typ.Name(), f.Name, f.Type)
			}
			name, kind, _ := strings.Cut(f.Tag.Get("prom"), ",")
			if !strings.HasPrefix(name, "a4_") || (kind != "counter" && kind != "gauge") {
				t.Errorf("%s.%s: prom tag %q, want \"a4_<name>,counter|gauge\"", typ.Name(), f.Name, f.Tag.Get("prom"))
			}
			if seen[name] {
				t.Errorf("%s.%s: family %s declared twice", typ.Name(), f.Name, name)
			}
			seen[name] = true
		}
	}
}
