package routing

import (
	"reflect"
	"strings"
	"testing"
)

// TestCountersFoldEveryField gives each Counters field a distinct value
// and requires Fold to report every one exactly once, under unique
// "routing/" names: a field added without its Fold line fails here.
func TestCountersFoldEveryField(t *testing.T) {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Uint64 {
			t.Fatalf("field %s is not a uint64 count", v.Type().Field(i).Name)
		}
		v.Field(i).SetUint(uint64(i + 1))
	}
	folded := map[uint64]string{}
	names := map[string]bool{}
	c.Fold(func(name string, x uint64) {
		if !strings.HasPrefix(name, "routing/") || names[name] {
			t.Errorf("name %q: missing the layer prefix or reported twice", name)
		}
		if prev, ok := folded[x]; ok || x == 0 || x > uint64(v.NumField()) {
			t.Errorf("%q reports %d, no field's value or already reported as %q", name, x, prev)
		}
		names[name], folded[x] = true, name
	})
	for i := 0; i < v.NumField(); i++ {
		if _, ok := folded[uint64(i+1)]; !ok {
			t.Errorf("Fold does not report field %s", v.Type().Field(i).Name)
		}
	}
}
