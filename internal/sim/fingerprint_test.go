package sim

import (
	"reflect"
	"testing"
)

// TestFingerprintCoversEveryScenarioField is the completeness guard for
// content-addressed caching (meshsimd) and sweep checkpoints: every field
// reachable from Scenario must change the fingerprint when perturbed.
// Fingerprint hashes json.Marshal(Scenario), so the ways a field can
// escape are (a) being unexported or (b) carrying a `json:"-"` tag — both
// of which this test turns into a build-time-adjacent failure naming the
// field, instead of a silent cache collision in production.
//
// Run parameters that live outside Scenario (replication count, journey
// divisor, metrics sampling interval) are the serve package's problem:
// internal/serve folds them into its key material.
func TestFingerprintCoversEveryScenarioField(t *testing.T) {
	base := DefaultScenario()
	baseFP := base.Fingerprint()

	var paths [][]int
	collectLeafPaths(t, reflect.TypeOf(Scenario{}), "Scenario", nil, &paths)
	if len(paths) < 20 {
		t.Fatalf("found only %d scenario leaves; the walker is broken", len(paths))
	}

	for _, path := range paths {
		sc := DefaultScenario()
		v := reflect.ValueOf(&sc).Elem()
		name := "Scenario"
		for _, idx := range path {
			name += "." + v.Type().Field(idx).Name
			v = v.Field(idx)
		}
		perturb(t, name, v)
		if sc.Fingerprint() == baseFP {
			t.Errorf("perturbing %s does not change Scenario.Fingerprint — "+
				"the field is invisible to content-addressed caches and sweep checkpoints "+
				"(unexported? json:\"-\"?)", name)
		}
	}
}

// collectLeafPaths walks the exported struct fields reachable from t,
// recording the field-index path of every non-struct leaf. Unexported and
// json-excluded fields fail the test by name: they cannot influence the
// fingerprint.
func collectLeafPaths(t *testing.T, typ reflect.Type, name string, prefix []int, out *[][]int) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		fname := name + "." + f.Name
		if !f.IsExported() {
			t.Errorf("%s is unexported: json.Marshal skips it, so Scenario.Fingerprint cannot see it", fname)
			continue
		}
		if tag, ok := f.Tag.Lookup("json"); ok && tag == "-" {
			t.Errorf("%s is tagged json:\"-\": Scenario.Fingerprint cannot see it", fname)
			continue
		}
		path := append(append([]int(nil), prefix...), i)
		if f.Type.Kind() == reflect.Struct {
			collectLeafPaths(t, f.Type, fname, path, out)
			continue
		}
		*out = append(*out, path)
	}
}

// perturb changes v to a different JSON-visible value, allocating through
// nil pointers/slices/maps as needed.
func perturb(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		if v.Len() > 0 {
			perturb(t, name+"[0]", v.Index(0))
			return
		}
		el := reflect.New(v.Type().Elem()).Elem()
		perturb(t, name+"[new]", el)
		v.Set(reflect.Append(v, el))
	case reflect.Array:
		if v.Len() == 0 {
			t.Fatalf("%s: a zero-length array has no JSON-visible value to change", name)
		}
		perturb(t, name+"[0]", v.Index(0))
	case reflect.Map:
		if v.IsNil() {
			v.Set(reflect.MakeMap(v.Type()))
		}
		k := reflect.New(v.Type().Key()).Elem()
		perturb(t, name+"[key]", k)
		val := reflect.New(v.Type().Elem()).Elem()
		perturb(t, name+"[val]", val)
		v.SetMapIndex(k, val)
	case reflect.Ptr:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		perturb(t, name+".*", v.Elem())
	case reflect.Struct:
		// Reached only through slice/map/pointer elements; perturb the
		// first perturbable field.
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				perturb(t, name+"."+v.Type().Field(i).Name, v.Field(i))
				return
			}
		}
		t.Fatalf("%s: struct with no exported fields", name)
	default:
		t.Fatalf("%s: no perturbation strategy for kind %s — teach the fingerprint guard about it", name, v.Kind())
	}
}
