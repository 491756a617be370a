package catalog

import (
	"reflect"
	"testing"

	"routerwatch/internal/protocol"
)

// FuzzParseOptions hands every registered descriptor's ParseOptions (Fatih
// has none) arbitrary key/value pairs: it must return options or an error, never
// panic, and options it returns hold no negative count, size, threshold,
// router id, interval or timeout — the values that used to reach the
// scheduler and the router table unchecked. Seeded with every key the
// descriptors' canonical scenarios set, and the values that used to get
// through.
func FuzzParseOptions(f *testing.F) {
	var descs []protocol.Descriptor
	for _, name := range protocol.Names() {
		d, err := protocol.Lookup(name)
		if err != nil {
			f.Fatal(err)
		}
		if d.ParseOptions == nil {
			continue
		}
		descs = append(descs, d)
		if d.DefaultSpec == nil {
			continue
		}
		for k, v := range d.DefaultSpec(1, false).Options {
			f.Add(k, v, "round", "-1s")
		}
	}
	f.Add("observed", "-1", "tolerance", "3")
	f.Add("r", "1", "rd", "-9")
	f.Add("k", "-3", "sampling", "NaN")
	f.Add("single-threshold", "1.5", "timeout", "-250ms")
	// A deleted knob and a deleted mode: an unknown key and an unknown value
	// (TestRunBadOptions asserts both are refused by name).
	f.Add("sketch-capacity", "-5", "exchange", "sketch")
	f.Add("mode", "model", "rtt", "-1ms")
	f.Fuzz(func(t *testing.T, k1, v1, k2, v2 string) {
		params := protocol.Params{k1: v1, k2: v2}
		for _, d := range descs {
			opts, err := d.ParseOptions(params)
			if err != nil {
				continue
			}
			if path := negativeField(reflect.ValueOf(opts), d.Name); path != "" {
				t.Errorf("%s accepted %q as a negative %s", d.Name, params, path)
			}
		}
	})
}

// negativeField returns the path of the first negative integer (a duration
// is one) inside v, or "".
func negativeField(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.Int() < 0 {
			return path
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := negativeField(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return negativeField(v.Elem(), path)
		}
	}
	return ""
}
