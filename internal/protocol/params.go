package protocol

import (
	"fmt"
	"sort"
	"strconv"
	"time"
)

// Params is the textual option map of a scenario spec or a CLI: protocol
// descriptors parse it into their native typed Options. Keys are
// kebab-case ("loss-threshold"); values use Go literal syntax ("2",
// "250ms", "true").
type Params map[string]string

// ParamDecoder converts Params into typed option fields while tracking
// which keys were consumed, so unknown options surface as errors instead
// of being silently ignored — a misspelled option in a scenario file must
// not silently run the default.
type ParamDecoder struct {
	params Params
	used   map[string]bool
	err    error
}

// NewParamDecoder starts decoding p (nil is an empty parameter set).
func NewParamDecoder(p Params) *ParamDecoder {
	return &ParamDecoder{params: p, used: make(map[string]bool, len(p))}
}

func (d *ParamDecoder) lookup(key string) (string, bool) {
	d.used[key] = true
	v, ok := d.params[key]
	return v, ok
}

func (d *ParamDecoder) fail(key, val, want string, err error) {
	if d.err == nil {
		d.err = fmt.Errorf("option %q: %q is not a valid %s: %v", key, val, want, err)
	}
}

// reject records that option key's value, though well-formed, is not one the
// protocol can run with.
func (d *ParamDecoder) reject(key, why string) {
	if d.err == nil {
		d.err = fmt.Errorf("option %q: %q %s", key, d.params[key], why)
	}
}

// String returns the string option key, or def when absent.
func (d *ParamDecoder) String(key, def string) string {
	if v, ok := d.lookup(key); ok {
		return v
	}
	return def
}

// Int returns the integer option key, or def when absent. Every integer
// option is a count, size, threshold or router id, so a negative value is an
// error.
func (d *ParamDecoder) Int(key string, def int) int {
	v, ok := d.lookup(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		d.fail(key, v, "integer", err)
		return def
	}
	if n < 0 {
		d.reject(key, "must not be negative")
		return def
	}
	return n
}

// Float returns the float option key, or def when absent.
func (d *ParamDecoder) Float(key string, def float64) float64 {
	v, ok := d.lookup(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		d.fail(key, v, "number", err)
		return def
	}
	return f
}

// Fraction is Float for a rate or probability: a value outside [0, 1], NaN
// included, is an error.
func (d *ParamDecoder) Fraction(key string, def float64) float64 {
	f := d.Float(key, def)
	if !(f >= 0 && f <= 1) {
		d.reject(key, "must lie in [0, 1]")
		return def
	}
	return f
}

// Bool returns the boolean option key, or def when absent.
func (d *ParamDecoder) Bool(key string, def bool) bool {
	v, ok := d.lookup(key)
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		d.fail(key, v, "boolean", err)
		return def
	}
	return b
}

// Duration returns the duration option key ("250ms", "5s"), or def when
// absent. Every duration option is an interval or timeout, so a negative
// value is an error (it would reach the scheduler as a ticker interval or a
// delay into the past).
func (d *ParamDecoder) Duration(key string, def time.Duration) time.Duration {
	v, ok := d.lookup(key)
	if !ok {
		return def
	}
	dur, err := time.ParseDuration(v)
	if err != nil {
		d.fail(key, v, "duration", err)
		return def
	}
	if dur < 0 {
		d.reject(key, "must not be negative")
		return def
	}
	return dur
}

// Err returns the first conversion error, or an error naming every key the
// descriptor never asked for (sorted, so the message is deterministic).
func (d *ParamDecoder) Err() error {
	if d.err != nil {
		return d.err
	}
	var unknown []string
	for k := range d.params {
		if !d.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	return fmt.Errorf("unknown options %q", unknown)
}
