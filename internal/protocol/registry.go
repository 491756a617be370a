package protocol

import (
	"fmt"
	"sort"
	"strings"
)

// Descriptor describes one registered protocol: how to parse its textual
// options and how to attach it to an environment. Registration follows the
// database/sql driver pattern — protocol adapters live in
// internal/protocol/catalog and register themselves from init(), so this
// package never imports a protocol package.
type Descriptor struct {
	// Name keys the registry ("pik2", "pi2", "chi", "watchers", "fatih").
	Name string
	// Summary is the one-line description -list-protocols prints.
	Summary string
	// Precision is the protocol's a-accuracy bound (§4.2.2): the largest
	// router set a suspicion may implicate without being a false
	// accusation (replica pinpoints 1, Π2/WATCHERS name pairs, χ's queue
	// suspicion spans 3, Πk+2/Fatih name k+2 = 3 segment ends). Zero means
	// the protocol makes no accuracy claim; the mutation campaign judges
	// detections against this bound.
	Precision int
	// ParseOptions decodes textual params into the protocol's native
	// Options value. Unknown keys and malformed values are errors. Nil
	// means the protocol takes no textual options.
	ParseOptions func(Params) (any, error)
	// Attach deploys the protocol on env with the given native options (as
	// produced by ParseOptions; nil means defaults) and the runtime hooks,
	// and returns the attached engine (*pik2.Protocol, *chi.Protocol,
	// *fatih.System, …).
	Attach func(env Env, opts any, hooks Hooks) (any, error)
	// Scenario, when non-nil, runs the protocol's canonical end-to-end
	// scenario for specs the generic runner cannot express (χ's learning
	// pass + calibration, Fatih's full Abilene composition). Nil protocols
	// run through the generic topology/attack/traffic runner.
	Scenario func(spec *Spec, run RunOptions) (*Result, error)
	// DefaultSpec returns the protocol's canonical detection scenario for
	// a seed — the shared ground the cross-protocol conformance test runs
	// every registered protocol on. clean omits the attack.
	DefaultSpec func(seed int64, clean bool) *Spec
}

// registry is populated from init() functions (protocol/catalog) and read
// afterwards; scenario execution never mutates it.
var registry = make(map[string]Descriptor)

// Register adds a protocol descriptor. It panics on duplicate or invalid
// registration — both are programmer errors in an init().
func Register(d Descriptor) {
	if d.Name == "" {
		panic("protocol: Register with empty name")
	}
	if d.Attach == nil && d.Scenario == nil {
		panic(fmt.Sprintf("protocol: Register(%q) with neither Attach nor Scenario", d.Name))
	}
	if _, dup := registry[d.Name]; dup {
		panic(fmt.Sprintf("protocol: Register(%q) called twice", d.Name))
	}
	registry[d.Name] = d
}

// Names lists the registered protocols, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup resolves a protocol by name. The error names the known protocols
// so a typo on a CLI or in a scenario file is self-explaining.
func Lookup(name string) (Descriptor, error) {
	d, ok := registry[name]
	if !ok {
		return Descriptor{}, fmt.Errorf("unknown protocol %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return d, nil
}

// Attach constructs the named protocol on env with native options (nil =
// defaults) and hooks, and returns the attached engine. It is for callers
// that hold a protocol name (a CLI flag, a scenario file); a caller that
// holds typed options calls the protocol package's own Attach and gets
// the typed engine.
func Attach(env Env, name string, opts any, hooks Hooks) (any, error) {
	d, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if d.Attach == nil {
		return nil, fmt.Errorf("protocol %q only runs as a full scenario", name)
	}
	return d.Attach(env, opts, hooks)
}

// MustAttach is Attach for call sites whose protocol name and options are
// static (the experiment harnesses): any error is a bug, not an input
// problem.
func MustAttach(env Env, name string, opts any, hooks Hooks) any {
	engine, err := Attach(env, name, opts, hooks)
	if err != nil {
		panic(fmt.Sprintf("protocol: %v", err))
	}
	return engine
}
