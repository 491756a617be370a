package telemetry

import (
	"flag"
	"io"
	"os"
	"strings"
)

// Flags is the standard command-line surface of the telemetry subsystem,
// shared by the CLIs (cmd/mrsim, cmd/figures, cmd/mrreplay). All outputs go to explicit
// files or stderr, never stdout: the canonical figure/scenario output on
// stdout stays byte-identical whether or not instrumentation is on.
type Flags struct {
	// Metrics is the snapshot destination: ".prom"/".txt" suffixes select
	// the Prometheus text format, anything else JSON, "-" writes Prometheus
	// text to stderr.
	Metrics string
	// Trace is the event-trace destination: a ".json" suffix selects the
	// Chrome trace-event format, anything else the plain timeline, "-"
	// writes the timeline to stderr.
	Trace string
	// TracePackets opts into per-packet trace instants (large traces).
	TracePackets bool
	// CPUProfile and MemProfile are pprof output paths.
	CPUProfile string
	MemProfile string
}

// RegisterFlags installs the telemetry flags on fs. trace names the flag the
// event trace answers to: "trace", except in a CLI whose -trace already
// means something else (mrreplay's trace directory).
func RegisterFlags(fs *flag.FlagSet, trace string) *Flags {
	var f Flags
	fs.StringVar(&f.Metrics, "metrics", "",
		"write a metrics snapshot at exit (.prom/.txt = Prometheus text, else JSON; - = Prometheus to stderr)")
	fs.StringVar(&f.Trace, trace, "",
		"write the virtual-time event trace at exit (.json = Chrome trace-event, else plain timeline; - = timeline to stderr)")
	fs.BoolVar(&f.TracePackets, "trace-packets", false,
		"include per-packet events in -"+trace+" (large)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof allocation profile at exit")
	return &f
}

// Enabled reports whether any simulation instrumentation was requested
// (profiles don't count: they need no Set).
func (f *Flags) Enabled() bool { return f.Metrics != "" || f.Trace != "" }

// NewSet builds the instrumentation set the flags ask for, or nil when
// neither -metrics nor -trace was given — keeping the CLI on the
// zero-overhead disabled path by default.
func (f *Flags) NewSet() *Set {
	if !f.Enabled() {
		return nil
	}
	s := &Set{PacketEvents: f.TracePackets}
	if f.Metrics != "" {
		s.Metrics = NewRegistry()
	}
	if f.Trace != "" {
		s.Trace = NewTracer(0)
	}
	return s
}

// Finish writes the requested outputs from s (whose registry or tracer may
// be nil — e.g. aggregate modes that fold metrics but don't trace; such
// outputs are skipped) plus the allocation profile. Call once, after the
// workload, after stopping any CPU profile.
func (f *Flags) Finish(s *Set) error {
	if f.Metrics != "" {
		if reg := s.Registry(); reg != nil {
			prom := f.Metrics == "-" ||
				strings.HasSuffix(f.Metrics, ".prom") || strings.HasSuffix(f.Metrics, ".txt")
			err := writeOut(f.Metrics, func(w io.Writer) error {
				if prom {
					return reg.WritePrometheus(w)
				}
				return reg.WriteJSON(w)
			})
			if err != nil {
				return err
			}
		}
	}
	if f.Trace != "" {
		if tr := s.Tracer(); tr != nil {
			err := writeOut(f.Trace, func(w io.Writer) error {
				if f.Trace != "-" && strings.HasSuffix(f.Trace, ".json") {
					return tr.WriteChromeTrace(w)
				}
				return tr.WriteTimeline(w)
			})
			if err != nil {
				return err
			}
		}
	}
	if f.MemProfile != "" {
		return WriteHeapProfile(f.MemProfile)
	}
	return nil
}

// writeOut writes through fn to the named file, or to stderr for "-".
func writeOut(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stderr)
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
