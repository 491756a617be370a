package capture

import (
	"errors"
	"fmt"
	"os"
	"time"

	"routerwatch/internal/network"
	"routerwatch/internal/protocol"
)

// RecorderOptions configures a Recorder.
type RecorderOptions struct {
	// Gzip compresses the per-router files (rN.pcap.gz). Committed test
	// fixtures use it; interactive recordings default to plain pcap.
	Gzip bool
}

// Recorder taps every router of a simulated network and writes each
// router's packet events to its own pcap file, plus a manifest (MetaFile)
// describing the topology and seed — together a complete, replayable
// trace directory for TraceEnv.
//
// Attach it before the run (e.g. from RunOptions.BeforeRun) and Close it
// after: the manifest records the virtual instant Attach ran, where a
// replay's clock starts, and the final virtual time, the replay horizon.
// Recording only observes — a recorded run's outputs are byte-identical to
// an unrecorded one.
type Recorder struct {
	dir  string
	opts RecorderOptions

	net     *network.Network
	start   time.Duration
	writers []*FileWriter
	scratch []byte
	err     error
}

// NewRecorder returns a recorder that will write into dir (created on
// Attach).
func NewRecorder(dir string, opts RecorderOptions) *Recorder {
	return &Recorder{dir: dir, opts: opts}
}

// Attach creates the trace directory and taps every router. It must be
// called before the simulation runs.
func (rec *Recorder) Attach(net *network.Network) error {
	if rec.net != nil {
		return errors.New("capture: recorder already attached")
	}
	if err := os.MkdirAll(rec.dir, 0o755); err != nil {
		return err
	}
	rec.net, rec.start = net, net.Now()
	g := net.Graph()
	for _, id := range g.Nodes() {
		name := fmt.Sprintf("%s/r%d.pcap", rec.dir, int32(id))
		if rec.opts.Gzip {
			name += ".gz"
		}
		w, err := CreateFile(name)
		if err != nil {
			if cerr := rec.close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
			return err
		}
		rec.writers = append(rec.writers, w)
		i := int(id)
		net.Router(id).AddTap(func(ev network.Event) { rec.record(i, &ev) })
	}
	return nil
}

// record encodes one event into the router's capture file. Write errors
// are latched and surfaced by Close — taps have no error channel.
func (rec *Recorder) record(i int, ev *network.Event) {
	rec.scratch = AppendFrame(rec.scratch[:0], ev)
	if err := rec.writers[i].Write(ev.Time, rec.scratch); err != nil && rec.err == nil {
		rec.err = err
	}
}

// Close flushes every capture file and writes the manifest. The recorded
// network's current virtual time becomes the trace duration.
func (rec *Recorder) Close() error {
	if rec.net == nil {
		return errors.New("capture: recorder was never attached")
	}
	if err := rec.close(); err != nil {
		return err
	}
	g := rec.net.Graph()
	m := &Meta{
		Version:  metaVersion,
		Seed:     rec.net.Seed(),
		Start:    protocol.Duration(rec.start),
		Duration: protocol.Duration(rec.net.Now()),
	}
	for _, id := range g.Nodes() {
		m.Nodes = append(m.Nodes, g.Name(id))
		file := fmt.Sprintf("r%d.pcap", int32(id))
		if rec.opts.Gzip {
			file += ".gz"
		}
		m.Files = append(m.Files, file)
	}
	for _, l := range g.Links() {
		m.Links = append(m.Links, LinkMeta{
			From:       int(l.From),
			To:         int(l.To),
			Bandwidth:  l.Bandwidth,
			Delay:      protocol.Duration(l.Delay),
			QueueLimit: l.QueueLimit,
			Cost:       l.Cost,
		})
	}
	if err := WriteMeta(rec.dir, m); err != nil {
		return err
	}
	return rec.err
}

func (rec *Recorder) close() error {
	var errs []error
	for _, w := range rec.writers {
		if w != nil {
			errs = append(errs, w.Close())
		}
	}
	rec.writers = nil
	return errors.Join(errs...)
}
