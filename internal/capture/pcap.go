package capture

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

// The one pcap format this package reads and writes: a classic libpcap
// file, little-endian, with nanosecond timestamp fractions (virtual time is
// nanosecond-grained) and the Ethernet link type.
const (
	// magicNanos is the nanosecond-resolution libpcap magic, stored
	// little-endian.
	magicNanos = 0xa1b23c4d
	// linkTypeEthernet is the link type of every frame AppendFrame writes.
	linkTypeEthernet = 1
	snapLen          = 65535
)

// maxRecordLen bounds a single record's captured length. Classic pcap
// snap lengths top out at 256 KiB in practice; anything larger in a header
// is treated as corruption rather than an allocation request.
const maxRecordLen = 1 << 20

// Record is one captured frame: its timestamp from the capture epoch
// (virtual time zero for recorded traces) and the captured bytes.
type Record struct {
	Time time.Duration
	Data []byte
}

// Reader decodes a pcap stream in the one format.
type Reader struct {
	r   *bufio.Reader
	hdr [16]byte
}

// NewReader parses the global header and returns a record reader. A header
// of any other byte order, resolution or link type is an error.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: short global header: %w", err)
	}
	le := binary.LittleEndian
	if m := le.Uint32(hdr[0:4]); m != magicNanos {
		return nil, fmt.Errorf("pcap: magic %#08x read little-endian, want the nanosecond magic %#08x", m, magicNanos)
	}
	if lt := le.Uint32(hdr[20:24]); lt != linkTypeEthernet {
		return nil, fmt.Errorf("pcap: link type %d, want Ethernet (%d)", lt, linkTypeEthernet)
	}
	return &Reader{r: br}, nil
}

// Next reads the next record into rec, reusing rec.Data's capacity. It
// returns io.EOF cleanly at end of stream and a descriptive error on a
// truncated or corrupt record.
func (d *Reader) Next(rec *Record) error {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("pcap: short record header: %w", err)
	}
	le := binary.LittleEndian
	sec, nanos, incl := le.Uint32(d.hdr[0:4]), le.Uint32(d.hdr[4:8]), le.Uint32(d.hdr[8:12])
	if nanos >= uint32(time.Second) {
		return fmt.Errorf("pcap: timestamp fraction %d ns is not below one second", nanos)
	}
	if incl > maxRecordLen {
		return fmt.Errorf("pcap: record length %d exceeds limit", incl)
	}
	rec.Time = time.Duration(sec)*time.Second + time.Duration(nanos)
	if cap(rec.Data) < int(incl) {
		rec.Data = make([]byte, incl)
	} else {
		rec.Data = rec.Data[:incl]
	}
	if _, err := io.ReadFull(d.r, rec.Data); err != nil {
		return fmt.Errorf("pcap: truncated record body: %w", err)
	}
	return nil
}

// Writer encodes a pcap stream in the one format.
type Writer struct {
	w   io.Writer
	hdr [16]byte
	err error
}

// NewWriter writes the global header and returns a record writer.
func NewWriter(w io.Writer) (*Writer, error) {
	var hdr [24]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:4], magicNanos)
	le.PutUint16(hdr[4:6], 2) // version 2.4
	le.PutUint16(hdr[6:8], 4)
	le.PutUint32(hdr[16:20], snapLen)
	le.PutUint32(hdr[20:24], linkTypeEthernet)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: w}, nil
}

// Write appends a frame captured whole at virtual time ts.
func (w *Writer) Write(ts time.Duration, data []byte) error {
	if w.err != nil {
		return w.err
	}
	if ts < 0 || ts/time.Second > math.MaxUint32 {
		return fmt.Errorf("pcap: timestamp %v outside the format's range", ts)
	}
	le := binary.LittleEndian
	le.PutUint32(w.hdr[0:4], uint32(ts/time.Second))
	le.PutUint32(w.hdr[4:8], uint32(ts%time.Second))
	le.PutUint32(w.hdr[8:12], uint32(len(data)))
	le.PutUint32(w.hdr[12:16], uint32(len(data)))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(data); err != nil {
		w.err = err
		return err
	}
	return nil
}

// FileReader is a Reader over an opened capture file.
type FileReader struct {
	*Reader
	f io.Closer
}

// OpenFile opens a pcap file for reading, gunzipping it when the path ends
// in ".gz".
func OpenFile(path string) (*FileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var src io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		if src, err = gzip.NewReader(f); err != nil {
			err = fmt.Errorf("pcap: gzip: %w", err)
		}
	}
	var r *Reader
	if err == nil {
		r, err = NewReader(src)
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", path, err)
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	return &FileReader{Reader: r, f: f}, nil
}

// Close closes the underlying file.
func (r *FileReader) Close() error { return r.f.Close() }

// FileWriter is a Writer over a created capture file, gzip-compressed when
// the path ends in ".gz".
type FileWriter struct {
	*Writer
	bw *bufio.Writer
	zw *gzip.Writer
	f  *os.File
}

// CreateFile creates a pcap file (gzipped when path has a ".gz" suffix).
func CreateFile(path string) (*FileWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	fw := &FileWriter{f: f, bw: bufio.NewWriter(f)}
	var sink io.Writer = fw.bw
	if strings.HasSuffix(path, ".gz") {
		fw.zw = gzip.NewWriter(fw.bw)
		sink = fw.zw
	}
	if fw.Writer, err = NewWriter(sink); err != nil {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	return fw, nil
}

// Close flushes and closes the file, reporting any deferred write error.
func (w *FileWriter) Close() error {
	errs := []error{w.Writer.err}
	if w.zw != nil {
		errs = append(errs, w.zw.Close())
	}
	errs = append(errs, w.bw.Flush(), w.f.Close())
	return errors.Join(errs...)
}
