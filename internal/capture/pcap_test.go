package capture

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"routerwatch/internal/network"
	"routerwatch/internal/packet"
)

// sample is a record sequence with nanosecond timestamps.
var sample = func() []Record {
	var recs []Record
	for i, ts := range []time.Duration{0, 1500, time.Millisecond, 3*time.Second + 7*time.Microsecond + 9} {
		recs = append(recs, Record{Time: ts, Data: bytes.Repeat([]byte{byte(i + 1)}, 20+i)})
	}
	return recs
}()

// writeStream writes recs as a pcap stream.
func writeStream(t testing.TB, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Write(rec.Time, rec.Data); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// readStream reads a whole pcap stream, or returns the first error.
func readStream(data []byte) ([]Record, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var recs []Record
	for {
		var rec Record
		switch err := r.Next(&rec); err {
		case nil:
			recs = append(recs, rec)
		case io.EOF:
			return recs, nil
		default:
			return nil, err
		}
	}
}

// TestPcapRoundTrip writes a stream, reads back the same (Time, Data)
// sequence to the nanosecond, and writes that out again byte-identically.
// The subtest names the one format written: little-endian, nanosecond.
func TestPcapRoundTrip(t *testing.T) {
	t.Run("le-nanos", func(t *testing.T) {
		raw := writeStream(t, sample)
		got, err := readStream(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, sample) {
			t.Fatalf("read back %v, wrote %v", got, sample)
		}
		if !bytes.Equal(writeStream(t, got), raw) {
			t.Fatal("write→read→write is not byte-identical")
		}
	})
}

// TestPcapTimestampResolution holds timestamps to the nanosecond across the
// format's whole range, and the writer refuses one the format cannot hold.
func TestPcapTimestampResolution(t *testing.T) {
	t.Run("le-nanos", func(t *testing.T) {
		last := time.Duration(math.MaxUint32)*time.Second + time.Second - 1
		var recs []Record
		for _, ts := range []time.Duration{0, 1, time.Second - 1, time.Second, last} {
			recs = append(recs, Record{Time: ts, Data: []byte{1}})
		}
		got, err := readStream(writeStream(t, recs))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("read back %v, wrote %v", got, recs)
		}
		w, err := NewWriter(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		for _, ts := range []time.Duration{-1, last + 1} {
			if err := w.Write(ts, []byte{1}); err == nil {
				t.Errorf("wrote a record at %v", ts)
			}
		}
	})
}

func TestPcapGzipFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.pcap.gz")
	w, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(time.Millisecond, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var rec Record
	if err := r.Next(&rec); err != nil {
		t.Fatal(err)
	}
	if string(rec.Data) != "payload" || rec.Time != time.Millisecond {
		t.Fatalf("gzip round-trip: %q at %v", rec.Data, rec.Time)
	}
	if err := r.Next(&rec); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// withHeader is a stream's records under a global header of another byte
// order, magic or link type.
func withHeader(stream []byte, order binary.ByteOrder, magic, linkType uint32) []byte {
	var hdr [24]byte
	order.PutUint32(hdr[0:4], magic)
	order.PutUint16(hdr[4:6], 2)
	order.PutUint16(hdr[6:8], 4)
	order.PutUint32(hdr[16:20], snapLen)
	order.PutUint32(hdr[20:24], linkType)
	return append(hdr[:], stream[24:]...)
}

// malformed are streams the reader must refuse. The header rows are other
// pcap formats: a reader that took them would misread every timestamp or
// every frame.
func malformed(t testing.TB) []struct {
	name string
	data []byte
} {
	valid := writeStream(t, sample)
	giant := bytes.Clone(valid[:24+16])
	binary.LittleEndian.PutUint32(giant[24+8:], 0x7fffffff) // incl_len
	overflow := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(overflow[24+4:], uint32(time.Second)) // ts fraction
	return []struct {
		name string
		data []byte
	}{
		{"empty", []byte{}},
		{"short-header", valid[:10]},
		{"bad-magic", append([]byte{0xde, 0xad, 0xbe, 0xef}, valid[4:]...)},
		{"le-micros", withHeader(valid, binary.LittleEndian, 0xa1b2c3d4, linkTypeEthernet)},
		{"be-nanos", withHeader(valid, binary.BigEndian, magicNanos, linkTypeEthernet)},
		{"be-micros", withHeader(valid, binary.BigEndian, 0xa1b2c3d4, linkTypeEthernet)},
		{"not-ethernet", withHeader(valid, binary.LittleEndian, magicNanos, 101)}, // raw IP
		{"truncated-record", valid[:len(valid)-3]},
		{"giant-record", giant},
		{"fraction-overflow", overflow},
	}
}

func TestPcapMalformed(t *testing.T) {
	for _, tc := range malformed(t) {
		t.Run(tc.name, func(t *testing.T) {
			if recs, err := readStream(tc.data); err == nil {
				t.Fatalf("malformed stream read cleanly as %d records", len(recs))
			}
		})
	}
}

// FuzzPcapRoundTrip fuzzes the reader against arbitrary bytes (it must
// never panic and never misallocate) and checks the round trip: any stream
// the reader accepts writes back out and reads back as the same (Time,
// Data) sequence.
func FuzzPcapRoundTrip(f *testing.F) {
	f.Add(writeStream(f, sample))
	for _, tc := range malformed(f) {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := readStream(data)
		if err != nil {
			return
		}
		again, err := readStream(writeStream(t, recs))
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("round trip changed the records: %v vs %v", again, recs)
		}
	})
}

// FuzzDecodeFrame fuzzes the frame decoder: arbitrary bytes must decode or
// error, never panic, and any accepted frame must re-encode to the same
// bytes once the mutable-but-unchecked header fields are round-tripped.
func FuzzDecodeFrame(f *testing.F) {
	ev := network.Event{
		Router: 2, Kind: network.EvDequeue, Peer: 3, QueueBytes: 1500,
		Packet: &packet.Packet{
			ID: 99, Src: 0, Dst: 4, Flow: 1, Seq: 7, Flags: packet.FlagACK,
			Size: 500, Payload: 12345, TTL: 62, SentAt: time.Millisecond,
		},
	}
	f.Add(AppendFrame(nil, &ev))
	f.Add(make([]byte, FrameLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeFrame(data)
		if err != nil {
			return
		}
		re := AppendFrame(nil, &got)
		dec2, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		if *dec2.Packet != *got.Packet {
			t.Fatalf("packet drift: %+v vs %+v", dec2.Packet, got.Packet)
		}
		dec2.Packet, got.Packet = nil, nil
		if dec2 != got {
			t.Fatalf("event drift: %+v vs %+v", dec2, got)
		}
	})
}
