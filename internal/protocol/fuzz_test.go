package protocol

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeSpec feeds DecodeSpec arbitrary bytes: it must return a spec or
// an error, never panic, and a spec it accepts must survive the scenario
// file format — encode it, decode that, encode again, and the two encodings
// are the same bytes (compared as encodings because omitempty folds an
// empty list or map into an absent one). Seeded with the committed scenario
// files.
func FuzzDecodeSpec(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed scenarios: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"protocol":"pik2","duration":-1,"options":{},"attacks":[{}],"traffic":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			return
		}
		enc, err := spec.Encode()
		if err != nil {
			t.Fatalf("a decoded spec does not encode: %v", err)
		}
		again, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("a spec's own encoding does not decode: %v\n%s", err, enc)
		}
		enc2, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the spec:\n--- first\n%s--- second\n%s", enc, enc2)
		}
	})
}
