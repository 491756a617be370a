package capture_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"routerwatch/internal/capture"
)

// manifest is a two-file trace.json with the given nodes and links lists.
// Its control-delay key, which older recorders wrote, is ignored like any
// other unknown key.
func manifest(nodes, links string) string {
	return `{"version":1,"seed":1,"duration":"1s","control-delay":"100µs",` +
		`"nodes":[` + nodes + `],"links":[` + links + `],"files":["r0.pcap.gz","r1.pcap.gz"]}`
}

// link is the directed link from→to with the given cost.
func link(from, to, cost int) string {
	return fmt.Sprintf(`{"from":%d,"to":%d,"bandwidth":100000000,"delay":"2ms","queue-limit":65536,"cost":%d}`, from, to, cost)
}

// goodLinks is one duplex link between the two routers.
var goodLinks = link(0, 1, 10) + "," + link(1, 0, 10)

// withStart is a usable two-router manifest whose recording began at start.
func withStart(start string) string {
	return strings.Replace(manifest(`"a","b"`, goodLinks), `"seed":1,`, `"seed":1,"start":"`+start+`",`, 1)
}

// Manifests no replay can use. The first two used to get past Graph's range
// check and panic — in AddLink and, through network.New, in
// queue.NewDropTail; the next three break the duplex, symmetric, positive
// cost precondition the path table is built on; the last two would start
// the replay clock outside the recording.
var badManifests = []struct {
	name, in, wantErr string
}{
	{"link self-loop", manifest(`"a","b"`, `{"from":1,"to":1,"bandwidth":100000000,"delay":"2ms","queue-limit":65536,"cost":10}`),
		"link 1->1: self-loop"},
	{"link without queue-limit", manifest(`"a","b"`, `{"from":0,"to":1,"bandwidth":100000000,"delay":"2ms","cost":10}`),
		"link 0->1: queue-limit 0 must be positive"},
	{"one-way link", manifest(`"a","b"`, link(0, 1, 10)), "link 0->1 has no reverse link"},
	{"asymmetric cost", manifest(`"a","b"`, link(0, 1, 10)+","+link(1, 0, 20)), "link 0->1 costs 10 but its reverse costs 20"},
	{"zero cost", manifest(`"a","b"`, link(0, 1, 0)+","+link(1, 0, 0)), "link 0->1: cost 0 must be positive"},
	{"duplicate node", manifest(`"a","a"`, goodLinks), `duplicate node name "a"`},
	{"negative start", withStart("-1ms"), "start -1ms outside the recording [0, 1s]"},
	{"start after duration", withStart("2s"), "start 2s outside the recording [0, 1s]"},
}

// writeManifest writes data as the trace directory's trace.json.
func writeManifest(t testing.TB, dir string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, capture.MetaFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestManifestErrors(t *testing.T) {
	for _, tc := range badManifests {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeManifest(t, dir, []byte(tc.in))
			env, err := capture.OpenTrace(dir, capture.TraceOptions{})
			if err == nil {
				env.Close()
				t.Fatal("OpenTrace accepted the manifest")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want mention of %s", err, tc.wantErr)
			}
		})
	}
}

// FuzzReadMeta hands OpenTrace arbitrary bytes as a trace directory's
// manifest: it must return an environment or an error, never panic, and an
// environment it returns must close cleanly. The directory holds the
// committed fixture's capture files, so a mutated manifest that still names
// them gets past the manifest into the cursor set-up.
func FuzzReadMeta(f *testing.F) {
	dir := f.TempDir()
	fixture, err := os.ReadDir(fixtureDir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range fixture {
		data, err := os.ReadFile(filepath.Join(fixtureDir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		if e.Name() == capture.MetaFile {
			f.Add(data)
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			f.Fatal(err)
		}
	}
	for _, tc := range badManifests {
		f.Add([]byte(tc.in))
	}
	f.Add([]byte(manifest(`"a","b"`, goodLinks)))
	f.Add([]byte(withStart("500ms")))
	f.Fuzz(func(t *testing.T, data []byte) {
		writeManifest(t, dir, data)
		env, err := capture.OpenTrace(dir, capture.TraceOptions{})
		if err != nil {
			return
		}
		if err := env.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
}
