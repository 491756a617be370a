package harness

import (
	"bufio"
	"fmt"
	"os/exec"
	"strings"
	"time"

	"routerwatch/bench/result"
)

// internalPrefix starts the name of every function in a routerwatch layer.
const internalPrefix = "routerwatch/internal/"

// layerOf attributes one profile sample to a layer: the layer of its
// innermost routerwatch/internal frame, so standard-library time (SHA-256
// under auth, map access under routing) counts for the layer that asked
// for it. stack is innermost first. A stack with no routerwatch frame at
// all — GC workers, the scheduler — is the Go runtime's.
func layerOf(stack []string) string {
	layer := "runtime"
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			if strings.HasPrefix(fn, "routerwatch/") {
				layer = "other" // the harness's own frames
			}
			continue
		}
		pkg := rest[:strings.IndexAny(rest+".", "./")]
		for _, l := range result.Layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	return layer
}

// foldTraces folds the text `go tool pprof -traces` prints into each
// layer's share of the samples. The text is a header, then one block per
// distinct stack between dashed rules: optional "label: value" lines, a
// line with the sample value and the innermost frame, then one caller per
// line.
func foldTraces(text string) (map[string]float64, error) {
	byLayer := make(map[string]float64)
	var total float64
	var stack []string
	var value time.Duration
	flush := func() {
		if len(stack) > 0 {
			byLayer[layerOf(stack)] += value.Seconds()
			total += value.Seconds()
		}
		stack, value = stack[:0], 0
	}
	inBlocks := false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			inBlocks = true
			continue
		}
		fields := strings.Fields(line)
		if !inBlocks || len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue // a label line
			}
			value = d
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("profile holds no samples")
	}
	shares := make(map[string]float64, len(result.Layers))
	for _, l := range result.Layers {
		shares[l] = byLayer[l] / total
	}
	return shares, nil
}

// profileShares folds the CPU profile at path by layer. An error means the
// shares are absent, not that the run failed.
func profileShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v", err)
	}
	return foldTraces(string(out))
}
