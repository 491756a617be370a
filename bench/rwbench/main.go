// Command rwbench is routerwatch's benchmark: five fixed workloads run end
// to end, ten end-to-end metrics per workload, and a traced run that
// attributes the time to layers. See bench/README.md.
//
// rwbench itself never reads the clock. It builds bench/harness — the
// measuring half — once with `go test -c`, runs that binary once per
// workload and mode, reduces the iterations it reports to medians, applies
// the checks and prints the result. Run it from the bench directory:
//
//	go run ./rwbench --workload mesh-forward --seed 1 --seconds 36 --trace 0
//	go run ./rwbench -runs 3 -seconds 18 -out out/mine.json  # every workload, a table
//	go run ./rwbench -compare out/a.json out/b.json  # exit 1 on a regression
//	go run ./rwbench -manifest > ../BENCHMARK.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"

	"routerwatch/bench/result"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 36

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print one JSON result line (empty: run all five)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how long each run measures")
		trace    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 makes the traced run and prints the per-layer metrics")
		runs     = flag.Int("runs", 3, "untraced runs per workload when running all five")
		out      = flag.String("out", "", "when running all five: write the result set here")
		compare  = flag.Bool("compare", false, "compare two result sets: rwbench -compare A.json B.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()

	var err error
	switch {
	case *manifest:
		var data []byte
		if data, err = manifestJSON(); err == nil {
			fmt.Printf("%s\n", data)
		}
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: rwbench -compare A.json B.json")
			break
		}
		var worse bool
		if worse, err = compareSets(flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	default:
		h := &harness{seed: *seed, seconds: *seconds}
		if err = h.build(); err != nil {
			break
		}
		if *workload != "" {
			err = h.single(*workload, *trace == 1)
		} else {
			err = h.all(*runs, *out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rwbench:", err)
		os.Exit(2)
	}
}

// harness runs the compiled bench/harness binary. Like rwbench itself it
// works in the bench directory: `go -C bench run ./rwbench` starts there.
type harness struct {
	seed    int64
	seconds float64
}

const harnessBin = ".build/harness.test"

func (h *harness) build() error {
	if _, err := os.Stat("harness"); err != nil {
		return fmt.Errorf("%w (run rwbench from the bench directory)", err)
	}
	cmd := exec.Command("go", "test", "-c", "-o", harnessBin, "./harness")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the harness: %v\n%s", err, out)
	}
	return nil
}

// run executes the harness for one workload in one mode and decodes what
// it measured.
func (h *harness) run(workload, mode string) (*result.Run, error) {
	cmd := exec.Command(harnessBin,
		"-workload", workload, "-mode", mode,
		"-seed", strconv.FormatInt(h.seed, 10),
		"-seconds", strconv.FormatFloat(h.seconds, 'g', -1, 64))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", min(runtime.NumCPU(), 4)))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (%s): %v", workload, mode, err)
	}
	r := &result.Run{}
	if err := json.Unmarshal(stdout.Bytes(), r); err != nil {
		return nil, fmt.Errorf("%s (%s): harness output: %v", workload, mode, err)
	}
	return r, nil
}

// reading is one metric value of the result line.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// single is the benchmark contract's entry point: one run of one workload,
// and as the last line of standard output one JSON object with the keys
// correct, attempted, failed and metrics.
func (h *harness) single(workload string, traced bool) error {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	r, err := h.run(workload, mode)
	if err != nil {
		return err
	}
	s := result.Summarize(r)
	for _, f := range s.Failures {
		fmt.Fprintln(os.Stderr, "rwbench: failed:", f)
	}
	metrics := make(map[string]reading)
	if traced {
		for _, m := range result.PerLayer {
			metrics[m.Name] = reading{r.Layers[m.Name], m.Unit}
		}
		fmt.Printf("%s seed %d: traced run, spans in %s\n", workload, h.seed, r.TraceFile)
	} else {
		for _, m := range result.EndToEnd {
			if !m.PerSeed {
				metrics[m.Name] = reading{s.Metrics[m.Name].Value, m.Unit}
			}
		}
		fmt.Printf("%s seed %d: %d timed iterations, verdict digest %s\n", workload, h.seed, len(r.Timed), s.Digest)
	}
	line, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{s.Failed == 0, s.Attempted, s.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// manifestJSON renders BENCHMARK.json from the tables in bench/result, so
// the two cannot drift apart.
func manifestJSON() ([]byte, error) {
	var endToEnd []result.Metric
	for _, m := range result.EndToEnd {
		if !m.PerSeed {
			endToEnd = append(endToEnd, m)
		}
	}
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var gate []result.Workload
	for _, w := range result.Workloads {
		if w.Gate {
			gate = append(gate, w)
		}
	}
	perLayer := make([]layerMetric, 0, len(result.PerLayer))
	for _, m := range result.PerLayer {
		perLayer = append(perLayer, layerMetric{m.Name, m.Unit, m.Better})
	}
	return json.MarshalIndent(struct {
		Command    []string          `json:"command"`
		Paths      []string          `json:"paths"`
		RunSeconds int               `json:"run_seconds"`
		Workloads  []result.Workload `json:"workloads"`
		EndToEnd   []result.Metric   `json:"end_to_end"`
		PerLayer   []layerMetric     `json:"per_layer"`
	}{
		Command:    []string{"go", "-C", "bench", "run", "./rwbench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  gate,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
}
