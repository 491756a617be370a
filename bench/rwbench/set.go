package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"

	"routerwatch/bench/result"
)

// set is one complete pass over the workloads: what `rwbench -out` writes
// and `rwbench -compare` reads.
type set struct {
	Seed      int64         `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Go        string        `json:"go"`
	CPUs      int           `json:"cpus"`
	Workloads []workloadSet `json:"workloads"`
}

// workloadSet is one workload's share of a set: every untraced run reduced
// to its medians, and the traced run's per-layer numbers.
type workloadSet struct {
	Name   string             `json:"name"`
	Runs   []result.Summary   `json:"runs"`
	Layers map[string]float64 `json:"layers,omitempty"`
	Absent map[string]string  `json:"absent,omitempty"`
}

// values are the metric's readings, one per run.
func (w *workloadSet) values(metric string) []float64 {
	xs := make([]float64, 0, len(w.Runs))
	for _, r := range w.Runs {
		xs = append(xs, r.Metrics[metric].Value)
	}
	return xs
}

// spread is how far the metric's runs disagree, as a share of their
// median: the distance between the first and third quartile of the per-run
// medians, or with a single run the range of its iterations.
func (w *workloadSet) spread(metric string) float64 {
	xs := w.values(metric)
	med := result.Median(xs)
	if med == 0 {
		return 0
	}
	if len(xs) < 2 {
		st := w.Runs[0].Metrics[metric]
		return (st.Max - st.Min) / med
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// quartiles are the first and third quartile by the exclusive method, as
// Python's statistics.quantiles(xs, n=4) computes them.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// all runs every workload — runs untraced runs, then one traced run —
// prints the table and, with a path, writes the set.
func (h *harness) all(runs int, path string) error {
	s := set{Seed: h.seed, Seconds: h.seconds, Go: runtime.Version(), CPUs: runtime.NumCPU()}
	failed := 0
	for _, wl := range result.Workloads {
		ws := workloadSet{Name: wl.Name}
		for i := 0; i < runs; i++ {
			r, err := h.run(wl.Name, "untraced")
			if err != nil {
				return err
			}
			ws.Runs = append(ws.Runs, result.Summarize(r))
		}
		traced, err := h.run(wl.Name, "traced")
		if err != nil {
			return err
		}
		ws.Layers, ws.Absent = traced.Layers, traced.Absent
		failed += result.Summarize(traced).Failed
		for _, r := range ws.Runs {
			failed += r.Failed
		}
		printWorkload(&ws)
		s.Workloads = append(s.Workloads, ws)
	}
	if path != "" {
		data, err := json.MarshalIndent(s, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d iterations failed", failed)
	}
	return nil
}

func printWorkload(ws *workloadSet) {
	fmt.Printf("\n== %s  (%d runs, verdict digest %.16s)\n", ws.Name, len(ws.Runs), ws.Runs[0].Digest)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tbetter\tbound\tmedian\tsamples\tmin\tmax\tspread")
	for _, m := range result.EndToEnd {
		n, lo, hi := 0, 0.0, 0.0
		for i, r := range ws.Runs {
			st := r.Metrics[m.Name]
			n += st.N
			if i == 0 || st.Min < lo {
				lo = st.Min
			}
			if i == 0 || st.Max > hi {
				hi = st.Max
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f%%\t%.6g\t%d\t%.6g\t%.6g\t%.1f%%\n",
			m.Name, m.Unit, m.Better, m.Bound*100,
			result.Median(ws.values(m.Name)), n, lo, hi, ws.spread(m.Name)*100)
	}
	tw.Flush()
	for _, r := range ws.Runs {
		for _, f := range r.Failures {
			fmt.Println("FAILED:", f)
		}
	}
	fmt.Println("-- per layer (traced run)")
	tw = tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, m := range result.PerLayer {
		if why, ok := ws.Absent[m.Name]; ok {
			fmt.Fprintf(tw, "%s\t-\t\t(%s)\n", m.Name, why)
			continue
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", m.Name, ws.Layers[m.Name], m.Unit)
	}
	tw.Flush()
}

func readSet(path string) (*set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &set{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return s, nil
}

// verdictOf classifies B against A on one metric. worse is how far B's
// median is on the wrong side of A's, as a share of A's. When the runs of
// either set disagree by more than the bound the medians settle nothing,
// unless every run of one set beats every run of the other.
func verdictOf(m result.Metric, a, b []float64, spread float64) (ratio float64, verdict string) {
	ma, mb := result.Median(a), result.Median(b)
	if ma == 0 {
		if mb == 0 {
			return 1, "ok"
		}
		return 0, "unresolved"
	}
	// sign turns "B minus A" into "how much worse B is".
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	ratio = mb / ma
	worse := sign * (ratio - 1)
	if spread <= m.Bound {
		if worse > m.Bound {
			return ratio, "worse"
		}
		return ratio, "ok"
	}
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
			if sign*(y-x) <= 0 {
				allWorse = false
			}
		}
	}
	switch {
	case allBetter:
		return ratio, "ok"
	case allWorse && worse > m.Bound:
		return ratio, "worse"
	}
	return ratio, "unresolved"
}

// compareSets prints, per workload and end-to-end metric, both medians,
// B's ratio to A, the bound and the verdict. It reports whether any metric
// is worse.
func compareSets(pathA, pathB string) (anyWorse bool, err error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Printf("note: A is seed %d, %gs; B is seed %d, %gs\n", a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	byName := make(map[string]*workloadSet)
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	counts := make(map[string]int)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tB/A\tbound\tspread\tverdict")
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := byName[wa.Name]
		if wb == nil || len(wa.Runs) == 0 || len(wb.Runs) == 0 {
			fmt.Fprintf(tw, "%s\t(not in both sets)\n", wa.Name)
			continue
		}
		for _, m := range result.EndToEnd {
			if m.PerSeed && a.Seed != b.Seed {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t(seeds differ)\n", wa.Name, m.Name)
				continue
			}
			va, vb := wa.values(m.Name), wb.values(m.Name)
			spread := max(wa.spread(m.Name), wb.spread(m.Name))
			ratio, verdict := verdictOf(m, va, vb, spread)
			counts[verdict]++
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f of %.6g\t%.0f%%\t%.1f%%\t%s\n",
				wa.Name, m.Name, result.Median(va), result.Median(vb),
				ratio, result.Median(va), m.Bound*100, spread*100, verdict)
		}
		same := "equal"
		if wa.Runs[0].Digest != wb.Runs[0].Digest {
			same = "DIFFER"
		}
		fmt.Fprintf(tw, "%s\tverdict digest\t%.12s\t%.12s\t\t\t\t%s\n", wa.Name, wa.Runs[0].Digest, wb.Runs[0].Digest, same)
	}
	tw.Flush()
	var parts []string
	for _, v := range []string{"ok", "unresolved", "worse"} {
		parts = append(parts, fmt.Sprintf("%d %s", counts[v], v))
	}
	fmt.Println(strings.Join(parts, ", "))
	return counts["worse"] > 0, nil
}
