package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// printLayerTable prints the per-layer figures of a traced run, one layer
// (name prefix) per block, ahead of the result line.
func printLayerTable(w io.Writer, workload string, ms map[string]metric) {
	fmt.Fprintf(w, "per-layer figures, workload %s (traced rounds; medians over rounds)\n", workload)
	prev := ""
	for _, m := range layerMetrics() {
		layer := m.name[:strings.IndexByte(m.name, '.')]
		if layer != prev {
			fmt.Fprintf(w, "  [%s]\n", layer)
			prev = layer
		}
		fmt.Fprintf(w, "    %-34s %14.6g %s\n", m.name, ms[m.name].Value, m.unit)
	}
}

// benchSpec is the part of BENCHMARK.json the repeat mode reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeat runs each workload BENCHMARK.json lists n times, in a fresh
// process per run with seeds seed..seed+n-1, and prints every end-to-end metric's median,
// quartiles and spread (Q3-Q1 over the median) beside its bound from
// BENCHMARK.json. A spread above a third of the bound is flagged.
func repeat(only string, seed int64, seconds, n int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		wl, err := workloadByName(w.Name)
		if err != nil {
			return err
		}
		values := map[string][]float64{}
		var failedShare []float64
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "-workload", wl.name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, s, err)
			}
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: outputs incorrect", wl.name, s)
			}
			failedShare = append(failedShare, float64(res.Failed)/float64(res.Attempted))
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d done\n", wl.name, s)
		}
		fmt.Printf("workload %s: %d runs of %d s, failed share %v\n", wl.name, n, seconds, failedShare)
		fmt.Printf("  %-20s %12s %12s %12s %8s %6s\n", "metric", "median", "Q1", "Q3", "spread", "bound")
		for _, e := range spec.EndToEnd {
			v := values[e.Name]
			if len(v) < 2 {
				return fmt.Errorf("%s: metric %s missing", wl.name, e.Name)
			}
			q1, med, q3 := pyQuartiles(v)
			spread := (q3 - q1) / med
			flag := ""
			if spread > e.Bound/3 {
				flag = "  WIDE"
			}
			fmt.Printf("  %-20s %12.5g %12.5g %12.5g %8.4f %6.2f%s\n", e.Name, med, q1, q3, spread, e.Bound, flag)
		}
	}
	return nil
}

// lastResult parses the JSON result on a run's last output line.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}

// pyQuartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(values, n=4) (exclusive method) and
// statistics.median compute them.
func pyQuartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		return (d[lo]*float64(4-delta) + d[hi]*float64(delta)) / 4
	}
	return q(1), quantile(d, 0.5), q(3)
}
