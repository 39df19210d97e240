// Command perfbench is the MemFSS benchmark: three workflow-shaped
// workloads (montage, blast, dd) run closed loop against an in-process
// deployment of 6 own and 8 victim stores. A run repeats whole rounds
// (set-up, the workload, one victim revoked, one victim wiped and
// scrubbed, output checks, tear-down) for the given seconds and prints one
// JSON line: the end-to-end metrics, or with -trace 1 the per-layer ones.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: montage, blast or dd")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 10, "how long the run repeats rounds")
	traced := flag.Int("trace", 0, "1: print per-layer metrics from a traced run")
	repeatN := flag.Int("repeat", 0, "run each workload (or -workload) this many times with seeds seed, seed+1, ... and print every end-to-end metric's median, quartiles and spread against its bound")
	flag.Parse()
	if *repeatN > 0 {
		if err := repeat(*name, *seed, *seconds, *repeatN); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	wl, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload montage|blast|dd, -seconds >= 1, -trace 0|1:", err)
		os.Exit(2)
	}
	out, err := run(wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run repeats rounds of wl until the run's time is spent. The first round
// warms the heap and the runtime and is left out of the metrics (its
// calls are counted in attempted and failed). A traced run alternates
// untraced and traced rounds, so tracing overhead is measured against an
// untraced base from the same run.
func run(wl *workload, seed int64, d time.Duration, traced bool) (*result, error) {
	p := newPool(seed)
	var plain, withTrace []*roundResult
	out := &result{Correct: true}
	start := time.Now()
	for i := 0; ; i++ {
		tr := traced && i%2 == 0
		res, checkErr, err := runRound(wl, p, seed, tr)
		out.Attempted += res.attempted
		out.Failed += res.failed
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", wl.name, i, err)
		}
		if checkErr != nil {
			out.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s round %d: check failed: %v\n", wl.name, i, checkErr)
		}
		switch {
		case i == 0:
		case tr:
			withTrace = append(withTrace, res)
		default:
			plain = append(plain, res)
		}
		if time.Since(start) >= d && len(plain) > 0 && (!traced || len(withTrace) > 0) {
			break
		}
	}
	if traced {
		out.Metrics = perLayer(plain, withTrace)
		printLayerTable(os.Stdout, wl.name, out.Metrics)
	} else {
		out.Metrics = endToEnd(plain)
	}
	return out, nil
}

// e2eUnits lists the end-to-end metrics and their units. Spans longer
// than a call are measured in the process's CPU time: on a shared host,
// steal stretches their wall-clock length by up to 2x from one period of
// minutes to the next, while the median latency of single calls holds.
// Their wall-clock figures are per-layer metrics (wallClock).
var e2eUnits = map[string]string{
	"setup_s": "s", "phase_cpu_s": "s", "evac_mb_per_cpu_s": "MB/cpu-s", "repair_mb_per_cpu_s": "MB/cpu-s",
	"create_p50_ms": "ms", "open_p50_ms": "ms", "stat_p50_ms": "ms", "rename_p50_ms": "ms", "remove_p50_ms": "ms",
	"read_p50_ms": "ms", "append_p50_ms": "ms",
	"space_amp": "ratio", "heap_peak_mb": "MB",
}

// perRound returns the median over rounds of f.
func perRound(rs []*roundResult, f func(r *roundResult) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return median(v)
}

// meanOver returns the mean over rounds of f.
func meanOver(rs []*roundResult, f func(r *roundResult) float64) float64 {
	var sum float64
	for _, r := range rs {
		sum += f(r)
	}
	return sum / float64(len(rs))
}

// opSamples pools the durations, in ms, of every call of kind o.
func opSamples(rs []*roundResult, o op) []float64 {
	var v []float64
	for _, r := range rs {
		for _, s := range r.samples {
			if s.op == o {
				v = append(v, float64(s.end-s.start)/1e6)
			}
		}
	}
	sort.Float64s(v)
	return v
}

// phaseRate is a round's user bytes moved by calls of kind o per second
// during which at least one such call was in flight, in MB/s.
func phaseRate(r *roundResult, o op) float64 {
	var iv []interval
	var bytes int64
	for _, s := range r.samples {
		if s.op == o && s.end <= r.phaseEnd {
			iv = append(iv, interval{s.start, s.end})
			bytes += s.bytes
		}
	}
	return float64(bytes) / 1e6 / unionLen(iv).Seconds()
}

func endToEnd(rs []*roundResult) map[string]metric {
	v := map[string]float64{
		"setup_s":     perRound(rs, func(r *roundResult) float64 { return r.setupCPU.Seconds() }),
		"phase_cpu_s": perRound(rs, func(r *roundResult) float64 { return r.phaseCPU.Seconds() }),
		"evac_mb_per_cpu_s": perRound(rs, func(r *roundResult) float64 {
			return float64(r.evac.bytes) / 1e6 / r.evac.cpu.Seconds()
		}),
		"repair_mb_per_cpu_s": perRound(rs, func(r *roundResult) float64 {
			return float64(r.scrub.bytes) / 1e6 / r.scrub.cpu.Seconds()
		}),
		"space_amp":    perRound(rs, func(r *roundResult) float64 { return r.spaceAmp }),
		"heap_peak_mb": perRound(rs, func(r *roundResult) float64 { return float64(r.heapPeak) / 1e6 }),
	}
	for _, o := range []op{opCreate, opOpen, opStat, opRename, opRemove, opRead, opAppend} {
		v[opNames[o]+"_p50_ms"] = quantile(opSamples(rs, o), 0.5)
	}
	out := make(map[string]metric, len(v))
	for name, x := range v {
		out[name] = metric{Value: x, Unit: e2eUnits[name]}
	}
	return out
}

// wallClock returns the wall-clock figures of rounds rs, medians over
// rounds: set-up, makespan (pauses excluded), evacuation and scrub rates,
// public calls per second of makespan, and user bytes written (read) per
// second during which a write (read) call was in flight.
func wallClock(rs []*roundResult) map[string]float64 {
	return map[string]float64{
		"wall.setup_s":    perRound(rs, func(r *roundResult) float64 { return r.setup.Seconds() }),
		"wall.makespan_s": perRound(rs, func(r *roundResult) float64 { return r.makespan.Seconds() }),
		"wall.evac_mb_s": perRound(rs, func(r *roundResult) float64 {
			return float64(r.evac.bytes) / 1e6 / r.evac.dur.Seconds()
		}),
		"wall.repair_mb_s": perRound(rs, func(r *roundResult) float64 {
			return float64(r.scrub.bytes) / 1e6 / r.scrub.dur.Seconds()
		}),
		"wall.ops_s": perRound(rs, func(r *roundResult) float64 {
			n := 0
			for _, s := range r.samples {
				if s.end <= r.phaseEnd {
					n++
				}
			}
			return float64(n) / r.makespan.Seconds()
		}),
		"wall.write_mb_s": perRound(rs, func(r *roundResult) float64 { return phaseRate(r, opAppend) }),
		"wall.read_mb_s":  perRound(rs, func(r *roundResult) float64 { return phaseRate(r, opRead) }),
	}
}

// layerMetrics lists the per-layer metrics in table order, with units.
func layerMetrics() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	add("s", "wall.setup_s", "wall.makespan_s")
	add("MB/s", "wall.evac_mb_s", "wall.repair_mb_s")
	add("1/s", "wall.ops_s")
	add("MB/s", "wall.write_mb_s", "wall.read_mb_s")
	add("count", "core.write_calls")
	add("s", "core.write_s")
	add("count", "core.read_calls")
	add("s", "core.read_s", "core.close_s")
	add("ratio", "core.stripe_ops_per_call")
	add("count", "core.degraded_ops")
	for _, o := range opNames[:opMkdir+1] {
		add("count", "meta."+o+"_calls")
		add("s", "meta."+o+"_s")
		add("ms", "meta."+o+"_p99_ms")
	}
	add("ratio", "meta.kv_ops_per_op")
	add("count", "evac.keys_moved")
	add("MB", "evac.mb_moved")
	add("count", "evac.passes")
	add("s", "evac.drain_s", "evac.sweep_s")
	add("ratio", "evac.kv_ops_per_key")
	add("count", "scrub.stripes_checked", "scrub.restored")
	add("s", "scrub.s")
	add("ratio", "scrub.kv_ops_per_restored")
	add("MB/s", "erasure.encode_mb_s", "erasure.reconstruct_mb_s")
	add("B/B", "erasure.encoded_b_per_user_b")
	add("us", "hrw.place_us", "hrw.probe_order_us", "hrw.new_placer_us")
	add("ratio", "hrw.placers_per_op", "hrw.own_key_share")
	add("ratio", "kvstore.ops_per_user_op", "kvstore.attempts_per_op")
	for _, v := range kvVerbs {
		add("ms", "kvstore."+strings.ToLower(v)+"_p50_ms")
	}
	add("B/B", "kvstore.wire_in_b_per_user_b", "kvstore.wire_out_b_per_user_b")
	add("count", "kvstore.server_ops")
	add("%", "trace.overhead_pct")
	add("ratio", "trace.spans_per_op")
	for _, g := range spanGroupNames {
		add("s", "trace.self_s."+g)
	}
	add("s", "bench.task_self_s")
	add("B/B", "runtime.alloc_b_per_user_b")
	add("count", "runtime.gc_cycles")
	add("s", "runtime.gc_pause_s")
	add("MB", "runtime.heap_live_mb")
	add("count", "fault.scrub_unrepairable", "fault.remove_orphans")
	for _, o := range opNames {
		add("ms", "tail."+o+"_ms")
		add("%", "tail."+o+"_pct")
		add("count", "tail."+o+"_n")
	}
	return out
}

func perLayer(plain, traced []*roundResult) map[string]metric {
	v := map[string]float64{}
	for name := range traced[0].layers {
		name := name
		f := func(r *roundResult) float64 { return r.layers[name] }
		if strings.HasPrefix(name, "fault.") {
			// A fault that shows in some rounds only would vanish in a
			// median.
			v[name] = meanOver(traced, f)
		} else {
			v[name] = perRound(traced, f)
		}
	}
	for name, x := range wallClock(plain) {
		v[name] = x
	}
	base := v["wall.makespan_s"]
	withT := perRound(traced, func(r *roundResult) float64 { return r.makespan.Seconds() })
	v["trace.overhead_pct"] = (withT - base) / base * 100
	for o := op(0); o < numOps; o++ {
		s := opSamples(plain, o)
		level, val := tail(s)
		v["tail."+opNames[o]+"_ms"] = val
		v["tail."+opNames[o]+"_pct"] = level
		v["tail."+opNames[o]+"_n"] = float64(len(s))
		if o <= opMkdir {
			v["meta."+opNames[o]+"_p99_ms"] = quantile(s, 0.99)
		}
	}
	out := make(map[string]metric, len(v))
	for _, m := range layerMetrics() {
		x, ok := v[m.name]
		if !ok {
			panic("perfbench: per-layer metric " + m.name + " not computed")
		}
		if math.IsNaN(x) { // an op with no samples
			x = 0
		}
		out[m.name] = metric{Value: x, Unit: m.unit}
	}
	return out
}
