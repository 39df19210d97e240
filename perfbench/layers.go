package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"memfss/internal/core"
	"memfss/internal/erasure"
	"memfss/internal/hrw"
	"memfss/internal/obs"
	"memfss/internal/obs/trace"
	"memfss/internal/stripe"
)

// kvVerbs are the store commands whose latency the traced run reports.
var kvVerbs = []string{"GET", "SET", "GETRANGE", "SETRANGE", "PIPELINE", "SETNX", "SMEMBERS"}

// spanGroups maps the program's span names onto the layers the traced
// run reports self time for.
var spanGroups = map[string]string{
	"write": "op", "read": "op",
	"stripe": "stripe",
	"store":  "store-op", "burst": "store-op",
	"attempt":        "attempt",
	"ec-reconstruct": "ec-reconstruct",
	"lazy-repair":    "lazy-repair",
}

var spanGroupNames = []string{"op", "stripe", "store-op", "attempt", "ec-reconstruct", "lazy-repair"}

// snapshot is the program's public counters at one instant of a traced
// round; phase figures are differences of two snapshots.
type snapshot struct {
	counters  core.Counters
	wireOut   int64
	wireIn    int64
	serverOps int64
	kvBuckets map[string][]int64 // verb -> cumulative bucket counts
	kvBounds  []time.Duration
}

func (r *round) snap() (snapshot, error) {
	s := snapshot{counters: r.fs.Counters(), kvBuckets: map[string][]int64{}}
	s.wireOut, s.wireIn = r.d.wire()
	for _, cls := range r.fs.Classes() {
		for _, n := range cls.Nodes {
			f, err := r.d.info(n.ID)
			if err != nil {
				return s, err
			}
			s.serverOps += f
		}
	}
	for _, fam := range r.fs.Metrics() {
		if fam.Name != "memfss_kvstore_op_seconds" {
			continue
		}
		s.kvBounds = fam.Bounds
		for _, se := range fam.Series {
			verb := se.Labels.Get("op")
			acc := s.kvBuckets[verb]
			if acc == nil {
				acc = make([]int64, len(se.CumBuckets))
			}
			for i, c := range se.CumBuckets {
				acc[i] += c
			}
			s.kvBuckets[verb] = acc
		}
	}
	return s, nil
}

// sub returns a - b.
func (a snapshot) sub(b snapshot) snapshot {
	d := snapshot{
		wireOut: a.wireOut - b.wireOut, wireIn: a.wireIn - b.wireIn,
		serverOps: a.serverOps - b.serverOps, kvBuckets: map[string][]int64{}, kvBounds: a.kvBounds,
	}
	d.counters = a.counters
	d.counters.StoreOps -= b.counters.StoreOps
	d.counters.StoreAttempts -= b.counters.StoreAttempts
	d.counters.StripeReads -= b.counters.StripeReads
	d.counters.StripeWrites -= b.counters.StripeWrites
	d.counters.DegradedWrites -= b.counters.DegradedWrites
	d.counters.ECReconstructs -= b.counters.ECReconstructs
	d.counters.DeepProbes -= b.counters.DeepProbes
	for verb, cum := range a.kvBuckets {
		out := append([]int64(nil), cum...)
		for i, c := range b.kvBuckets[verb] {
			out[i] -= c
		}
		d.kvBuckets[verb] = out
	}
	return d
}

// tracedPhase brackets the timed phase of a traced round.
type tracedPhase struct {
	start      time.Time
	before     snapshot
	mem0, mem1 runtime.MemStats
	pauses     []snapshot // each revocation's own cost, excluded
	phase      snapshot   // phase total minus pauses
	traces     []*trace.TraceData
	heapLive   uint64
}

func (r *round) beginTraced() error {
	tp := &tracedPhase{start: time.Now()}
	var err error
	if tp.before, err = r.snap(); err != nil {
		return err
	}
	runtime.ReadMemStats(&tp.mem0)
	r.tp = tp
	return nil
}

func (r *round) endTraced() error {
	tp := r.tp
	runtime.ReadMemStats(&tp.mem1)
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	tp.heapLive = s[0].Value.Uint64()
	after, err := r.snap()
	if err != nil {
		return err
	}
	tp.phase = after.sub(tp.before)
	for _, p := range tp.pauses {
		tp.phase.counters.StoreOps -= p.counters.StoreOps
		tp.phase.counters.StoreAttempts -= p.counters.StoreAttempts
		tp.phase.wireOut -= p.wireOut
		tp.phase.wireIn -= p.wireIn
		tp.phase.serverOps -= p.serverOps
		for verb, cum := range p.kvBuckets {
			for i, c := range cum {
				tp.phase.kvBuckets[verb][i] -= c
			}
		}
	}
	for _, t := range r.fs.Traces().Recent(2 * traceCapacity) {
		if !t.Start.Before(tp.start) {
			tp.traces = append(tp.traces, t)
		}
	}
	return nil
}

// info reads a store's command count through a direct client.
func (d *deployment) info(node string) (int64, error) {
	c := d.direct(node)
	defer c.Close()
	st, err := c.Info()
	if err != nil {
		return 0, fmt.Errorf("info on %s: %w", node, err)
	}
	return st.TotalOps, nil
}

// evacPhaseSeconds sums the time the program reports in the drain and
// sweep phases of evacuations so far.
func evacPhaseSeconds(fs *core.FileSystem) (drain, sweep float64) {
	for _, fam := range fs.Metrics() {
		if fam.Name != "memfss_fs_evac_phase_seconds" {
			continue
		}
		for _, se := range fam.Series {
			switch se.Labels.Get("phase") {
			case "drain":
				drain += se.Sum.Seconds()
			case "sweep":
				sweep += se.Sum.Seconds()
			}
		}
	}
	return drain, sweep
}

// kvOpsPerNamespaceOp replays one of each namespace call serially on an
// idle file system and returns the store operations each cost on average.
func kvOpsPerNamespaceOp(fs *core.FileSystem) (float64, error) {
	steps := []func() error{
		func() error { return fs.Mkdir("/kvprobe") },
		func() error {
			f, err := fs.Create("/kvprobe/a")
			if err != nil {
				return err
			}
			return f.Close()
		},
		func() error { _, err := fs.Stat("/kvprobe/a"); return err },
		func() error {
			f, err := fs.Open("/kvprobe/a")
			if err != nil {
				return err
			}
			return f.Close()
		},
		func() error { _, err := fs.ReadDir("/kvprobe"); return err },
		func() error { return fs.Rename("/kvprobe/a", "/kvprobe/b") },
		func() error { return fs.Remove("/kvprobe/b") },
		func() error { return fs.Remove("/kvprobe") },
	}
	before := fs.Counters().StoreOps
	for _, step := range steps {
		if err := step(); err != nil {
			return 0, fmt.Errorf("namespace replay: %w", err)
		}
	}
	return float64(fs.Counters().StoreOps-before) / float64(len(steps)), nil
}

// layerFacts are the per-layer figures of one traced round.
type layerFacts map[string]float64

// collectLayers folds a traced round into per-layer figures.
func (r *round) collectLayers() (layerFacts, error) {
	tp := r.tp
	lf := layerFacts{}
	var calls [numOps]int
	var secs [numOps]float64
	var userW, userR int64
	userOps := 0
	for _, s := range r.res.samples {
		if s.start < tp.start.Sub(r.t0) || s.end > r.res.phaseEnd {
			continue
		}
		calls[s.op]++
		secs[s.op] += (s.end - s.start).Seconds()
		userOps++
		switch s.op {
		case opAppend:
			userW += s.bytes
		case opRead:
			userR += s.bytes
		}
	}
	ph := tp.phase
	lf["core.write_calls"] = float64(calls[opAppend])
	lf["core.write_s"] = secs[opAppend]
	lf["core.read_calls"] = float64(calls[opRead])
	lf["core.read_s"] = secs[opRead]
	lf["core.close_s"] = secs[opClose]
	lf["core.stripe_ops_per_call"] = ratio(float64(ph.counters.StripeWrites+ph.counters.StripeReads), float64(calls[opAppend]+calls[opRead]))
	lf["core.degraded_ops"] = float64(ph.counters.DegradedWrites + ph.counters.ECReconstructs + ph.counters.DeepProbes)
	for _, o := range []op{opCreate, opOpen, opStat, opReadDir, opRename, opRemove, opMkdir} {
		lf["meta."+opNames[o]+"_calls"] = float64(calls[o])
		lf["meta."+opNames[o]+"_s"] = secs[o]
	}

	ev := r.res.evac
	lf["evac.keys_moved"] = float64(ev.rep.Moved)
	lf["evac.mb_moved"] = float64(ev.bytes) / 1e6
	lf["evac.passes"] = float64(ev.rep.Passes)
	lf["evac.drain_s"] = ev.drainS
	lf["evac.sweep_s"] = ev.sweepS
	lf["evac.kv_ops_per_key"] = ratio(float64(ev.storeOps), float64(ev.rep.Moved))
	sc := r.res.scrub
	lf["scrub.stripes_checked"] = float64(sc.rep.StripesChecked)
	lf["scrub.restored"] = float64(sc.rep.Restored)
	lf["scrub.s"] = sc.dur.Seconds()
	lf["scrub.kv_ops_per_restored"] = ratio(float64(sc.storeOps), float64(sc.rep.Restored))

	user := float64(userW + userR)
	lf["kvstore.ops_per_user_op"] = ratio(float64(ph.counters.StoreOps), float64(userOps))
	lf["kvstore.attempts_per_op"] = ratio(float64(ph.counters.StoreAttempts), float64(ph.counters.StoreOps))
	lf["kvstore.wire_out_b_per_user_b"] = ratio(float64(ph.wireOut), float64(userW))
	lf["kvstore.wire_in_b_per_user_b"] = ratio(float64(ph.wireIn), float64(userR))
	lf["kvstore.server_ops"] = float64(ph.serverOps)
	for _, verb := range kvVerbs {
		lf["kvstore."+strings.ToLower(verb)+"_p50_ms"] = bucketQuantile(ph.kvBounds, ph.kvBuckets[verb], 0.5) * 1e3
	}

	self := map[string]float64{}
	spans := 0
	for _, t := range tp.traces {
		t.Root.Walk(func(_ int, sp *trace.SpanData) {
			spans++
			child := int64(0)
			for _, c := range sp.Children {
				child += c.DurUS
			}
			if g, ok := spanGroups[sp.Name]; ok {
				self[g] += float64(max(0, sp.DurUS-child)) / 1e6
			}
		})
	}
	lf["trace.spans_per_op"] = ratio(float64(spans), float64(len(tp.traces)))
	for _, g := range spanGroupNames {
		lf["trace.self_s."+g] = self[g]
	}
	var taskSelf float64
	taskCalls := make([]float64, len(r.res.tasks))
	for _, s := range r.res.samples {
		if s.task >= 0 {
			taskCalls[s.task] += (s.end - s.start).Seconds()
		}
	}
	for i, t := range r.res.tasks {
		taskSelf += (t.end - t.start).Seconds() - taskCalls[i]
	}
	lf["bench.task_self_s"] = taskSelf

	lf["runtime.alloc_b_per_user_b"] = ratio(float64(tp.mem1.TotalAlloc-tp.mem0.TotalAlloc), user)
	lf["runtime.gc_cycles"] = float64(tp.mem1.NumGC - tp.mem0.NumGC)
	lf["runtime.gc_pause_s"] = float64(tp.mem1.PauseTotalNs-tp.mem0.PauseTotalNs) / 1e9
	lf["runtime.heap_live_mb"] = float64(tp.heapLive) / 1e6

	if err := r.replayLayers(lf, calls); err != nil {
		return nil, err
	}
	kv, err := kvOpsPerNamespaceOp(r.fs)
	if err != nil {
		return nil, err
	}
	lf["meta.kv_ops_per_op"] = kv
	return lf, nil
}

// replayLayers times the erasure coder and the HRW placer on the round's
// own shapes: its stripe size, its placement classes and the stripe keys
// its stores hold. Figures derived from counts, not timed, are
// hrw.placers_per_op and erasure.encoded_b_per_user_b.
func (r *round) replayLayers(lf layerFacts, calls [numOps]int) error {
	classes := r.fs.Classes()
	hc := hrwClasses(classes)
	var keys []string
	for _, cls := range classes {
		for _, n := range cls.Nodes {
			f, err := r.d.inspect(n.ID)
			if err != nil {
				return err
			}
			for _, k := range f.keys {
				if s, ok := stripeOf(k); ok {
					keys = append(keys, s)
				}
			}
		}
	}
	sort.Strings(keys)
	const placers = 200
	t := time.Now()
	var pl *hrw.Placer
	for i := 0; i < placers; i++ {
		var err error
		if pl, err = hrw.NewPlacer(hc...); err != nil {
			return err
		}
	}
	lf["hrw.new_placer_us"] = float64(time.Since(t).Microseconds()) / placers
	width := r.wl.red.Replicas + r.wl.red.DataShards + r.wl.red.ParityShards
	t = time.Now()
	for _, k := range keys {
		pl.PlaceK(k, width)
	}
	lf["hrw.place_us"] = ratio(float64(time.Since(t).Nanoseconds())/1e3, float64(len(keys)))
	t = time.Now()
	for _, k := range keys {
		pl.ProbeOrder(k)
	}
	lf["hrw.probe_order_us"] = ratio(float64(time.Since(t).Nanoseconds())/1e3, float64(len(keys)))
	// Every Open and Create builds a placer; evacuation builds one per
	// key it moves.
	userOps := 0
	for _, c := range calls {
		userOps += c
	}
	lf["hrw.placers_per_op"] = ratio(float64(calls[opOpen]+calls[opCreate]+r.res.evac.rep.Moved), float64(userOps))
	lf["hrw.own_key_share"] = r.res.ownShare

	// The coder replay uses RS(4,2) on every workload, at the stripe
	// length the workload's writes encode.
	coder, err := erasure.NewCoder(4, 2)
	if err != nil {
		return err
	}
	stripeLen := r.wl.ecStripe
	data := r.pool.content(1, stripeLen)
	iters := int(math.Max(1, float64(32<<20)/float64(stripeLen)))
	t = time.Now()
	var shards [][]byte
	for i := 0; i < iters; i++ {
		shards = coder.Split(data)
		parity, err := coder.Encode(shards)
		if err != nil {
			return err
		}
		shards = append(shards, parity...)
	}
	lf["erasure.encode_mb_s"] = float64(iters) * float64(stripeLen) / 1e6 / time.Since(t).Seconds()
	lost := append([][]byte(nil), shards...)
	lost[0], lost[1] = nil, nil
	t = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := coder.ReconstructShards(lost, []int{0, 1}); err != nil {
			return err
		}
	}
	lf["erasure.reconstruct_mb_s"] = float64(iters) * float64(stripeLen) / 1e6 / time.Since(t).Seconds()
	lf["erasure.encoded_b_per_user_b"] = r.encodedPerUserByte()
	return nil
}

// encodedPerUserByte is the stripe bytes the erasure coder encodes per
// user byte written, computed from the phase's appends: each append
// re-encodes every stripe it touches at the stripe's new length. It is 0
// on replicated workloads.
func (r *round) encodedPerUserByte() float64 {
	if r.wl.red.DataShards == 0 {
		return 0
	}
	var user, enc int64
	for _, w := range r.ws {
		for _, a := range w.appends {
			user += a.n
			for idx := a.off / stripe.DefaultSize; idx*stripe.DefaultSize < a.off+a.n; idx++ {
				enc += min(stripe.DefaultSize, a.off+a.n-idx*stripe.DefaultSize)
			}
		}
	}
	return ratio(float64(enc), float64(user))
}

// bucketQuantile interpolates a quantile from cumulative histogram
// buckets, in seconds; 0 when the histogram is empty.
func bucketQuantile(bounds []time.Duration, cum []int64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	s := obs.SeriesSnapshot{CumBuckets: cum, Count: cum[len(cum)-1]}
	return s.Quantile(bounds, q).Seconds()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
