package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"memfss/internal/core"
	"memfss/internal/erasure"
	"memfss/internal/hrw"
	"memfss/internal/stripe"
)

// workers is the closed-loop client count: one per CPU of the 2-vCPU
// reference box.
const workers = 2

// workload is one benchmark workload: its redundancy, its stage-in (part
// of set-up) and its timed phase. A phase calls r.revoke at one barrier;
// after lets a workload time calls that follow the checks.
type workload struct {
	name    string
	red     core.Redundancy
	maxFile int64 // largest file the phase reads whole
	// ecStripe is the stripe length the phase's writes encode most, the
	// size the traced run replays the erasure coder at.
	ecStripe int64
	stageIn  func(r *round) error
	phase    func(r *round) error
	after    func(r *round) error
}

// round is one deployment's life: set-up, the workload's phase, one
// revocation, one wipe-and-scrub, the checks, and tear-down.
type round struct {
	wl     *workload
	pool   *pool
	seed   int64
	traced bool
	d      *deployment
	fs     *core.FileSystem
	model  *nsModel
	staged []string // paths written during set-up
	t0     time.Time
	ws     [workers]*worker

	checkMu  sync.Mutex
	checkErr error

	tp *tracedPhase // traced rounds only

	res roundResult
}

// roundResult is what one round measured.
type roundResult struct {
	setup, makespan, pause time.Duration
	// The same spans in CPU time of the whole process (workers, file
	// system and the in-process stores): host steal does not count in it.
	setupCPU, phaseCPU, pauseCPU time.Duration
	phaseEnd                     time.Duration // offset of the phase's end from the round's start
	evac                         evacFacts
	scrub                        scrubFacts
	spaceAmp                     float64
	ownShare                     float64
	heapPeak                     int64
	// collapsed holds the replicated stripes the revocation was predicted
	// to leave one copy short (see predictCollapse).
	collapsed         map[string]bool
	samples           []sample
	tasks             []taskSpan
	attempted, failed int
	layers            layerFacts // traced rounds only
}

type evacFacts struct {
	bytes    int64
	dur, cpu time.Duration
	rep      *core.EvacReport
	storeOps int64
	drainS   float64
	sweepS   float64
}

type scrubFacts struct {
	bytes    int64
	dur, cpu time.Duration
	rep      *core.ScrubReport
	storeOps int64
}

// verify records the first failed output check of the round.
func (r *round) verify(what string, err error) error {
	if err == nil {
		return nil
	}
	r.checkMu.Lock()
	if r.checkErr == nil {
		r.checkErr = fmt.Errorf("%s: %w", what, err)
	}
	r.checkMu.Unlock()
	return err
}

// runRound runs one round of wl. An error means the round could not run
// to its end; a failed output check is returned as checkErr.
func runRound(wl *workload, p *pool, seed int64, traced bool) (res *roundResult, checkErr, err error) {
	r := &round{wl: wl, pool: p, seed: seed, traced: traced, model: newModel()}
	for i := range r.ws {
		r.ws[i] = &worker{r: r, buf: make([]byte, wl.maxFile), task: -1}
	}
	peak := startHeapSampler()
	err = r.run(peak)
	for _, w := range r.ws {
		r.res.attempted += w.attempted
		r.res.failed += w.failed
		off := len(r.res.tasks)
		for _, s := range w.samples {
			if s.task >= 0 {
				s.task += off
			}
			r.res.samples = append(r.res.samples, s)
		}
		r.res.tasks = append(r.res.tasks, w.tasks...)
	}
	if err == nil && traced {
		r.res.layers, err = r.collectLayers()
	}
	if err == nil && traced {
		err = r.probeFaults()
	}
	if r.d != nil {
		r.d.close()
	}
	// Copy the result out so the round, with its stores' data, can be
	// collected.
	out := r.res
	return &out, r.checkErr, err
}

func (r *round) run(peak *heapSampler) error {
	runtime.GC()
	setup := now()
	r.t0 = setup.wall
	var err error
	if r.d, err = deploy(r.wl.red, r.traced); err != nil {
		peak.stop()
		return err
	}
	r.fs = r.d.fs
	if err := r.mkdirSetup("/tmp"); err != nil {
		peak.stop()
		return err
	}
	if err := r.wl.stageIn(r); err != nil {
		peak.stop()
		return fmt.Errorf("stage-in: %w", err)
	}
	if err := r.verifyStaged(); err != nil {
		peak.stop()
		return fmt.Errorf("stage-in: %w", err)
	}
	r.res.setup, r.res.setupCPU = setup.since()

	runtime.GC()
	if r.traced {
		if err := r.beginTraced(); err != nil {
			peak.stop()
			return err
		}
	}
	start := now()
	err = r.wl.phase(r)
	r.res.phaseEnd = time.Since(r.t0)
	wall, cpu := start.since()
	r.res.makespan = wall - r.res.pause
	r.res.phaseCPU = cpu - r.res.pauseCPU
	if err == nil && r.traced {
		err = r.endTraced()
	}
	r.res.heapPeak = peak.stop()
	if err == nil {
		err = r.settle()
	}
	if err != nil {
		return err
	}
	r.verify("checks", r.checkAll())
	if r.wl.after != nil {
		return r.wl.after(r)
	}
	return nil
}

// stageIn writes a file during set-up, untimed per call.
func (r *round) stageIn(path string, size int64) error {
	id := contentID(path)
	if err := r.fs.WriteFile(path, r.pool.content(id, size)); err != nil {
		return err
	}
	r.model.put(path, fileInfo{size: size, id: id})
	r.staged = append(r.staged, path)
	return nil
}

// verifyStaged ends set-up the way a stager with integrity checks does:
// it reads every staged file back whole and compares it with the seeded
// content.
func (r *round) verifyStaged() error {
	for _, p := range r.staged {
		fi, _ := r.model.get(p)
		got, err := r.fs.ReadFile(p)
		if err != nil {
			return err
		}
		if err := r.verify("stage-in", checkBytes(p, got, r.pool.content(fi.id, fi.size))); err != nil {
			return err
		}
	}
	return nil
}

func (r *round) mkdirSetup(p string) error {
	if err := r.fs.Mkdir(p); err != nil {
		return err
	}
	r.model.mkdir(p)
	return nil
}

// mkdir creates a directory inside the timed phase.
func (r *round) mkdir(p string) error {
	if err := r.ws[0].mkdir(p); err != nil {
		return err
	}
	r.model.mkdir(p)
	return nil
}

// runStage runs tasks on the closed-loop workers: each worker takes the
// next task when its previous one has finished. It returns at the stage
// barrier, when every task has ended.
func (r *round) runStage(tasks []func(w *worker) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i, w := range r.ws {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= len(tasks) {
					return
				}
				if err := w.runTask(tasks[t]); err != nil && errs[i] == nil {
					errs[i] = err
				}
			}
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// victimFacts inspects every remaining victim store.
func (r *round) victimFacts() (map[string]storeFacts, error) {
	out := make(map[string]storeFacts)
	for _, cls := range r.fs.Classes() {
		if !cls.Victim {
			continue
		}
		for _, n := range cls.Nodes {
			f, err := r.d.inspect(n.ID)
			if err != nil {
				return nil, err
			}
			out[n.ID] = f
		}
	}
	return out, nil
}

// fullest returns the victim holding the most bytes (ties by ID), the
// one a tenant reclaiming memory would hurt most.
func fullest(facts map[string]storeFacts) string {
	ids := make([]string, 0, len(facts))
	for id := range facts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	best := ""
	for _, id := range ids {
		if best == "" || facts[id].bytes > facts[best].bytes {
			best = id
		}
	}
	return best
}

// revoke evacuates the fullest victim while the workers wait at a stage
// barrier. Its time is excluded from the makespan.
func (r *round) revoke() error {
	defer r.pauseFrom(now())
	if r.traced {
		s0, err := r.snap()
		if err != nil {
			return err
		}
		defer func() {
			if s1, err := r.snap(); err == nil {
				r.tp.pauses = append(r.tp.pauses, s1.sub(s0))
			}
		}()
	}
	facts, err := r.victimFacts()
	if err != nil {
		return err
	}
	node := fullest(facts)
	var before *census
	classes := r.fs.Classes()
	if r.wl.red.Replicas > 0 {
		if before, err = r.takeCensus(); err != nil {
			return err
		}
	}
	ops0 := r.fs.Counters().StoreOps
	drain0, sweep0 := evacPhaseSeconds(r.fs)
	runtime.GC()
	t := now()
	rep, err := r.fs.Evacuate(context.Background(), node, core.EvacOptions{})
	dur, cpu := t.since()
	r.ws[0].attempted++
	if err != nil {
		r.ws[0].failed++
		return fmt.Errorf("evacuate %s: %w", node, err)
	}
	drain1, sweep1 := evacPhaseSeconds(r.fs)
	r.res.evac = evacFacts{bytes: facts[node].bytes, dur: dur, cpu: cpu, rep: rep,
		storeOps: r.fs.Counters().StoreOps - ops0, drainS: drain1 - drain0, sweepS: sweep1 - sweep0}
	left, err := r.d.inspect(node)
	if err != nil {
		return err
	}
	if err := r.verify("revoke", checkEvacuated(node, len(left.keys), rep.Forced, rep.AtRisk)); err != nil {
		return err
	}
	// A revocation must leave every replicated stripe with its full set
	// of copies. Evacuate moves a replica to the first live node of the
	// stripe's probe order, which can be the node holding the other
	// replica, so the two copies become one. Only the stripes predicted
	// to collapse that way may come out short, by one copy; a revocation
	// that leaves any stripe short is counted as failed.
	if r.wl.red.Replicas == 0 {
		return nil
	}
	if r.res.collapsed, err = predictCollapse(classes, node, before.holders); err != nil {
		return err
	}
	c, err := r.takeCensus()
	if err != nil {
		return err
	}
	short := r.shortfall(c)
	if err := r.verify("revoke", checkShortfall(short, r.res.collapsed)); err != nil {
		return err
	}
	if len(short) > 0 {
		r.ws[0].failed++
	}
	return nil
}

// hrwClasses returns the placement classes of a file system's class specs.
func hrwClasses(classes []core.ClassSpec) []hrw.Class {
	hc := make([]hrw.Class, len(classes))
	for i, cls := range classes {
		hc[i] = hrw.Class{Name: cls.Name, Weight: cls.Weight}
		for _, n := range cls.Nodes {
			hc[i].Nodes = append(hc[i].Nodes, n.ID)
		}
	}
	return hc
}

// predictCollapse returns the stripes an evacuation of victim leaves one
// copy short: those with a copy on victim whose first probe-order node
// other than victim (the node the copy is moved to) already holds another
// copy. holders maps each stripe to the nodes of its stored copies.
func predictCollapse(classes []core.ClassSpec, victim string, holders map[string][]string) (map[string]bool, error) {
	pl, err := hrw.NewPlacer(hrwClasses(classes)...)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for s, h := range holders {
		if !slices.Contains(h, victim) {
			continue
		}
		for _, n := range pl.ProbeOrder(s) {
			if n != victim {
				if slices.Contains(h, n) {
					out[s] = true
				}
				break
			}
		}
	}
	return out, nil
}

// instant is a wall-clock time with the process's CPU time at it.
type instant struct {
	wall time.Time
	cpu  time.Duration
}

func now() instant { return instant{time.Now(), cpuTime()} }

// since returns the wall-clock and CPU time elapsed since i.
func (i instant) since() (wall, cpu time.Duration) {
	return time.Since(i.wall), cpuTime() - i.cpu
}

// cpuTime is the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pauseFrom adds the time since start to the round's pauses, the spans
// inside the phase that its figures leave out.
func (r *round) pauseFrom(start instant) {
	wall, cpu := start.since()
	r.res.pause += wall
	r.res.pauseCPU += cpu
}

// settle waits until the background repair queue is idle. Reads of
// stripes a revocation moved queue repairs; the checks and any remove of
// a file with repairs in flight wait for them.
func (r *round) settle() error {
	if !r.fs.WaitRepairIdle(30 * time.Second) {
		return fmt.Errorf("repair queue still busy after 30s: %+v", r.fs.RepairStats())
	}
	return nil
}

// wipeAndScrub empties the fullest victim through a direct store client,
// as a victim restarted empty would be, and times the Scrub that restores
// it. The workers wait at a stage barrier; its time is excluded from the
// makespan.
func (r *round) wipeAndScrub() error {
	defer r.pauseFrom(now())
	if r.traced {
		s0, err := r.snap()
		if err != nil {
			return err
		}
		defer func() {
			if s1, err := r.snap(); err == nil {
				r.tp.pauses = append(r.tp.pauses, s1.sub(s0))
			}
		}()
	}
	facts, err := r.victimFacts()
	if err != nil {
		return err
	}
	node := fullest(facts)
	c := r.d.direct(node)
	err = c.FlushAll()
	c.Close()
	if err != nil {
		return fmt.Errorf("wipe %s: %w", node, err)
	}
	ops0 := r.fs.Counters().StoreOps
	runtime.GC()
	t := now()
	rep, err := r.fs.Scrub()
	dur, cpu := t.since()
	r.ws[0].attempted++
	if err != nil {
		r.ws[0].failed++
		return fmt.Errorf("scrub: %w", err)
	}
	r.res.scrub = scrubFacts{bytes: facts[node].bytes, dur: dur, cpu: cpu, rep: rep, storeOps: r.fs.Counters().StoreOps - ops0}
	after, err := r.d.inspect(node)
	if err != nil {
		return err
	}
	return r.verify("scrub", checkScrubKeys(node, facts[node].keys, after.keys, rep.Unrepairable))
}

// probeFaults ends a traced round, after its checks and layer figures,
// with the step the timed rounds order around a known fault, and counts
// what the fault leaves. The counts do not change correct; 0 where the
// probe does not apply.
//   - fault.scrub_unrepairable (replication): the fullest victim is wiped
//     while the revocation's collapsed stripes hold one copy, and Scrub
//     reports the units it cannot restore.
//   - fault.remove_orphans (erasure coding): a second victim is revoked,
//     then every live file is read whole and at once removed, without
//     waiting for the repairs the reads queue; Fsck counts the orphan
//     stripes left once the queue is idle.
func (r *round) probeFaults() error {
	r.res.layers["fault.scrub_unrepairable"] = 0
	r.res.layers["fault.remove_orphans"] = 0
	facts, err := r.victimFacts()
	if err != nil {
		return err
	}
	node := fullest(facts)
	if r.wl.red.Replicas > 0 {
		c := r.d.direct(node)
		err := c.FlushAll()
		c.Close()
		if err != nil {
			return fmt.Errorf("probe: wipe %s: %w", node, err)
		}
		rep, err := r.fs.Scrub()
		if err != nil {
			return fmt.Errorf("probe: scrub: %w", err)
		}
		r.res.layers["fault.scrub_unrepairable"] = float64(len(rep.Unrepairable))
		return nil
	}
	if _, err := r.fs.Evacuate(context.Background(), node, core.EvacOptions{}); err != nil {
		return fmt.Errorf("probe: evacuate %s: %w", node, err)
	}
	files, _ := r.model.paths()
	for _, p := range files {
		if _, err := r.fs.ReadFile(p); err != nil {
			return fmt.Errorf("probe: read %s: %w", p, err)
		}
		if err := r.fs.Remove(p); err != nil {
			return fmt.Errorf("probe: remove %s: %w", p, err)
		}
	}
	if err := r.settle(); err != nil {
		return err
	}
	rep, err := r.fs.Fsck()
	if err != nil {
		return fmt.Errorf("probe: fsck: %w", err)
	}
	r.res.layers["fault.remove_orphans"] = float64(rep.OrphanStripes)
	return nil
}

// checkAll runs the end-of-round output checks: Fsck, every directory
// listing and file size against the model, every live byte against the
// seeded content, the space bound and the own-class share.
func (r *round) checkAll() error {
	rep, err := r.fs.Fsck()
	if err != nil {
		return err
	}
	if err := checkFsck(rep.Damaged, rep.OrphanStripes); err != nil {
		return err
	}
	// Fsck's reads may queue repairs of stripes a revocation moved; the
	// census below judges the layout they leave.
	if err := r.settle(); err != nil {
		return err
	}
	files, dirs := r.model.paths()
	for _, dir := range dirs {
		es, err := r.fs.ReadDir(dir)
		if err != nil {
			return err
		}
		if err := checkListing(dir, r.model.list(dir), listing(es)); err != nil {
			return err
		}
	}
	for _, p := range files {
		fi, _ := r.model.get(p)
		got, err := r.fs.ReadFile(p)
		if err != nil {
			return err
		}
		if err := checkBytes(p, got, r.pool.content(fi.id, fi.size)); err != nil {
			return err
		}
	}

	c, err := r.takeCensus()
	if err != nil {
		return err
	}
	user, nstripes, entries := r.model.layout(stripe.DefaultSize)
	r.res.spaceAmp = float64(c.stored) / float64(user)
	own := 0
	for s := range c.holders {
		if c.own[s] {
			own++
		}
	}
	r.res.ownShare = float64(own) / float64(len(c.holders))
	facts := layoutFacts{copies: r.wl.red.Replicas, k: r.wl.red.DataShards, m: r.wl.red.ParityShards,
		userBytes: user, stripes: nstripes, entries: entries, shardHeader: erasure.HeaderSize}
	lo, hi := spaceAmpBounds(facts)
	// Stripes the revocation was predicted to collapse may lack one copy;
	// every other stripe must hold its full set.
	short := r.shortfall(c)
	if err := checkShortfall(short, r.res.collapsed); err != nil {
		return err
	}
	missing, err := r.missingCopyBytes(c, short)
	if err != nil {
		return err
	}
	lo -= float64(missing) / float64(user)
	if err := checkSpaceAmp(r.res.spaceAmp, lo, hi); err != nil {
		return err
	}
	return checkOwnShare(own, len(c.holders), alpha)
}

// census is the data layout as direct store listings show it.
type census struct {
	stored  int64               // bytes every store accounts, metadata included
	holders map[string][]string // stripe -> the node of each stored key of it
	keyOf   map[string]string   // stripe -> one of its stored keys
	own     map[string]bool     // stripe -> stored in the own class
}

func (r *round) takeCensus() (*census, error) {
	c := &census{holders: map[string][]string{}, keyOf: map[string]string{}, own: map[string]bool{}}
	for _, cls := range r.fs.Classes() {
		for _, n := range cls.Nodes {
			f, err := r.d.inspect(n.ID)
			if err != nil {
				return nil, err
			}
			c.stored += f.bytes
			for _, k := range f.keys {
				s, ok := stripeOf(k)
				if !ok {
					continue
				}
				c.holders[s] = append(c.holders[s], n.ID)
				c.keyOf[s] = k
				c.own[s] = !cls.Victim
			}
		}
	}
	return c, nil
}

// shortfall maps each replicated stripe holding fewer copies than the
// scheme keeps to the number of copies it lacks; empty under erasure
// coding.
func (r *round) shortfall(c *census) map[string]int {
	out := map[string]int{}
	for s, h := range c.holders {
		if len(h) < r.wl.red.Replicas {
			out[s] = r.wl.red.Replicas - len(h)
		}
	}
	return out
}

// missingCopyBytes sums the bytes of the copies short stripes lack.
func (r *round) missingCopyBytes(c *census, short map[string]int) (int64, error) {
	var missing int64
	for s, n := range short {
		cl := r.d.direct(c.holders[s][0])
		v, ok, err := cl.Get(c.keyOf[s])
		cl.Close()
		if err != nil || !ok {
			return 0, fmt.Errorf("read back %s: ok=%v err=%v", c.keyOf[s], ok, err)
		}
		missing += int64(n) * int64(len(v))
	}
	return missing, nil
}

// heapSampler records the peak of live heap objects, which includes the
// in-process stores' data, until stopped.
type heapSampler struct {
	stopc chan struct{}
	done  chan int64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan int64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak int64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := int64(s[0].Value.Uint64()); v > peak {
				peak = v
			}
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak it saw.
func (h *heapSampler) stop() int64 {
	close(h.stopc)
	return <-h.done
}
