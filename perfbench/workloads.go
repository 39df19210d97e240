package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"memfss/internal/core"
	"memfss/internal/stripe"
	"memfss/internal/workflow"
)

// Input make-up. Sizes keep a round's live data near 100 MB, so a round
// fits in a few seconds on two CPUs and the heap stays a few hundred MB.
const (
	// Montage: 16 tiles of 1.25 stripes, so a tile spans two stripes and
	// whole-tile I/O takes the pipelined replicated path; fits (tile/8)
	// and table slices (tile/64) take the single-stripe path.
	montageTiles     = 16
	montageTileBytes = stripe.DefaultSize + stripe.DefaultSize/4

	// BLAST: a database of 8 four-stripe parts; 16 query tasks of 50
	// requests of 8 KiB, every tenth an append to the task's output.
	blastParts     = 8
	blastPartBytes = 4 * stripe.DefaultSize
	blastTasks     = 16
	blastOps       = 50
	blastAppendGap = 10
	blastIO        = 8 << 10

	// dd: 16 tasks each writing one 4 MiB file, then reading it back,
	// beside 4 resident 4 MiB files staged in during set-up.
	ddTasks    = 16
	ddBytes    = 4 * stripe.DefaultSize
	ddResident = 4
)

var (
	replicated = core.Redundancy{Mode: core.RedundancyReplicate, Replicas: 2}
	rs42       = core.Redundancy{Mode: core.RedundancyErasure, DataShards: 4, ParityShards: 2}
)

var workloads = []*workload{
	{
		name: "montage",
		// Montage DAG on 2-way replication: namespace ops, replicated stripe paths, and a victim revoked mid-DAG.
		red:      replicated,
		maxFile:  montageTiles * montageTileBytes / 2,
		ecStripe: stripe.DefaultSize,
		stageIn:  montageStageIn,
		phase:    montagePhase,
	},
	{
		name: "blast",
		// BLAST searches on RS(4,2): 8 KiB reads and appends far below a stripe, each fetching or re-encoding a whole stripe.
		red:     rs42,
		maxFile: blastOps / blastAppendGap * blastIO,
		// Appends re-encode the output's one stripe at 8..40 KiB.
		ecStripe: 3 * blastIO,
		stageIn:  blastStageIn,
		phase:    blastPhase,
	},
	{
		name: "dd",
		// Fig. 2 bag of tasks on RS(4,2): multi-stripe erasure writes and reads, then Scrub rebuilding a wiped victim.
		red:      rs42,
		maxFile:  ddBytes,
		ecStripe: stripe.DefaultSize,
		stageIn:  ddStageIn,
		phase:    ddPhase,
		after:    ddCleanup,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// --- montage ----------------------------------------------------------------

// mread is one input of a Montage task: a whole file (n < 0) or a slice.
type mread struct {
	path   string
	off, n int64
}

// mtask is one Montage task: an optional directory listing, its inputs,
// and one output written whole and renamed into its stage's directory.
type mtask struct {
	name, stage string
	list        string
	reads       []mread
	outSize     int64
}

func (t *mtask) out() string { return "/" + t.stage + "/" + t.name }

// montageStages replays workflow.Montage: its stages in order, its tasks
// and their read and write sizes, with each read bound to the file of the
// task that produced it. It fails if a replayed task's read bytes differ
// from the generator's.
func montageStages() ([][]*mtask, error) {
	dag := workflow.Montage(workflow.MontageConfig{Tiles: montageTiles, TileBytes: montageTileBytes})
	n, tile := montageTiles, int64(montageTileBytes)
	var stages [][]*mtask
	byStage := map[string][]*mtask{}
	whole := func(p string) mread { return mread{path: p, n: -1} }
	for _, gt := range dag.Tasks() {
		t := &mtask{name: gt.Name, stage: gt.Stage, outSize: gt.Writes[0].Bytes}
		idx := strings.Split(gt.Name, "-")[1:]
		num := func(i int) int { v, _ := strconv.Atoi(idx[i]); return v }
		switch gt.Stage {
		case "mProject":
			t.reads = []mread{whole(fmt.Sprintf("/in/tile-%d", num(0)))}
		case "mDiffFit":
			t.reads = []mread{whole(fmt.Sprintf("/mProject/mProject-%d", num(0))),
				whole(fmt.Sprintf("/mProject/mProject-%d", num(1)))}
		case "mConcatFit", "mShrink":
			src := map[string]string{"mConcatFit": "mDiffFit", "mShrink": "mAdd"}[gt.Stage]
			t.list = "/" + src
			for _, p := range byStage[src] {
				t.reads = append(t.reads, whole(p.out()))
			}
		case "mBgModel":
			t.reads = []mread{whole("/mConcatFit/mConcatFit")}
		case "mBackground":
			i := int64(num(0))
			t.reads = []mread{whole(fmt.Sprintf("/mProject/mProject-%d", i)),
				{path: "/mBgModel/mBgModel", off: i * tile / 64, n: tile / 64}}
		case "mImgtbl":
			t.list = "/mBackground"
			for _, p := range byStage["mBackground"] {
				t.reads = append(t.reads, mread{path: p.out(), n: tile / 64})
			}
		case "mAdd":
			part, per := num(0), len(byStage["mBackground"])/max(1, n/64)
			for _, p := range byStage["mBackground"][part*per : (part+1)*per] {
				t.reads = append(t.reads, whole(p.out()))
			}
		case "mJPEG":
			t.reads = []mread{whole("/mShrink/mShrink")}
		default:
			return nil, fmt.Errorf("montage replay: unknown stage %q", gt.Stage)
		}
		if len(stages) == 0 || stages[len(stages)-1][0].stage != t.stage {
			stages = append(stages, nil)
		}
		stages[len(stages)-1] = append(stages[len(stages)-1], t)
		byStage[t.stage] = append(byStage[t.stage], t)
	}
	sizes := map[string]int64{}
	for i := 0; i < n; i++ {
		sizes[fmt.Sprintf("/in/tile-%d", i)] = tile
	}
	for _, st := range stages {
		for _, t := range st {
			sizes[t.out()] = t.outSize
		}
	}
	for i, gt := range dag.Tasks() {
		var want, got int64
		for _, io := range gt.Reads {
			want += io.Bytes
		}
		for _, rd := range flatten(stages)[i].reads {
			if rd.n < 0 {
				got += sizes[rd.path]
			} else {
				got += rd.n
			}
		}
		if got != want {
			return nil, fmt.Errorf("montage replay: %s reads %d bytes, generator says %d", gt.Name, got, want)
		}
	}
	return stages, nil
}

func flatten(stages [][]*mtask) []*mtask {
	var out []*mtask
	for _, st := range stages {
		out = append(out, st...)
	}
	return out
}

func montageStageIn(r *round) error {
	if err := r.mkdirSetup("/in"); err != nil {
		return err
	}
	for i := 0; i < montageTiles; i++ {
		if err := r.stageIn(fmt.Sprintf("/in/tile-%d", i), montageTileBytes); err != nil {
			return err
		}
	}
	return nil
}

// montageRevokeAfter is the stage whose barrier the victim is revoked at;
// the stages after it read through the changed placement.
const montageRevokeAfter = "mBackground"

// montageScrubAfter is the stage whose barrier a victim is wiped and
// scrubbed at.
const montageScrubAfter = "mDiffFit"

func montagePhase(r *round) error {
	stages, err := montageStages()
	if err != nil {
		return err
	}
	// Intermediates are removed by the task that consumes them last.
	// Inputs and the final products (no consumer) stay.
	var mu sync.Mutex
	refs := map[string]int{}
	for _, t := range flatten(stages) {
		for _, p := range distinctPaths(t.reads) {
			if !strings.HasPrefix(p, "/in/") {
				refs[p]++
			}
		}
	}
	release := func(w *worker, t *mtask) error {
		for _, p := range distinctPaths(t.reads) {
			mu.Lock()
			refs[p]--
			last := refs[p] == 0
			mu.Unlock()
			if last {
				if err := w.remove(p); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, st := range stages {
		if err := r.mkdir("/" + st[0].stage); err != nil {
			return err
		}
		tasks := make([]func(w *worker) error, len(st))
		for i, t := range st {
			t := t
			tasks[i] = func(w *worker) error {
				if t.list != "" {
					if err := w.listDir(t.list); err != nil {
						return err
					}
				}
				for _, rd := range t.reads {
					if err := w.readRange(rd.path, rd.off, rd.n); err != nil {
						return err
					}
				}
				if err := w.writeWhole("/tmp/"+t.name, t.out(), t.outSize); err != nil {
					return err
				}
				return release(w, t)
			}
		}
		if err := r.runStage(tasks); err != nil {
			return err
		}
		switch st[0].stage {
		case montageScrubAfter:
			if err := r.wipeAndScrub(); err != nil {
				return err
			}
		case montageRevokeAfter:
			if err := r.revoke(); err != nil {
				return err
			}
		}
	}
	return nil
}

func distinctPaths(reads []mread) []string {
	seen := map[string]bool{}
	var out []string
	for _, rd := range reads {
		if !seen[rd.path] {
			seen[rd.path] = true
			out = append(out, rd.path)
		}
	}
	return out
}

// --- blast ------------------------------------------------------------------

func blastStageIn(r *round) error {
	if err := r.mkdirSetup("/db"); err != nil {
		return err
	}
	for i := 0; i < blastParts; i++ {
		if err := r.stageIn(fmt.Sprintf("/db/part-%d", i), blastPartBytes); err != nil {
			return err
		}
	}
	return nil
}

// blastQuery is one search task's inputs: the database part it searches
// (every part is searched equally often) and the seeded 8 KiB-aligned
// offsets of its reads.
type blastQuery struct {
	part    int
	offsets []int64
}

func blastQueries(seed int64) []blastQuery {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]blastQuery, blastTasks)
	for i := range qs {
		qs[i].part = i % blastParts
		for j := 0; j < blastOps; j++ {
			qs[i].offsets = append(qs[i].offsets, rng.Int63n(blastPartBytes/blastIO)*blastIO)
		}
	}
	return qs
}

func blastPhase(r *round) error {
	if err := r.mkdir("/results"); err != nil {
		return err
	}
	queries := blastQueries(r.seed)
	outSize := int64(blastOps / blastAppendGap * blastIO)
	search := make([]func(w *worker) error, len(queries))
	for i, q := range queries {
		i, q := i, q
		search[i] = func(w *worker) error {
			db := fmt.Sprintf("/db/part-%d", q.part)
			tmp, out := fmt.Sprintf("/tmp/q-%d", i), fmt.Sprintf("/results/q-%d", i)
			dbInfo, ok := r.model.get(db)
			if !ok {
				return fmt.Errorf("model has no %s", db)
			}
			e, err := w.stat(db)
			if err != nil {
				return err
			}
			if e.Size != dbInfo.size {
				return r.verify(db, fmt.Errorf("stat size %d, want %d", e.Size, dbInfo.size))
			}
			in, err := w.open(db)
			if err != nil {
				return err
			}
			f, err := w.create(tmp)
			if err != nil {
				return err
			}
			id := contentID(out)
			content := r.pool.content(id, outSize)
			var written int64
			dbContent := r.pool.content(dbInfo.id, dbInfo.size)
			for j, off := range q.offsets {
				if j%blastAppendGap == blastAppendGap-1 {
					if err := w.append(f, content[written:written+blastIO]); err != nil {
						return err
					}
					written += blastIO
					continue
				}
				got, err := w.readAt(in, off, blastIO)
				if err != nil {
					return err
				}
				if err := r.verify(db, checkBytes(db, got, dbContent[off:off+blastIO])); err != nil {
					return err
				}
			}
			if err := w.close(f); err != nil {
				return err
			}
			if err := w.close(in); err != nil {
				return err
			}
			r.model.put(tmp, fileInfo{size: written, id: id})
			return w.rename(tmp, out)
		}
	}
	if err := r.runStage(search); err != nil {
		return err
	}
	if err := r.wipeAndScrub(); err != nil {
		return err
	}
	if err := r.revoke(); err != nil {
		return err
	}
	// Merge: list the results and read each whole, then remove them
	// once the repairs the reads queued have finished.
	if err := r.ws[0].listDir("/results"); err != nil {
		return err
	}
	merge := make([]func(w *worker) error, len(queries))
	drop := make([]func(w *worker) error, len(queries))
	for i := range queries {
		p := fmt.Sprintf("/results/q-%d", i)
		merge[i] = func(w *worker) error { return w.readRange(p, 0, -1) }
		drop[i] = func(w *worker) error { return w.remove(p) }
	}
	if err := r.runStage(merge); err != nil {
		return err
	}
	t := now()
	err := r.settle()
	r.pauseFrom(t)
	if err != nil {
		return err
	}
	return r.runStage(drop)
}

// --- dd ---------------------------------------------------------------------

func ddStageIn(r *round) error {
	if err := r.mkdirSetup("/resident"); err != nil {
		return err
	}
	for i := 0; i < ddResident; i++ {
		if err := r.stageIn(fmt.Sprintf("/resident/r-%d", i), ddBytes); err != nil {
			return err
		}
	}
	return nil
}

func ddPhase(r *round) error {
	if err := r.mkdir("/dd"); err != nil {
		return err
	}
	write := make([]func(w *worker) error, ddTasks)
	read := make([]func(w *worker) error, ddTasks)
	for i := range write {
		tmp, out := fmt.Sprintf("/tmp/dd-%d", i), fmt.Sprintf("/dd/f-%d", i)
		write[i] = func(w *worker) error { return w.writeWhole(tmp, out, ddBytes) }
		read[i] = func(w *worker) error { return w.readRange(out, 0, -1) }
	}
	if err := r.runStage(write); err != nil {
		return err
	}
	if err := r.wipeAndScrub(); err != nil {
		return err
	}
	if err := r.revoke(); err != nil {
		return err
	}
	if err := r.ws[0].listDir("/dd"); err != nil {
		return err
	}
	return r.runStage(read)
}

// ddCleanup removes the bag's files after the checks, timing each remove.
func ddCleanup(r *round) error {
	rm := make([]func(w *worker) error, ddTasks)
	for i := range rm {
		p := fmt.Sprintf("/dd/f-%d", i)
		rm[i] = func(w *worker) error { return w.remove(p) }
	}
	return r.runStage(rm)
}
