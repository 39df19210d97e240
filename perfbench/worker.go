package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"memfss/internal/core"
)

// op is one public file-system call the workloads time.
type op int

const (
	opCreate op = iota
	opOpen
	opStat
	opReadDir
	opRename
	opRemove
	opMkdir
	opRead
	opAppend
	opClose
	numOps
)

var opNames = [numOps]string{"create", "open", "stat", "readdir", "rename", "remove", "mkdir", "read", "append", "close"}

// sample is one timed call, as offsets from the round's start. task is the
// index of the enclosing task span in the worker's tasks, or -1.
type sample struct {
	op         op
	start, end time.Duration
	bytes      int64
	task       int
}

// taskSpan is the benchmark-side span of one workflow task.
type taskSpan struct{ start, end time.Duration }

// worker is one closed-loop client: it issues a task's calls one after
// the other and records each. Its read buffer is reused across tasks.
type worker struct {
	r         *round
	samples   []sample
	tasks     []taskSpan
	task      int
	buf       []byte
	appends   []appendRec // erasure workloads re-encode what these touch
	attempted int
	failed    int
}

// appendRec is one write call: n bytes at file offset off.
type appendRec struct{ off, n int64 }

func (w *worker) since() time.Duration { return time.Since(w.r.t0) }

// call times fn as one op and counts it.
func (w *worker) call(o op, bytes int64, fn func() error) error {
	start := w.since()
	err := fn()
	w.samples = append(w.samples, sample{op: o, start: start, end: w.since(), bytes: bytes, task: w.task})
	w.attempted++
	if err != nil {
		w.failed++
		return fmt.Errorf("%s: %w", opNames[o], err)
	}
	return nil
}

// runTask wraps one task in a benchmark-side span.
func (w *worker) runTask(fn func(w *worker) error) error {
	w.tasks = append(w.tasks, taskSpan{start: w.since()})
	w.task = len(w.tasks) - 1
	err := fn(w)
	w.tasks[w.task].end = w.since()
	w.task = -1
	return err
}

func (w *worker) stat(p string) (e core.EntryInfo, err error) {
	err = w.call(opStat, 0, func() (err error) { e, err = w.r.fs.Stat(p); return })
	return e, err
}

func (w *worker) open(p string) (f *core.File, err error) {
	err = w.call(opOpen, 0, func() (err error) { f, err = w.r.fs.Open(p); return })
	return f, err
}

func (w *worker) create(p string) (f *core.File, err error) {
	err = w.call(opCreate, 0, func() (err error) { f, err = w.r.fs.Create(p); return })
	return f, err
}

func (w *worker) readDir(p string) (es []core.EntryInfo, err error) {
	err = w.call(opReadDir, 0, func() (err error) { es, err = w.r.fs.ReadDir(p); return })
	return es, err
}

func (w *worker) mkdir(p string) error {
	return w.call(opMkdir, 0, func() error { return w.r.fs.Mkdir(p) })
}

func (w *worker) rename(from, to string) error {
	if err := w.call(opRename, 0, func() error { return w.r.fs.Rename(from, to) }); err != nil {
		return err
	}
	w.r.model.rename(from, to)
	return nil
}

func (w *worker) remove(p string) error {
	if err := w.call(opRemove, 0, func() error { return w.r.fs.Remove(p) }); err != nil {
		return err
	}
	w.r.model.remove(p)
	return nil
}

func (w *worker) close(f *core.File) error {
	return w.call(opClose, 0, f.Close)
}

// readAt reads n bytes at off into the worker's buffer.
func (w *worker) readAt(f *core.File, off, n int64) ([]byte, error) {
	b := w.buf[:n]
	err := w.call(opRead, n, func() error { _, err := f.ReadAt(b, off); return err })
	return b, err
}

// append writes p at the handle's position.
func (w *worker) append(f *core.File, p []byte) error {
	w.appends = append(w.appends, appendRec{off: f.Size(), n: int64(len(p))})
	return w.call(opAppend, int64(len(p)), func() error { _, err := f.Write(p); return err })
}

// readRange opens p, reads [off, off+n) (the whole file when n < 0) and
// checks the bytes against the model's seeded content. Whole-file reads
// stat the file first and check its size, as a workflow task does.
func (w *worker) readRange(p string, off, n int64) error {
	fi, ok := w.r.model.get(p)
	if !ok {
		return fmt.Errorf("model has no %s", p)
	}
	if n < 0 {
		e, err := w.stat(p)
		if err != nil {
			return err
		}
		if e.Size != fi.size {
			return fmt.Errorf("%s: stat size %d, want %d", p, e.Size, fi.size)
		}
		n = fi.size
	}
	f, err := w.open(p)
	if err != nil {
		return err
	}
	got, err := w.readAt(f, off, n)
	if cerr := w.close(f); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return w.r.verify(p, checkBytes(p, got, w.r.pool.content(fi.id, fi.size)[off:off+n]))
}

// writeWhole writes a file whole under tmp, closes it and renames it to
// path: the output protocol of a workflow task.
func (w *worker) writeWhole(tmp, path string, size int64) error {
	id := contentID(path)
	f, err := w.create(tmp)
	if err != nil {
		return err
	}
	w.r.model.put(tmp, fileInfo{size: 0, id: id})
	err = w.append(f, w.r.pool.content(id, size))
	if cerr := w.close(f); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	w.r.model.put(tmp, fileInfo{size: size, id: id})
	return w.rename(tmp, path)
}

// listDir lists dir and checks the listing against the model.
func (w *worker) listDir(dir string) error {
	es, err := w.readDir(dir)
	if err != nil {
		return err
	}
	return w.r.verify(dir, checkListing(dir, w.r.model.list(dir), listing(es)))
}

func listing(es []core.EntryInfo) []listEntry {
	out := make([]listEntry, len(es))
	for i, e := range es {
		out[i] = listEntry{Name: e.Name, Size: e.Size, Dir: e.IsDir}
	}
	return out
}

// contentID names the seeded content of a file by its final path, so a
// file's bytes depend only on the seed and its name.
func contentID(path string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64()
}

// fileInfo is the model's view of one file.
type fileInfo struct {
	size int64
	id   uint64
}

// nsModel is the benchmark's model of the namespace, kept apart from the
// program: every successful create, rename and remove updates it.
type nsModel struct {
	mu    sync.Mutex
	files map[string]fileInfo
	dirs  map[string]bool
}

func newModel() *nsModel {
	return &nsModel{files: make(map[string]fileInfo), dirs: map[string]bool{"/": true}}
}

func (m *nsModel) put(p string, fi fileInfo) {
	m.mu.Lock()
	m.files[p] = fi
	m.mu.Unlock()
}

func (m *nsModel) mkdir(p string) {
	m.mu.Lock()
	m.dirs[p] = true
	m.mu.Unlock()
}

func (m *nsModel) get(p string) (fileInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fi, ok := m.files[p]
	return fi, ok
}

func (m *nsModel) rename(from, to string) {
	m.mu.Lock()
	m.files[to] = m.files[from]
	delete(m.files, from)
	m.mu.Unlock()
}

func (m *nsModel) remove(p string) {
	m.mu.Lock()
	delete(m.files, p)
	m.mu.Unlock()
}

func parentOf(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

// list returns the model's entries directly under dir.
func (m *nsModel) list(dir string) []listEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []listEntry
	for p, fi := range m.files {
		if parentOf(p) == dir {
			out = append(out, listEntry{Name: p[strings.LastIndexByte(p, '/')+1:], Size: fi.size})
		}
	}
	for p := range m.dirs {
		if p != "/" && parentOf(p) == dir {
			out = append(out, listEntry{Name: p[strings.LastIndexByte(p, '/')+1:], Dir: true})
		}
	}
	return out
}

// paths returns the model's files and directories, sorted.
func (m *nsModel) paths() (files, dirs []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := range m.files {
		files = append(files, p)
	}
	for p := range m.dirs {
		dirs = append(dirs, p)
	}
	sort.Strings(files)
	sort.Strings(dirs)
	return files, dirs
}

// layout returns the facts the space bound is computed from.
func (m *nsModel) layout(stripeSize int64) (user, stripes int64, entries int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, fi := range m.files {
		user += fi.size
		stripes += (fi.size + stripeSize - 1) / stripeSize
	}
	return user, stripes, len(m.files) + len(m.dirs)
}
