package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"memfss/internal/container"
	"memfss/internal/core"
	"memfss/internal/hrw"
	"memfss/internal/kvstore"
)

// The deployment every workload runs against: 6 own and 8 victim stores
// on loopback, with the own class taking α of the stripes.
const (
	ownNodes    = 6
	victimNodes = 8
	alpha       = 0.25
	password    = "perfbench"
)

// deployment is one mounted file system over freshly started stores.
type deployment struct {
	own, vic *core.LocalStores
	relays   []*relay // traced runs only: one per store, in front of it
	fs       *core.FileSystem
	addr     map[string]string // node ID -> store address (bypassing relays)
}

// deploy starts the stores and mounts the file system. A traced
// deployment puts a byte-counting relay in front of every store and keeps
// every program trace.
func deploy(red core.Redundancy, traced bool) (*deployment, error) {
	d := &deployment{addr: make(map[string]string)}
	var err error
	if d.own, err = core.StartLocalStores(ownNodes, "own", password, 0); err != nil {
		return nil, err
	}
	if d.vic, err = core.StartLocalStores(victimNodes, "victim", password, 0); err != nil {
		d.close()
		return nil, err
	}
	delta, err := hrw.DeltaForOwnFraction(alpha)
	if err != nil {
		d.close()
		return nil, err
	}
	ownSpec := core.ClassSpec{Name: "own", Weight: delta}
	vicSpec := core.ClassSpec{Name: "victim", Victim: true, Limits: container.Limits{MemoryBytes: 1 << 34}}
	if ownSpec.Nodes, err = d.nodes(d.own.Nodes, traced); err == nil {
		vicSpec.Nodes, err = d.nodes(d.vic.Nodes, traced)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	cfg := core.Config{
		Classes:    []core.ClassSpec{ownSpec, vicSpec},
		Password:   password,
		Redundancy: red,
	}
	if traced {
		cfg.Obs.TraceSampleEvery = 1
		cfg.Obs.TraceCapacity = traceCapacity
	}
	if d.fs, err = core.New(cfg); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// traceCapacity bounds each retention ring of a traced run; it is sized
// above the operations one round issues, so no trace is evicted before
// the round collects them.
const traceCapacity = 1 << 14

// nodes records the direct store addresses and returns the specs the file
// system mounts: the stores themselves, or relays in front of them.
func (d *deployment) nodes(specs []core.NodeSpec, traced bool) ([]core.NodeSpec, error) {
	out := make([]core.NodeSpec, len(specs))
	for i, n := range specs {
		d.addr[n.ID] = n.Addr
		out[i] = n
		if traced {
			r, err := startRelay(n.Addr)
			if err != nil {
				return nil, err
			}
			d.relays = append(d.relays, r)
			out[i].Addr = r.addr
		}
	}
	return out, nil
}

// close unmounts the file system and stops relays and stores.
func (d *deployment) close() {
	if d.fs != nil {
		d.fs.Close()
	}
	for _, r := range d.relays {
		r.close()
	}
	if d.own != nil {
		d.own.Close()
	}
	if d.vic != nil {
		d.vic.Close()
	}
}

// direct dials a store without going through the file system.
func (d *deployment) direct(node string) *kvstore.Client {
	return kvstore.Dial(d.addr[node], kvstore.DialOptions{Password: password, PoolSize: 1})
}

// storeFacts is a store as a direct client sees it.
type storeFacts struct {
	keys  []string
	bytes int64
	ops   int64
}

// inspect lists a store's keys and reads its accounting directly.
func (d *deployment) inspect(node string) (storeFacts, error) {
	c := d.direct(node)
	defer c.Close()
	keys, err := c.Keys("")
	if err != nil {
		return storeFacts{}, fmt.Errorf("keys on %s: %w", node, err)
	}
	st, err := c.Info()
	if err != nil {
		return storeFacts{}, fmt.Errorf("info on %s: %w", node, err)
	}
	return storeFacts{keys: keys, bytes: st.BytesUsed, ops: st.TotalOps}, nil
}

// wire sums the bytes the relays carried toward the stores (out) and
// back to the client (in).
func (d *deployment) wire() (out, in int64) {
	for _, r := range d.relays {
		out += r.toStore.Load()
		in += r.fromStore.Load()
	}
	return out, in
}

// relay is a byte-counting TCP relay in front of one store.
type relay struct {
	addr      string
	target    string
	ln        net.Listener
	toStore   atomic.Int64
	fromStore atomic.Int64

	mu     sync.Mutex
	closed bool
	conns  []net.Conn
	wg     sync.WaitGroup
}

func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{addr: ln.Addr().String(), target: target, ln: ln}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", r.target)
		if err != nil {
			c.Close()
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			c.Close()
			s.Close()
			return
		}
		r.conns = append(r.conns, c, s)
		r.wg.Add(2)
		r.mu.Unlock()
		go r.pipe(s, c, &r.toStore)
		go r.pipe(c, s, &r.fromStore)
	}
}

// pipe copies src to dst, counting bytes, and closes both ends when
// either side stops so its partner goroutine ends too.
func (r *relay) pipe(dst, src net.Conn, n *atomic.Int64) {
	defer r.wg.Done()
	// A closed connection is how every relayed stream ends, so the copy's
	// error carries nothing.
	_, _ = io.Copy(countingWriter{dst, n}, src)
	dst.Close()
	src.Close()
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	k, err := c.w.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// close stops accepting, cuts every relayed connection and waits for the
// relay's goroutines to end.
func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	r.closed = true
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}
