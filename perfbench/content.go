package main

import "math/rand"

// poolPeriod is the period of the seeded content stream. Every file is a
// window of the stream starting at a per-file offset, so files up to
// poolPeriod bytes are served as slices of one buffer (writes copy
// nothing) and a read is checked with one comparison. It is odd so that
// windows of different files rarely align.
const poolPeriod = 16<<20 - 4093

// pool is the seeded content every workload writes and every checker
// regenerates. b holds two periods, so any window of at most poolPeriod
// bytes is contiguous.
type pool struct {
	seed int64
	b    []byte
}

func newPool(seed int64) *pool {
	b := make([]byte, 2*poolPeriod)
	rand.New(rand.NewSource(seed)).Read(b[:poolPeriod])
	copy(b[poolPeriod:], b[:poolPeriod])
	return &pool{seed: seed, b: b}
}

// content returns the size bytes of the file with content id. The window
// start is a hash of (seed, id), independent of anything the program does.
func (p *pool) content(id uint64, size int64) []byte {
	if size > poolPeriod {
		panic("perfbench: file larger than the content period")
	}
	h := uint64(p.seed)*0x9e3779b97f4a7c15 ^ (id+1)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	off := int64(h % poolPeriod)
	return p.b[off : off+size]
}
