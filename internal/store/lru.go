package store

import "chanos/internal/sim/detmap"

// maxFreeBlocks bounds a shard's free list. It holds the default cache's
// worth of blocks, which is what a compaction commit drops at once and
// what a burst of cache-miss reads then takes back; a buffer returned to
// a full list is left to the GC. On perfbench's kv-write-quorum run a
// bound of 16 dropped about 1,000 buffers, 32 about 330, and 64 none.
const maxFreeBlocks = 64

// blockPool is a shard's free list of block-sized buffers. Every buffer
// on the log path has exactly one owner at a time: the open block, an
// in-flight disk write or read, the LRU cache, or this list. Buffers
// move between owners and are never shared, so a buffer that enters the
// list is garbage to everyone else.
type blockPool struct {
	size int
	free [][]byte
}

// poisonFreed, when set (by tests only), overwrites every buffer as it
// enters the free list, so a buffer still read after it was released
// yields wrong bytes instead of passing by luck.
var poisonFreed bool

// get returns an empty buffer of capacity size.
func (p *blockPool) get() []byte {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return b
	}
	return make([]byte, 0, p.size)
}

// put releases b: the caller gives up every reference to it.
func (p *blockPool) put(b []byte) {
	if cap(b) < p.size || len(p.free) >= maxFreeBlocks {
		return
	}
	if poisonFreed {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xDB
		}
	}
	p.free = append(p.free, b[:0])
}

// lruCache is the per-shard block cache: sealed log blocks keyed by
// block number, least-recently-used eviction. It is owned by exactly
// one shard thread, so — like everything else in a shard — it needs no
// locking. It owns the buffers it holds: an evicted, replaced or
// dropped block goes back to pool.
type lruCache struct {
	cap        int
	m          map[int]*lruNode
	head, tail *lruNode // head = most recently used
	pool       *blockPool
}

type lruNode struct {
	block      int
	data       []byte
	prev, next *lruNode
}

func newLRUCache(capacity int, pool *blockPool) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{cap: capacity, m: make(map[int]*lruNode), pool: pool}
}

// get returns the cached block and promotes it to most recently used.
func (c *lruCache) get(block int) ([]byte, bool) {
	n, ok := c.m[block]
	if !ok {
		return nil, false
	}
	c.unlink(n)
	c.pushFront(n)
	return n.data, true
}

// put inserts (or refreshes) a block, taking ownership of data and
// evicting the least recently used entry if the cache is over capacity.
func (c *lruCache) put(block int, data []byte) {
	if n, ok := c.m[block]; ok {
		c.pool.put(n.data)
		n.data = data
		c.unlink(n)
		c.pushFront(n)
		return
	}
	var n *lruNode
	if len(c.m) >= c.cap {
		// The new block pushes the least recently used one out; its
		// node carries the new block.
		n = c.tail
		c.unlink(n)
		delete(c.m, n.block)
		c.pool.put(n.data)
		n.block, n.data = block, data
	} else {
		n = &lruNode{block: block, data: data}
	}
	c.m[block] = n
	c.pushFront(n)
}

// dropRange evicts every cached block in [start, end) — used when a
// compacted region is retired: its block numbers will be rewritten with
// different contents under a later epoch, and a stale hit must be
// impossible by construction, not by luck. Candidates are sorted so the
// eviction order (and thus the recency list) replays deterministically.
func (c *lruCache) dropRange(start, end int) {
	for _, b := range detmap.Keys(c.m) {
		if b < start || b >= end {
			continue
		}
		n := c.m[b]
		c.unlink(n)
		delete(c.m, b)
		c.pool.put(n.data)
	}
}

func (c *lruCache) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *lruCache) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
