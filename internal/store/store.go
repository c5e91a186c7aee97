// Package store is the chanOS key-value storage service: the repo's
// first stateful kernel service, built exactly the way the paper (§4)
// says kernel components should be built. The service is sharded by key
// hash via kernel.RegisterEach — each shard's handler thread owns a
// private index, an LRU block cache and the tail of its own
// log-structured persistence region, so there are no locks anywhere.
// Every external event re-enters the shard as an ordinary service
// message: the group-commit flush timer ("flush"), the disk completion
// interrupt ("flushed"), the cache-miss read completion ("readdone") —
// the same discipline the netstack uses for its "rto".
//
// Persistence is a per-shard append-only log on a per-shard block
// device (a disk-array stripe): PUT and DELETE append self-describing
// records to the open tail block, acknowledgements are deferred
// (kernel.Deferred) until the group-commit write that carries the
// record completes, and recovery replays the log front to back — so an
// acknowledged write provably survives a crash, and an unacknowledged
// one provably does not outlive the flush it was waiting on.
//
// The log is bounded but the store is not: each shard's device carries
// two log regions and a superblock. Appends fill the epoch-active
// region; when it crosses the high-water mark the shard compacts —
// copies its live records into the other region in bounded increments,
// each increment a deferred self-message ("compact"), so the shard
// keeps serving between increments and never blocks — then commits the
// switch with a sealed region-epoch record (see compact.go and
// DESIGN.md §store).
//
// Durability extends past the machine: each shard can stream its log
// to a replica shard on a second simulated machine and ack writes only
// on two-machine quorum (repl.go). Replication is a runtime lifecycle,
// not a boot-time configuration — a solo or failed-over store heals by
// attaching a fresh replica while live (lifecycle.go), and the
// replica's version-correct index serves bounded-staleness GETs
// (replica_read.go).
package store

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"chanos/internal/blockdev"
	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/sim"
	"chanos/internal/sim/detmap"
	"chanos/internal/telemetry"
)

// Params tunes the store service.
type Params struct {
	// Shards is the number of store handler threads (and log devices);
	// keys are routed by FNV-1a hash. 0 = one shard per kernel core.
	Shards int
	// CacheBlocks is the per-shard LRU block cache capacity, in sealed
	// log blocks. Default 64 (256 KB of hot values per shard).
	CacheBlocks int
	// FlushCycles is the group-commit interval: how long an appended
	// record may wait before the open block is written back. Shorter
	// means lower write latency, more (smaller) disk writes. Default
	// 50_000 (25 µs).
	FlushCycles uint64
	// LogBlocks is the per-shard log region size in blocks. The device
	// carries two regions plus a superblock; when the active region
	// crosses CompactAtBlocks the shard compacts live records into the
	// other one, so a churning workload never exhausts the log — only a
	// live set that genuinely exceeds the region does. Default 8192.
	LogBlocks int
	// CompactAtBlocks is the high-water mark: compaction starts once
	// the active region has this many blocks in use. Default 3/4 of
	// LogBlocks.
	CompactAtBlocks int
	// CompactBatch is how many index entries one compaction increment
	// examines before yielding the shard back to request service.
	// Default 64.
	CompactBatch int
	// CompactStepCycles is the pause between compaction increments
	// (each increment re-enters the shard as a deferred self-message).
	// Default 2000 (1 µs).
	CompactStepCycles uint64
	// ReplicaLagBound is the bounded-staleness window for replica reads,
	// in replication sequence numbers: a replica shard refuses a GET
	// when the primary's advertised tail exceeds the shard's applied
	// sequence by more than this. Default 256.
	ReplicaLagBound uint64
	// ReplAdvertiseCycles is how long a captured-but-unflushed record
	// may go unadvertised to the replica (the advert is what lets a
	// replica see the lag it must bound). Default FlushCycles/2.
	ReplAdvertiseCycles uint64
	// Disk overrides the per-shard log device model; zero-valued fields
	// take blockdev.DefaultDiskParams(1 + 2*LogBlocks).
	Disk blockdev.DiskParams
}

func (p *Params) fill() {
	if p.CacheBlocks <= 0 {
		p.CacheBlocks = 64
	}
	if p.FlushCycles == 0 {
		p.FlushCycles = 50_000
	}
	if p.LogBlocks <= 0 {
		p.LogBlocks = 8192
	}
	if p.CompactAtBlocks <= 0 {
		p.CompactAtBlocks = p.LogBlocks * 3 / 4
	}
	if p.CompactAtBlocks >= p.LogBlocks {
		p.CompactAtBlocks = p.LogBlocks - 1
	}
	if p.CompactAtBlocks < 1 {
		p.CompactAtBlocks = 1
	}
	if p.CompactBatch <= 0 {
		p.CompactBatch = 64
	}
	if p.CompactStepCycles == 0 {
		p.CompactStepCycles = 2_000
	}
	if p.ReplicaLagBound == 0 {
		p.ReplicaLagBound = 256
	}
	if p.ReplAdvertiseCycles == 0 {
		p.ReplAdvertiseCycles = p.FlushCycles / 2
	}
	def := blockdev.DefaultDiskParams(superBlocks + 2*p.LogBlocks)
	if p.Disk.NumBlocks <= 0 {
		p.Disk.NumBlocks = superBlocks + 2*p.LogBlocks
	}
	if p.Disk.BlockSize <= 0 {
		p.Disk.BlockSize = def.BlockSize
	}
	if p.Disk.AccessCycles == 0 {
		p.Disk.AccessCycles = def.AccessCycles
	}
	if p.Disk.CyclesPerByt == 0 {
		p.Disk.CyclesPerByt = def.CyclesPerByt
	}
	if p.Disk.IRQCycles == 0 {
		p.Disk.IRQCycles = def.IRQCycles
	}
}

// GetResult answers a GET.
type GetResult struct {
	Found bool
	Ver   uint64
	Val   []byte
	Err   string
}

// MsgBytes implements core.Sized.
func (r GetResult) MsgBytes() int { return 24 + len(r.Val) + len(r.Err) }

// WriteResult answers a PUT or DELETE. Ver is the version the write
// created (for DELETE, the tombstone's version); Found reports whether
// the key existed before a DELETE.
type WriteResult struct {
	OK    bool
	Found bool
	Ver   uint64
	Err   string
}

// MsgBytes implements core.Sized.
func (r WriteResult) MsgBytes() int { return 24 + len(r.Err) }

// ScanResult answers a SCAN: matching keys in sorted order with their
// current versions. Values are deliberately not carried — a scan reads
// the index, not the log.
type ScanResult struct {
	Keys []string
	Vers []uint64
	Err  string
}

// MsgBytes implements core.Sized.
func (r ScanResult) MsgBytes() int {
	n := 16 + 8*len(r.Vers) + len(r.Err)
	for _, k := range r.Keys {
		n += 8 + len(k)
	}
	return n
}

// Service request arguments.
type getArg struct{ Key string }

func (a getArg) MsgBytes() int { return 16 + len(a.Key) }

type putArg struct {
	Key string
	Val []byte
}

func (a putArg) MsgBytes() int { return 24 + len(a.Key) + len(a.Val) }

type delArg struct{ Key string }

func (a delArg) MsgBytes() int { return 16 + len(a.Key) }

type scanArg struct {
	Prefix string
	Limit  int
}

func (a scanArg) MsgBytes() int { return 24 + len(a.Prefix) }

// flushDone is the disk interrupt for a completed log write: it carries
// the acknowledgements the write made durable back into the shard, and
// — for a sealing write only — the block's final contents, which enter
// the cache now that they are known to be on disk (data is nil for
// ordinary group-commit rewrites, so the message is billed for the
// payload exactly when it carries one, like readDone).
type flushDone struct {
	batch  []pendingWrite
	block  int
	data   []byte
	sealed bool
	ok     bool
	err    string
	// at is the virtual time the write was issued — observability
	// metadata for the flush-latency histogram, carried free (it does
	// not change the message's billed size).
	at sim.Time
	// spare is an ordinary rewrite's buffer on its way back to the
	// shard's free list: host memory, carried free like at.
	spare []byte
}

func (d flushDone) MsgBytes() int { return 32 + len(d.data) }

// readDone is the disk interrupt for a completed cache-miss read.
type readDone struct {
	block int
	data  []byte
	ok    bool
	err   string
}

func (r readDone) MsgBytes() int { return 32 + len(r.data) }

// Log record encoding, little-endian:
//
//	[1B op] [2B keylen] [4B vallen] [8B version] key val
//
// op 0 terminates a block (freshly-written disk blocks are zero-filled,
// so the terminator comes free). Records never span blocks.
//
// Device layout: block 0 is the superblock (the sealed region-epoch
// record, see compact.go); blocks [1, 1+LogBlocks) and
// [1+LogBlocks, 1+2*LogBlocks) are the two log regions. Region parity
// follows the epoch: even epochs append into the first region, odd into
// the second. Every log block opens with an 8-byte epoch stamp, so
// replay can tell a block written under the current epoch from a stale
// leftover of an earlier occupancy of the same region.
const (
	recEnd = 0
	recPut = 1
	recDel = 2

	recHeader = 1 + 2 + 4 + 8

	superBlocks = 1 // device blocks reserved for the superblock
	blockHeader = 8 // per-block epoch stamp
)

// stampEpoch restarts the open-block buffer b with its epoch stamp.
func stampEpoch(b []byte, epoch uint64) []byte {
	b = b[:blockHeader]
	binary.LittleEndian.PutUint64(b, epoch)
	return b
}

// blockEpoch reads a block's epoch stamp.
func blockEpoch(data []byte) uint64 {
	if len(data) < blockHeader {
		return 0
	}
	return binary.LittleEndian.Uint64(data[:blockHeader])
}

// RecordBytes is the log footprint of one record — exported so
// workloads and experiments can account appended bytes exactly.
func RecordBytes(key string, val []byte) int { return recHeader + len(key) + len(val) }

func encRecord(buf []byte, op byte, key string, val []byte, ver uint64) []byte {
	var h [recHeader]byte
	h[0] = op
	binary.LittleEndian.PutUint16(h[1:3], uint16(len(key)))
	binary.LittleEndian.PutUint32(h[3:7], uint32(len(val)))
	binary.LittleEndian.PutUint64(h[7:15], ver)
	buf = append(buf, h[:]...)
	buf = append(buf, key...)
	buf = append(buf, val...)
	return buf
}

// decRecord parses one record at b[off:]. n is the record's full length
// (0 at a terminator or a truncated/corrupt tail).
func decRecord(b []byte, off int) (op byte, key string, valOff, valLen int, ver uint64, n int) {
	if off >= len(b) || b[off] == recEnd {
		return recEnd, "", 0, 0, 0, 0
	}
	if off+recHeader > len(b) {
		return recEnd, "", 0, 0, 0, 0
	}
	op = b[off]
	klen := int(binary.LittleEndian.Uint16(b[off+1 : off+3]))
	vlen := int(binary.LittleEndian.Uint32(b[off+3 : off+7]))
	ver = binary.LittleEndian.Uint64(b[off+7 : off+15])
	if op != recPut && op != recDel {
		return recEnd, "", 0, 0, 0, 0
	}
	end := off + recHeader + klen + vlen
	if end > len(b) {
		return recEnd, "", 0, 0, 0, 0
	}
	key = string(b[off+recHeader : off+recHeader+klen])
	return op, key, off + recHeader + klen, vlen, ver, recHeader + klen + vlen
}

// keyHash routes a key to a shard: FNV-1a 64, masked non-negative.
func keyHash(key string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h & (1<<63 - 1))
}

// loc is an index entry: where a key's current value lives in the log.
// Log records never move (blocks are append-only and sealed blocks are
// immutable), so a loc stays valid for the life of the key version.
// A dead loc is a tombstone: the key reads as absent, but its version
// is retained so a re-created key continues the version sequence — a
// client holding (key, version) must never see a different value under
// the same version. Tombstones keep their record's block too, so
// compaction can tell whether the tombstone still lives in the region
// being retired (it must be re-copied, or the version floor is lost).
type loc struct {
	block int
	off   int // offset of the value bytes within the block
	vlen  int
	ver   uint64
	dead  bool
	// seq, on a replica shard, is the replication sequence whose
	// durability this version's failover-safety rides on: a replica
	// read must not serve the version until the shard's durable horizon
	// covers it (replica_read.go). 0 means "already durable somewhere"
	// — primary-side appends, recovery replay and compaction re-copies
	// (whose source record is still on the platters) all write 0.
	seq uint64
}

// pendingWrite is an acknowledgement waiting for its record's block
// write to complete (group commit) — and, under replication, for a
// majority of replicas' cumulative acks to cover its refs (quorum).
// res is the success reply: a WriteResult for client writes, a ReplAck
// for replica-side applies (repl marks those; their acks are
// durability receipts to the primary, not client acks).
type pendingWrite struct {
	reply *core.Chan
	res   core.Msg
	refs  []seqRef
	repl  bool
}

// errMsg builds the failure reply matching the waiter's success type.
func (pw pendingWrite) errMsg(err string) core.Msg {
	if pw.repl {
		if a, ok := pw.res.(ReplAck); ok {
			return ReplAck{Shard: a.Shard, Seq: a.Seq, Err: err}
		}
		return ReplAck{Err: err}
	}
	return WriteResult{Err: err}
}

// pendingRead is a GET waiting for its block to come back from disk.
type pendingRead struct {
	reply *core.Chan
	l     loc
}

// shard is one handler thread's private world. No locks: only the shard
// thread (and, for stats, the single-goroutine simulation host) touches
// it.
type shard struct {
	id   int
	s    *Store
	disk *blockdev.Disk

	idx   map[string]loc
	cache *lruCache
	// pool is the free list behind open, the cache and every in-flight
	// log write and cache-miss read (lru.go): block buffers move between
	// those owners instead of being copied into fresh ones.
	pool blockPool

	open       []byte // contents of the open (tail) log block; capacity BlockSize
	openBlock  int
	dirty      int            // records appended since the last flush was issued
	waiters    []pendingWrite // acks riding on the next flush
	spareBatch []pendingWrite // a completed flush's emptied batch, for waiters to reuse
	flushArmed bool

	reads map[int][]pendingRead // block -> GETs awaiting its disk read

	// epoch is the shard's committed region epoch: appends land in
	// region epoch&1 (epoch+1&1 while a compaction is in flight).
	epoch uint64
	// repls is the primary-side replication attachment vector (repl.go);
	// empty when the store runs local-only. One entry per attached
	// replica machine, each an independent sequence space.
	repls []*replShard
	// replWait holds locally-durable writes (their flush completed)
	// still waiting for a majority of the replicas' cumulative acks to
	// cover their refs — the other half of the quorum. Capture order.
	replWait []pendingWrite
	// primaryEpoch, on a replica shard, is the highest region epoch the
	// primary has streamed (superblock switches travel with batches).
	primaryEpoch uint64
	// Replica-read state (replica shards only; see replica_read.go).
	// primTail is the furthest primary tail ever advertised, replApplied
	// the last batch sequence applied, replDurable the last sequence
	// known durable on this shard's own platters, and imageComplete
	// whether a complete bootstrap image has landed — reads are refused
	// until it has, and refused again whenever primTail−replApplied
	// exceeds the staleness bound.
	primTail      uint64
	replApplied   uint64
	replDurable   uint64
	imageComplete bool
	// replReads holds replica GETs parked until replDurable covers the
	// sequence their resolved version rides on.
	replReads []pendingReplRead
	// liveBytes is the log footprint of the current index contents
	// (live records plus tombstones) — what a compaction would copy.
	liveBytes int
	// comp is the in-flight compaction, nil when idle (compact.go).
	comp *compaction
	// flushesIssued/flushesDone sequence this shard's log writes; the
	// disk is serial FIFO, so "done == the count issued at time T" means
	// everything issued up to T is on the platters.
	flushesIssued, flushesDone uint64
	// failed, once set, fail-stops the shard: a log write failed, so
	// the in-memory state is no longer a prefix-consistent view of the
	// disk. Every subsequent request is refused with this error; a
	// restart recovers exactly the durable (acknowledged) writes.
	failed string
	// m is the shard's private metric set (telemetry.go): counters,
	// gauges, histograms and the flight recorder, all shard-owned.
	m shardMetrics
}

// Store is the sharded key-value kernel service.
type Store struct {
	rt  *core.Runtime
	k   *kernel.Kernel
	svc *kernel.Service
	P   Params

	disks  []*blockdev.Disk
	shards []*shard // per-shard private state, in shard order (stats only)

	replicas  []*ReplicaMachine // quorum replication targets, attach order
	recovered bool              // booted from carried-over disks
	// replicaRole marks a store built to RECEIVE replication (it lives
	// on a ReplicaMachine): its replica-read path must refuse to serve
	// until a complete bootstrap image has landed, even before the
	// first batch arrives — an empty index here means "not fed yet",
	// not "the data does not exist".
	replicaRole bool

	// statd, when attached, answers the STATS wire verb with a live
	// snapshot (AttachStatd). Metrics themselves live per shard
	// (shardMetrics); Counters() folds them — see telemetry.go.
	statd *telemetry.Statd
	// flightDumps retains the flight-recorder dump of every shard that
	// fail-stopped, in fail-stop order.
	flightDumps []telemetry.FlightDump

	// FailStopHook, when set, is called at the end of every shard
	// fail-stop (after the shard's parked work has been drained) with
	// the shard id and the condemning error. The dump subsystem uses it
	// to schedule a whole-machine core dump as an engine OBSERVER event
	// at the failing instant — the hook itself must not mutate
	// simulated state.
	FailStopHook func(shard int, err string)
}

// New registers the "store" service on k's kernel cores. disks carries
// storage over from a previous life — pass the SnapshotData of each
// shard's log device (in shard order) to recover after a crash; nil
// boots fresh per-shard devices. Recovery replays each shard's log
// before any queued request is served (the replay message is first in
// every shard's FIFO).
func New(rt *core.Runtime, k *kernel.Kernel, p Params, disks []*blockdev.Disk) *Store {
	p.fill()
	shards := p.Shards
	if shards <= 0 {
		shards = len(k.KernelCores())
	}
	s := &Store{rt: rt, k: k, P: p}
	s.shards = make([]*shard, shards)
	recover := disks != nil
	s.recovered = recover
	if recover {
		if len(disks) != shards {
			panic(fmt.Sprintf("store: %d disks for %d shards", len(disks), shards))
		}
		s.disks = disks
	} else {
		for i := 0; i < shards; i++ {
			s.disks = append(s.disks, blockdev.NewDisk(rt, p.Disk))
		}
	}
	s.svc = k.RegisterEach("store", shards, s.shardHandler)
	if recover {
		for i := 0; i < shards; i++ {
			rt.InjectSend(s.svc.Shard(i), kernel.Request{Op: "recover", Key: i}, 0)
		}
	}
	return s
}

// NewFrom boots a store from platter snapshots, one per shard in shard
// order, on devices with p's disk model; the shard count is the
// snapshot count. nil datas boots fresh devices, like New.
func NewFrom(rt *core.Runtime, k *kernel.Kernel, p Params, datas []map[int][]byte) *Store {
	if datas == nil {
		return New(rt, k, p, nil)
	}
	p.Shards = len(datas)
	p.fill()
	disks := make([]*blockdev.Disk, len(datas))
	for i, data := range datas {
		disks[i] = blockdev.NewDiskFrom(rt, p.Disk, data)
	}
	return New(rt, k, p, disks)
}

// Shards returns the number of store shards.
func (s *Store) Shards() int { return s.svc.Shards() }

// Disks exposes the per-shard log devices (shard order) — for stats and
// for snapshotting in crash/recovery experiments.
func (s *Store) Disks() []*blockdev.Disk { return s.disks }

// regionStart returns the first block of the region that epoch appends
// into (regions alternate with epoch parity).
func (s *Store) regionStart(epoch uint64) int {
	return superBlocks + int(epoch&1)*s.P.LogBlocks
}

// region returns epoch's log region.
func (s *Store) region(epoch uint64) blockdev.Region {
	return blockdev.Region{Start: s.regionStart(epoch), Blocks: s.P.LogBlocks}
}

// LiveBytes sums the log footprint of every shard's current index
// contents — the bytes a full compaction would retain.
func (s *Store) LiveBytes() uint64 {
	var n uint64
	for _, sh := range s.shards {
		if sh != nil {
			n += uint64(sh.liveBytes)
		}
	}
	return n
}

// UsedLogBytes sums the bytes occupied in every shard's log: sealed
// blocks plus the open tail of the write region, and — while a
// compaction is in flight — the source region it has not yet retired.
func (s *Store) UsedLogBytes() uint64 {
	var n uint64
	for _, sh := range s.shards {
		if sh == nil {
			continue
		}
		sealed := sh.openBlock - s.regionStart(sh.writeEpoch())
		n += uint64(sealed)*uint64(s.P.Disk.BlockSize) + uint64(len(sh.open))
		if sh.comp != nil {
			n += uint64(sh.comp.srcUsedBytes)
		}
	}
	return n
}

// LiveRatio is LiveBytes over UsedLogBytes: 1.0 means no garbage, and a
// low ratio means churn has buried the live set — the condition
// compaction exists to reverse.
func (s *Store) LiveRatio() float64 {
	used := s.UsedLogBytes()
	if used == 0 {
		return 1
	}
	return float64(s.LiveBytes()) / float64(used)
}

// --- client API (any thread) ---

// Get returns the current value of key.
func (s *Store) Get(t *core.Thread, key string) GetResult {
	return s.k.Call(t, "store", keyHash(key), "get", getArg{Key: key}).(GetResult)
}

// Put stores val under key; the call returns only once the write's log
// record is durable.
func (s *Store) Put(t *core.Thread, key string, val []byte) WriteResult {
	return s.k.Call(t, "store", keyHash(key), "put", putArg{Key: key, Val: val}).(WriteResult)
}

// PutAsync issues a PUT and returns its reply channel immediately, so a
// writer can keep a pipeline of writes riding the same group commit.
func (s *Store) PutAsync(t *core.Thread, key string, val []byte) *core.Chan {
	return s.k.CallAsync(t, "store", keyHash(key), "put", putArg{Key: key, Val: val})
}

// Delete removes key (durably: the tombstone is flushed before the call
// returns).
func (s *Store) Delete(t *core.Thread, key string) WriteResult {
	return s.k.Call(t, "store", keyHash(key), "delete", delArg{Key: key}).(WriteResult)
}

// Scan returns up to limit keys with the given prefix, sorted, merged
// across every shard (each shard scans its private index; the caller's
// thread merges). If any shard errors, the result is empty except for
// Err — a scan that silently omitted a failed shard's keys would read
// as a complete (and wrong) answer.
func (s *Store) Scan(t *core.Thread, prefix string, limit int) ScanResult {
	n := s.svc.Shards()
	replies := make([]*core.Chan, n)
	for i := 0; i < n; i++ {
		replies[i] = t.NewChan("scan.reply", 1)
		s.svc.Shard(i).Send(t, kernel.Request{
			Op: "scan", Key: i, Arg: scanArg{Prefix: prefix, Limit: limit}, Reply: replies[i],
		})
	}
	type kv struct {
		key string
		ver uint64
	}
	var all []kv
	var firstErr string
	for i := 0; i < n; i++ {
		v, _ := replies[i].Recv(t)
		r := v.(ScanResult)
		if r.Err != "" && firstErr == "" {
			firstErr = r.Err
		}
		for j := range r.Keys {
			all = append(all, kv{r.Keys[j], r.Vers[j]})
		}
	}
	if firstErr != "" {
		// A partial merge must not masquerade as a complete scan: every
		// reply has been drained above, so returning only the error is
		// safe and unambiguous.
		return ScanResult{Err: firstErr}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	out := ScanResult{}
	for _, e := range all {
		out.Keys = append(out.Keys, e.key)
		out.Vers = append(out.Vers, e.ver)
	}
	return out
}

// --- shard handler ---

func (s *Store) shardHandler(id int) kernel.Handler {
	sh := &shard{
		id:        id,
		s:         s,
		disk:      s.disks[id],
		idx:       make(map[string]loc),
		pool:      blockPool{size: s.P.Disk.BlockSize},
		reads:     make(map[int][]pendingRead),
		openBlock: s.regionStart(0),
	}
	sh.cache = newLRUCache(s.P.CacheBlocks, &sh.pool)
	s.shards[id] = sh
	return func(t *core.Thread, req kernel.Request) core.Msg {
		switch req.Op {
		case "get":
			return sh.get(t, req.Arg.(getArg).Key, req.Reply)
		case "put":
			a := req.Arg.(putArg)
			return sh.write(t, a.Key, a.Val, req.Reply)
		case "delete":
			return sh.del(t, req.Arg.(delArg).Key, req.Reply)
		case "scan":
			return sh.scan(req.Arg.(scanArg))
		case "putv":
			a := req.Arg.(putvArg)
			return sh.putV(t, a, req.Reply)
		case "delv":
			return sh.delV(t, req.Arg.(delvArg), req.Reply)
		case "export":
			return sh.export(req.Arg.(exportArg))
		case "flush":
			sh.flushArmed = false
			if sh.dirty > 0 && sh.failed == "" {
				sh.flush(t, false)
			}
		case "flushed":
			sh.flushed(t, req.Arg.(flushDone))
		case "readdone":
			sh.readDone(t, req.Arg.(readDone))
		case "compact":
			sh.compactStep(t)
		case "epochdone":
			sh.epochDone(t, req.Arg.(flushDone))
		case "recover":
			sh.recover(t)
		case "repl":
			return sh.applyRepl(t, req.Arg.(ReplBatch), req.Reply)
		case "getr":
			return sh.getReplica(t, req.Arg.(getArg).Key, req.Reply)
		case "replattach":
			sh.replAttachIn(t, req.Arg.(replAttach))
		case "replopen":
			sh.replOpen(t, req.Arg.(replOpenMsg))
		case "replack":
			sh.replAckIn(t, req.Arg.(replAckMsg))
		case "replfail":
			sh.replFailed(t, req.Arg.(replFailMsg))
		case "replsync":
			sh.replSyncStep(t, req.Arg.(replSyncMsg).r)
		case "repladvert":
			sh.replAdvert(t, req.Arg.(replAdvertMsg))
		case "bitrot":
			sh.bitrot(req.Arg.(string))
		}
		return nil
	}
}

// get serves a GET: index hit resolves to the open block, the cache, or
// a disk read. Only the last defers the reply — and never blocks the
// shard; other keys keep being served while the read is in flight.
func (sh *shard) get(t *core.Thread, key string, reply *core.Chan) core.Msg {
	sh.m.Gets++
	if sh.failed != "" {
		sh.m.ReadErrors++
		return GetResult{Err: sh.failed}
	}
	l, ok := sh.idx[key]
	if !ok || l.dead {
		sh.m.GetNotFound++
		return GetResult{Found: false}
	}
	return sh.serveLoc(t, l, reply)
}

// serveLoc materialises one index entry's value: from the open tail
// block, the cache, or a disk read (the only deferring case — the GET
// parks and the shard keeps serving). Shared by the local read path,
// the bounded-lag replica read path, and the parked-read drains.
func (sh *shard) serveLoc(t *core.Thread, l loc, reply *core.Chan) core.Msg {
	if l.block == sh.openBlock {
		// The tail block lives in memory until sealed.
		sh.m.CacheHits++
		return GetResult{Found: true, Ver: l.ver, Val: copyBytes(sh.open[l.off : l.off+l.vlen])}
	}
	if data, hit := sh.cache.get(l.block); hit {
		sh.m.CacheHits++
		return GetResult{Found: true, Ver: l.ver, Val: copyBytes(data[l.off : l.off+l.vlen])}
	}
	// The miss is the read's terminal count: whatever the parked disk
	// read returns later (value or error) was already accounted here.
	sh.m.CacheMisses++
	sh.parkRead(t, l.block, pendingRead{reply: reply, l: l})
	return kernel.Deferred
}

// parkRead queues pr on block's pending-read list; the first parker
// programs the disk read (its completion re-enters the shard as a
// "readdone" message), later parkers ride the same read. A pendingRead
// with a nil reply just materialises the block into the cache — the
// compaction and bootstrap-sync sweeps park that way.
func (sh *shard) parkRead(t *core.Thread, block int, pr pendingRead) {
	waiting := sh.reads[block]
	sh.reads[block] = append(waiting, pr)
	if len(waiting) == 0 {
		sh.programRead(t, block)
	}
}

func (sh *shard) programRead(t *core.Thread, block int) {
	svc, id, from := sh.s.svc, sh.id, t.Core()
	rt := sh.s.rt
	sh.disk.Program(t, blockdev.Request{Op: blockdev.Read, Block: block, Data: sh.pool.get()}, func(res blockdev.Result) {
		rt.InjectSend(svc.Shard(id), kernel.Request{
			Op: "readdone", Key: id,
			Arg: readDone{block: block, data: res.Data, ok: res.OK, err: res.Err},
		}, from)
	})
}

// readDone lands a cache-miss block (the cache takes the buffer),
// answers every GET parked on it, and resumes a compaction sweep waiting
// for the block's contents.
func (sh *shard) readDone(t *core.Thread, d readDone) {
	waiting := sh.reads[d.block]
	delete(sh.reads, d.block)
	if d.ok {
		sh.cache.put(d.block, d.data)
	}
	for _, pr := range waiting {
		var res core.Msg
		if !d.ok {
			res = GetResult{Err: d.err}
		} else {
			res = GetResult{Found: true, Ver: pr.l.ver, Val: copyBytes(d.data[pr.l.off : pr.l.off+pr.l.vlen])}
		}
		if pr.reply != nil {
			pr.reply.Send(t, res)
		}
	}
	if c := sh.comp; c != nil && c.waitBlock == d.block {
		c.waitBlock = -1
		if !d.ok {
			sh.failStop(t, fmt.Sprintf("store: shard %d fail-stop: compaction read: %s", sh.id, d.err))
			return
		}
		sh.compactStep(t)
	}
	for _, r := range sh.repls {
		if r.sync != nil && r.sync.waitBlock == d.block {
			r.sync.waitBlock = -1
			if !d.ok {
				sh.failStop(t, fmt.Sprintf("store: shard %d fail-stop: replication sync read: %s", sh.id, d.err))
				return
			}
			sh.replSyncStep(t, r)
		}
	}
}

// write appends a PUT record to the open block and defers the ack until
// the record is durable (group commit). Found in the ack reports
// whether the key held a live value before this write.
func (sh *shard) write(t *core.Thread, key string, val []byte, reply *core.Chan) core.Msg {
	// The write is in the in-flight gauge from arrival: append (block
	// seal) and replCapture below can yield the shard thread, and a
	// telemetry snapshot taken in that window must still see the write
	// accounted — the conservation laws hold at ANY instant, not just
	// between requests. Every terminal below pairs its counter with the
	// gauge decrement.
	sh.m.Puts++
	sh.m.writesInFlight++
	if sh.failed != "" {
		sh.m.WriteErrors++
		sh.m.writesInFlight--
		return WriteResult{Err: sh.failed}
	}
	rec := recHeader + len(key) + len(val)
	if rec+1+blockHeader > sh.s.P.Disk.BlockSize {
		sh.m.WriteErrors++
		sh.m.writesInFlight--
		return WriteResult{Err: fmt.Sprintf("store: record for %q is %d bytes; max %d", key, rec, sh.s.P.Disk.BlockSize-1-blockHeader-recHeader)}
	}
	old, existed := sh.idx[key]
	ver := old.ver + 1 // tombstones keep their version, so re-creation continues the sequence
	if !sh.append(t, recPut, key, val, ver) {
		sh.m.LogFull++
		sh.m.writesInFlight--
		return WriteResult{Err: "store: log region full"}
	}
	sh.applyRecord(recPut, key, len(val), ver, 0)
	refs := sh.replCapture(t, recPut, key, val, ver)
	sh.m.flight.Record(sh.now(), "put", key, ver, uint64(len(val)))
	sh.waiters = append(sh.waiters, pendingWrite{reply: reply, refs: refs,
		res: WriteResult{OK: true, Found: existed && !old.dead, Ver: ver}})
	sh.armFlush(t)
	sh.maybeCompact(t)
	return kernel.Deferred
}

// del appends a tombstone; a miss answers immediately (nothing to make
// durable). The index keeps the tombstone (dead loc) so the key's
// version sequence survives deletion.
func (sh *shard) del(t *core.Thread, key string, reply *core.Chan) core.Msg {
	// Same gauge-from-arrival discipline as write: append can yield
	// mid-request, and a snapshot must never catch a delete counted but
	// unclassified.
	sh.m.Deletes++
	sh.m.writesInFlight++
	if sh.failed != "" {
		sh.m.WriteErrors++
		sh.m.writesInFlight--
		return WriteResult{Err: sh.failed}
	}
	old, ok := sh.idx[key]
	if !ok || old.dead {
		sh.m.DeleteMisses++
		sh.m.writesInFlight--
		return WriteResult{OK: true, Found: false}
	}
	ver := old.ver + 1
	if !sh.append(t, recDel, key, nil, ver) {
		sh.m.LogFull++
		sh.m.writesInFlight--
		return WriteResult{Err: "store: log region full"}
	}
	sh.applyRecord(recDel, key, 0, ver, 0)
	refs := sh.replCapture(t, recDel, key, nil, ver)
	sh.m.flight.Record(sh.now(), "del", key, ver, 0)
	sh.waiters = append(sh.waiters, pendingWrite{reply: reply, refs: refs,
		res: WriteResult{OK: true, Found: true, Ver: ver}})
	sh.armFlush(t)
	sh.maybeCompact(t)
	return kernel.Deferred
}

func (sh *shard) scan(a scanArg) ScanResult {
	sh.m.Scans++
	if sh.failed != "" {
		return ScanResult{Err: sh.failed}
	}
	var keys []string
	for _, k := range detmap.Keys(sh.idx) {
		if l := sh.idx[k]; !l.dead && strings.HasPrefix(k, a.Prefix) {
			keys = append(keys, k)
		}
	}
	if a.Limit > 0 && len(keys) > a.Limit {
		keys = keys[:a.Limit]
	}
	out := ScanResult{Keys: keys}
	for _, k := range keys {
		out.Vers = append(out.Vers, sh.idx[k].ver)
	}
	return out
}

// applyRecord updates the index and the live-bytes accounting for a
// record just appended at the open block's tail — the one place the
// write path, the delete path and the replica's apply agree on what a
// record's log footprint is. Live entries cost header+key+value,
// tombstones header+key (their version floor is retained forever, so
// their footprint is too).
func (sh *shard) applyRecord(op byte, key string, vlen int, ver uint64, seq uint64) {
	old, existed := sh.idx[key]
	if op == recPut {
		if existed {
			sh.liveBytes -= recHeader + len(key)
			if !old.dead {
				sh.liveBytes -= old.vlen
			}
		}
		sh.liveBytes += recHeader + len(key) + vlen
		sh.idx[key] = loc{block: sh.openBlock, off: len(sh.open) - vlen, vlen: vlen, ver: ver, seq: seq}
		return
	}
	if existed && !old.dead {
		sh.liveBytes -= old.vlen
	} else if !existed {
		sh.liveBytes += recHeader + len(key)
	}
	sh.idx[key] = loc{block: sh.openBlock, ver: ver, dead: true, seq: seq}
}

// writeEpoch is the epoch whose region appends currently land in: the
// committed epoch normally, the next one while a compaction is filling
// the fresh region.
func (sh *shard) writeEpoch() uint64 {
	if sh.comp != nil {
		return sh.epoch + 1
	}
	return sh.epoch
}

// append adds one record to the open block, sealing (flushing and
// advancing past) the block first if the record does not fit. Reports
// false when the write epoch's region is exhausted.
func (sh *shard) append(t *core.Thread, op byte, key string, val []byte, ver uint64) bool {
	if len(sh.open) == 0 {
		if sh.open == nil {
			sh.open = sh.pool.get()
		}
		sh.open = stampEpoch(sh.open, sh.writeEpoch())
	}
	rec := recHeader + len(key) + len(val)
	if len(sh.open)+rec+1 > sh.s.P.Disk.BlockSize {
		if sh.openBlock+1 >= sh.s.region(sh.writeEpoch()).End() {
			return false
		}
		// Seal: the block's final contents go to disk now; the cache
		// copy is inserted only when that write completes (flushed), so
		// a cache hit never serves bytes the platters might not have. A
		// GET landing in the seal-to-completion gap takes a disk read
		// queued behind the seal write — slower, never stale.
		sh.flush(t, true)
		sh.openBlock++
		sh.open = stampEpoch(sh.open, sh.writeEpoch())
	}
	sh.open = encRecord(sh.open, op, key, val, ver)
	sh.dirty++
	return true
}

// armFlush schedules the group-commit timer (once) — it re-enters the
// shard as a "flush" message.
func (sh *shard) armFlush(t *core.Thread) {
	if sh.flushArmed {
		return
	}
	sh.flushArmed = true
	svc, id, from := sh.s.svc, sh.id, t.Core()
	rt := sh.s.rt
	rt.Eng.After(sh.s.P.FlushCycles, func() {
		rt.InjectSend(svc.Shard(id), kernel.Request{Op: "flush", Key: id}, from)
	})
}

// flush writes the open block's current contents back to the log device
// and hands the waiting acks to the completion interrupt. The disk
// queues internally, so the shard never blocks — it goes straight back
// to serving requests. sealed marks a block being written for the last
// time: its contents enter the cache when (and only when) this write
// completes. The write owns a free-list copy of the open block until
// then; an ordinary rewrite's copy goes back to the free list.
func (sh *shard) flush(t *core.Thread, sealed bool) {
	sh.replShipOut(t) // the records riding this flush ship to the replica now
	batch := sh.waiters
	sh.waiters, sh.spareBatch = sh.spareBatch, nil
	sh.dirty = 0
	sh.m.FlushesStarted++
	sh.flushesIssued++
	sh.m.BatchSize.Add(uint64(len(batch)))
	issued := sh.now()
	sh.m.flight.Record(issued, "flush", "", uint64(len(batch)), uint64(sh.openBlock))
	block, data := sh.openBlock, append(sh.pool.get(), sh.open...)
	var cacheData, spare []byte
	if sealed {
		cacheData = data
	} else {
		spare = data
	}
	svc, id, from := sh.s.svc, sh.id, t.Core()
	rt := sh.s.rt
	sh.disk.Program(t, blockdev.Request{
		Op: blockdev.Write, Block: block, Data: data,
	}, func(res blockdev.Result) {
		rt.InjectSend(svc.Shard(id), kernel.Request{
			Op: "flushed", Key: id,
			Arg: flushDone{batch: batch, block: block, data: cacheData, sealed: sealed, ok: res.OK, err: res.Err, at: issued, spare: spare},
		}, from)
	})
}

// flushed is the disk completion interrupt: the records carried by the
// write are durable, so their acknowledgements go out now. A failed
// write fail-stops the shard instead — the in-memory index and cache
// refer to records the platters never got, so continuing to serve would
// hand out state a restart provably diverges from.
func (sh *shard) flushed(t *core.Thread, d flushDone) {
	defer sh.recycleBatch(d.batch)
	sh.m.FlushesDone++
	sh.flushesDone++
	sh.m.FlushedRecords += uint64(len(d.batch))
	sh.m.FlushLatency.Add(sh.now() - d.at)
	sh.pool.put(d.spare)
	if !d.ok {
		// Name the invariant path in the ring before the drain rewrites
		// it: a failed log write is the disk-fault fail-stop route, and
		// the chaos matrix asserts the route, not just the outcome.
		sh.m.flight.Record(sh.now(), "write-fail", "", uint64(len(d.batch)), uint64(d.block))
		sh.nackBatch(t, d.batch, d.err)
		sh.failStop(t, fmt.Sprintf("store: shard %d fail-stop: log write: %s", sh.id, d.err))
		return
	}
	if sh.failed != "" {
		// A straggler flush completing after fail-stop: its records are
		// durable, but the shard is condemned — nack and let recovery
		// sort out the truth from the log.
		sh.nackBatch(t, d.batch, sh.failed)
		return
	}
	if d.sealed {
		sh.cache.put(d.block, d.data)
	}
	if sh.anySynced() {
		// Quorum mode: local durability is half the vote. Park the acks
		// (in capture order — flushes complete in issue order) until a
		// majority of the replicas' cumulative acks cover them. Before
		// any bootstrap image completes, writes ack at local flush
		// instead — the shard is still serving under its pre-attach
		// contract until an image completes.
		for _, pw := range d.batch {
			if pw.reply != nil {
				sh.replWait = append(sh.replWait, pw)
			} else {
				sh.ackLocal(t, pw)
			}
		}
		sh.drainQuorum(t)
	} else {
		for _, pw := range d.batch {
			if pw.repl {
				// Replica side: this ack IS the durability receipt —
				// the sequence it covers is now on our platters, so
				// replica reads parked on it may serve.
				if a, ok := pw.res.(ReplAck); ok && a.Seq > sh.replDurable {
					sh.replDurable = a.Seq
				}
				if pw.reply != nil {
					pw.reply.Send(t, pw.res)
				}
				continue
			}
			sh.ackLocal(t, pw)
		}
		sh.drainReplReads(t)
	}
	sh.maybeCommitEpoch(t)
}

// recycleBatch keeps a handled flush's batch slice for the next waiters.
func (sh *shard) recycleBatch(b []pendingWrite) {
	clear(b)
	if cap(b) > cap(sh.spareBatch) {
		sh.spareBatch = b[:0]
	}
}

// ackLocal completes a client write at local durability (the
// solo/syncing contract): its terminal counters fire and it leaves the
// in-flight gauge.
func (sh *shard) ackLocal(t *core.Thread, pw pendingWrite) {
	sh.m.AckedWrites++
	sh.m.AckedLocal++
	sh.m.writesInFlight--
	if pw.reply != nil {
		pw.reply.Send(t, pw.res)
	}
}

// nackBatch refuses every write a failed (or post-fail-stop straggler)
// flush carried. Replica-side applies nack without write-law counters —
// they were never counted as Puts.
func (sh *shard) nackBatch(t *core.Thread, batch []pendingWrite, err string) {
	for _, pw := range batch {
		if !pw.repl {
			sh.m.WriteErrors++
			sh.m.writesInFlight--
		}
		if pw.reply != nil {
			pw.reply.Send(t, pw.errMsg(err))
		}
	}
}

// failStop condemns the shard: every parked waiter is nacked and every
// subsequent request refused. Deterministic nack order (writers in
// arrival order, then quorum-parked writes in sequence order, then
// parked reads by block number) keeps seeded replay exact. No pending
// reply channel may be dropped — a client blocked on a deferred ack
// must get an error, never a hang (TestFailStopDrainsBlockedClients).
func (sh *shard) failStop(t *core.Thread, err string) {
	if sh.failed != "" {
		return
	}
	sh.failed = err
	sh.m.FailedShards++
	// Dump the flight recorder first: the ring holds what the shard was
	// doing in its last moments, before the drain below rewrites it.
	sh.m.flight.Record(sh.now(), "failstop", err, 0, 0)
	sh.s.flightDumps = append(sh.s.flightDumps, sh.m.flight.Dump("store", sh.id, sh.now(), err))
	sh.comp = nil
	for _, r := range sh.repls {
		r.sync = nil
		r.out = nil
		r.queued = nil
	}
	sh.nackBatch(t, sh.waiters, err)
	sh.waiters = nil
	sh.nackBatch(t, sh.replWait, err)
	sh.replWait = nil
	for _, pr := range sh.replReads {
		// Parked replica reads were only ever in the in-flight gauge;
		// the nack is their terminal count.
		sh.m.ReadErrors++
		if pr.reply != nil {
			pr.reply.Send(t, GetResult{Err: err})
		}
	}
	sh.replReads = nil
	for _, b := range detmap.Keys(sh.reads) {
		for _, pr := range sh.reads[b] {
			if pr.reply != nil {
				pr.reply.Send(t, GetResult{Err: err})
			}
		}
		delete(sh.reads, b)
	}
	if sh.s.FailStopHook != nil {
		sh.s.FailStopHook(sh.id, err)
	}
}

// recover rebuilds the shard from its log device. The superblock's
// sealed epoch record picks the active region unambiguously; its region
// is replayed front to back, stopping at the first block not stamped
// with the epoch. Then the *other* region is probed for blocks stamped
// epoch+1 — durable survivors of a compaction that was in flight when
// the crash hit (copies of old records plus fresh writes redirected
// there). Replay is version-aware (a key's highest version wins), so
// the inter-region ordering is immaterial and stale tails from earlier
// region occupancies can never resurrect old state. If the compaction
// region held anything, the shard resumes the compaction exactly where
// the tail leaves off; otherwise appending resumes in the active
// region. Recovery runs as the shard's first message — it may block on
// the disk; requests queue behind it in FIFO order and are served
// against the recovered state.
func (sh *shard) recover(t *core.Thread) {
	rt := sh.s.rt
	irq := t.NewChan(fmt.Sprintf("store.%d.recover", sh.id), 1)
	from := t.Core()
	// Replay reads one block at a time into one buffer: each result is
	// parsed (keys are copied out) before the next read overwrites it.
	scratch := sh.pool.get()
	defer sh.pool.put(scratch)
	readBlock := func(b int) blockdev.Result {
		sh.disk.Program(t, blockdev.Request{Op: blockdev.Read, Block: b, Data: scratch}, func(res blockdev.Result) {
			rt.InjectSend(irq, res, from)
		})
		v, _ := irq.Recv(t)
		return v.(blockdev.Result)
	}
	if sb := readBlock(0); sb.OK {
		sh.epoch = decSuper(sb.Data)
	}
	apply := func(b int, op byte, key string, valOff, vlen int, ver uint64) {
		if cur, ok := sh.idx[key]; ok && cur.ver > ver {
			return
		}
		switch op {
		case recPut:
			sh.idx[key] = loc{block: b, off: valOff, vlen: vlen, ver: ver}
		case recDel:
			sh.idx[key] = loc{block: b, ver: ver, dead: true}
		}
	}
	// replayRegion applies every record in epoch-stamped blocks of
	// epoch's region and returns the tail block (-1 if none), its
	// surviving bytes, and the number of blocks replayed.
	replayRegion := func(epoch uint64) (tailBlock int, tail []byte, blocks int) {
		r := sh.s.region(epoch)
		tailBlock = -1
		for b := r.Start; b < r.End(); b++ {
			res := readBlock(b)
			if !res.OK || blockEpoch(res.Data) != epoch {
				break
			}
			parsed := blockHeader
			for {
				op, key, valOff, vlen, ver, n := decRecord(res.Data, parsed)
				if n == 0 {
					break
				}
				apply(b, op, key, valOff, vlen, ver)
				parsed += n
				sh.m.Replayed++
			}
			if parsed == blockHeader {
				break // stamp matched by accident (epoch 0 = zeroes): never written
			}
			if tail == nil {
				tail = sh.pool.get()
			}
			tailBlock, tail, blocks = b, append(tail[:0], res.Data[:parsed]...), blocks+1
		}
		return
	}
	aTail, aBytes, _ := replayRegion(sh.epoch)
	cTail, cBytes, cBlocks := replayRegion(sh.epoch + 1)
	sh.liveBytes = 0
	for k, l := range sh.idx {
		sh.liveBytes += recHeader + len(k)
		if !l.dead {
			sh.liveBytes += l.vlen
		}
	}
	sh.m.flight.Record(sh.now(), "recover", "", sh.m.Replayed, uint64(len(sh.idx)))
	if cBlocks > 0 {
		// Crash mid-compaction: the fresh region already holds durable
		// epoch+1 records. Keep them in place, append after them, and
		// finish the job — copy whatever still points into the old
		// region, then commit the epoch as usual.
		srcUsed := 0
		if aTail >= 0 {
			srcUsed = (aTail-sh.s.regionStart(sh.epoch))*sh.s.P.Disk.BlockSize + len(aBytes)
		}
		sh.openBlock, sh.open = cTail, cBytes
		sh.pool.put(aBytes)
		sh.resumeCompaction(t, srcUsed)
		return
	}
	if aTail >= 0 {
		sh.openBlock, sh.open = aTail, aBytes
	} else {
		sh.openBlock, sh.open = sh.s.regionStart(sh.epoch), nil
	}
	sh.maybeCompact(t)
	// A replicated store recovered from disks bootstraps the replica
	// with a compacted image of what replay found (once any compaction
	// that just started above commits, epochDone re-attempts this).
	sh.maybeStartReplSync(t)
}

func copyBytes(b []byte) []byte { return append([]byte(nil), b...) }
