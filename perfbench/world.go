package main

import (
	"fmt"
	"reflect"

	"chanos/internal/core"
	"chanos/internal/dump"
	"chanos/internal/machine"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/stats"
	"chanos/internal/store"
	"chanos/internal/telemetry"
)

// A workload is one traffic mix, booted through a public world builder:
// dump.Build for the kvload scenario, dump.BuildCluster for the cluster
// scenario. Each round drives Requests client requests.
type workload struct {
	name    string
	cluster bool
	cfg     dump.Config
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json says why
// each was chosen. Both client fleets are closed loops.
var workloads = []workload{
	{name: "kv-read-hot", cfg: dump.Config{
		Cores: 64, Clients: 128, Requests: 20_000, ReadPct: 90, Keys: 4096}},
	{name: "kv-write-quorum", cfg: dump.Config{
		Cores: 64, Clients: 128, Requests: 20_000, ReadPct: 30, Keys: 32768,
		Replicas: 1, LogBlocks: 224}},
	{name: "cluster-3x2", cluster: true, cfg: dump.Config{
		Machines: 3, RF: 2, Clients: 128, Requests: 10_000, ReadPct: 50, Keys: 4096}},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// rig is a booted world seen through the public accessors the benchmark
// reads: every machine's runtime, NIC, netstack and wire, and every
// store, primaries apart from replicas.
type rig struct {
	kv *dump.World        // kvload worlds
	cl *dump.ClusterWorld // cluster worlds

	eng       *sim.Engine
	clock     *machine.Machine
	rts       []*core.Runtime
	nics      []*machine.NIC
	stacks    []*net.Stack
	wires     []*net.Network
	primaries []*store.Store
	replicas  []*store.Store
	statds    []*telemetry.Statd
}

func boot(w workload, seed uint64) *rig {
	if w.cluster {
		cw := dump.BuildCluster(seed, w.cfg)
		r := &rig{cl: cw, eng: cw.C.Eng, clock: cw.Cl.Nodes[0].M}
		for _, n := range cw.Cl.Nodes {
			r.add(n.RT, n.NIC, n.Stk, n.NW)
			r.primaries = append(r.primaries, n.KV)
			r.statds = append(r.statds, n.SD)
			for _, rm := range n.Repls {
				r.addReplica(rm)
			}
		}
		return r
	}
	kw := dump.Build(seed, w.cfg)
	r := &rig{kv: kw, eng: kw.Sys.Eng, clock: kw.Sys.M}
	r.add(kw.Sys.RT, kw.NIC, kw.Stack, kw.NW)
	r.primaries = append(r.primaries, kw.KV)
	r.statds = append(r.statds, kw.SD)
	if kw.RM != nil {
		r.addReplica(kw.RM)
	}
	return r
}

func (r *rig) add(rt *core.Runtime, nic *machine.NIC, stk *net.Stack, nw *net.Network) {
	r.rts = append(r.rts, rt)
	r.nics = append(r.nics, nic)
	r.stacks = append(r.stacks, stk)
	r.wires = append(r.wires, nw)
}

func (r *rig) addReplica(rm *store.ReplicaMachine) {
	r.add(rm.RT, rm.NIC, rm.Stk, rm.NW)
	r.replicas = append(r.replicas, rm.KV)
}

func (r *rig) setOnSlice(f func(int)) {
	if r.cl != nil {
		r.cl.OnSlice = f
	} else {
		r.kv.OnSlice = f
	}
}

func (r *rig) run() *dump.Report {
	if r.cl != nil {
		return r.cl.Run()
	}
	return r.kv.Run()
}

func (r *rig) close() {
	if r.cl != nil {
		r.cl.Close()
	} else {
		r.kv.Close()
	}
}

// done is the number of client requests answered so far: the quantity
// the builder's own drive loop counts to its Requests target.
func (r *rig) done() uint64 {
	if r.cl != nil {
		if r.cl.Pool == nil {
			return 0
		}
		return r.cl.Pool.Ops
	}
	if r.kv.Pool == nil {
		return 0
	}
	return r.kv.Pool.Responses
}

// latency is the client latency histogram in cycles; the cluster fleet
// keeps none.
func (r *rig) latency() *stats.Histogram {
	if r.kv == nil || r.kv.Pool == nil {
		return nil
	}
	return &r.kv.Pool.Lat
}

// counts is one reading of the deterministic counters, summed over the
// world's machines. Every field is a uint64 so readings subtract field
// by field (see minus).
type counts struct {
	Fired, Now, Done uint64

	Switches, Sends, Recvs, Spawns uint64
	RxDrops                        uint64
	Pkts, Retransmits              uint64

	CacheHits, CacheMisses         uint64 // primaries
	AckedWrites, FlushesDone       uint64 // primaries
	ReplBatches, ReplRecords       uint64 // primaries
	ReplAdverts                    uint64 // primaries
	Compactions, CompactedRecords  uint64 // every store
	LogFull, StoreErrors, FailStop uint64 // every store
	DiskReads, DiskWrites          uint64 // every store's devices
	DiskBytes                      uint64

	Redirects, MapRefreshes, Retries, Lost uint64 // cluster fleet
	ConnsFailed                            uint64 // kvload fleet
}

func (r *rig) read() counts {
	c := counts{Fired: r.eng.Fired(), Now: r.eng.Now(), Done: r.done()}
	for _, rt := range r.rts {
		s := rt.Stats()
		c.Switches += s.Switches
		c.Sends += s.Sends
		c.Recvs += s.Recvs
		c.Spawns += s.Spawns
	}
	for _, n := range r.nics {
		c.RxDrops += n.Counters().RxDrops
	}
	for _, s := range r.stacks {
		sc := s.Counters()
		c.Pkts += sc.RxPackets + sc.TxPackets
		c.Retransmits += sc.Retransmits
	}
	for _, nw := range r.wires {
		c.Retransmits += nw.Retransmits
	}
	for _, kv := range r.primaries {
		sc := kv.Counters()
		c.CacheHits += sc.CacheHits
		c.CacheMisses += sc.CacheMisses
		c.AckedWrites += sc.AckedWrites
		c.FlushesDone += sc.FlushesDone
		c.ReplBatches += sc.ReplBatches
		c.ReplRecords += sc.ReplRecords
		c.ReplAdverts += sc.ReplAdverts
	}
	for _, kv := range append(r.primaries[:len(r.primaries):len(r.primaries)], r.replicas...) {
		sc := kv.Counters()
		c.Compactions += sc.CompactionsDone
		c.CompactedRecords += sc.CompactedRecords
		c.LogFull += sc.LogFull
		c.StoreErrors += sc.ReadErrors + sc.WriteErrors
		c.FailStop += sc.FailedShards
		for _, d := range kv.Disks() {
			c.DiskReads += d.Reads
			c.DiskWrites += d.Writes
			c.DiskBytes += d.BytesMoved
		}
	}
	if r.cl != nil && r.cl.Pool != nil {
		p := r.cl.Pool
		c.Redirects, c.MapRefreshes, c.Retries, c.Lost = p.Moved, p.Refreshes, p.Failed, p.Lost
	}
	if r.kv != nil && r.kv.Pool != nil {
		c.ConnsFailed = r.kv.Pool.Failed
	}
	return c
}

// replMaxLag is the worst replication lag, in sequences, of any primary
// shard toward any of its replicas right now.
func (r *rig) replMaxLag() uint64 {
	var worst uint64
	for _, kv := range r.primaries {
		for _, rs := range kv.LifecycleReport() {
			worst = max(worst, rs.MaxLag)
		}
	}
	return worst
}

// minus returns c - base field by field.
func (c counts) minus(base counts) counts {
	out := c
	o, b := reflect.ValueOf(&out).Elem(), reflect.ValueOf(base)
	for i := 0; i < o.NumField(); i++ {
		o.Field(i).SetUint(o.Field(i).Uint() - b.Field(i).Uint())
	}
	return out
}
