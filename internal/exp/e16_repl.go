package exp

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/machine"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/stats"
	"chanos/internal/store"
)

func init() {
	register("E16", "store replication: per-shard quorum acks across machines, primary-loss survival", e16Repl)
}

// e16Result is one measured replication-mode configuration.
type e16Result struct {
	shards      int
	opsPerSec   float64
	p99Us       float64
	ackedWrites uint64
	replBatches uint64
	replRecords uint64
}

const (
	e16Port     = 6379
	e16ValBytes = 256
	e16NumKeys  = 512
)

// e16World is the serving topology shared by the cost sweep and the
// kill runs: the E15 vertical slice — client fleet on the wire → NIC →
// netstack → store shard → log device — plus, in quorum mode, a second
// simulated machine on the far side of an inter-machine wire receiving
// every store shard's log records.
type e16World struct {
	w       *world
	nw      *net.Network
	kv      *store.Store
	rm      *store.ReplicaMachine // nil in local-only mode
	wl      *store.Workload
	clients int
	seed    uint64
}

// e16Boot builds the topology, prefills the keyspace, and leaves the
// client fleet un-started (callers attach their own pool so the kill
// runs can track acknowledgements).
func e16Boot(cores, shards, clients, readPct int, seed uint64, quorum bool) *e16World {
	w := newWorld(cores, seed, core.Config{})
	k := kernel.New(w.rt, kernel.Config{})
	nic := machine.NewNIC(w.m, machine.NICParams{})
	wp := net.DefaultWireParams()
	wp.Seed = seed
	nw := net.NewNetwork(w.eng, nic, wp)
	stk := net.NewStack(w.rt, k, nic, net.StackParams{})
	kv := store.New(w.rt, k, store.Params{Shards: shards, CacheBlocks: 16}, nil)
	ew := &e16World{w: w, nw: nw, kv: kv, clients: clients, seed: seed}
	if quorum {
		rwp := net.DefaultWireParams()
		rwp.Seed = seed + 1
		ew.rm = store.NewReplicaMachine(w.eng, store.ReplicaMachineParams{
			Cores: cores, Seed: seed + 2,
			Store: store.Params{Shards: shards, CacheBlocks: 16},
			Wire:  rwp,
		}, nil)
		kv.AttachReplica(ew.rm)
	}
	l := stk.Listen(e16Port)
	w.rt.Boot("accept", func(t *core.Thread) {
		for {
			c, ok := l.Accept(t)
			if !ok {
				return
			}
			t.Spawn(fmt.Sprintf("kv.%d", c.ID()), func(ht *core.Thread) {
				store.ServeConn(ht, c, kv)
			})
		}
	})
	ew.wl = store.NewWorkload(seed, clients, e16NumKeys, readPct, e16ValBytes)
	filled := false
	w.rt.Boot("prefill", func(t *core.Thread) {
		ew.wl.Prefill(t, kv)
		filled = true
	})
	for i := 0; i < 1000 && !filled; i++ {
		w.rt.RunFor(1_000_000)
	}
	return ew
}

func (ew *e16World) close() {
	if ew.rm != nil {
		ew.rm.Shutdown()
	}
	ew.w.close()
}

// e16Run measures one replication mode: the throughput/p99 delta
// between local-only and quorum acks is the price of surviving machine
// loss.
func e16Run(o Options, cores, shards, clients, readPct int, window sim.Time, quorum bool) e16Result {
	ew := e16Boot(cores, shards, clients, readPct, o.seed(), quorum)
	defer ew.close()
	pool := net.NewClientPool(ew.nw, net.ClientParams{
		Port:        e16Port,
		Clients:     clients,
		ReqsPerConn: 8,
		ThinkCycles: 2000,
		Seed:        o.seed(),
		MakeReq:     ew.wl.MakeReq,
	})
	ew.w.rt.RunFor(window)
	c := ew.kv.Counters()
	return e16Result{
		shards:      ew.kv.Shards(),
		opsPerSec:   ew.w.opsPerSec(pool.Responses, window),
		p99Us:       ew.w.m.Seconds(pool.Lat.Percentile(99)) * 1e6,
		ackedWrites: c.AckedWrites,
		replBatches: c.ReplBatches,
		replRecords: c.ReplRecords,
	}
}

// e16KillResult is one seeded primary-kill run.
type e16KillResult struct {
	killAtMs  float64
	ackedPuts uint64
	tracked   int
	survived  int
	lost      int
	replayed  uint64
}

// e16Kill runs the quorum topology under a mixed wire workload,
// tracking every PUT the client fleet saw acknowledged, then kills the
// primary machine at killAt (only the replica's platters survive) and
// boots a store from them. The contract the table gates on: zero
// acknowledged writes lost — every tracked key recovers at at least its
// acknowledged version.
func e16Kill(o Options, seed uint64, killAt sim.Time) e16KillResult {
	const (
		cores   = 16
		shards  = 4
		clients = 64
		readPct = 50
	)
	ew := e16Boot(cores, shards, clients, readPct, seed, true)
	acked := store.Ledger{}
	var ackedPuts uint64
	net.NewClientPool(ew.nw, net.ClientParams{
		Port:        e16Port,
		Clients:     clients,
		ReqsPerConn: 8,
		ThinkCycles: 2000,
		Seed:        seed,
		MakeReq:     ew.wl.MakeReq,
		OnResp: func(_ int, req, resp core.Msg) {
			if acked.Observe(req, resp) {
				ackedPuts++
			}
		},
	})
	killBase := ew.w.eng.Now()
	ew.w.rt.RunFor(killAt)

	// The primary machine is gone. Nothing of it survives — the audit
	// store recovers from the REPLICA's platters alone.
	killMs := ew.w.m.Seconds(ew.w.eng.Now()-killBase) * 1e3
	lost, replayed := store.AuditPlatters(ew.rm.KV, acked)
	ew.close()
	return e16KillResult{killAtMs: killMs, ackedPuts: ackedPuts, tracked: len(acked),
		survived: len(acked) - len(lost), lost: len(lost), replayed: replayed}
}

func e16Repl(o Options) []*stats.Table {
	coreCounts := []int{4, 16, 64}
	clients := 128
	window := sim.Time(12_000_000)
	kills := 3
	killAt := sim.Time(8_000_000)
	if o.Quick {
		coreCounts = []int{4, 16}
		clients = 64
		window = 4_000_000
		kills = 2
		killAt = 4_000_000
	}

	tb := stats.NewTable("E16 / replication cost: local-only vs quorum acks (store shards = cores, 70% reads)",
		"cores", "mode", "ops/sec", "p99 latency (us)", "acked writes", "repl batches", "repl records")
	for _, c := range coreCounts {
		row := func(mode string, r e16Result) {
			tb.AddRow(fmt.Sprint(c), mode, stats.F(r.opsPerSec), stats.F(r.p99Us),
				fmt.Sprint(r.ackedWrites), fmt.Sprint(r.replBatches), fmt.Sprint(r.replRecords))
		}
		local := e16Run(o, c, c, clients, 70, window, false)
		row("local", local)
		quorum := e16Run(o, c, c, clients, 70, window, true)
		row("quorum", quorum)
		tb.Check(local.replBatches == 0, "%d cores: local mode shipped %d replication batches", c, local.replBatches)
		tb.Check(quorum.replBatches > 0 && quorum.replRecords > 0, "%d cores: quorum mode shipped nothing (%d batches, %d records)",
			c, quorum.replBatches, quorum.replRecords)
		tb.Check(quorum.ackedWrites > 0, "%d cores: quorum mode acked nothing", c)
		tb.Check(quorum.p99Us > local.p99Us, "%d cores: quorum p99 (%.1fus) must exceed local p99 (%.1fus): the RTT is not free",
			c, quorum.p99Us, local.p99Us)
	}
	tb.Note("quorum: a write acks only when the primary's flush AND the replica machine's append are both durable")
	tb.Note("the p99 delta is the price of surviving machine loss: one inter-machine RTT plus the replica's group commit")

	kb := stats.NewTable("E16b / acked-write survival: seeded primary kills under quorum replication",
		"seed", "kill at (ms)", "acked puts", "tracked keys", "survived", "lost", "replica replayed")
	for i := 0; i < kills; i++ {
		seed := o.seed() + uint64(i)*101
		r := e16Kill(o, seed, killAt)
		kb.AddRow(fmt.Sprint(seed), fmt.Sprintf("%.2f", r.killAtMs), fmt.Sprint(r.ackedPuts),
			fmt.Sprint(r.tracked), fmt.Sprint(r.survived), fmt.Sprint(r.lost), fmt.Sprint(r.replayed))
		kb.Check(r.ackedPuts > 0 && r.lost == 0, "seed %d: %d acked puts, %d of %d tracked keys lost",
			seed, r.ackedPuts, r.lost, r.tracked)
	}
	kb.Note("the primary machine is destroyed at the kill instant; the audit store boots from the replica's platters alone")
	kb.Note("contract: lost must be 0 — every client-acknowledged PUT recovers at >= its acknowledged version")
	return []*stats.Table{tb, kb}
}
