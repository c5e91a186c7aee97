package exp

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/dump"
	"chanos/internal/kernel"
	"chanos/internal/machine"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/stats"
	"chanos/internal/store"
	"chanos/internal/telemetry"
)

func init() {
	register("E17", "replication lifecycle: quorum healing after failover, bounded-lag replica reads", e17Heal)
}

const (
	e17Port     = 6379
	e17ReadPort = 6390
	e17ValBytes = 256
	e17NumKeys  = 512
)

// e17World is one life of the heal cycle: a primary machine serving the
// KV wire workload, optionally recovered from a previous life's replica
// platters, optionally attached (at boot or at runtime) to a fresh
// replica machine.
type e17World struct {
	w       *world
	nic     *machine.NIC
	stk     *net.Stack
	nw      *net.Network
	kv      *store.Store
	rm      *store.ReplicaMachine // nil until attach
	wl      *store.Workload
	sd      *telemetry.Statd
	p       store.Params
	clients int
	seed    uint64
}

// e17Boot builds the serving topology. datas != nil boots the store
// from those platter snapshots — the failed-over state of the cycle.
func e17Boot(cores, shards, clients, readPct int, seed uint64, datas []map[int][]byte) *e17World {
	w := newWorld(cores, seed, core.Config{})
	k := kernel.New(w.rt, kernel.Config{})
	nic := machine.NewNIC(w.m, machine.NICParams{})
	wp := net.DefaultWireParams()
	wp.Seed = seed
	nw := net.NewNetwork(w.eng, nic, wp)
	stk := net.NewStack(w.rt, k, nic, net.StackParams{})
	p := store.Params{Shards: shards, CacheBlocks: 16}
	kv := store.NewFrom(w.rt, k, p, datas)
	sd := telemetry.NewStatd(w.eng)
	sd.Register("store", kv)
	sd.Register("net", stk)
	sd.Register("nic", nic)
	kv.AttachStatd(sd)
	l := stk.Listen(e17Port)
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
	wl := store.NewWorkload(seed, clients, e17NumKeys, readPct, e17ValBytes)
	return &e17World{w: w, nic: nic, stk: stk, nw: nw, kv: kv, wl: wl, sd: sd, p: p, clients: clients, seed: seed}
}

// collector wires the world's subsystems (and replica, once attached)
// into a machine core-dump collector. E17 worlds boot through the
// experiment harness, not the kvload scenario, so their dumps validate
// and inspect but do not replay — the scenario stamp says so.
func (ew *e17World) collector(seed uint64) *dump.Collector {
	c := &dump.Collector{
		Eng: ew.w.eng, RT: ew.w.rt, NIC: ew.nic, Stack: ew.stk,
		Store: ew.kv, Statd: ew.sd,
		Seed: seed,
		Config: dump.Config{
			Scenario: "e17-heal", Cores: ew.w.m.NumCores(),
			Shards: ew.p.Shards, Clients: ew.clients,
			Keys: e17NumKeys, ValBytes: e17ValBytes,
		},
	}
	if ew.rm != nil {
		c.Replica = ew.rm.KV
	}
	return c
}

// prefill seeds the keyspace (fresh boots only).
func (ew *e17World) prefill() {
	filled := false
	ew.w.rt.Boot("prefill", func(t *core.Thread) {
		ew.wl.Prefill(t, ew.kv)
		filled = true
	})
	for i := 0; i < 1000 && !filled; i++ {
		ew.w.rt.RunFor(1_000_000)
	}
}

// attach joins a FRESH replica machine to the (possibly live, serving)
// store. readPort != 0 additionally serves bounded-lag replica reads.
func (ew *e17World) attach(seed uint64, readPort int) {
	rwp := net.DefaultWireParams()
	rwp.Seed = seed + 1
	ew.rm = store.NewReplicaMachine(ew.w.eng, store.ReplicaMachineParams{
		Cores: ew.w.m.NumCores(), Seed: seed + 2, ReadPort: readPort,
		Store: ew.p, Wire: rwp,
	}, nil)
	ew.kv.AttachReplica(ew.rm)
}

func (ew *e17World) close() {
	if ew.rm != nil {
		ew.rm.Shutdown()
	}
	ew.w.close()
}

// e17Pool starts the client fleet, tracking every PUT the fleet saw
// acknowledged into acked — the audit set the kill at the end of the
// cycle is judged against.
func (ew *e17World) e17Pool(acked store.Ledger, ackedPuts *uint64) *net.ClientPool {
	return net.NewClientPool(ew.nw, net.ClientParams{
		Port:        e17Port,
		Clients:     ew.clients,
		ReqsPerConn: 8,
		ThinkCycles: 2000,
		Seed:        ew.seed,
		MakeReq:     ew.wl.MakeReq,
		OnResp: func(_ int, req, resp core.Msg) {
			if acked.Observe(req, resp) {
				*ackedPuts++
			}
		},
	})
}

// e17Cycle is one measured kill → failover → re-attach → heal cycle.
type e17Cycle struct {
	attach      string // "boot" or "runtime"
	quorum      bool   // ReplCaughtUp at the kill instant
	healMs      float64
	syncRecords uint64
	heals       uint64
	ackedPuts   uint64
	tracked     int
	survived    int
	lost        int

	// The live STATS scrape issued over the wire while the cycle heals.
	scraped    bool   // a snapshot came back and parsed
	scrapeSeq  uint64 // its sequence number
	scrapeSvcs int    // services it carried
	scrapeBad  int    // conservation-law violations in it
	midHeal    bool   // quorum was NOT yet restored when it was taken
}

// e17HealCycles runs the closed loop: cycle 0 boots a fresh quorum
// pair; every later cycle boots the store from the previous replica's
// platters (failover), serves degraded for a while, attaches a fresh
// replica machine AT RUNTIME, heals, and is killed again — only its
// replica's platters carry to the next cycle. The audit after each kill
// checks every PUT any client was ever acked against the surviving
// platters: lost must be 0, every cycle.
func e17HealCycles(o Options, cycles int, window sim.Time) []e17Cycle {
	const (
		cores   = 16
		shards  = 4
		clients = 64
		readPct = 50
	)
	acked := store.Ledger{}
	var ackedPuts uint64
	var datas []map[int][]byte
	var out []e17Cycle

	for c := 0; c < cycles; c++ {
		seed := o.seed() + uint64(c)*101
		ew := e17Boot(cores, shards, clients, readPct, seed, datas)
		cy := e17Cycle{attach: "runtime"}
		if c == 0 {
			cy.attach = "boot"
			ew.attach(seed, 0)
			ew.prefill()
			ew.e17Pool(acked, &ackedPuts)
		} else {
			// The failed-over store is live and serving degraded before
			// the fresh replica joins.
			ew.e17Pool(acked, &ackedPuts)
			ew.w.rt.RunFor(2_000_000)
			ew.attach(seed, 0)
		}
		healBase := ew.w.eng.Now()
		// Scrape the serving machine over the wire while it heals: the
		// snapshot must come back consistent (conservation laws hold) even
		// though the bootstrap stream is rewriting shard state underneath.
		if snap := scrapeStats(ew.nw, e17Port, ew.w.rt.RunFor); snap != nil {
			cy.scraped = true
			cy.scrapeSeq = snap.Seq
			cy.scrapeSvcs = len(snap.Services)
			cy.scrapeBad = len(snap.Conservation())
			cy.midHeal = !ew.kv.ReplCaughtUp()
			o.publishSnapshot(snap)
			if cy.scrapeBad > 0 {
				o.dumpInvariant(ew.collector(seed),
					"invariant: E17 mid-heal STATS scrape violated conservation laws")
			}
		}
		healed := false
		for step := 0; step < 4000; step++ {
			ew.w.rt.RunFor(100_000)
			if ew.kv.ReplCaughtUp() {
				healed = true
				break
			}
		}
		cy.healMs = ew.w.m.Seconds(ew.w.eng.Now()-healBase) * 1e3
		kc := ew.kv.Counters()
		cy.syncRecords = kc.ReplSyncRecords
		cy.heals = kc.ReplHeals
		if healed {
			ew.w.rt.RunFor(window) // serve under the healed quorum
		}
		cy.quorum = ew.kv.ReplCaughtUp()
		cy.ackedPuts = ackedPuts
		cy.tracked = len(acked)

		// The kill: the primary machine is destroyed; only the replica's
		// platters survive into the next cycle. Audit them against
		// everything ever acked.
		datas = nil
		for _, d := range ew.rm.KV.Disks() {
			datas = append(datas, d.SnapshotData())
		}
		lost, _ := store.AuditPlatters(ew.rm.KV, acked)
		ew.close()
		cy.lost = len(lost)
		cy.survived = cy.tracked - cy.lost
		out = append(out, cy)
	}
	return out
}

// e17ReadResult is one read-routing mode of the scaling sweep.
type e17ReadResult struct {
	getsPerSec float64
	opsPerSec  float64
	p99Us      float64
	lagged     uint64
	waits      uint64
}

// e17Reads measures replica reads as read capacity: the same quorum
// pair, the same primary client fleet, with and without a second fleet
// reading from the replica's bounded-lag port. Cores per machine are
// fixed; the delta is the replica's otherwise-idle index doing work.
func e17Reads(o Options, clients int, window sim.Time, replicaReads bool) e17ReadResult {
	const (
		cores   = 8
		shards  = 8
		readPct = 90
	)
	seed := o.seed()
	ew := e17Boot(cores, shards, clients, readPct, seed, nil)
	defer ew.close()
	ew.attach(seed, e17ReadPort)
	ew.prefill()

	// Primary fleet: the mixed workload, GET responses counted.
	var getsP uint64
	pool := net.NewClientPool(ew.nw, net.ClientParams{
		Port:        e17Port,
		Clients:     clients,
		ReqsPerConn: 8,
		ThinkCycles: 2000,
		Seed:        seed,
		MakeReq:     ew.wl.MakeReq,
		OnResp: func(_ int, req, payload core.Msg) {
			if resp, ok := payload.(store.KVResponse); ok && resp.OK && req.(store.KVRequest).Op == store.WGet {
				getsP++
			}
		},
	})

	// Replica fleet: GET-only, same keyspace, served from the replica's
	// version-correct index under the staleness bound.
	var getsR uint64
	var rpool *net.ClientPool
	if replicaReads {
		rwl := store.NewWorkload(seed+5, clients, e17NumKeys, 100, e17ValBytes)
		rpool = net.NewClientPool(ew.rm.NW, net.ClientParams{
			Port:        e17ReadPort,
			Clients:     clients,
			ReqsPerConn: 8,
			ThinkCycles: 2000,
			Seed:        seed + 5,
			MakeReq:     rwl.MakeReq,
			OnResp: func(_ int, _, payload core.Msg) {
				if resp, ok := payload.(store.KVResponse); ok && resp.OK {
					getsR++
				}
			},
		})
	}

	ew.w.rt.RunFor(window)
	ops := pool.Responses
	var lat stats.Histogram
	lat.Merge(&pool.Lat)
	if rpool != nil {
		ops += rpool.Responses
		lat.Merge(&rpool.Lat)
	}
	rc := ew.rm.KV.Counters()
	return e17ReadResult{
		getsPerSec: ew.w.opsPerSec(getsP+getsR, window),
		opsPerSec:  ew.w.opsPerSec(ops, window),
		p99Us:      ew.w.m.Seconds(lat.Percentile(99)) * 1e6,
		lagged:     rc.RefusedSyncing + rc.RefusedLag,
		waits:      rc.ReplicaWaits,
	}
}

func e17Heal(o Options) []*stats.Table {
	cycles := 3
	window := sim.Time(8_000_000)
	clients := 96
	readWindow := sim.Time(10_000_000)
	if o.Quick {
		window = 3_000_000
		clients = 64
		readWindow = 4_000_000
	}

	hb := stats.NewTable("E17 / quorum healing: kill -> failover -> re-attach -> heal cycles",
		"cycle", "attach", "heal (ms)", "sync records", "shard heals", "acked puts", "tracked keys", "survived", "lost", "quorum")
	sb := stats.NewTable("E17c / live STATS scrape: one wire request against the healing machine",
		"cycle", "scraped", "snapshot seq", "services", "conservation violations", "mid-heal")
	for i, cy := range e17HealCycles(o, cycles, window) {
		q := "no"
		if cy.quorum {
			q = "yes"
		}
		hb.AddRow(fmt.Sprint(i+1), cy.attach, fmt.Sprintf("%.2f", cy.healMs), fmt.Sprint(cy.syncRecords),
			fmt.Sprint(cy.heals), fmt.Sprint(cy.ackedPuts), fmt.Sprint(cy.tracked),
			fmt.Sprint(cy.survived), fmt.Sprint(cy.lost), q)
		sb.AddRow(fmt.Sprint(i+1), yn(cy.scraped), fmt.Sprint(cy.scrapeSeq),
			fmt.Sprint(cy.scrapeSvcs), fmt.Sprint(cy.scrapeBad), yn(cy.midHeal))
	}
	hb.Note("each cycle kills the primary machine; the next boots from the replica's platters alone and re-attaches a FRESH replica at runtime")
	hb.Note("contract: quorum must read yes and lost must be 0 on every row — healing restores full durability, losing nothing ever acked")
	sb.Note("the scrape is a normal wire request (STATS verb) from a fresh client endpoint; the snapshot is built in zero simulated cycles")
	sb.Note("contract: scraped yes and violations 0 on every row — the metric plane stays balanced while replication rewrites the shards")

	rb := stats.NewTable("E17b / replica reads: GET throughput at fixed per-machine cores (90% reads)",
		"mode", "clients", "GETs/sec", "ops/sec", "p99 latency (us)", "lag-refused", "durability waits", "x GETs vs primary-only")
	base := e17Reads(o, clients, readWindow, false)
	repl := e17Reads(o, clients, readWindow, true)
	ratio := 0.0
	if base.getsPerSec > 0 {
		ratio = repl.getsPerSec / base.getsPerSec
	}
	rb.AddRow("primary-only", fmt.Sprint(clients), stats.F(base.getsPerSec), stats.F(base.opsPerSec),
		stats.F(base.p99Us), fmt.Sprint(base.lagged), fmt.Sprint(base.waits), "1.00")
	rb.AddRow("replica-reads", fmt.Sprint(clients*2), stats.F(repl.getsPerSec), stats.F(repl.opsPerSec),
		stats.F(repl.p99Us), fmt.Sprint(repl.lagged), fmt.Sprint(repl.waits), fmt.Sprintf("%.2f", ratio))
	rb.Note("replica-reads adds a GET-only fleet on the replica's bounded-staleness port; the primary fleet is unchanged")
	rb.Note("lag-refused GETs hit the staleness bound (ReplicaLagBound) and would retry at the primary; durability waits parked for the replica's group commit")
	return []*stats.Table{hb, sb, rb}
}

// yn renders a bool as a yes/no table cell.
func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
