package exp

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/machine"
	"chanos/internal/net"
	"chanos/internal/sim"
	"chanos/internal/stats"
)

func init() {
	register("E14", "netstack scaling: connection-sharded stack vs cores and shards (§4)", e14Netstack)
}

// e14Result is one measured configuration.
type e14Result struct {
	shards      int // actual shard count the stack resolved to
	connsPerSec float64
	reqsPerSec  float64
	p99Us       float64
	rxDrops     uint64
	retrans     uint64
}

// e14ServiceCycles is the application work per request (~2 µs).
const e14ServiceCycles = 4000

// e14Run boots a machine with a NIC, a connection-sharded netstack and a
// spawn-per-connection echo-ish server, then drives it from a closed-loop
// client fleet on the wire for `window` cycles.
func e14Run(o Options, cores, shards, clients int, window sim.Time) e14Result {
	w := newWorld(cores, o.seed(), core.Config{})
	defer w.close()
	k := kernel.New(w.rt, kernel.Config{})
	nic := machine.NewNIC(w.m, machine.NICParams{})
	wp := net.DefaultWireParams()
	wp.Seed = o.seed()
	nw := net.NewNetwork(w.eng, nic, wp)
	st := net.NewStack(w.rt, k, nic, net.StackParams{Shards: shards})
	l := st.Listen(80)

	w.rt.Boot("accept", func(t *core.Thread) {
		for {
			c, ok := l.Accept(t)
			if !ok {
				return
			}
			t.Spawn(fmt.Sprintf("conn.%d", c.ID()), func(ht *core.Thread) {
				for {
					req, ok := c.Recv(ht)
					if !ok {
						break
					}
					ht.Compute(e14ServiceCycles)
					c.Send(ht, req, 512) // 512-byte response
				}
				c.Close(ht)
			})
		}
	})

	pool := net.NewClientPool(nw, net.ClientParams{
		Port:        80,
		Clients:     clients,
		ReqsPerConn: 4,
		ThinkCycles: 2000,
		Seed:        o.seed(),
	})
	w.rt.RunFor(window)

	return e14Result{
		shards:      st.Shards(),
		connsPerSec: w.opsPerSec(pool.Completed, window),
		reqsPerSec:  w.opsPerSec(pool.Responses, window),
		p99Us:       w.m.Seconds(pool.Lat.Percentile(99)) * 1e6,
		rxDrops:     nic.Counters().RxDrops,
		retrans:     st.Counters().Retransmits + nw.Retransmits,
	}
}

func e14Netstack(o Options) []*stats.Table {
	coreCounts := []int{4, 16, 64}
	clients := 192
	window := sim.Time(16_000_000)
	shardCounts := []int{1, 2, 4, 8, 16}
	shardCores := 64
	if o.Quick {
		clients = 96
		window = 4_000_000
		shardCounts = []int{1, 2, 4, 8}
	} else {
		coreCounts = append(coreCounts, 256)
	}

	tb := stats.NewTable("E14 / netstack scaling: cores sweep (shards = kernel cores, fixed client fleet)",
		"cores", "shards", "conns/sec", "req/sec", "p99 latency (us)", "rx drops")
	var sweep []e14Result
	for i, c := range coreCounts {
		r := e14Run(o, c, 0, clients, window)
		tb.AddRow(fmt.Sprint(c), fmt.Sprint(r.shards), stats.F(r.connsPerSec), stats.F(r.reqsPerSec),
			stats.F(r.p99Us), fmt.Sprint(r.rxDrops))
		if i > 0 {
			tb.Check(r.connsPerSec > sweep[i-1].connsPerSec, "conns/sec must grow with cores: %.0f @%d -> %.0f @%d",
				sweep[i-1].connsPerSec, coreCounts[i-1], r.connsPerSec, c)
		}
		sweep = append(sweep, r)
	}
	first, last := sweep[0], sweep[len(sweep)-1]
	tb.Check(last.p99Us < first.p99Us, "p99 must shrink with cores: %.1fus @%d vs %.1fus @%d",
		first.p99Us, coreCounts[0], last.p99Us, coreCounts[len(coreCounts)-1])
	tb.Note("claim (§4): sharding kernel services by object — here by connection — is where scaling comes from")

	sb := stats.NewTable(fmt.Sprintf("E14b: shard sweep at %d cores (same fleet; independent connections should not serialise)", shardCores),
		"shards", "conns/sec", "req/sec", "p99 latency (us)", "retransmits")
	var byShards []e14Result
	for _, sh := range shardCounts {
		r := e14Run(o, shardCores, sh, clients, window)
		sb.AddRow(fmt.Sprint(sh), stats.F(r.connsPerSec), stats.F(r.reqsPerSec),
			stats.F(r.p99Us), fmt.Sprint(r.retrans))
		byShards = append(byShards, r)
	}
	sb.Check(byShards[1].reqsPerSec >= byShards[0].reqsPerSec, "2 shards (%.0f req/s) must serve at least 1 shard (%.0f req/s)",
		byShards[1].reqsPerSec, byShards[0].reqsPerSec)
	sb.Note("one shard is the classic single-threaded stack; adding shards parallelises per-connection work")
	return []*stats.Table{tb, sb}
}
