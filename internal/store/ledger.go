// The durability contract, stated once: no write a client saw
// acknowledged is ever lost. A Ledger records what clients saw acked;
// Audit reads it back from live stores; AuditPlatters reads it back
// from a store recovered on a dead machine's platters alone. Every
// harness that judges acked-write survival — experiments, chaos runs,
// tests — goes through these three.
package store

import (
	"slices"

	"chanos/internal/core"
	"chanos/internal/kernel"
	"chanos/internal/machine"
	"chanos/internal/sim"
	"chanos/internal/sim/detmap"
)

// Ledger is the acked-write ledger: key → highest version any client
// saw acknowledged for a PUT of it.
type Ledger map[string]uint64

// Observe records one client-observed exchange — the request a client
// sent and the response that answered it — and reports whether it was
// an acked PUT. It is the only code that decides what an acked write
// is: a PUT answered OK without an error. A lower version than the one
// already recorded leaves the ledger as it was.
func (l Ledger) Observe(req, resp core.Msg) bool {
	kr, ok := req.(KVRequest)
	if !ok || kr.Op != WPut {
		return false
	}
	r, ok := resp.(KVResponse)
	if !ok || !r.OK || r.Err != "" {
		return false
	}
	if r.Ver > l[kr.Key] {
		l[kr.Key] = r.Ver
	}
	return true
}

// Audit reads every key of want back from the store at(key) names, on
// the calling thread, and classifies each failure: lost (missing, or
// older than its acked version) or erred (the read itself failed).
// Keys are read in sorted order — the Gets consume engine events, so
// map order would make same-seed runs diverge. The key set is taken on
// entry; each key's acked version is read after its Get returns, so a
// ledger still growing under a live fleet is judged at its latest.
func Audit(t *core.Thread, want Ledger, at func(key string) *Store) (lost, erred []string) {
	for _, key := range detmap.Keys(want) {
		g := at(key).Get(t, key)
		switch {
		case g.Err != "":
			erred = append(erred, key)
		case !g.Found || g.Ver < want[key]:
			lost = append(lost, key)
		}
	}
	return lost, erred
}

// auditSeed seeds every platter audit's runtime. The audit runs on an
// engine of its own, so the seed can never reach the audited run.
const auditSeed = 0xA0D17

// AuditPlatters judges want against src's platters alone, as if src's
// machine died this instant: a fresh machine with src's core count, on
// an engine of its own, recovers a store from snapshots of src's disks
// and audits it. A key the recovered store cannot read back at its
// acked version, or cannot read at all, is lost (sorted). replayed is
// how many log records the recovery replayed.
func AuditPlatters(src *Store, want Ledger) (lost []string, replayed uint64) {
	var datas []map[int][]byte
	for _, d := range src.Disks() {
		datas = append(datas, d.SnapshotData())
	}
	m := machine.New(sim.NewEngine(), machine.DefaultParams(src.rt.M.NumCores()))
	rt := core.NewRuntime(m, core.Config{Seed: auditSeed})
	defer rt.Shutdown()
	kv := NewFrom(rt, kernel.New(rt, kernel.Config{}), src.P, datas)
	rt.Boot("audit", func(t *core.Thread) {
		var erred []string
		lost, erred = Audit(t, want, func(string) *Store { return kv })
		lost = append(lost, erred...)
		slices.Sort(lost)
	})
	rt.Run()
	return lost, kv.Counters().Replayed
}
