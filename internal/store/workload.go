package store

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/sim"
)

// Workload is the deterministic mixed GET/PUT request generator shared
// by experiment E15 and examples/kvserver: a fixed keyspace with
// two-tier popularity (80% of ops on the hottest 10% of keys), seeded
// per-client RNG streams, fixed-size values. Keeping it in one place
// keeps the experiment measuring exactly the workload the example
// demonstrates.
type Workload struct {
	NumKeys int
	ReadPct int // share of requests that are GETs (0-100)
	Val     []byte

	hot  int
	rngs []*sim.RNG
	keys []string // Key's names, formatted once
}

// NewWorkload builds the generator for a client fleet.
func NewWorkload(seed uint64, clients, numKeys, readPct, valBytes int) *Workload {
	hot := numKeys / 10
	if hot < 1 {
		hot = 1
	}
	w := &Workload{NumKeys: numKeys, ReadPct: readPct, Val: make([]byte, valBytes), hot: hot}
	w.keys = make([]string, numKeys)
	for i := range w.keys {
		w.keys[i] = keyName(i)
	}
	for i := 0; i < clients; i++ {
		w.rngs = append(w.rngs, sim.NewRNG(seed+uint64(i)*0x9e3779b9+1))
	}
	return w
}

// Key returns the i-th key of the keyspace.
func (w *Workload) Key(i int) string {
	if i >= 0 && i < len(w.keys) {
		return w.keys[i]
	}
	return keyName(i)
}

func keyName(i int) string { return fmt.Sprintf("key/%05d", i) }

// MakeReq draws one request for a client — the net.ClientParams.MakeReq
// shape.
func (w *Workload) MakeReq(client, req int) (core.Msg, int) {
	rng := w.rngs[client]
	var ki int
	if rng.Uint64n(10) < 8 {
		ki = int(rng.Uint64n(uint64(w.hot)))
	} else {
		ki = w.hot + int(rng.Uint64n(uint64(w.NumKeys-w.hot)))
	}
	kr := KVRequest{Seq: uint32(req), Key: w.Key(ki)}
	if int(rng.Uint64n(100)) < w.ReadPct {
		kr.Op = WGet
	} else {
		kr.Op = WPut
		kr.Val = w.Val
	}
	return kr, kr.WireBytes()
}

// Prefill writes every key once, pipelining 64 PUTs through the group
// commit so the fill costs flushes, not one commit wait per key.
func (w *Workload) Prefill(t *core.Thread, s *Store) {
	const pipe = 64
	var replies []*core.Chan
	flush := func() {
		for _, r := range replies {
			r.Recv(t)
		}
		replies = replies[:0]
	}
	for i := 0; i < w.NumKeys; i++ {
		replies = append(replies, s.PutAsync(t, w.Key(i), w.Val))
		if len(replies) >= pipe {
			flush()
		}
	}
	flush()
}
