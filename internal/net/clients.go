package net

import (
	"chanos/internal/core"
	"chanos/internal/sim"
	"chanos/internal/stats"
)

// ClientParams describes a pool of closed-loop request/response clients:
// each client dials, exchanges ReqsPerConn request/response pairs with
// think time between them, closes, thinks, and dials again — the
// "serving heavy traffic" workload shape, driven entirely from the wire
// side so the measured machine pays only for serving.
type ClientParams struct {
	Port        int
	Clients     int
	ReqsPerConn int
	// ThinkCycles is the mean think time between requests (and between
	// connections); actual draws are uniform in [T/2, 3T/2). 0 = none.
	ThinkCycles uint64
	// MakeReq builds request payloads; nil sends the request index with
	// a 128-byte wire size.
	MakeReq func(client, req int) (payload core.Msg, bytes int)
	// OnResp, if set, observes each response (engine context) together
	// with the request payload it answers — for workloads that check what
	// came back, not just that it came.
	OnResp func(client int, req, resp core.Msg)
	Seed   uint64
}

// ClientPool runs the client fleet and accumulates results.
type ClientPool struct {
	net *Network
	p   ClientParams

	// Stats.
	Completed uint64 // connections fully closed
	Responses uint64
	Failed    uint64          // connection attempts abandoned after retries
	Lat       stats.Histogram // request → response latency, cycles

	stopped bool
}

// Stop retires the fleet: each client finishes its in-flight exchange,
// closes its connection, and stops rescheduling — new dials and new
// requests on open connections cease. Host-side drive-loop policy, like
// a World's StallBudget: call it between run slices, and the retirement
// instant is as deterministic as the caller's slice boundary.
func (cp *ClientPool) Stop() { cp.stopped = true }

// NewClientPool starts the fleet; clients begin dialling immediately
// with deterministic, seed-staggered think offsets.
func NewClientPool(n *Network, p ClientParams) *ClientPool {
	if p.Clients <= 0 {
		p.Clients = 1
	}
	if p.ReqsPerConn <= 0 {
		p.ReqsPerConn = 1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	cp := &ClientPool{net: n, p: p}
	for i := 0; i < p.Clients; i++ {
		rng := sim.NewRNG(p.Seed + uint64(i)*0x9e3779b9)
		// Stagger the initial dials so the fleet does not arrive in
		// lockstep on cycle zero.
		n.Eng.After(cp.think(rng), func() { cp.dial(i, rng) })
	}
	return cp
}

func (cp *ClientPool) think(rng *sim.RNG) uint64 {
	t := cp.p.ThinkCycles
	if t == 0 {
		return 1 // keep event ordering sane without modelling think time
	}
	return t/2 + rng.Uint64n(t)
}

func (cp *ClientPool) makeReq(client, req int) (core.Msg, int) {
	if cp.p.MakeReq != nil {
		return cp.p.MakeReq(client, req)
	}
	return req, 128
}

// dial runs one connection lifecycle for client i, then reschedules
// itself — the closed loop.
func (cp *ClientPool) dial(i int, rng *sim.RNG) {
	if cp.stopped {
		return
	}
	// The connection's state, shared by its hooks: one allocation.
	var c struct {
		sent     int
		req      core.Msg // the request in flight; the next response answers it
		t0       sim.Time
		finished bool // exactly one of OnClose/OnFail continues the loop
	}
	sendNext := func(ep *Endpoint) {
		var bytes int
		c.req, bytes = cp.makeReq(i, c.sent)
		c.sent++
		c.t0 = cp.net.Eng.Now()
		ep.Send(c.req, bytes)
	}
	cp.net.Dial(cp.p.Port, EndpointHooks{
		OnOpen: sendNext,
		OnMessage: func(ep *Endpoint, payload core.Msg, _ int) {
			cp.Responses++
			cp.Lat.Add(cp.net.Eng.Now() - c.t0)
			if cp.p.OnResp != nil {
				cp.p.OnResp(i, c.req, payload)
			}
			if c.sent >= cp.p.ReqsPerConn || cp.stopped {
				ep.Close()
				return
			}
			cp.net.Eng.After(cp.think(rng), func() { sendNext(ep) })
		},
		OnClose: func(*Endpoint) {
			if c.finished {
				return
			}
			c.finished = true
			cp.Completed++
			cp.net.Eng.After(cp.think(rng), func() { cp.dial(i, rng) })
		},
		OnFail: func(*Endpoint) {
			if c.finished {
				return
			}
			c.finished = true
			// Overloaded server shed us; cool off well past the backed-off
			// RTO horizon, then try again.
			cp.Failed++
			cp.net.Eng.After(cp.net.P.RTOCycles*8+cp.think(rng), func() { cp.dial(i, rng) })
		},
	})
}
