// Package net is the chanOS network stack, built the way the paper says
// kernel subsystems should be built (§4): the NIC is a device with
// per-core queues, the stack is a kernel service whose handler threads
// are sharded by connection ID (so independent connections never
// serialise behind a shared lock — the per-object sharding argument of
// the scalable-OS literature applied to its canonical subsystem), and a
// socket is nothing but channels: a listener is an accept channel, a
// connection is a receive channel plus sends routed to the connection's
// shard. "Syscalls are messages" all the way down to the wire.
//
// Remote peers live on the simulated wire (package-local Endpoint state
// machines driven by engine events), so every CPU cycle measured belongs
// to the serving machine. The wire applies deterministic, seeded delay,
// jitter and loss; the stack recovers ordering with per-connection
// sequence numbers and reassembly, and recovers loss with cumulative
// acks plus timeout retransmission.
//
// The message-passing discipline is total: a packet arrival is a
// message into the owning shard, a timer is a deferred self-message
// ("rto"), and nothing a shard owns is touched from outside it. The
// same wire carries inter-machine traffic — the store's replication
// stream dials an Endpoint like any client — so machines compose into
// clusters with no new primitives.
package net

import (
	"chanos/internal/core"
	"chanos/internal/sim/fifo"
)

// ConnID identifies one connection; it is the sharding key for the
// netstack service and the RSS key for the NIC.
type ConnID int

// Flags classifies a packet.
type Flags uint8

// Packet flag bits.
const (
	SYN    Flags = 1 << iota // client opens a connection
	SYNACK                   // server accepts it
	DATA                     // sequenced payload
	ACK                      // cumulative acknowledgement (Ack field)
	FIN                      // sequenced end-of-stream marker
)

func (f Flags) String() string {
	switch {
	case f&SYN != 0:
		return "SYN"
	case f&SYNACK != 0:
		return "SYNACK"
	case f&FIN != 0:
		return "FIN"
	case f&DATA != 0:
		return "DATA"
	case f&ACK != 0:
		return "ACK"
	}
	return "?"
}

// headerBytes is the simulated wire overhead of every packet.
const headerBytes = 40

// Packet is one unit of wire transfer. DATA and FIN packets carry a
// per-direction sequence number starting at 1; ACKs carry the highest
// contiguous sequence received plus the receiver's advertised window
// (free socket-buffer slots, in packets) — a full buffer advertises 0
// and the sender stops instead of blasting into retransmission. Bytes
// is the simulated payload size (Payload itself is host data and
// travels by reference — the wire cost model charges Bytes, not the
// host representation).
type Packet struct {
	Conn    ConnID
	Port    int
	Seq     uint64
	Ack     uint64
	Flags   Flags
	Bytes   int
	Window  int
	Payload core.Msg
}

// MsgBytes implements core.Sized.
func (p Packet) MsgBytes() int { return headerBytes + p.Bytes }

// pkt is a packet in transit. It rides the wire as a hop event's state,
// the NIC as a frame's payload, and reaches the owning netstack shard as
// an rx request's argument, so no hop boxes the packet or allocates a
// callback: pkts are pooled, and their hop callback is bound once. The
// last holder returns a pkt to the pool it came from: the wire hop for a
// packet headed to an endpoint, the shard for one received by the host
// (with its RX descriptor, see Stack).
type pkt struct {
	Packet
	queue int      // RX queue the frame arrived on
	pool  *pktPool // where release returns it
	net   *Network // the wire carrying it
	toNIC bool     // hop toward the host's NIC (else toward an endpoint)
	fn    func()   // hop, bound once
}

// pktPool is a free list of pkts. Each has one owner: the wire (packets
// from endpoints) or one netstack shard (packets it transmits).
type pktPool struct{ free []*pkt }

func (pp *pktPool) get(p Packet) *pkt {
	var q *pkt
	if n := len(pp.free); n > 0 {
		q = pp.free[n-1]
		pp.free = pp.free[:n-1]
	} else {
		q = &pkt{pool: pp}
		q.fn = q.hop
	}
	q.Packet = p
	return q
}

func (q *pkt) release() {
	q.Packet, q.net = Packet{}, nil
	q.pool.free = append(q.pool.free, q)
}

// defaultWindow is the window assumed for a peer that has no receive
// buffer to fill (remote endpoints deliver straight into callbacks) —
// effectively "no flow-control limit".
const defaultWindow = 1 << 16

// sendFlow is the sending half of one direction of a connection: it
// assigns sequence numbers, keeps unacknowledged packets for
// retransmission, and holds submissions back while the peer's advertised
// receive window is full. Both stack connections and remote endpoints
// embed one.
type sendFlow struct {
	nextSeq uint64
	unacked fifo.Queue[Packet]
	queued  fifo.Queue[Packet] // submitted but unsequenced: waiting for window
	wnd     int                // peer's advertised receive window, in packets
	wndAck  uint64             // newest cumulative ack that updated the window
	out     []Packet           // drain's result, reused
}

// window returns the usable window. A zero advertisement degrades to a
// single in-flight packet: the classic zero-window probe, retransmitted
// on the RTO until the peer's buffer drains and its acks reopen the
// window — without it the flow would deadlock, since a receiver with a
// full buffer has no other reason to send another ack.
func (s *sendFlow) window() int {
	if s.wnd <= 0 {
		return 1
	}
	return s.wnd
}

// submit accepts one DATA or FIN packet and returns the packets now
// sendable (sequence-stamped, retained for retransmission). A closed
// window queues the submission instead; acks release it later via drain.
// The result is valid until the flow's next submit or drain.
func (s *sendFlow) submit(p Packet) []Packet {
	s.queued.Push(p)
	return s.drain()
}

// drain moves queued packets into the window, stamping sequence numbers
// in submission order, and returns the ones to transmit now (valid until
// the next submit or drain).
func (s *sendFlow) drain() []Packet {
	clear(s.out)
	s.out = s.out[:0]
	for s.queued.Len() > 0 && s.unacked.Len() < s.window() {
		p := s.queued.Pop()
		s.nextSeq++
		p.Seq = s.nextSeq
		s.unacked.Push(p)
		s.out = append(s.out, p)
	}
	return s.out
}

// setWindow records the peer's advertised window, ignoring updates
// carried by acks older than the newest seen: jitter reorders acks, and
// a stale zero-window from before the peer's buffer drained must not
// re-throttle a flow a newer ack already reopened. Equal-ack updates
// are accepted — while the cumulative ack is pinned (buffer full), each
// re-ack carries the freshest window.
func (s *sendFlow) setWindow(w int, ack uint64) {
	if ack < s.wndAck {
		return
	}
	s.wndAck = ack
	s.wnd = w
}

// ack drops packets covered by the cumulative ack and reports whether
// anything is still outstanding (in flight or queued behind the window).
func (s *sendFlow) ack(cum uint64) (outstanding bool) {
	un := s.unacked.Items()
	i := 0
	for i < len(un) && un[i].Seq <= cum {
		i++
	}
	s.unacked.Drop(i)
	return s.unacked.Len() > 0 || s.queued.Len() > 0
}

// pending returns the unacknowledged in-flight packets, oldest first
// (valid until the flow next changes). Queued-behind-window packets are
// not pending: they have no sequence number yet and must not be
// retransmitted.
func (s *sendFlow) pending() []Packet { return s.unacked.Items() }

// done reports whether every submission has been sent and acknowledged.
func (s *sendFlow) done() bool { return s.unacked.Len() == 0 && s.queued.Len() == 0 }

// recvFlow is the receiving half: it reassembles the sequence space,
// holding out-of-order arrivals until the gap fills.
type recvFlow struct {
	next uint64 // next expected seq (first is 1)
	held map[uint64]Packet
	run  []Packet // accept's result, reused
}

// accept processes one sequenced packet and returns the run of packets
// now deliverable in order (nil for duplicates and out-of-order holds).
// The run is valid until the next accept.
func (r *recvFlow) accept(p Packet) []Packet {
	if r.next == 0 {
		r.next = 1
	}
	if p.Seq < r.next {
		return nil // duplicate of something already delivered
	}
	if p.Seq > r.next {
		if r.held == nil {
			r.held = make(map[uint64]Packet)
		}
		r.held[p.Seq] = p
		return nil
	}
	clear(r.run)
	run := append(r.run[:0], p)
	r.next++
	for {
		q, ok := r.held[r.next]
		if !ok {
			break
		}
		delete(r.held, r.next)
		run = append(run, q)
		r.next++
	}
	r.run = run
	return run
}

// unaccept returns undeliverable packets to the reassembly buffer and
// rewinds the expected sequence: they are treated as never received, so
// they stay unacknowledged and the peer's retransmission redelivers
// them. Used when the socket buffer is full.
func (r *recvFlow) unaccept(pkts []Packet) {
	if len(pkts) == 0 {
		return
	}
	if r.held == nil {
		r.held = make(map[uint64]Packet)
	}
	// The first packet becomes the expected seq again and will come back
	// by retransmission; holding it too would leave a stale entry behind.
	for _, p := range pkts[1:] {
		r.held[p.Seq] = p
	}
	r.next = pkts[0].Seq
}

// cumAck returns the highest contiguous sequence received so far.
func (r *recvFlow) cumAck() uint64 {
	if r.next == 0 {
		return 0
	}
	return r.next - 1
}
