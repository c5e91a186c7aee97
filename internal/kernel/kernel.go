// Package kernel implements the paper's proposed OS architecture (§4):
// kernel components are autonomous threads running on designated kernel
// cores; system calls are messages sent from application threads to
// kernel-service channels, with no mode transitions; dispatch "via a
// common interface ... is done in this environment by sending to a
// channel".
//
// Services are sharded: a service registers N handler threads
// (RegisterEach), and requests are routed to a shard by key, so
// independent objects never serialise behind each other — this is
// where the scaling comes from. A shard owns its state outright; the
// discipline that keeps it lock-free is that EVERYTHING re-enters as a
// message on the shard's channel: a handler that must wait (for a disk
// interrupt, a timer, a remote ack) returns Deferred and answers later
// when the completion arrives as an ordinary request, rather than
// blocking its thread or sharing state with the completion path.
package kernel

import (
	"fmt"

	"chanos/internal/core"
	"chanos/internal/sim/detmap"
)

// Request is the kernel syscall message format. Reply is the channel the
// caller expects the result on (the paper's RPC idiom).
type Request struct {
	Op    string
	Key   int // routing/sharding key (object id, inode number, ...)
	Arg   core.Msg
	Reply *core.Chan
}

// MsgBytes implements core.Sized: a syscall message is a small fixed
// header plus its argument.
func (r Request) MsgBytes() int {
	n := 48 + len(r.Op)
	if s, ok := r.Arg.(core.Sized); ok {
		n += s.MsgBytes()
	} else if r.Arg != nil {
		n += 16
	}
	return n
}

// Handler processes one request on a service thread and returns the
// reply value. Handlers run on kernel cores and may themselves send
// messages (to drivers, allocators, other services).
type Handler func(t *core.Thread, req Request) core.Msg

// deferredReply is the sentinel type behind Deferred.
type deferredReply struct{}

// Deferred, returned from a Handler, tells the service loop not to send
// a reply now: the handler has retained req.Reply and will answer later,
// when some follow-up message (a disk interrupt, a flush timer) re-enters
// the shard. This is how a service stays lock-free and non-blocking while
// an operation spans I/O: the in-flight state lives in the shard's
// private tables, and the eventual completion message finds it there.
var Deferred core.Msg = deferredReply{}

// Service is a named, sharded kernel component.
type Service struct {
	Name    string
	shards  []*core.Chan
	threads []*core.Thread
	Ops     uint64
}

// ShardFor returns the channel of the shard owning key.
func (s *Service) ShardFor(key int) *core.Chan {
	if key < 0 {
		key = -key
	}
	return s.shards[key%len(s.shards)]
}

// Shards returns the number of shards.
func (s *Service) Shards() int { return len(s.shards) }

// Shard returns shard i's request channel directly, bypassing key
// routing — for self-addressed service messages (a shard arranging its
// own timer tick or completion interrupt must reach itself regardless of
// how client keys are hashed).
func (s *Service) Shard(i int) *core.Chan { return s.shards[i] }

// Kernel is a running chanOS instance: a set of kernel cores and the
// services placed on them.
type Kernel struct {
	RT *core.Runtime

	kernelCores []int
	nextKC      int
	services    map[string]*Service

	// SyscallQueueDepth is the per-shard request channel capacity
	// (asynchronous sends queue up to this depth). Default 64.
	SyscallQueueDepth int
}

// Config controls kernel layout.
type Config struct {
	// KernelCoreFraction is the share of cores dedicated to kernel
	// service threads (ablation A3). Default 0.25.
	KernelCoreFraction float64
	// SyscallQueueDepth is the per-shard queue capacity. Default 64.
	SyscallQueueDepth int
}

// New carves kernel cores out of the machine and returns an empty kernel.
// Kernel cores are spread across the mesh (every 1/fraction-th core) so
// application threads are never far from a kernel core.
func New(rt *core.Runtime, cfg Config) *Kernel {
	frac := cfg.KernelCoreFraction
	if frac <= 0 {
		frac = 0.25
	}
	if frac > 1 {
		frac = 1
	}
	n := rt.NumCores()
	want := int(float64(n) * frac)
	if want < 1 {
		want = 1
	}
	stride := n / want
	if stride < 1 {
		stride = 1
	}
	k := &Kernel{
		RT:                rt,
		services:          make(map[string]*Service),
		SyscallQueueDepth: cfg.SyscallQueueDepth,
	}
	if k.SyscallQueueDepth <= 0 {
		k.SyscallQueueDepth = 64
	}
	for c := 0; c < n && len(k.kernelCores) < want; c += stride {
		k.kernelCores = append(k.kernelCores, c)
	}
	return k
}

// KernelCores returns the cores running kernel services.
func (k *Kernel) KernelCores() []int { return k.kernelCores }

// IsKernelCore reports whether core c hosts kernel service threads.
func (k *Kernel) IsKernelCore(c int) bool {
	for _, kc := range k.kernelCores {
		if kc == c {
			return true
		}
	}
	return false
}

// nextKernelCore hands out kernel cores round-robin for service shards.
func (k *Kernel) nextKernelCore() int {
	c := k.kernelCores[k.nextKC%len(k.kernelCores)]
	k.nextKC++
	return c
}

// Register creates a service with the given shard count (0 = one shard
// per kernel core) and starts its handler threads on kernel cores. Every
// shard runs the same handler; services whose shards carry private state
// (e.g. the netstack's per-shard connection tables) use RegisterEach.
func (k *Kernel) Register(name string, shards int, h Handler) *Service {
	return k.RegisterEach(name, shards, func(int) Handler { return h })
}

// RegisterEach creates a sharded service where mk(i) builds the handler
// for shard i. Because each shard is a single thread, state owned by its
// handler closure needs no locks — per-object serialisation falls out of
// the routing, which is the paper's whole point.
func (k *Kernel) RegisterEach(name string, shards int, mk func(shard int) Handler) *Service {
	if _, dup := k.services[name]; dup {
		panic(fmt.Sprintf("kernel: duplicate service %q", name))
	}
	if shards <= 0 {
		shards = len(k.kernelCores)
	}
	s := &Service{Name: name}
	for i := 0; i < shards; i++ {
		ch := k.RT.NewChan(fmt.Sprintf("%s.%d", name, i), k.SyscallQueueDepth)
		s.shards = append(s.shards, ch)
		h := mk(i)
		tn := fmt.Sprintf("ksvc:%s.%d", name, i)
		th := k.RT.Boot(tn, func(t *core.Thread) {
			for {
				v, ok := ch.Recv(t)
				if !ok {
					return
				}
				req := v.(Request)
				out := h(t, req)
				s.Ops++
				if req.Reply != nil && out != Deferred {
					req.Reply.Send(t, out)
				}
			}
		}, core.OnCore(k.nextKernelCore()))
		s.threads = append(s.threads, th)
	}
	k.services[name] = s
	return s
}

// Service returns a registered service (nil if absent).
func (k *Kernel) Service(name string) *Service { return k.services[name] }

// Call performs a synchronous system call: send the request message to
// the right shard, then receive the reply. No trap, no mode switch — the
// cost is two message hops.
func (k *Kernel) Call(t *core.Thread, service string, key int, op string, arg core.Msg) core.Msg {
	s := k.services[service]
	if s == nil {
		panic(fmt.Sprintf("kernel: no such service %q", service))
	}
	// A thread has at most one Call outstanding, so it reuses one reply
	// channel per kernel; the thread holds it, so it dies with the thread.
	// CallAsync always allocates, since many replies can be in flight.
	reply := t.ReplyChan(k, "syscall.reply")
	s.ShardFor(key).Send(t, Request{Op: op, Key: key, Arg: arg, Reply: reply})
	v, _ := reply.Recv(t)
	return v
}

// CallAsync issues the syscall and returns the reply channel immediately;
// the caller can keep computing and collect the reply later, or batch
// many calls (the exception-less FlexSC pattern, without the kernel-visit
// machinery).
func (k *Kernel) CallAsync(t *core.Thread, service string, key int, op string, arg core.Msg) *core.Chan {
	s := k.services[service]
	if s == nil {
		panic(fmt.Sprintf("kernel: no such service %q", service))
	}
	reply := t.NewChan(service+".reply", 1)
	s.ShardFor(key).Send(t, Request{Op: op, Key: key, Arg: arg, Reply: reply})
	return reply
}

// Post sends a request with no reply expected (one-way message).
func (k *Kernel) Post(t *core.Thread, service string, key int, op string, arg core.Msg) {
	s := k.services[service]
	if s == nil {
		panic(fmt.Sprintf("kernel: no such service %q", service))
	}
	s.ShardFor(key).Send(t, Request{Op: op, Key: key, Arg: arg})
}

// serviceNames returns service names in sorted order (map iteration
// order would make shutdown nondeterministic).
func (k *Kernel) serviceNames() []string {
	return detmap.Keys(k.services)
}

// Stop closes all service channels; service threads drain and exit.
func (k *Kernel) Stop(t *core.Thread) {
	for _, n := range k.serviceNames() {
		for _, ch := range k.services[n].shards {
			if !ch.Closed() {
				ch.Close(t)
			}
		}
	}
}

// StopAsync closes all service channels from harness context.
func (k *Kernel) StopAsync() {
	for _, n := range k.serviceNames() {
		for _, ch := range k.services[n].shards {
			k.RT.CloseAsync(ch)
		}
	}
}
