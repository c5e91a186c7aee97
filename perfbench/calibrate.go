package main

import (
	"container/heap"
	"sync"
	"time"
)

// A shared machine's speed wanders. On the 2-vCPU virtual machine the
// baseline was taken on, the wall-clock request rate of identical
// simulated work moved by up to a quarter between half-minute runs, so
// host times are reported in calibrated seconds: each round is followed
// by a fixed reference task, and the round's wall time is scaled by how
// fast the reference ran on either side of it. The reference is a frozen
// miniature of the simulator's host work (goroutines resumed one at a
// time over channels, a heap of allocated events, a pointer-rich live
// set for the collector); it belongs to the benchmark, so no change to
// chanOS moves it. Wall-clock figures are printed alongside.
const (
	refSteps = 100_000
	// refNominal is the reference rate, in steps per second, that
	// defines a calibrated second: near its median on that machine.
	refNominal = 700_000
)

type refEvent struct {
	at     uint64
	thread int
	_      [6]uint64 // the size of a typical simulator event
}

type refHeap []*refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type refNode struct {
	next *refNode
	_    [8]uint64
}

// reference runs the reference task and returns its rate in steps per
// second.
func reference() float64 {
	const threads = 64
	start := time.Now()
	resume := make([]chan uint64, threads)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := range resume {
		resume[i] = make(chan uint64)
		wg.Add(1)
		go func(in <-chan uint64) {
			defer wg.Done()
			for range in {
				done <- struct{}{}
			}
		}(resume[i])
	}
	h := &refHeap{}
	for i := 0; i < threads; i++ {
		heap.Push(h, &refEvent{at: uint64(i), thread: i})
	}
	live := make([]*refNode, 1<<15)
	x := uint64(1)
	for s := 0; s < refSteps; s++ {
		ev := heap.Pop(h).(*refEvent)
		resume[ev.thread] <- ev.at
		<-done
		x = x*6364136223846793005 + 1442695040888963407
		k := x >> 49 // 15 bits: a slot of live
		live[k] = &refNode{next: live[(k+1)%uint64(len(live))]}
		heap.Push(h, &refEvent{at: ev.at + x>>54, thread: ev.thread})
	}
	rate := refSteps / time.Since(start).Seconds()
	for _, c := range resume {
		close(c)
	}
	wg.Wait()
	return rate
}

// calibrated converts a round's wall time to calibrated seconds using
// the reference rates measured just before and just after it.
func calibrated(rd round, d time.Duration) float64 {
	return d.Seconds() * (rd.refBefore + rd.refAfter) / 2 / refNominal
}
