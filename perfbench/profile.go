package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// hostLayers are the host.* layers a CPU profile folds into, in report
// order. The first eight are this repository's modules.
var hostLayers = []string{
	"sim", "core", "kernel", "machine", "net", "store", "blockdev", "cluster",
	"go_sched", "go_alloc", "go_gc", "other",
}

// Runtime frames that mark a sample as Go runtime work of one kind,
// matched as prefixes of the function name.
var (
	gcFrames = []string{
		"runtime.gc", "runtime.markroot", "runtime.scan", "runtime.greyobject",
		"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge",
		"runtime.wbBuf", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
		"runtime.(*sweepLocked)", "runtime.(*mspan).sweep", "gcWriteBarrier",
	}
	allocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
		"runtime.makeslice", "runtime.growslice", "runtime.makemap",
		"runtime.makechan", "runtime.rawstring", "runtime.rawbyteslice",
		"runtime.convT", "runtime.malg",
	}
	schedFrames = []string{
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m",
		"runtime.schedule", "runtime.findRunnable", "runtime.mcall",
		"runtime.execute", "runtime.gogo", "runtime.chansend", "runtime.chanrecv",
		"runtime.selectgo", "runtime.closechan", "runtime.futex",
		"runtime.notesleep", "runtime.notewakeup", "runtime.stopm",
		"runtime.startm", "runtime.wakep", "runtime.newproc", "runtime.goexit",
		"runtime.sysmon", "runtime.runq", "runtime.lock2", "runtime.unlock2",
		"runtime.semasleep", "runtime.semawakeup", "runtime.osyield",
		"runtime.usleep", "runtime.mPark", "runtime.resetspinning",
		"runtime.checkTimers", "runtime.stealWork", "runtime.casgstatus", "gogo",
	}
)

// layerOf assigns one sample, given its call stack leaf first, to
// exactly one host layer. A leaf inside one of the repository's module
// layers names that layer. Any other leaf (the Go runtime, the standard
// library, packages outside the layers) goes to garbage collection,
// allocation or goroutine scheduling when a frame of that kind is on the
// stack, in that order; otherwise to the nearest caller inside a module
// layer (so container/heap under the engine counts as sim); otherwise
// to other.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if l, ok := moduleLayer(stack[0]); ok {
		return l
	}
	for _, k := range []struct {
		layer  string
		frames []string
	}{{"go_gc", gcFrames}, {"go_alloc", allocFrames}, {"go_sched", schedFrames}} {
		for _, fn := range stack {
			if hasAnyPrefix(fn, k.frames) {
				return k.layer
			}
		}
	}
	for _, fn := range stack[1:] {
		if l, ok := moduleLayer(fn); ok {
			return l
		}
	}
	return "other"
}

func moduleLayer(fn string) (string, bool) {
	for _, l := range hostLayers[:8] {
		pkg := "chanos/internal/" + l
		if strings.HasPrefix(fn, pkg+".") || strings.HasPrefix(fn, pkg+"/") {
			return l, true
		}
	}
	return "", false
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// foldProfile adds each sample of a gzipped pprof CPU profile, weighted
// by its sample count, to the layer layerOf assigns it.
func foldProfile(data []byte, into map[string]int64) error {
	samples, err := parseProfile(data)
	if err != nil {
		return err
	}
	for _, s := range samples {
		into[layerOf(s.stack)] += s.count
	}
	return nil
}

type sample struct {
	stack []string // function names, leaf first, inlined frames expanded
	count int64
}

// parseProfile decodes the parts of a gzipped profile.proto (the format
// runtime/pprof writes) that stack folding needs: samples, locations,
// functions and the string table.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		raws   []rawSample
		locFns = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName = map[uint64]uint64{}   // function id → string index
		strtab []string
	)
	err = walk(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			first := true
			err := walk(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walk(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return walk(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := walk(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(raws))
	for _, rs := range raws {
		s := sample{count: rs.count}
		for _, loc := range rs.locs {
			for _, fn := range locFns[loc] {
				i := fnName[fn]
				if i >= uint64(len(strtab)) {
					return nil, errors.New("profile: function name outside the string table")
				}
				s.stack = append(s.stack, strtab[i])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// appendVarints appends a repeated integer field's values: one value
// when it was written unpacked, every varint in b when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}

// walk calls fn for each field of a protobuf message: v carries varint
// and fixed-width values, b the bytes of length-delimited fields (nil
// for the other wire types).
func walk(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errors.New("profile: short fixed field")
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
