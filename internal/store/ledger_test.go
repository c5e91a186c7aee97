package store

import (
	"bytes"
	"slices"
	"testing"

	"chanos/internal/core"
)

// TestLedgerObserve: only a PUT answered OK without an error is an
// acked write, and a lower version never overwrites a higher one.
func TestLedgerObserve(t *testing.T) {
	put := KVRequest{Op: WPut, Key: "k", Val: []byte("v")}
	l := Ledger{}
	for _, c := range []struct {
		name      string
		req, resp core.Msg
	}{
		{"get", KVRequest{Op: WGet, Key: "k"}, KVResponse{OK: true, Found: true, Ver: 9}},
		{"delete", KVRequest{Op: WDelete, Key: "k"}, KVResponse{OK: true, Ver: 9}},
		{"not ok", put, KVResponse{Ver: 9}},
		{"err", put, KVResponse{OK: true, Ver: 9, Err: "store: log region full"}},
		{"moved", put, KVResponse{Moved: true, Owner: 1, MapVer: 2}},
		{"not a kv request", 7, KVResponse{OK: true, Ver: 9}},
		{"not a kv response", put, 7},
	} {
		if l.Observe(c.req, c.resp) {
			t.Errorf("%s: observed as an acked PUT", c.name)
		}
	}
	if len(l) != 0 {
		t.Fatalf("ignored exchanges reached the ledger: %v", l)
	}
	if !l.Observe(put, KVResponse{OK: true, Ver: 5}) || l["k"] != 5 {
		t.Fatalf("acked PUT at 5: ledger %v", l)
	}
	if !l.Observe(put, KVResponse{OK: true, Ver: 3}) {
		t.Error("an acked PUT at a lower version is still an acked PUT")
	}
	if l["k"] != 5 {
		t.Fatalf("a lower version overwrote the ledger: %v", l)
	}
}

// auditRun writes two keys, audits a ledger that also claims a newer
// version of one and a key never written, then fail-stops the store
// and audits again. It returns both verdicts and the engine's count.
func auditRun(t *testing.T) (lost, erred, lostAfter, erredAfter []string, fired uint64) {
	p := smallParams()
	p.Shards = 1
	w := newSW(8, p, 31, nil)
	defer w.rt.Shutdown()
	at := func(string) *Store { return w.kv }
	done := false
	w.rt.Boot("app", func(th *core.Thread) {
		w.kv.Put(th, "same", []byte("v1"))
		w.kv.Put(th, "older", []byte("v1"))
		lost, erred = Audit(th, Ledger{"same": 1, "older": 2, "missing": 1}, at)
		w.kv.Disks()[0].InjectWriteFailures(1)
		if r := w.kv.Put(th, "boom", []byte("x")); r.OK {
			t.Errorf("write riding a failed flush was acked: %+v", r)
		}
		lostAfter, erredAfter = Audit(th, Ledger{"same": 1}, at)
		done = true
	})
	w.rt.Run()
	if !done {
		t.Fatal("audit thread never finished")
	}
	return lost, erred, lostAfter, erredAfter, w.eng.Fired()
}

// TestAuditClassifies: a missing key and an older version are lost, a
// read the store refuses is erred — and the audit is deterministic.
func TestAuditClassifies(t *testing.T) {
	lost, erred, lostAfter, erredAfter, fired := auditRun(t)
	if !slices.Equal(lost, []string{"missing", "older"}) || len(erred) != 0 {
		t.Errorf("live audit: lost %v erred %v, want lost [missing older]", lost, erred)
	}
	if len(lostAfter) != 0 || !slices.Equal(erredAfter, []string{"same"}) {
		t.Errorf("audit of a fail-stopped store: lost %v erred %v, want erred [same]", lostAfter, erredAfter)
	}
	if _, _, _, _, again := auditRun(t); again != fired {
		t.Fatalf("same-seed audits fired %d and %d events", fired, again)
	}
}

// TestAuditPlattersTrimmedKey: a key whose only log block is gone from
// the source platters is lost; a key in an earlier block survives.
func TestAuditPlattersTrimmedKey(t *testing.T) {
	p := smallParams()
	p.Shards = 1
	w := newSW(8, p, 33, nil)
	defer w.rt.Shutdown()
	big := bytes.Repeat([]byte("x"), 3000) // one record per 4 KiB block
	done := false
	w.rt.Boot("app", func(th *core.Thread) {
		for _, key := range []string{"key-bravo", "key-alpha"} {
			if r := w.kv.Put(th, key, big); !r.OK {
				t.Errorf("put %s: %+v", key, r)
			}
		}
		done = true
	})
	w.rt.Run()
	if !done {
		t.Fatal("app thread never finished")
	}
	want := Ledger{"key-alpha": 1, "key-bravo": 1}
	if lost, replayed := AuditPlatters(w.kv, want); len(lost) != 0 || replayed != 2 {
		t.Fatalf("intact platters: lost %v, replayed %d, want none lost and 2 replayed", lost, replayed)
	}

	disk := w.kv.Disks()[0]
	trimmed := -1
	for b, data := range disk.SnapshotData() {
		if bytes.Contains(data, []byte("key-alpha")) {
			if trimmed >= 0 {
				t.Fatalf("key-alpha sits in blocks %d and %d", trimmed, b)
			}
			trimmed = b
		}
	}
	if trimmed < 0 {
		t.Fatal("key-alpha is in no block")
	}
	disk.Trim(trimmed, 1)
	lost, _ := AuditPlatters(w.kv, want)
	if !slices.Equal(lost, []string{"key-alpha"}) {
		t.Fatalf("after trimming block %d: lost %v, want [key-alpha]", trimmed, lost)
	}
}
