#!/usr/bin/env bash
# verify.sh — the repo's tier-1 gate plus quick experiment and CLI gates.
#
# Usage: scripts/verify.sh [-short]
#   -short   skip the perfbench module, the experiment runs and CLI gates
#            (build/vet/chanos-vet/gofmt/test + race tier only)
set -euo pipefail
cd "$(dirname "$0")/.."

short=0
[ "${1:-}" = "-short" ] && short=1

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== chanos-vet ./... (determinism + no-shared-memory contracts)"
# Hard gate: any non-waived finding from the four custom analyzers
# (mapiter, wallclock, sharedstate, msgownership) fails the build.
# Suppression is only possible via inline, justified
# //chanos:allow waivers, which the tool counts and prints.
go run ./cmd/chanos-vet ./...

echo "== gofmt check"
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$badfmt" >&2
    exit 1
fi

echo "== go test ./..."
go test ./...

echo "== go test -race -short ./..."
# The race tier runs in -short mode too: the simulator's contract is
# no shared memory outside the engine layer, and the detector holds
# the engine/device layer (the one place goroutines are allowed) to
# it. Long sweeps are skipped — the schedules they explore don't add
# new happens-before edges, just more of the same ones.
go test -race -short ./...

if [ "$short" = "0" ]; then
    echo "== perfbench module: go vet + go test"
    # perfbench is its own module (it builds the benchmark from this
    # checkout through a replace directive), so the root ./... never
    # compiles it: a change to any API it reads would break the
    # benchmark's build unseen. ~20 s.
    go -C perfbench vet ./...
    go -C perfbench test ./...

    echo "== simulator microbenchmarks (host ns, bytes and allocs per op)"
    # go test ./... only compiles the root microbenchmarks; run them once
    # so every log shows the allocs/op figures ROADMAP's targets refer
    # to, and the store log path's bytes per write (StoreWriteFlush).
    # The thresholds live in the AllocsPerRun tests and in
    # TestLogPathRecyclesBlocks, not here.
    go test -run '^$' -bench 'Runtime|Engine|StoreWriteFlush' -benchtime 2000x -benchmem .

    echo "== experiment contracts E15-E18 (quick, -json artifacts)"
    # Each table checks its own contracts (stats.Table.Check, the same
    # checks go test runs); chanos-bench exits 1 naming any violation.
    for id in E15 E16 E17 E18; do
        go run ./cmd/chanos-bench -run "$id" -quick -json
    done

    echo "== cluster scenario gate (9 machines, one engine)"
    # chanos-sim's cluster scenario must serve its requests with nothing
    # lost — same seed, same config, one shared engine across 9 machines
    # (the dump → replay-to-event-N → byte-equal redump loop for this
    # scenario is gated by the internal/dump cluster test levels).
    out=$(go run ./cmd/chanos-sim -scenario cluster -machines 3 -rf 2 \
        -cores 8 -requests 200 -keys 120 -seed 9)
    echo "$out"
    echo "$out" | grep -Eq 'served (2[0-9][0-9])/200 requests .* 0 errors, 0 lost' || {
        echo "verify: the cluster scenario dropped requests" >&2
        exit 1
    }

    echo "== core-dump gate (inject disk write failure -> dump -> replay)"
    # A seeded kvload run with one injected log-device write failure must
    # fail-stop the shard and write a machine core dump...
    out=$(go run ./cmd/chanos-sim -scenario kvload -cores 8 -clients 8 \
        -requests 300 -keys 64 -logblocks 64 -seed 7 \
        -fail-writes 1 -dump-on-fail .)
    echo "$out"
    dumpfile=$(echo "$out" | sed -n 's/^dump written: //p')
    [ -n "$dumpfile" ] && [ -s "$dumpfile" ] || {
        echo "verify: injected write failure produced no core dump" >&2
        exit 1
    }
    # ...that passes structural validation...
    go run ./cmd/chanos-dump -validate "$dumpfile" || {
        echo "verify: core dump failed structural validation" >&2
        exit 1
    }
    # ...and time-travels: -replay rebuilds the world from the dump's
    # (seed, config) and must halt at exactly the recorded event count,
    # with the halted machine state matching the dump (the -redump file
    # is byte-compared structurally by chanos-dump -diff).
    rout=$(go run ./cmd/chanos-sim -replay "$dumpfile" -redump DUMP_GATE2.dump.json)
    echo "$rout"
    echo "$rout" | grep -Eq 'halted at event ([0-9]+) \(recorded \1\)' || {
        echo "verify: replay did not halt at the recorded event count" >&2
        exit 1
    }
    go run ./cmd/chanos-dump -diff "$dumpfile" DUMP_GATE2.dump.json || {
        echo "verify: replayed machine state diverges from the dump" >&2
        exit 1
    }
    rm -f "$dumpfile" DUMP_GATE2.dump.json

    echo "== chaos matrix gate (seeded fault schedules, four invariants)"
    # A quick sweep of seeded schedules — kills, disk write failures,
    # wire loss, NIC slowdowns, migrations — fanned across the scenario
    # matrix must come back all green on the four invariants (zero
    # acked-write loss, no client hang, bounded staleness, fail-stop-
    # or-heal). A red exits non-zero and fails the gate; the summary
    # JSON is the CI artifact.
    out=$(go run ./cmd/chanos-sim -chaos-seeds 20 \
        -chaos-out CHAOS_MATRIX.json -dump-on-fail .)
    echo "$out"
    test -s CHAOS_MATRIX.json || {
        echo "verify: CHAOS_MATRIX.json missing or empty" >&2
        exit 1
    }
    grep -q '"rows"' CHAOS_MATRIX.json || {
        echo "verify: CHAOS_MATRIX.json has no rows" >&2
        exit 1
    }

    # ...and the matrix must be able to CATCH a red: a deliberately
    # unsound schedule (silent index bitrot late in the run) must trip
    # the acked-loss invariant, write a machine dump, and that dump's
    # replay must halt at the exact recorded event with byte-equal
    # state — the whole red -> dump -> one-command repro loop.
    if out=$(go run ./cmd/chanos-sim -chaos-schedule "cy:4000000:bitrot:0:3" \
        -seed 7 -shards 2 -clients 12 -requests 240 -readpct 60 \
        -keys 96 -logblocks 64 -dump-on-fail .); then
        echo "verify: the deliberately red bitrot schedule came back green" >&2
        exit 1
    fi
    echo "$out"
    echo "$out" | grep -q 'RED: violations \[acked-loss\]' || {
        echo "verify: the bitrot red named the wrong invariant" >&2
        exit 1
    }
    dumpfile=$(echo "$out" | sed -n 's/^  dump: //p')
    [ -n "$dumpfile" ] && [ -s "$dumpfile" ] || {
        echo "verify: the red chaos run wrote no dump" >&2
        exit 1
    }
    rout=$(go run ./cmd/chanos-sim -replay "$dumpfile")
    echo "$rout"
    echo "$rout" | grep -Eq 'halted at event ([0-9]+) \(recorded \1\)' || {
        echo "verify: chaos replay did not halt at the recorded event count" >&2
        exit 1
    }
    echo "$rout" | grep -q 'matches the dump exactly' || {
        echo "verify: replayed chaos machine state diverges from the dump" >&2
        exit 1
    }
    rm -f "$dumpfile"
fi

echo "verify: OK"
