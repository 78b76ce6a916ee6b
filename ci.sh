#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
# The build environment is offline; --offline keeps cargo from trying to
# hit crates.io (everything external is vendored under crates/vendor/).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings, tests and benches included) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc (deny warnings: broken or private intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "== cargo test =="
cargo test -q --workspace --offline

echo "== perfbench: fmt, clippy and tests (its own workspace) =="
# perfbench is its own workspace, so the commands above do not reach it:
# lint it, and run its unit tests (results-row checker, statistics,
# what-if plans) and CLI tests (a perturbed results row must fail a run).
cargo fmt --manifest-path perfbench/Cargo.toml --check
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== perfbench smoke (results-checked benchmark) =="
# One second of the compute-bound fig13 grid through the benchmark in
# perfbench/ (its own workspace, built from this tree). Every row is
# checked against the committed results/, so a non-zero exit means the
# simulator's output moved. Throughput regressions are caught by the
# benchmark's sim_mips bound (BENCHMARK.json), not here. Only the metric
# and failure lines are shown; pipefail keeps perfbench's exit status.
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload grid-compute --seed 1 --seconds 1 --trace 0 \
    | grep -E '^(metric|failure|failed_frac)'
# One second of the memory-bound fig13 grid plus fig23's four
# compressors, also checked against results/: these cells run mostly
# stepped physics (loads and stores end every batched ALU run), which the
# compute-bound smoke above barely exercises.
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload grid-memory --seed 1 --seconds 1 --trace 0 \
    | grep -E '^(metric|failure|failed_frac)'
# One second of the what-if service: cold queries on fresh trace seeds
# (lazy trace generation), warm queries and exact repeats. A non-zero
# exit means a reply was not ok or a repeat was not byte-identical.
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload whatif --seed 1 --seconds 1 --trace 0 \
    | grep -E '^(metric|failure|failed_frac)'

echo "== faultgrid smoke (crash-consistency gate) =="
# Exhaustive injection on the short kernels, sampled injection on two
# apps across all three designs, and the harness's own mutation checks;
# the experiment asserts internally, so any recovery regression fails
# the gate here.
FAULTGRID_OUT="$(mktemp -d)"
LEDGER_OUT="$(mktemp -d)"
CACHESCOPE_OUT="$(mktemp -d)"
CACHESCOPE_BROKEN="$(mktemp -d)"
LEAKSCOPE_OUT="$(mktemp -d)"
RESUME_BASE="$(mktemp -d)"
RESUME_CUT="$(mktemp -d)"
FLEET_A="$(mktemp -d)"
FLEET_B="$(mktemp -d)"
SERVE_DIR="$(mktemp -d)"
CLI_OUT="$(mktemp -d)"
trap 'rm -rf "$FAULTGRID_OUT" "$LEDGER_OUT" "$CACHESCOPE_OUT" "$CACHESCOPE_BROKEN" "$LEAKSCOPE_OUT" "$RESUME_BASE" "$RESUME_CUT" "$FLEET_A" "$FLEET_B" "$SERVE_DIR" "$CLI_OUT"' EXIT
cargo run --release --offline -q -p kagura-bench --bin repro -- \
    faultgrid --scale 0.005 --apps sha,crc32 --out "$FAULTGRID_OUT" --quiet

echo "== ledger-audit smoke (energy-conservation gate) =="
# A short grid under --audit-strict: any power cycle whose energy ledger
# fails harvested = consumed + delta-stored aborts its cell, and repro
# exits non-zero on any violation or failed cell. energy_waste also dumps
# flight-record streams, which `repro explain` then parses back strictly
# (every JSONL line must round-trip) — the flight-record schema gate.
cargo run --release --offline -q -p kagura-bench --bin repro -- \
    summary energy_waste --scale 0.01 --apps sha,crc32 --audit-strict \
    --out "$LEDGER_OUT" --telemetry "$LEDGER_OUT" --quiet
cargo run --release --offline -q -p kagura-bench --bin repro -- \
    explain "$LEDGER_OUT" > /dev/null
echo "ledger balanced across the smoke grid; flight records parse back"

echo "== cachescope + flight-record smoke (JSONL parse-back gate) =="
# One observed run dumps both a cachescope stream (boundary rows, sampled
# occupancy snapshots, summary histograms) and a flight record; `repro
# explain` then parses both back strictly — every line must round-trip
# or the command fails with a file:line diagnostic naming the offending
# field. simrun itself also re-parses its cachescope dump before
# rendering, so this exercises that schema gate twice.
cargo run --release --offline -q -p kagura-bench --bin simrun -- \
    sha --scale 0.02 --governor kagura \
    --cachescope "$CACHESCOPE_OUT/cachescope_sha.jsonl" --cachescope-period 4096 \
    --flight-record "$CACHESCOPE_OUT/flight_sha.jsonl" > /dev/null 2>&1
EXPLAINED="$(cargo run --release --offline -q -p kagura-bench --bin repro -- \
    explain "$CACHESCOPE_OUT" 2>&1 > /dev/null)"
grep -q "rendered 2 report(s)" <<< "$EXPLAINED"
# The negative half of the gate: the same stream with one field renamed
# on line 2 (the first `cycle` row) must fail `repro explain`, and the
# diagnostic must name the file, the line and the field.
sed '2s/"cycle":/"cycme":/' "$CACHESCOPE_OUT/cachescope_sha.jsonl" \
    > "$CACHESCOPE_BROKEN/cachescope_sha.jsonl"
if BROKEN_ERR="$(cargo run --release --offline -q -p kagura-bench --bin repro -- \
    explain "$CACHESCOPE_BROKEN" 2>&1 > /dev/null)"; then
    echo "repro explain accepted a cachescope stream with a renamed field" >&2
    exit 1
fi
grep -q "cachescope_sha.jsonl:2:" <<< "$BROKEN_ERR"
grep -q '`cycle`' <<< "$BROKEN_ERR"
echo "cachescope and flight-record streams parse back strictly; a renamed field is rejected"

echo "== leakscope smoke (timing side-channel gate) =="
# The attack must recover the planted secret through C-PACK probe
# timings alone, the randomized-threshold countermeasure must strictly
# reduce the measured mutual information on the same cell, and both
# dumped streams must parse back strictly (simrun re-parses its own dump
# before rendering; `repro explain` parses them again below).
cargo run --release --offline -q -p kagura-bench --bin simrun -- \
    sha --algorithm cpack --governor always --leak-secret c4c4f33dc0ffee01 \
    --leakscope "$LEAKSCOPE_OUT/leakscope_cpack_always.jsonl" --json \
    > "$LEAKSCOPE_OUT/always.json" 2>/dev/null
cargo run --release --offline -q -p kagura-bench --bin simrun -- \
    sha --algorithm cpack --governor rand-threshold --leak-secret c4c4f33dc0ffee01 \
    --leakscope "$LEAKSCOPE_OUT/leakscope_cpack_rand_threshold.jsonl" --json \
    > "$LEAKSCOPE_OUT/rand.json" 2>/dev/null
python3 - "$LEAKSCOPE_OUT" <<'EOF'
import json, sys
out = sys.argv[1]
always = json.load(open(out + "/always.json"))["leakscope"]
rand = json.load(open(out + "/rand.json"))["leakscope"]
assert always["secret_recovered"], always
assert always["recovered"] == "c4c4f33dc0ffee01", always
assert always["recovered_bytes"] == 8 and always["secret_bytes"] == 8, always
assert rand["mi_bits"] < always["mi_bits"], (rand["mi_bits"], always["mi_bits"])
print(f"secret recovered through C-PACK timing alone; "
      f"MI {always['mi_bits']:.3f} -> {rand['mi_bits']:.3f} bits under rand-threshold")
EOF
cargo run --release --offline -q -p kagura-bench --bin repro -- \
    explain "$LEAKSCOPE_OUT" > /dev/null
echo "leakscope streams parse back strictly"

echo "== kill-and-resume gate (journaled resumable runs) =="
# A short two-experiment run, SIGKILLed mid-grid once the first artifact
# lands, then resumed; the resumed tree must be byte-identical to an
# uninterrupted run of the same invocation (the journal and any swept
# .tmp debris are the only permitted differences).
REPRO="$(pwd)/target/release/repro"
cargo build --release --offline -q -p kagura-bench --bin repro
RESUME_ARGS=(fig3 fig13 --scale 1.0 --apps sha,crc32 --jobs 1 --quiet)
"$REPRO" "${RESUME_ARGS[@]}" --out "$RESUME_BASE" > /dev/null

"$REPRO" "${RESUME_ARGS[@]}" --out "$RESUME_CUT" > /dev/null 2>&1 &
REPRO_PID=$!
# SIGKILL as soon as fig3's artifact is in place, i.e. mid-fig13-grid.
for _ in $(seq 1 600); do
    [ -f "$RESUME_CUT/fig3.json" ] && break
    sleep 0.01
done
kill -9 "$REPRO_PID" 2>/dev/null || true
wait "$REPRO_PID" 2>/dev/null || true

"$REPRO" "${RESUME_ARGS[@]}" --resume "$RESUME_CUT" > /dev/null
diff -r --exclude run_journal.jsonl --exclude '*.tmp' "$RESUME_BASE" "$RESUME_CUT"
echo "resume converged: output tree is byte-identical to the uninterrupted run"

echo "== fleet smoke (sharding-invariant population reports) =="
# The same small campaign under different worker counts and shard sizes
# must produce byte-identical fleet.json/fleet.jsonl — shard aggregates
# merge exactly, so neither parallelism nor shard boundaries may leak
# into the report. `repro explain` is not needed here: the fleet
# experiment already parses its own JSONL stream back strictly before
# exiting, so each run below is also a schema round-trip check.
FLEET_ARGS=(fleet --scale 0.002 --fleet-size 12 --fleet-seed 1 --quiet)
"$REPRO" "${FLEET_ARGS[@]}" --jobs 1 --fleet-shard 5 --out "$FLEET_A" > /dev/null
"$REPRO" "${FLEET_ARGS[@]}" --jobs 4 --fleet-shard 3 --out "$FLEET_B" > /dev/null
diff -r --exclude run_journal.jsonl --exclude fleet_journal.jsonl "$FLEET_A" "$FLEET_B"
python3 -m json.tool "$FLEET_A/fleet.json" > /dev/null
echo "fleet reports byte-identical across --jobs/--fleet-shard; stream parses back"

echo "== CLI typo gate (unknown flags must suggest, not run) =="
# A misspelled flag must fail fast with a did-you-mean suggestion rather
# than being swallowed as an experiment id or positional argument.
if "$REPRO" fleet --fleet-sizee 12 --out "$FLEET_A" > /dev/null 2>&1; then
    echo "repro accepted a misspelled flag" >&2
    exit 1
fi
# (|| true: the non-zero exit is the point; pipefail would otherwise trip.)
("$REPRO" fleet --fleet-sizee 12 2>&1 || true) | grep -q 'did you mean `--fleet-size`'
echo "misspelled flags are rejected with suggestions"

echo "== exit-code gate (usage=2, config=3, runtime=1) =="
# Scripted callers assert on *why* an invocation failed, so the failure
# classes must stay distinguishable (see kagura_bench::cli::CliError).
SIMRUN="$(pwd)/target/release/simrun"
TRACEGEN="$(pwd)/target/release/tracegen"
cargo build --release --offline -q -p kagura-bench --bin simrun --bin tracegen
expect_exit() {
    local want="$1"; shift
    local rc=0
    "$@" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "expected exit $want from: $* (got $rc)" >&2
        exit 1
    fi
}
expect_exit 2 "$SIMRUN" --frobnicate              # usage: unknown flag
expect_exit 2 "$SIMRUN"                           # usage: missing app
expect_exit 3 "$SIMRUN" sha --governor zorp       # config: bad enum value
expect_exit 3 "$SIMRUN" nosuchapp                 # config: unknown app
expect_exit 3 "$SIMRUN" sha --cap -1              # config: non-positive capacitance
expect_exit 3 "$SIMRUN" sha --cache 100           # config: inconsistent cache geometry
expect_exit 2 "$SIMRUN" sha --scale 0.01 --scale nan  # usage: repeated flag
expect_exit 2 "$TRACEGEN" gen rfhome 3 --sede 5   # usage: misspelled flag
expect_exit 2 "$REPRO" --scael 1                  # usage: misspelled flag
expect_exit 3 "$REPRO" nosuchexperiment           # config: unknown experiment
expect_exit 2 "$REPRO" fig3 --scale 0.01 --scale 0.02 --out "$CLI_OUT"  # usage: repeated flag
expect_exit 3 "$REPRO" fig13 --scale nan --apps sha --out "$CLI_OUT"    # config: NaN scale
expect_exit 1 "$TRACEGEN" constant -5 10          # runtime: negative power, a positional
echo "exit codes distinguish usage/config/runtime failures"

echo "== serve gate (long-running what-if service) =="
# One server at workers=1/queue-depth=0: a byte-identical cached repeat,
# a shed under a concurrent burst while an in-flight query completes, a
# typed budget exhaustion that frees its worker, then a SIGTERM drain
# that must exit 0 and leave a warm cache behind.
"$SIMRUN" serve --tcp 127.0.0.1:0 --port-file "$SERVE_DIR/port" \
    --state "$SERVE_DIR/state.jsonl" --workers 1 --queue-depth 0 \
    > /dev/null 2> "$SERVE_DIR/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 500); do
    [ -s "$SERVE_DIR/port" ] && break
    sleep 0.01
done
python3 - "$(cat "$SERVE_DIR/port")" <<'EOF'
import json, socket, sys, threading

host, port = sys.argv[1].rsplit(":", 1)

def rpc(line):
    s = socket.create_connection((host, int(port)), timeout=60)
    s.sendall(line.encode() + b"\n")
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = s.recv(65536)
        if not chunk:
            break
        buf += chunk
    s.close()
    return buf, json.loads(buf)

QUERY = '{"op":"query","id":"ci","app":"sha","scale":0.004,"governor":"kagura"}'
first_bytes, first = rpc(QUERY)
assert first["ok"], first
second_bytes, _ = rpc(QUERY)
assert second_bytes == first_bytes, "cached repeat must be byte-identical"

# Overload burst: 8 concurrent uncached queries against one worker and
# an empty queue. In-flight work must complete; the excess must shed
# with a typed `overloaded` error carrying a retry hint.
results = []
def worker(i):
    q = {"op": "query", "id": i, "app": "crc32", "scale": 0.01, "seed": i}
    results.append(rpc(json.dumps(q))[1])
threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
oks = [r for r in results if r["ok"]]
sheds = [r for r in results if not r["ok"] and r["error"]["kind"] == "overloaded"]
assert oks, f"in-flight queries must complete under overload: {results}"
assert sheds, f"a saturated server must shed: {results}"
assert all(s["error"]["retry_after_ms"] > 0 for s in sheds), sheds

# A poison query under a tiny budget is a typed error, not a wedge.
_, r = rpc('{"op":"query","id":"poison","app":"sha","scale":0.01,"max_insts":50}')
assert not r["ok"] and r["error"]["kind"] == "budget_exhausted", r
assert r["error"]["executed_insts"] >= 50, r
_, h = rpc('{"op":"health","id":"h"}')
assert h["health"]["status"] == "ok", h

_, m = rpc('{"op":"metrics","id":"m"}')
counters = {c["name"]: c["value"] for c in m["metrics"]["registry"]["counters"]}
assert counters["server_cache_hits"] >= 1, counters
assert counters["server_shed"] >= 1, counters
assert counters["server_budget_exhausted"] >= 1, counters
print("serve: cache hit, overload shed, and budget exhaustion all observed")
EOF
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"   # graceful drain must exit 0 (set -e enforces it)
[ -s "$SERVE_DIR/state.jsonl" ] || { echo "drain left no cache state" >&2; exit 1; }
echo "serve drained cleanly on SIGTERM with persisted cache state"

echo "ci: all checks passed"
