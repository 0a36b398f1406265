#!/usr/bin/env bash
# Offline CI gate: formatting, lints, the tier-1 verify (build + tests),
# the workspace suite at default and at one test thread, the Table II
# stdout golden, a <10 s Table II smoke run (LSTM subset, serial vs parallel identity +
# BENCH JSON emission), a seeded fault-injection chaos gate, a
# budget-exhaustion/cancellation smoke, a cold-vs-warm schedule-cache
# round-trip, an autotune smoke (same-seed searches byte-identical, warm
# re-runs replay persisted configs with zero search, candidates 2..N of
# each search reuse one compile session with zero dependence recompute),
# a batched throughput smoke (whole op population in one scatter-gather:
# byte-identical to per-op round trips, >=5x fewer round trips, >=1.5x
# faster, batch counters live), a polyjectd daemon smoke test (remote
# replies byte-identical to local), the multi-node router chaos gate
# (>=200 injected faults across a 3-daemon fleet, zero corruption,
# same-seed replays identical), and a 3-node router smoke (cold compile
# through the router, a batched CLI leg with in-batch dedup plus
# fleet-aggregated stats, owner shard killed, warm hit served by its
# replica with zero solver work).
#
# Everything here works without network access; fmt/clippy are skipped
# with a notice if the toolchain components are missing.

set -euo pipefail
cd "$(dirname "$0")/.."

step() { echo; echo "=== $* ==="; }

step "cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
  cargo fmt --all -- --check
else
  echo "rustfmt unavailable; skipping"
fi

step "cargo clippy -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
  cargo clippy --workspace --all-targets --release -- -D warnings
else
  echo "clippy unavailable; skipping"
fi

step "tier-1 verify: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

step "workspace tests (every crate, incl. serve daemon/cache suites)"
cargo test --workspace -q

step "workspace tests, one test thread"
# Tests that share hidden state pass or fail depending on how many run
# at once: run the suite both ways.
cargo test --workspace -q -- --test-threads=1

step "Table II golden (table2 stdout byte-identical to scripts/table2.golden.txt)"
# stdout is deterministic; the wall-clock line goes to stderr. Re-record
# the golden only for a deliberate behaviour change, and say why.
cargo run --release -q -p polyject-bench --bin table2 2>/dev/null \
  | diff -u scripts/table2.golden.txt -
echo "ok: Table II matches the checked-in golden"

step "solver identity gate (integer tableau / warm start / FM vs references)"
cargo test --release -q -p polyject-sets --test differential
echo "ok: rewritten solver paths agree with retained rational references"

step "seeded chaos gate (cache I/O + socket-frame fault injection)"
cargo test --release -q -p polyject-serve --test chaos
echo "ok: >=200 injected faults, no hangs, no corruption served, replay byte-identical"

step "budget-exhaustion smoke (graceful degradation + cancellation)"
cargo test --release -q -p polyject-sets --test budget
cargo test --release -q -p polyject-core --test budget_degradation
echo "ok: exhausted budgets degrade down the ladder; cancellation leaves no partial state"

step "table2 --fast smoke (serial vs parallel identity, <10 s)"
smoke_json="$(mktemp)"
scratch="$(mktemp -d)"
# Stop (and reap) any server still running before removing its
# directory, so none outlives the script holding the caller's pipes.
cleanup() {
  local pids="${daemon_pid:-} ${router_pid:-} ${shard_pids[*]:-}"
  if [ -n "${pids// /}" ]; then
    kill $pids 2>/dev/null || true
    wait $pids 2>/dev/null || true
  fi
  rm -f "$smoke_json"
  rm -rf "$scratch"
}
trap cleanup EXIT
cargo run --release -q -p polyject-bench --bin table2 -- \
  --fast --bench --stats --json "$smoke_json" >/dev/null
grep -q '"identical": true' "$smoke_json"
echo "ok: serial and parallel --fast runs identical"
# Counters snapshot: the solver section must report real work (a silently
# zeroed counter would mean the instrumentation came unwired).
python3 - "$smoke_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
s = doc["serial"]["solver"]
assert s["lp_solves"] > 0, s
assert s["ilp_solves"] > 0, s
assert s["fm_eliminations"] > 0, s
assert s["lp_phase1_pivots"] + s["lp_phase2_pivots"] > 0, s
print("   solver counters:", json.dumps(s))
if doc.get("parallel_skipped"):
    print("   (single-core box: parallel leg ran serially as a determinism repeat)")
EOF
echo "ok: solver counters snapshot recorded"
# Regression gate: the fast-bench counters are deterministic for one
# code revision, so a drift beyond +/-10% of the checked-in snapshot
# means solver work silently grew (or instrumentation broke). Update
# scripts/solver_counters.snapshot.json when a deliberate change moves them.
python3 - "$smoke_json" scripts/solver_counters.snapshot.json <<'EOF'
import json, sys
live = json.load(open(sys.argv[1]))["serial"]["solver"]
want = json.load(open(sys.argv[2]))
bad = []
for key in ("lp_solves", "lp_phase1_pivots", "ilp_nodes", "tab_i64_solves",
            "farkas_linearizations", "dependence_analyses"):
    got, exp = live[key], want[key]
    if not exp * 0.9 <= got <= exp * 1.1:
        bad.append(f"{key}: {got} outside +/-10% of snapshot {exp}")
    else:
        print(f"   {key}: {got} (snapshot {exp}) ok")
if bad:
    sys.exit("solver counter regression:\n  " + "\n  ".join(bad)
             + "\n  (if intentional, re-record scripts/solver_counters.snapshot.json)")
EOF
echo "ok: solver counters within +/-10% of checked-in snapshot"
# Escalation-rate gate: the machine-int fast path is only a win while
# overflow escalations to the 128-bit tableau stay rare. More than 1% of
# LP solves escalating means the i64 headroom heuristics regressed.
python3 - "$smoke_json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))["serial"]["solver"]
esc, lps = s["tab_overflow_escalations"], s["lp_solves"]
assert s["tab_i64_solves"] > 0, "i64 fast path never engaged"
if esc > 0.01 * lps:
    sys.exit(f"escalation rate too high: {esc}/{lps} LP solves "
             "escalated to the wide tableau (>1%)")
print(f"   escalations: {esc}/{lps} lp_solves ({100*esc/max(lps,1):.2f}%) ok")
EOF
echo "ok: i64 fast path engaged, overflow escalations under 1%"

step "schedule-cache round-trip (table2 --fast --cache-bench)"
cache_json="$scratch/cache_bench.json"
cargo run --release -q -p polyject-bench --bin table2 -- \
  --fast --cache-bench --cache-dir "$scratch/t2cache" --json "$cache_json" >/dev/null
grep -q '"identical": true' "$cache_json"
# The warm run must perform zero schedule solves.
python3 - "$cache_json" <<'EOF'
import json, sys
warm = json.load(open(sys.argv[1]))["cache"]["warm"]
assert warm["misses"] == 0, warm
assert all(v == 0 for v in warm["solver"].values()), warm
EOF
echo "ok: warm table2 run fully cached, zero solver work"

step "batched throughput smoke (one scatter-gather vs per-op round trips)"
tp_json="$scratch/throughput.json"
# Full op population: the duplicates across networks are what the
# daemons' in-batch dedup counter needs to prove itself on.
cargo run --release -q -p polyject-bench --bin table2 -- \
  --throughput --json "$tp_json" >/dev/null 2>&1
python3 - "$tp_json" <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))["throughput"]
assert t["identical"], f"batched replies diverged on {t['mismatches']} item(s)"
assert t["sequential"]["ok"] == t["items"] and t["batched"]["ok"] == t["items"], t
# One persistent connection per shard: the whole network compiles in
# round trips bounded by the fleet size, not the op count.
assert t["batched"]["round_trips"] <= t["shards"] + 1, t
assert t["sequential"]["round_trips"] >= 5 * t["batched"]["round_trips"], t
# Batch-counter snapshot gate: the daemons must report the batch they
# served — admission, items, in-batch dedup, and cross-config
# schedule-session sharing all engaged.
assert t["batch_requests"] == t["shards"], t["batch_requests"]
assert t["batch_items"] == t["items"], (t["batch_items"], t["items"])
assert t["batch_dedup_hits"] > 0, "in-batch dedup never engaged"
assert t["batch_session_reuses"] > 0, "no batch shared a schedule session"
assert t["speedup"] >= 1.5, f"batched speedup {t['speedup']:.2f}x under the 1.5x floor"
print(f"   {t['items']} items ({t['unique_items']} unique): "
      f"{t['sequential']['round_trips']} -> {t['batched']['round_trips']} round trips, "
      f"speedup {t['speedup']:.2f}x, dedup {t['batch_dedup_hits']}, "
      f"session reuses {t['batch_session_reuses']}")
EOF
echo "ok: batched fleet run byte-identical to per-op round trips,"
echo "    >=5x fewer round trips, >=1.5x faster, batch counters live"

step "autotune smoke (deterministic search, persisted zero-search replay)"
tune_a="$scratch/tune_a.json"
tune_b="$scratch/tune_b.json"
# Two independent cold searches with the same seed must agree exactly.
cargo run --release -q -p polyject-bench --bin table2 -- \
  --fast --tune --tune-seed 7 --cache-dir "$scratch/tunecache_a" --json "$tune_a" >/dev/null
cargo run --release -q -p polyject-bench --bin table2 -- \
  --fast --tune --tune-seed 7 --cache-dir "$scratch/tunecache_b" --json "$tune_b" >/dev/null
python3 - "$tune_a" "$tune_b" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))["tune"]
b = json.load(open(sys.argv[2]))["tune"]
for doc in (a, b):
    doc.pop("wall_s")
assert a == b, "same-seed cold searches diverged"
assert a["searched"] == a["unique_ops"] and a["replayed"] == 0, a
for op in a["ops"]:
    assert op["tuned_ms"] <= op["default_ms"], op
assert a["geomean_speedup"] >= 1.0, a["geomean_speedup"]
# Compile-session gate: every searched op evaluates all its candidates
# through one session, so candidates 2..N must perform zero dependence
# re-analysis and zero Farkas re-linearization while the session serves
# their schedules from its warm prefix/memo.
reuses = 0
for op in a["ops"]:
    assert op["warm_dependence_analyses"] == 0, op
    assert op["warm_farkas_linearizations"] == 0, op
    assert op["session_reuses"] > 0, op
    reuses += op["session_reuses"]
print(f"   {a['unique_ops']} op(s) tuned, geomean {a['geomean_speedup']:.3f}x, "
      f"{reuses} session reuse(s), zero warm dependence work")
EOF
echo "ok: same-seed searches byte-identical, tuned never loses to default,"
echo "    candidates 2..N reuse one compile session (no dependence recompute)"
# A warm re-run replays every persisted config with zero search.
cargo run --release -q -p polyject-bench --bin table2 -- \
  --fast --tune --tune-seed 7 --cache-dir "$scratch/tunecache_a" --json "$tune_a" >/dev/null
python3 - "$tune_a" "$tune_b" <<'EOF'
import json, sys
warm = json.load(open(sys.argv[1]))["tune"]
cold = json.load(open(sys.argv[2]))["tune"]
assert warm["searched"] == 0 and warm["replayed"] == warm["unique_ops"], warm
for w, c in zip(warm["ops"], cold["ops"]):
    assert w["op"] == c["op"], (w, c)
    assert w["default_ms"] == c["default_ms"] and w["tuned_ms"] == c["tuned_ms"], (w, c)
EOF
cargo run --release -q -p polyject-serve --bin polyject-cache -- "$scratch/tunecache_a" stats \
  | grep -q 'tuned-config'
echo "ok: warm re-run applied persisted tuned configs with zero search"

step "polyjectd daemon smoke (remote == local, cache hit on repeat)"
# Background servers run from their built binaries, not `cargo run`, so
# `$!`, `wait` and the EXIT trap hold the servers' own pids.
cargo build --release -q -p polyject-serve --bin polyjectd --bin polyject-router
bin="${CARGO_TARGET_DIR:-target}/release"
sock="$scratch/d.sock"
"$bin/polyjectd" --socket "$sock" --cache-dir "$scratch/dcache" >"$scratch/daemon.out" &
daemon_pid=$!
for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "daemon never bound $sock"; exit 1; }
pjc() { cargo run --release -q -p polyject-serve --bin polyjectc -- "$@"; }
src=examples/running_example.pj
pjc "$src" --config infl --emit cuda > "$scratch/local.out"
pjc "$src" --config infl --emit cuda --remote "$sock" > "$scratch/remote1.out"
pjc "$src" --config infl --emit cuda --remote "$sock" > "$scratch/remote2.out"
cmp "$scratch/local.out" "$scratch/remote1.out"
cmp "$scratch/remote1.out" "$scratch/remote2.out"
cargo run --release -q -p polyject-serve --bin polyject-cache -- "$scratch/dcache" stats \
  | grep -q '"entries":1'
kill -TERM "$daemon_pid"
wait "$daemon_pid"
grep -q '"hits":1' "$scratch/daemon.out"
echo "ok: remote replies byte-identical to local, second request cached"

step "router chaos gate (3-node fleet: >=200 faults, zero corruption, replay identical)"
cargo test --release -q -p polyject-serve --test router_chaos
echo "ok: hedged/retried/failed-over under multi-node chaos; no corrupt artifact served"

step "3-node router smoke (cold via router, owner killed, warm hit via replica)"
shard_pids=()
for i in 0 1 2; do
  "$bin/polyjectd" --socket "$scratch/shard$i.sock" --cache-dir "$scratch/shard$i-cache" \
    >"$scratch/shard$i.out" &
  shard_pids+=($!)
done
for i in 0 1 2; do
  for _ in $(seq 1 100); do [ -S "$scratch/shard$i.sock" ] && break; sleep 0.1; done
  [ -S "$scratch/shard$i.sock" ] || { echo "shard $i never bound"; exit 1; }
done
# --hot-threshold 1: the first serve of a key immediately replicates it,
# so a single cold compile is enough to survive the owner's death.
"$bin/polyject-router" --socket "$scratch/router.sock" --hot-threshold 1 \
  --shard "$scratch/shard0.sock" --shard "$scratch/shard1.sock" \
  --shard "$scratch/shard2.sock" >"$scratch/router.out" 2>/dev/null &
router_pid=$!
for _ in $(seq 1 100); do [ -S "$scratch/router.sock" ] && break; sleep 0.1; done
[ -S "$scratch/router.sock" ] || { echo "router never bound"; exit 1; }
pjc "$src" --config infl --emit cuda --remote "$scratch/router.sock" > "$scratch/cold.out"
cmp "$scratch/local.out" "$scratch/cold.out"
pjcache() { cargo run --release -q -p polyject-serve --bin polyject-cache -- "$@"; }
# Batched CLI leg through the router: the same kernel three times in one
# batch file — one round trip, all three answered, two items deduped
# in-batch on the owning daemon (the kernel is already cached, so the
# fleet's miss count stays untouched for the owner probe below).
# Comments are stripped so the three copies are textually identical:
# in-batch dedup keys on the submitted source, not the canonical form.
sed '/^[[:space:]]*#/d' "$src" > "$scratch/one.pj"
cat "$scratch/one.pj" "$scratch/one.pj" "$scratch/one.pj" > "$scratch/batch.pj"
pjc --batch "$scratch/batch.pj" --config infl --remote "$scratch/router.sock" \
  > "$scratch/batch.out"
grep -q '3 kernel(s), 3 ok, 0 failed, 1 round trip(s)' "$scratch/batch.out"
# Fleet-wide stats aggregation over a comma-separated endpoint list: the
# totals must show the batch the daemons served.
pjcache stats --remote "$scratch/shard0.sock,$scratch/shard1.sock,$scratch/shard2.sock" \
  > "$scratch/fleet-stats.json"
python3 - "$scratch/fleet-stats.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["status"] == "ok" and doc["reachable"] == 3, doc
t = doc["totals"]["stats"]
assert t["batch_requests"] >= 1, t
assert t["batch_items"] >= 3, t
assert t["batch_dedup_hits"] >= 2, t
assert len(doc["per_shard"]) == 3, doc
print(f"   fleet totals: batch_requests {t['batch_requests']}, "
      f"batch_items {t['batch_items']}, batch_dedup_hits {t['batch_dedup_hits']}")
EOF
echo "ok: polyjectc --batch via router (1 round trip), fleet stats aggregated"
# The owner is the only shard that compiled (sole cache miss); kill it hard.
owner=""
for i in 0 1 2; do
  if pjcache stats --remote "$scratch/shard$i.sock" | grep -q '"misses":1'; then
    owner=$i
  fi
done
[ -n "$owner" ] || { echo "no shard reported the cold-compile miss"; exit 1; }
kill -KILL "${shard_pids[$owner]}" 2>/dev/null
wait "${shard_pids[$owner]}" 2>/dev/null || true
pjc "$src" --config infl --emit cuda --remote "$scratch/router.sock" > "$scratch/warm.out"
cmp "$scratch/cold.out" "$scratch/warm.out"
# The router must report the failover + the warm hit, and a survivor must
# have served the key from its replica copy with zero solver work.
pjcache stats --remote "$scratch/router.sock" > "$scratch/router-stats.json"
for i in 0 1 2; do
  [ "$i" = "$owner" ] && continue
  pjcache stats --remote "$scratch/shard$i.sock" > "$scratch/shard$i-stats.json"
done
python3 - "$scratch" "$owner" <<'EOF'
import json, sys
scratch, owner = sys.argv[1], sys.argv[2]
router = json.load(open(f"{scratch}/router-stats.json"))
assert sum(s["failovers"] for s in router["shards"]) >= 1, router
assert sum(s["cache_hits"] for s in router["shards"]) >= 1, router
warm = 0
for i in "012":
    if i == owner:
        continue
    s = json.load(open(f"{scratch}/shard{i}-stats.json"))["stats"]
    if s["hits"] >= 1 and s["misses"] == 0:
        warm += 1
assert warm >= 1, "no survivor served the key warm with zero solver work"
print(f"   owner shard{owner} killed; replica served warm (zero solver work)")
EOF
# The SIGKILLed owner's cache dir must still verify clean (atomic writes).
pjcache "$scratch/shard$owner-cache" verify
echo "ok: cold compile via router, owner killed, warm hit via replica; dead shard's cache intact"

echo
echo "CI gate passed."
