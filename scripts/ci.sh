#!/usr/bin/env bash
# The full CI gate: formatting, lints, build, every test, and the paper's
# correctness experiment. Run from anywhere inside the repository.
#
#   --bench-check   additionally re-run the serving benchmark and the full
#                   load-harness sweep, failing on regressions against the
#                   committed BENCH_serve.json / BENCH_build.json /
#                   BENCH_scale.json baselines
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_CHECK=0
for arg in "$@"; do
  case "$arg" in
    --bench-check) BENCH_CHECK=1 ;;
    *) echo "unknown argument: $arg (supported: --bench-check)"; exit 2 ;;
  esac
done

# `cargo test -q ARGS...` with a name filter, failing unless some test
# binary reports at least one passed test: a filter left stale after its
# test is deleted would otherwise pass silently with "0 passed".
filtered_test() {
  local out
  out=$(cargo test -q "$@" 2>&1) || { echo "$out"; return 1; }
  echo "$out"
  grep -qE 'test result: ok\. [1-9][0-9]* passed' <<<"$out" \
    || { echo "filter matched no test: cargo test $*"; return 1; }
}

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: build + tests"
cargo build --release
cargo test -q --workspace

echo "== occurrence enumeration: reverse-link walk vs the paper's backbone scan (proptest)"
filtered_test --test differential link_walk_equals_backbone_scan
filtered_test --test differential sealed_walk_equals_backbone_scan
filtered_test -p spine --lib occurrences
filtered_test -p spine --lib prefix

echo "== asserting examples"
for example in quickstart pattern_search multi_string approximate_and_unique concurrent_server; do
  cargo run --release -q --example "$example" >/dev/null
done

echo "== perfbench self-tests (runner in step with BENCHMARK.json, histogram, CO probe, checks)"
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "== exp verify (invariants + cross-engine agreement, eco-sim & friends)"
cargo run --release -q -p spine-bench --bin exp -- verify

echo "== exp faults --quick (crashpoint sweep + retry layer vs oracle)"
cargo run --release -q -p spine-bench --bin exp -- faults --quick

echo "== fault-tolerance integration tests"
cargo test -q --test fault_tolerance
cargo test -q -p pagestore --test faults

echo "== segment store: manifest codec, lifecycle, differential oracle, engine stress"
filtered_test -p spine --lib manifest
filtered_test -p spine --lib segments
cargo test -q --test segments
filtered_test --test differential segmented_store

echo "== flight recorder: journal codec, merge observer, timeline ring, postmortem dumps"
filtered_test -p spine --lib journal
filtered_test -p spine --lib observe
filtered_test -p strindex --lib telemetry
filtered_test -p spine-bench --lib flight
filtered_test -p spine-bench --lib http

echo "== hot-page tier: pool pinning, heatmap attribution, differential oracle"
filtered_test -p pagestore --lib pool
cargo test -q -p pagestore --test pinning
filtered_test -p spine --lib trace
filtered_test -p spine --lib hot
cargo test -q --test explain
filtered_test --test differential hot_tier
filtered_test --test segments segments_pin_hot

echo "== layout v2: codec round-trips, sealed engine, packed-vs-scalar"
filtered_test -p pagestore varint
filtered_test -p pagestore slotted
filtered_test -p spine disk::
cargo test -q --test layout_v2
filtered_test --test differential packed_scan
filtered_test -p spine --lib compact::
filtered_test -p spine --test properties compact_layout_is_equivalent

echo "== exp scale --quick --check (load harness: curve coverage vs committed BENCH_scale.json)"
cargo run --release -q -p spine-bench --bin exp -- scale --quick \
  --check BENCH_scale.json 2>&1 | tail -2
# A check without --out must leave the committed baseline untouched.
git diff --exit-code -- BENCH_scale.json

echo "== load-harness tests (determinism properties + coordinated-omission stall probe)"
filtered_test -p spine-bench --lib load
cargo test -q -p spine-bench --test load
filtered_test -p spine-bench --lib rng
filtered_test -p spine-bench --lib snapshot

echo "== exp serve --metrics --quick (ledger invariant + stage histograms)"
metrics_json=$(cargo run --release -q -p spine-bench --bin exp -- serve --metrics --quick)
echo "$metrics_json" | grep -q '"ledger_consistent":true' \
  || { echo "metrics smoke: ledger inconsistent"; exit 1; }
echo "$metrics_json" | grep -q '"stages_bounded":true' \
  || { echo "metrics smoke: stage timings exceed workers × wall"; exit 1; }
echo "$metrics_json" | grep -q '"stage.index_scan":{"count":[1-9]' \
  || { echo "metrics smoke: empty index-scan histogram"; exit 1; }

echo "== exp explain --quick (Figure 3 trace vs hand-derived path + oracle replay)"
cargo run --release -q -p spine-bench --bin exp -- explain --quick >/dev/null

echo "== exp serve --metrics --prom (Prometheus exposition self-check)"
prom_text=$(cargo run --release -q -p spine-bench --bin exp -- serve --metrics --quick --prom)
echo "$prom_text" | grep -q '^spine_engine_query_latency_count ' \
  || { echo "prom smoke: missing engine.query_latency samples"; exit 1; }

echo "== exp serve --http (monitor endpoint smoke: /metrics /health /explain /quit)"
http_log=$(mktemp)
cargo run --release -q -p spine-bench --bin exp -- serve --http 0 --quick \
  >"$http_log" 2>/dev/null &
http_pid=$!
addr=""
for _ in $(seq 1 120); do
  addr=$(grep -m1 -o '127\.0\.0\.1:[0-9]*' "$http_log" || true)
  [ -n "$addr" ] && break
  sleep 0.5
done
[ -n "$addr" ] || { echo "http smoke: server never printed its address"; kill "$http_pid" 2>/dev/null; exit 1; }
# The in-tree std-TcpStream client (exp http-get) keeps CI curl-free;
# --prom re-validates the body as Prometheus text exposition.
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/metrics" --prom 2>/dev/null \
  | grep -q '^spine_engine_window_count ' \
  || { echo "http smoke: /metrics misses the sliding-window gauges"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/metrics" 2>/dev/null \
  | grep -q '^spine_build_insertions{engine="memory"} ' \
  || { echo "http smoke: /metrics misses the build gauges"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/health" 2>/dev/null \
  | grep -q '"slo_healthy":true' \
  || { echo "http smoke: /health not healthy on a clean run"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/health" 2>/dev/null \
  | grep -q '"segments_clean":true' \
  || { echo "http smoke: clean recovery should report segments_clean"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/explain?q=ACA" 2>/dev/null \
  | grep -q '"ends":\[' \
  || { echo "http smoke: /explain returned no trace"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/metrics" 2>/dev/null \
  | grep -q '^spine_segments_pages{segment="0"} ' \
  || { echo "http smoke: /metrics misses the per-segment page gauges"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/timeline?metric=segments.epoch" 2>/dev/null \
  | grep -q '"samples":\[{' \
  || { echo "http smoke: /timeline returned no samples"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/journal" 2>/dev/null \
  | grep -q '"kind":"recover"' \
  || { echo "http smoke: /journal misses the recovery event"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/quit" >/dev/null 2>&1
wait "$http_pid" || { echo "http smoke: server exited non-zero"; exit 1; }
grep -q "shut down cleanly" "$http_log" \
  || { echo "http smoke: server did not shut down cleanly"; exit 1; }
rm -f "$http_log"

echo "== exp serve --http --orphan (uncommitted orphan segment degrades /health to 503)"
orphan_log=$(mktemp)
cargo run --release -q -p spine-bench --bin exp -- serve --http 0 --quick --orphan \
  >"$orphan_log" 2>/dev/null &
orphan_pid=$!
addr=""
for _ in $(seq 1 120); do
  addr=$(grep -m1 -o '127\.0\.0\.1:[0-9]*' "$orphan_log" || true)
  [ -n "$addr" ] && break
  sleep 0.5
done
[ -n "$addr" ] || { echo "orphan smoke: server never printed its address"; kill "$orphan_pid" 2>/dev/null; exit 1; }
# http-get exits 1 on HTTP >= 400 — exactly what a degraded /health must do.
if cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/health" >/dev/null 2>&1; then
  echo "orphan smoke: /health should be 503 with an orphan segment"; exit 1
fi
orphan_body=$(cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/health" 2>/dev/null || true)
echo "$orphan_body" | grep -q '"segments_clean":false' \
  || { echo "orphan smoke: /health body should name the orphan"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/metrics" 2>/dev/null \
  | grep -q '^spine_segments_orphans 1' \
  || { echo "orphan smoke: /metrics should gauge the orphan"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/quit" >/dev/null 2>&1
wait "$orphan_pid" || { echo "orphan smoke: server exited non-zero"; exit 1; }
grep -q "OK: postmortem .* validates" "$orphan_log" \
  || { echo "orphan smoke: forced 503 should have captured a postmortem dump"; exit 1; }
rm -f "$orphan_log"

echo "== exp serve --http --flaky (flight recorder: forced 503 captures a postmortem dump)"
flaky_log=$(mktemp)
cargo run --release -q -p spine-bench --bin exp -- serve --http 0 --quick --flaky \
  >"$flaky_log" 2>/dev/null &
flaky_pid=$!
addr=""
for _ in $(seq 1 120); do
  addr=$(grep -m1 -o '127\.0\.0\.1:[0-9]*' "$flaky_log" || true)
  [ -n "$addr" ] && break
  sleep 0.5
done
[ -n "$addr" ] || { echo "flaky smoke: server never printed its address"; kill "$flaky_pid" 2>/dev/null; exit 1; }
# Force the 503: the flaky probe device burns the SLO error budget on the
# first /health scrape, and the healthy→unhealthy edge triggers the dump.
forced=0
for _ in $(seq 1 20); do
  if ! cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/health" >/dev/null 2>&1; then
    forced=1; break
  fi
  sleep 0.3
done
[ "$forced" = 1 ] || { echo "flaky smoke: /health never degraded to 503"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/timeline" 2>/dev/null \
  | grep -q '"samples":\[{' \
  || { echo "flaky smoke: /timeline returned no samples"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/journal" 2>/dev/null \
  | grep -q '"kind":"seal"' \
  || { echo "flaky smoke: /journal misses the seal event"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/quit" >/dev/null 2>&1
# The server itself asserts a dump exists and schema-validates it on
# shutdown (a flaky run that captured nothing exits non-zero).
wait "$flaky_pid" || { echo "flaky smoke: server exited non-zero"; exit 1; }
dump=$(grep -oE 'OK: postmortem [^ ]+ validates' "$flaky_log" | awk '{print $3}')
[ -n "$dump" ] && [ -f "$dump" ] \
  || { echo "flaky smoke: postmortem dump file missing"; exit 1; }
head -c 11 "$dump" | grep -q '{"reason":"' \
  || { echo "flaky smoke: postmortem dump does not parse"; exit 1; }
rm -f "$flaky_log"

if [ "$BENCH_CHECK" = 1 ]; then
  echo "== bench regression gate (vs committed BENCH_serve.json + BENCH_build.json)"
  tmp_snap=$(mktemp); tmp_build=$(mktemp)
  cargo run --release -q -p spine-bench --bin exp -- bench-snapshot --quick \
    --out "$tmp_snap" --check BENCH_serve.json \
    --out-build "$tmp_build" --check-build BENCH_build.json >/dev/null
  rm -f "$tmp_snap" "$tmp_build"
  echo "== load-harness regression gate (full sweep vs committed BENCH_scale.json)"
  tmp_scale=$(mktemp)
  cargo run --release -q -p spine-bench --bin exp -- scale \
    --out "$tmp_scale" --check BENCH_scale.json 2>&1 | tail -2
  rm -f "$tmp_scale"
fi

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "CI green."
