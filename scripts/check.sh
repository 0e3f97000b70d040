#!/usr/bin/env bash
# Full pre-merge gate: release build, test suite, and lint-clean clippy.
# Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test -q perfbench (its own workspace: --workspace never compiles it)"
cargo test --locked -q --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> serve_soak resilience gate"
# A failed soak must not leave yesterday's results lying around looking
# fresh: clear the artifacts up front and require the binary (which writes
# atomically via temp-file + rename) to have produced them again.
rm -f results/serve_soak.json results/serve_soak_trace.jsonl results/serve_soak_metrics.prom
cargo run --release -q -p apf-bench --bin serve_soak -- --steps 200 --seed 7
for f in results/serve_soak.json results/serve_soak_trace.jsonl results/serve_soak_metrics.prom; do
  test -s "$f" || { echo "missing soak artifact: $f" >&2; exit 1; }
done

echo "==> frontdoor_soak gate (wire protocol, quotas, mid-soak drain, tracing, flight recorder)"
# The binary asserts every front-door invariant internally (any violation
# panics), and the archived JSON is re-checked here so a regression that
# silently weakens the binary's own asserts still fails the gate.
rm -f results/frontdoor_soak.json results/frontdoor_soak_metrics.prom results/frontdoor_trace.json
cargo run --release -q -p apf-bench --bin frontdoor_soak -- --quick
for f in results/frontdoor_soak.json results/frontdoor_soak_metrics.prom results/frontdoor_trace.json; do
  test -s "$f" || { echo "missing frontdoor artifact: $f" >&2; exit 1; }
done
grep -q '"untyped_client_failures": 0' results/frontdoor_soak.json \
  || { echo "frontdoor_soak: untyped client failures" >&2; exit 1; }
grep -q '"quota_drift": 0' results/frontdoor_soak.json \
  || { echo "frontdoor_soak: quota accounting drifted" >&2; exit 1; }
grep -q '"server_panics": 0' results/frontdoor_soak.json \
  || { echo "frontdoor_soak: server panicked" >&2; exit 1; }
grep -q '"drain_within_bound": true' results/frontdoor_soak.json \
  || { echo "frontdoor_soak: drain exceeded its bound" >&2; exit 1; }
grep -q 'apf_serve_quota_rejections_total' results/frontdoor_soak_metrics.prom \
  || { echo "frontdoor_soak: quota metrics missing from exposition" >&2; exit 1; }
grep -q 'apf_serve_wire_quota_checked_total' results/frontdoor_soak_metrics.prom \
  || { echo "frontdoor_soak: wire-door counters missing from exposition" >&2; exit 1; }
# Trace completeness: one probe request must stitch client -> wire server
# -> engine -> >=2 stitch workers -> merge under a single trace id, with
# no orphaned parent links, archived as a Chrome trace.
grep -q '"trace_complete": true' results/frontdoor_soak.json \
  || { echo "frontdoor_soak: probe trace did not stitch end to end" >&2; exit 1; }
grep -q '"traceEvents"' results/frontdoor_trace.json \
  || { echo "frontdoor_soak: archived trace is not Chrome trace JSON" >&2; exit 1; }
# Admin plane parity + black-box dump from the injected worker panic.
grep -q '"admin_matches_prom": true' results/frontdoor_soak.json \
  || { echo "frontdoor_soak: admin metrics diverged from the exposition" >&2; exit 1; }
grep -q '"flight_dump_ok": true' results/frontdoor_soak.json \
  || { echo "frontdoor_soak: no flight-recorder dump from the injected panic" >&2; exit 1; }
ls results/flight_panic_*.jsonl >/dev/null 2>&1 \
  || { echo "frontdoor_soak: flight dump file missing" >&2; exit 1; }

echo "==> batch_bench gate (batched == solo within 1e-5, >= 2x throughput at concurrency 16, >= 90% cache hits)"
# The binary asserts its gates internally; the archived JSON is re-checked
# so a silently weakened assert still fails here.
rm -f results/batch_bench.json
cargo run --release -q -p apf-bench --bin batch_bench
test -s results/batch_bench.json || { echo "missing batch_bench.json" >&2; exit 1; }
grep -q '"equivalence_ok": true' results/batch_bench.json \
  || { echo "batch_bench: batched forward diverged from solo" >&2; exit 1; }
grep -q '"bit_exact_ok": true' results/batch_bench.json \
  || { echo "batch_bench: batch of one not bit-exact" >&2; exit 1; }
grep -q '"speedup_ok": true' results/batch_bench.json \
  || { echo "batch_bench: batched throughput below 2x baseline" >&2; exit 1; }
grep -q '"cache_hit_rate_ok": true' results/batch_bench.json \
  || { echo "batch_bench: cache hit rate below 90%" >&2; exit 1; }
grep -q '"baseline_uncached": true' results/batch_bench.json \
  || { echo "batch_bench: baseline was not uncached batches of one" >&2; exit 1; }

echo "==> frontdoor_soak --scale gate (>= 1e5 batched requests, zero failures, >= 90% cache hits)"
rm -f results/frontdoor_soak_scale.json
cargo run --release -q -p apf-bench --bin frontdoor_soak -- --scale
test -s results/frontdoor_soak_scale.json || { echo "missing frontdoor_soak_scale.json" >&2; exit 1; }
grep -q '"untyped_client_failures": 0' results/frontdoor_soak_scale.json \
  || { echo "frontdoor_soak --scale: client thread panicked" >&2; exit 1; }
grep -q '"typed_client_failures": 0' results/frontdoor_soak_scale.json \
  || { echo "frontdoor_soak --scale: requests failed" >&2; exit 1; }
grep -q '"no_orphaned_worker_slots": true' results/frontdoor_soak_scale.json \
  || { echo "frontdoor_soak --scale: orphaned worker slots" >&2; exit 1; }
grep -q '"batching_active": true' results/frontdoor_soak_scale.json \
  || { echo "frontdoor_soak --scale: batches never formed" >&2; exit 1; }
grep -q '"cache_hit_rate_ok": true' results/frontdoor_soak_scale.json \
  || { echo "frontdoor_soak --scale: cache hit rate below 90%" >&2; exit 1; }

echo "==> telemetry_overhead gate (disabled hooks, flight recorder included, < 2%)"
rm -f results/telemetry_overhead.json
cargo run --release -q -p apf-bench --bin telemetry_overhead
test -s results/telemetry_overhead.json || { echo "missing telemetry_overhead.json" >&2; exit 1; }

echo "==> kernel-oracle differential suite (release: exercises the vectorized paths)"
# Twice: once under the best-detected SIMD backend (the default), once with
# dispatch pinned to the scalar reference backend — so a backend bug cannot
# hide behind the matrix test's own forcing, and the forced-env path itself
# stays exercised.
cargo test --release -q -p apf-tensor --test kernel_oracle
APF_KERNEL_BACKEND=scalar cargo test --release -q -p apf-tensor --test kernel_oracle

echo "==> backend dispatch-layer tests (detection order, overrides, telemetry)"
cargo test --release -q -p apf-tensor --test backend_dispatch

echo "==> kernel_bench gate (per backend; best: packed SGEMM >= 2x, fused attention >= 1.05x)"
rm -f results/kernel_bench.json
cargo run --release -q -p apf-bench --bin kernel_bench
test -s results/kernel_bench.json || { echo "missing kernel_bench.json" >&2; exit 1; }

echo "==> gigapixel_bench gate (out-of-core memory budget + stitched-vs-full 1e-5 cross-check)"
# --quick segments a 4096^2 slide under half its dense bytes and runs the
# same cross-checks as the full run; drop the flag for the headline
# 16384^2-under-1/8 proof (about two minutes of wall clock).
rm -f results/gigapixel_bench.json
cargo run --release -q -p apf-bench --bin gigapixel_bench -- --quick
test -s results/gigapixel_bench.json || { echo "missing gigapixel_bench.json" >&2; exit 1; }

echo "==> kill/resume crash-safety suite (release: distributed stitch, checkpoint corruption)"
cargo test --release -q -p apf-gigapixel --test kill_resume --test checkpoint_corruption

echo "==> distributed_slide_bench gate (bit-identical distributed stitch + window throughput scaling)"
# --quick proves bit-identity and the >=3x@4 / >=5x@8 scaling gates on a
# 4096^2 slide; drop the flag for the headline 16384^2 / 289-window run.
rm -f results/distributed_slide_bench.json
cargo run --release -q -p apf-bench --bin distributed_slide_bench -- --quick
test -s results/distributed_slide_bench.json || { echo "missing distributed_slide_bench.json" >&2; exit 1; }

echo "==> all checks passed"
