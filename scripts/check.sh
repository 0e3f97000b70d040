#!/usr/bin/env bash
# Full pre-merge gate: release build, test suite, lint-clean clippy and
# rustdoc, then the runtime soak and bench gates.
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

echo "==> rustdoc gate (no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> soak gates (soak --scenario engine|wire|scale|slide: faults, front door, >= 1e5 requests, >= 2x batching, out-of-core slide)"
# Each scenario asserts its verdicts in-process and archives them in one
# schema, results/soak_<scenario>.json: {scenario, seed, params,
# verdicts: {name: bool}, counts, detail}. A failed soak must not leave
# yesterday's results lying around looking fresh, so the artifacts are
# cleared up front and must be written again (atomically: temp file +
# rename). The verdicts are then re-checked by name, so a verdict the
# binary silently drops or weakens still fails the gate. One list names
# every artifact both to clear and to require, so nothing the gate reads
# can survive from an earlier run. The committed full slide run,
# results/soak_slide_full.json, is not on it and is not rewritten here.
artifacts=(results/soak_engine.json results/soak_engine_trace.jsonl results/soak_engine_metrics.prom
  results/soak_wire.json results/soak_wire_trace.json results/soak_wire_metrics.prom
  results/soak_scale.json results/soak_slide.json)
rm -f "${artifacts[@]}" results/soak_*.jsonl results/soak_*.prom results/flight_*.jsonl
verdicts() { # verdicts <scenario> <name>...: each must be archived as "name": true
  local report="results/soak_$1.json"
  shift
  for v in "$@"; do
    grep -q "\"$v\": true" "$report" || { echo "$report: verdict $v missing or false" >&2; exit 1; }
  done
}
soak() { cargo run --release -q -p apf-bench --bin soak -- --scenario "$@"; }
soak engine --steps 200 --seed 7
soak wire --quick
soak scale
# --quick segments a 4096^2 slide under half its dense bytes and runs the
# same cross-checks and scaling gates as the full run; drop the flag for
# the headline 16384^2-under-1/8 proof (about two minutes of wall clock).
soak slide --quick
for f in "${artifacts[@]}" results/flight_panic_*.jsonl; do
  test -s "$f" || { echo "missing soak artifact: $f" >&2; exit 1; }
done
verdicts engine epilogue_slide_completed every_request_answered queue_bound_held \
  tiers_monotone_in_depth burst_left_full_tier burst_hit_backpressure breaker_tripped \
  breaker_recovered worker0_ends_closed zero_process_panics requests_completed \
  malformed_rejected_typed doomed_never_completed slides_answered_typed \
  no_partial_slide_containers slide_counter_matches_responses registry_consistent_with_engine \
  prometheus_lines_prefixed span_tree_complete core_spans_nested trace_jsonl_valid
# Probe trace: client -> wire server -> engine -> >= 2 stitch workers ->
# merge under one trace id with no orphaned parents, archived as Chrome
# trace JSON; admin-plane parity; a flight dump from the injected panic.
verdicts wire trace_complete chrome_trace_has_trace_events admin_health_serving \
  admin_matches_prom admin_flight_dump_jsonl idle_connections_observed_goaway \
  zero_server_panics no_orphaned_worker_slots quota_accounting_exact zero_quota_drift \
  registry_agrees_with_quota_gate poor_tenant_throttled over_quota_backed_by_rejections \
  rich_tenants_unstarved drain_within_bound drained_connections_got_goaway \
  zero_untyped_client_failures all_client_failures_typed calls_succeeded \
  slide_outputs_readable flight_dump_ok exposition_has_apf_serve_quota_rejections_total \
  exposition_has_apf_serve_wire_quota_checked_total
verdicts scale wire_requests_at_least_1e5 zero_untyped_client_failures \
  zero_typed_client_failures no_orphaned_worker_slots zero_server_panics \
  wire_connections_reused wire_cache_hit_rate_ok batching_active engine_requests_completed \
  baseline_uncached speedup_ok engine_cache_hit_rate_ok engine_batching_active
verdicts slide single_window_matches_full_image_path multi_window_matches_dense_stitch \
  distributed_bit_identical_to_serial peak_resident_within_budget output_covers_slide \
  one_cost_per_window speedup_4_workers_at_least_3x speedup_8_workers_at_least_5x

echo "==> repro --exp all --quick (every table, figure, the scaling study and both ablations)"
# Each experiment archives results/repro_<name>.json in the soak schema and
# records each paper claim as a named verdict. A claim that does not
# reproduce at --quick scale is archived as false: a finding, not a failed
# gate. The gate is that every experiment runs to completion and archives
# every claim, true or false. The runs write to a temp dir, so the committed
# full-scale results are never overwritten.
repro_dir=$(mktemp -d)
trap 'rm -rf "$repro_dir"' EXIT
APF_RESULTS_DIR="$repro_dir" cargo run --release -q -p apf-bench --bin repro -- --exp all --quick
claims() { # claims <experiment> <name>...: each must be archived, true or false
  local report="$repro_dir/repro_$1.json"
  shift
  for v in "$@"; do
    grep -Eq "\"$v\": (true|false)" "$report" || { echo "$report: verdict $v missing" >&2; exit 1; }
  done
}
claims table1 dense_attention_grows_faster_than_windowed apf_sequence_growth_subquadratic
claims overhead overhead_grows_with_resolution
claims fig3 seq_len_grows_as_split_value_falls patch_size_grows_with_split_value
claims table2 leaf_growth_subquadratic apf_faster_at_every_row
claims scaling more_workers_step_faster ring_beats_tree_at_2048_gpus
claims table5 apf_small_beats_vit_and_hipt apf_large_no_better_than_vit
claims table4 apf_dice_ge_uniform_unetr apf_faster_than_transformer_baselines
claims ablation_droprate drop_fraction_falls_as_l_grows heaviest_drop_costs_dice
claims ablation_order morton_fold_ge_row_major ordered_tokens_ge_shuffled
claims table3 apf_dice_ge_best_baseline transformers_beat_unet apf_sequence_shorter_than_uniform_grid
claims fig4 apf_final_loss_below_unet_and_uniform smaller_uniform_patch_steadier
claims fig2 apf_dice_ge_uniform_on_rendered_sample apf_dice_ge_unet_on_rendered_sample
claims fig1 adaptive_sequence_shorter_than_uniform apf_faster_per_image apf_dice_ge_uniform

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

echo "==> preprocessing differential suites (release: blur, row-streamed Canny, box projection, quadtree vs their per-pixel oracles)"
cargo test --release -q -p apf-imaging -p apf-core

echo "==> backend dispatch-layer tests (detection order, overrides, telemetry)"
cargo test --release -q -p apf-tensor --test backend_dispatch

echo "==> kernel_bench gate (per backend; best: packed SGEMM >= 2x, fused attention >= 1.05x, attention backward >= 1.5x, bias+GELU fwd+bwd >= 4x scalar; CRC-32 slice-by-16 >= 3x bytewise, dispatched arm (pclmulqdq fold where the CPU has it) >= 1x slice-by-16; pool_gemm: pooled packed GEMM >= 1.4x inline on >= 2 threads, skipped on 1)"
rm -f results/kernel_bench.json
cargo run --release -q -p apf-bench --bin kernel_bench
test -s results/kernel_bench.json || { echo "missing kernel_bench.json" >&2; exit 1; }

echo "==> kill/resume crash-safety suite (release: distributed stitch, checkpoint corruption)"
cargo test --release -q -p apf-gigapixel --test kill_resume --test checkpoint_corruption

echo "==> all checks passed"
