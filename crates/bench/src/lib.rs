//! # apf-bench
//!
//! The experiment harness reproducing every table and figure of the APF
//! paper. One binary per experiment (see DESIGN.md §3 for the index):
//!
//! | target | reproduces |
//! |---|---|
//! | `table1_complexity` | Table I (method/complexity taxonomy, measured) |
//! | `table2_speedup` | Table II (end-to-end speedup at iso-quality) |
//! | `table3_quality` | Table III (dice vs baselines per resolution) |
//! | `table4_btcv` | Table IV (BTCV multi-organ) |
//! | `table5_classification` | Table V (ViT vs HIPT vs APF-ViT) |
//! | `fig1_overview` | Fig. 1 (patch reduction walk-through) |
//! | `fig2_qualitative` | Fig. 2 (qualitative masks, PPM renders) |
//! | `fig3_splitvalue` | Fig. 3 (split value vs patch size/seq len) |
//! | `fig4_stability` | Fig. 4 (training stability) |
//! | `overhead` | §IV-G.3 (pre-processing overhead) |
//! | `scaling` | strong scaling: thread engine + cluster model |
//! | `ablation_order` | token ordering / decoder folding ablation |
//! | `ablation_droprate` | fixed-length L (pad vs drop) ablation |
//!
//! Infrastructure gates ride the same harness and are wired into
//! `scripts/check.sh`: `soak --scenario engine|wire|scale|slide`
//! (fault-soaked engine, faulted front door, >= 1e5 batched requests and
//! the >= 2x batching gate, and the out-of-core 16K² slide segmented
//! under 1/8 of its dense bytes with stitched output pinned to the
//! full-image path at 1e-5, distributed output bit-identical to serial
//! and >= 5x window throughput at 8 workers; one [`SoakReport`] schema),
//! `telemetry_overhead` (disabled hooks < 2%) and `kernel_bench`
//! (fast-path speedups).
//!
//! Every binary accepts `--quick` for a smoke-test-scale run plus
//! experiment-specific `--key value` overrides, prints paper-vs-measured
//! tables, and archives JSON rows under `results/`.

pub mod args;
pub mod harness;
pub mod report;

pub use args::Args;
pub use report::{print_table, save_atomic, save_json, SoakReport};
