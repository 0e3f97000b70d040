//! # apf-bench
//!
//! The experiment harness reproducing every table and figure of the APF
//! paper. One binary, `repro --exp <name>|all [--quick]`, runs the
//! experiments of [`experiments::EXPERIMENTS`] (see DESIGN.md §3 for the
//! index):
//!
//! | `--exp` | reproduces |
//! |---|---|
//! | `table1` | Table I (method/complexity taxonomy, measured) |
//! | `table2` | Table II (end-to-end speedup at iso-quality) |
//! | `table3` | Table III (dice vs baselines, 5 seeds, mean ± 95 % CI) |
//! | `table4` | Table IV (BTCV multi-organ, 5 seeds) |
//! | `table5` | Table V (ViT vs HIPT vs APF-ViT, 5 seeds) |
//! | `fig1` | Fig. 1 (patch reduction walk-through) |
//! | `fig2` | Fig. 2 (qualitative masks, PPM renders) |
//! | `fig3` | Fig. 3 (split value vs patch size/seq len) |
//! | `fig4` | Fig. 4 (training stability) |
//! | `overhead` | §IV-G.3 (pre-processing overhead) |
//! | `scaling` | strong scaling: thread engine + cluster model |
//! | `ablation_order` | token ordering / decoder folding ablation |
//! | `ablation_droprate` | fixed-length L (pad vs drop) ablation |
//!
//! Each run prints paper-vs-measured tables and archives a [`SoakReport`]
//! as `results/repro_<name>.json`, each paper claim a named verdict.
//!
//! Infrastructure gates ride the same harness and are wired into
//! `scripts/check.sh`: `soak --scenario engine|wire|scale|slide`
//! (fault-soaked engine, faulted front door, >= 1e5 batched requests and
//! the >= 2x batching gate, and the out-of-core 16K² slide segmented
//! under 1/8 of its dense bytes with stitched output pinned to the
//! full-image path at 1e-5, distributed output bit-identical to serial
//! and >= 5x window throughput at 8 workers; the same [`SoakReport`]
//! schema), `telemetry_overhead` (disabled hooks < 2%) and `kernel_bench`
//! (fast-path speedups).

pub mod args;
pub mod experiments;
pub mod harness;
pub mod report;

pub use args::Args;
pub use report::{print_table, save_atomic, save_json, SoakReport};
