//! # apf-distsim
//!
//! Distributed-training substrate for the APF reproduction, standing in for
//! the paper's 9,408-node Frontier deployment:
//!
//! - [`gpu`] — MI250X-like device model and the two-level Frontier fabric
//!   (Infinity Fabric intra-node, Slingshot-11 inter-node).
//! - [`allreduce`] — ring all-reduce: analytic cost model **and** a real
//!   multi-threaded implementation used for gradient averaging.
//! - [`cost`] — FLOP/memory accounting of transformer training as a
//!   function of sequence length (the quantity APF reduces).
//! - [`cluster`] — sec/image predictions for N-GPU data-parallel training,
//!   calibrated once against a single measured row of the paper.
//! - [`engine`] — a genuine thread-per-GPU data-parallel trainer whose
//!   tests prove step-equivalence with single-worker training.
//! - [`fault`] — the engine's fault kinds (crashes, wire corruption,
//!   stragglers, NaN gradients), scheduled by a seeded
//!   [`apf_core::fault::FaultPlan`], and the recovery trace the engine
//!   records while surviving them.
//! - [`fabric`] — a generic work-stealing worker pool over arbitrary
//!   indexed work lists, with `(worker, nth-item)`-keyed fault injection and a
//!   deterministic virtual-time schedule simulator; the substrate the
//!   gigapixel distributed stitcher runs on.

pub mod allreduce;
pub mod cluster;
pub mod cost;
pub mod engine;
pub mod fabric;
pub mod fault;
pub mod gpu;
pub mod tree_allreduce;

pub use allreduce::{
    ring_allreduce_mean, ring_allreduce_mean_checked, ring_allreduce_seconds, AllReduceError,
};
pub use cluster::{calibrate, ClusterModel, Prediction};
pub use cost::{step_cost, ModelDims, StepCost};
pub use engine::{DataParallelEngine, StepReport};
pub use fabric::{
    install_quiet_fabric_panics, run_ordered, simulate_makespan, FabricError, FabricFaultKind,
    FabricStats, Next, SimulatedSchedule, StealScheduler, FABRIC_THREAD_PREFIX,
};
pub use fault::{FaultKind, RecoveryEvent};
pub use gpu::{Fabric, GpuSpec};
pub use tree_allreduce::tree_allreduce_seconds;
