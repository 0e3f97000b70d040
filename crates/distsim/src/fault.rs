//! Fault kinds for the data-parallel engine, and the trace of what the
//! engine did to survive them.
//!
//! The engine consults an [`apf_core::fault::FaultPlan<FaultKind>`] at the
//! start of every step, keyed `(rank, step)`: worker crashes, transient
//! gradient corruption on the wire, stragglers and NaN gradients. The same
//! plan always produces the same recovery behaviour (verified by the
//! determinism tests), so failure scenarios at any scale replay exactly.

/// One kind of injected failure; the plan's lane is the targeted rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker dies permanently at the start of the step. The engine
    /// removes it from the collective and re-shards the batch over the
    /// survivors.
    WorkerCrash,
    /// The worker's outgoing all-reduce traffic is corrupted by a single
    /// bit flip this step. Transient: the retry succeeds.
    GradCorruption,
    /// The worker stalls for `delay_ms` before computing its shard. No
    /// correctness impact; inflates the step's compute time.
    Straggler {
        /// Injected delay in milliseconds.
        delay_ms: u64,
    },
    /// The worker's gradient contribution contains a NaN this step
    /// (modelling an overflow in mixed-precision compute). Transient; the
    /// engine's guard rolls the step back.
    NanGrad,
}

/// One entry in the engine's recovery trace: what the fault-tolerance
/// machinery observed and did. Traces are `PartialEq` so tests can assert
/// that identical plans produce identical recoveries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryEvent {
    /// A worker died; the collective was rebuilt over the survivors.
    WorkerLost {
        /// Step at which the crash fired.
        step: u64,
        /// The dead worker's rank.
        rank: usize,
        /// Surviving world size after removal.
        world_after: usize,
    },
    /// An all-reduce round failed its checksum and was retried.
    CommRetry {
        /// Step at which corruption was detected.
        step: u64,
        /// Retry attempt number (1-based).
        attempt: u32,
    },
    /// A straggler delayed the step.
    StragglerObserved {
        /// Step the delay occurred on.
        step: u64,
        /// The slow worker's rank.
        rank: usize,
        /// Injected delay in milliseconds.
        delay_ms: u64,
    },
    /// A non-finite loss or gradient was caught; the update was skipped,
    /// parameters and optimizer rolled back, and the learning rate halved.
    RolledBack {
        /// Step that produced the non-finite value.
        step: u64,
        /// Learning-rate scale in effect after the halving.
        lr_scale_after: f32,
    },
}
