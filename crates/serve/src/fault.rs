//! Fault kinds for the serving engine.
//!
//! The engine consults a seeded
//! [`FaultPlan<InferenceFaultKind>`](apf_core::fault::FaultPlan) keyed
//! `(worker, nth-dispatch-of-that-worker)` rather than a global sequence —
//! a worker's breaker behaviour then depends only on its *own* processing
//! sequence, so breaker transitions replay exactly no matter how the
//! scheduler interleaves workers.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// One kind of injected inference failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferenceFaultKind {
    /// The worker panics mid-inference (caught by the engine's unwind
    /// barrier; the request fails, the breaker records it).
    WorkerPanic,
    /// The forward pass produces NaN logits (modelling numerically corrupt
    /// weights or activations); detected by the output guard.
    NonFiniteOutput,
    /// Inference stalls for `delay_ms` before running — pushes queued
    /// requests toward their deadlines and the queue toward degradation.
    SlowInference {
        /// Injected delay in milliseconds.
        delay_ms: u64,
    },
}

impl InferenceFaultKind {
    /// The soaks' per-dispatch draw for
    /// [`FaultPlan::random`](apf_core::fault::FaultPlan::random): a panic
    /// with probability 0.02, else non-finite output with 0.02, else a
    /// 1–10 ms slowdown with 0.05.
    pub fn draw(rng: &mut ChaCha8Rng) -> Option<Self> {
        if rng.gen_bool(0.02) {
            Some(InferenceFaultKind::WorkerPanic)
        } else if rng.gen_bool(0.02) {
            Some(InferenceFaultKind::NonFiniteOutput)
        } else if rng.gen_bool(0.05) {
            Some(InferenceFaultKind::SlowInference { delay_ms: rng.gen_range(1..=10) })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_core::fault::FaultPlan;
    use InferenceFaultKind::*;

    #[test]
    fn default_draw_reproduces_the_golden_seed_7_plan() {
        let plan = FaultPlan::random(7, 2, 40, InferenceFaultKind::draw);
        let got: Vec<_> = plan.events().iter().map(|e| (e.lane, e.nth, e.kind)).collect();
        assert_eq!(
            got,
            [
                (0, 15, NonFiniteOutput),
                (0, 26, SlowInference { delay_ms: 4 }),
                (1, 1, NonFiniteOutput),
                (1, 4, WorkerPanic),
                (1, 6, SlowInference { delay_ms: 3 }),
                (1, 10, SlowInference { delay_ms: 2 }),
                (1, 19, SlowInference { delay_ms: 4 }),
            ]
        );
    }
}
