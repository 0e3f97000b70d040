//! Seeded, replayable fault schedules.
//!
//! A [`FaultPlan<K>`] schedules at most one fault per slot `(lane, nth)`:
//! the lane is the unit that fails and `nth` counts the units of work that
//! lane has started. Each domain brings only its kind enum `K`:
//!
//! | domain | kind | lane | nth |
//! |---|---|---|---|
//! | training engine | `apf_distsim::fault::FaultKind` | rank | step |
//! | fabric, distributed stitch | `apf_distsim::FabricFaultKind` | worker | item started |
//! | serving engine | `apf_serve::InferenceFaultKind` | worker | dispatch |
//! | APFW1 client | `apf_serve::NetFaultKind` | 0 | attempt |
//!
//! Keying by a lane's *own* work counter makes replay independent of how a
//! scheduler interleaves lanes, so the same plan always produces the same
//! failures and, in turn, the same recovery.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One scheduled fault: `kind` fires on `lane`'s `nth` unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault<K> {
    /// The failing unit: a rank, a worker or a client.
    pub lane: usize,
    /// 0-based count of units of work the lane has started.
    pub nth: u64,
    /// What happens.
    pub kind: K,
}

/// A deterministic schedule of faults, sorted by `(lane, nth)` with at
/// most one event per slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan<K> {
    events: Vec<Fault<K>>,
}

impl<K> Default for FaultPlan<K> {
    fn default() -> Self {
        FaultPlan { events: Vec::new() }
    }
}

impl<K: Copy> FaultPlan<K> {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from explicit events. When several events share a
    /// slot, the first one given wins.
    pub fn new(mut events: Vec<Fault<K>>) -> Self {
        events.sort_by_key(|e| (e.lane, e.nth));
        events.dedup_by_key(|e| (e.lane, e.nth));
        FaultPlan { events }
    }

    /// Seeded plan over the first `per_lane` slots of each of `lanes`
    /// lanes. One `ChaCha8Rng` walks lane-major, slot-minor, and `draw`
    /// decides each slot. Same inputs, same plan.
    pub fn random(
        seed: u64,
        lanes: usize,
        per_lane: u64,
        mut draw: impl FnMut(&mut ChaCha8Rng) -> Option<K>,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut events = Vec::new();
        for lane in 0..lanes {
            for nth in 0..per_lane {
                if let Some(kind) = draw(&mut rng) {
                    events.push(Fault { lane, nth, kind });
                }
            }
        }
        FaultPlan { events }
    }

    /// Puts `kind` on `lane`'s slots `[start, start + len)`, replacing
    /// whatever the plan held there, so the burst is guaranteed.
    pub fn with_burst(mut self, lane: usize, start: u64, len: u64, kind: K) -> Self {
        let window = start..start + len;
        self.events.retain(|e| e.lane != lane || !window.contains(&e.nth));
        self.events.extend(window.map(|nth| Fault { lane, nth, kind }));
        self.events.sort_by_key(|e| (e.lane, e.nth));
        self
    }

    /// The fault, if any, for `lane`'s `nth` unit of work.
    pub fn fault_for(&self, lane: usize, nth: u64) -> Option<K> {
        self.events
            .binary_search_by_key(&(lane, nth), |e| (e.lane, e.nth))
            .ok()
            .map(|i| self.events[i].kind)
    }

    /// All scheduled events, sorted by `(lane, nth)`.
    pub fn events(&self) -> &[Fault<K>] {
        &self.events
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Crash,
        Slow { ms: u64 },
    }

    /// A dense draw: about two slots in three hold a fault.
    fn heavy(rng: &mut ChaCha8Rng) -> Option<Kind> {
        if rng.gen_bool(0.3) {
            Some(Kind::Crash)
        } else if rng.gen_bool(0.5) {
            Some(Kind::Slow { ms: rng.gen_range(1..=9) })
        } else {
            None
        }
    }

    fn assert_one_per_slot(plan: &FaultPlan<Kind>) {
        let slots: Vec<_> = plan.events().iter().map(|e| (e.lane, e.nth)).collect();
        assert!(slots.windows(2).all(|w| w[0] < w[1]), "unsorted or duplicate slot: {slots:?}");
    }

    #[test]
    fn random_plans_replay_exactly() {
        let a = FaultPlan::random(9, 3, 40, heavy);
        assert_eq!(a, FaultPlan::random(9, 3, 40, heavy));
        assert_ne!(a, FaultPlan::random(10, 3, 40, heavy));
        assert!(FaultPlan::<Kind>::none().is_empty());
        assert!(FaultPlan::random(9, 3, 40, |_| None::<Kind>).is_empty());
    }

    #[test]
    fn random_walks_lanes_then_slots() {
        let mut calls = Vec::new();
        let mut i = 0u64;
        let plan = FaultPlan::random(1, 2, 3, |_| {
            i += 1;
            calls.push(i);
            i.is_multiple_of(2).then_some(Kind::Slow { ms: i })
        });
        assert_eq!(calls, [1, 2, 3, 4, 5, 6]);
        let got: Vec<_> = plan.events().iter().map(|e| (e.lane, e.nth, e.kind)).collect();
        assert_eq!(
            got,
            [
                (0, 1, Kind::Slow { ms: 2 }),
                (1, 0, Kind::Slow { ms: 4 }),
                (1, 2, Kind::Slow { ms: 6 }),
            ]
        );
    }

    #[test]
    fn at_most_one_fault_per_slot() {
        assert_one_per_slot(&FaultPlan::random(11, 4, 50, heavy));
        let burst = FaultPlan::random(11, 4, 50, heavy).with_burst(2, 10, 20, Kind::Crash);
        assert_one_per_slot(&burst);
        let plan = FaultPlan::new(vec![
            Fault { lane: 1, nth: 3, kind: Kind::Slow { ms: 1 } },
            Fault { lane: 0, nth: 5, kind: Kind::Crash },
            Fault { lane: 1, nth: 3, kind: Kind::Crash },
        ]);
        assert_one_per_slot(&plan);
        assert_eq!(plan.events().len(), 2);
        assert_eq!(plan.fault_for(1, 3), Some(Kind::Slow { ms: 1 }), "first event per slot wins");
    }

    #[test]
    fn explicit_plan_sorts_and_looks_up_by_lane_and_nth() {
        let plan = FaultPlan::new(vec![
            Fault { lane: 1, nth: 3, kind: Kind::Crash },
            Fault { lane: 0, nth: 3, kind: Kind::Slow { ms: 4 } },
            Fault { lane: 0, nth: 1, kind: Kind::Crash },
        ]);
        assert_eq!((plan.events()[0].lane, plan.events()[0].nth), (0, 1));
        assert_eq!(plan.fault_for(1, 3), Some(Kind::Crash));
        assert_eq!(plan.fault_for(0, 3), Some(Kind::Slow { ms: 4 }));
        assert_eq!(plan.fault_for(2, 3), None);
        assert_eq!(plan.fault_for(1, 4), None);
    }

    #[test]
    fn burst_replaces_its_window_and_nothing_else() {
        let base = FaultPlan::random(4, 2, 30, heavy);
        let plan = base.clone().with_burst(0, 5, 4, Kind::Crash);
        for nth in 5..9 {
            assert_eq!(plan.fault_for(0, nth), Some(Kind::Crash));
        }
        for e in base.events() {
            if e.lane != 0 || !(5..9).contains(&e.nth) {
                assert_eq!(plan.fault_for(e.lane, e.nth), Some(e.kind), "{e:?} outside the burst");
            }
        }
        let outside = base.events().iter().filter(|e| e.lane != 0 || !(5..9).contains(&e.nth));
        assert_eq!(plan.events().len(), outside.count() + 4);

        let plan = FaultPlan::none().with_burst(1, 3, 2, Kind::Crash);
        assert_eq!(plan.fault_for(1, 3), Some(Kind::Crash));
        assert_eq!(plan.fault_for(1, 4), Some(Kind::Crash));
        assert_eq!(plan.fault_for(1, 5), None);
        assert_eq!(plan.fault_for(0, 3), None);
    }
}
