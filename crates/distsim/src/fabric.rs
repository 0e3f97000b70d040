//! A generic work-stealing worker fabric.
//!
//! PR 1's [`crate::engine`] fixed the unit of distribution at "one training
//! step"; this module generalizes the same ideas — seeded fault plans,
//! permanent worker death with work re-sharding, deterministic replay — to
//! an arbitrary indexed work list, so other subsystems (notably the
//! gigapixel stitcher's sliding-window schedule) can ride the same fabric.
//!
//! Three layers:
//!
//! - [`FabricFaultKind`] — injected panics and stragglers, scheduled by an
//!   [`apf_core::fault::FaultPlan`] keyed `(worker, nth-item-started)`, so
//!   a fault's timing does not depend on how many items other workers take.
//! - [`StealScheduler`] — the shared queue discipline: each worker owns a
//!   deque seeded with a contiguous block of item indices, pops its own
//!   front, and when empty steals from the back of the longest surviving
//!   victim. A dead worker's queued and in-flight items are re-queued to
//!   survivors; when every worker is dead with work outstanding the pool
//!   reports failure instead of hanging.
//! - [`simulate_makespan`] — a deterministic virtual-time replay of the
//!   same stealing discipline over measured per-item costs, used by the
//!   benches to extrapolate throughput scaling beyond the physical core
//!   count of the host (the idiom of `bench/src/bin/scaling.rs`).
//!
//! [`run_ordered`] bundles the layers into a convenience pool that runs a
//! closure over every item with unwind containment and returns results in
//! item order.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

use apf_core::fault::FaultPlan;
use apf_telemetry::{Telemetry, TraceContext};

/// Thread-name prefix of fabric workers; used by the quiet panic hook.
pub const FABRIC_THREAD_PREFIX: &str = "apf-fabric-worker";

/// One kind of injected fabric failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricFaultKind {
    /// The worker thread panics mid-item. The pool contains the unwind,
    /// marks the worker permanently dead, and re-queues the item.
    Panic,
    /// The worker stalls for `delay_ms` before processing the item. No
    /// correctness impact; exercises stall-tolerant completion paths.
    Straggler {
        /// Injected delay in milliseconds.
        delay_ms: u64,
    },
}

/// What [`StealScheduler::next`] hands a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Process this item index.
    Item(usize),
    /// Nothing available right now, but items are still in flight on
    /// other workers (and may be re-queued if an owner dies) — back off
    /// and ask again.
    Wait,
    /// All items are complete, or this worker is dead: exit.
    Done,
}

struct SchedState {
    deques: Vec<VecDeque<usize>>,
    in_flight: Vec<Option<usize>>,
    alive: Vec<bool>,
    /// Items not yet completed (queued + in flight).
    remaining: usize,
    steals: u64,
    deaths: u64,
}

/// Shared work-stealing queue over item indices `0..items`.
///
/// Item indices are dealt to workers in contiguous blocks (locality: for
/// the stitcher, adjacent windows share slide tile rows). All decisions on
/// which item runs where are made under one mutex; the merge order of
/// results is the consumer's concern, so the scheduler itself never
/// constrains completion order.
pub struct StealScheduler {
    state: Mutex<SchedState>,
    abort: AtomicBool,
    items: usize,
    workers: usize,
}

/// The worker whose block of the contiguous deal holds item `i`: blocks
/// follow item order, and the first `items % workers` are one item longer.
fn deal(items: usize, workers: usize, i: usize) -> usize {
    let (base, extra) = (items / workers, items % workers);
    let cut = extra * (base + 1);
    if i < cut {
        i / (base + 1)
    } else {
        extra + (i - cut) / base.max(1)
    }
}

impl StealScheduler {
    /// Deals `items` indices to `workers` deques in contiguous blocks.
    pub fn new(items: usize, workers: usize) -> Self {
        assert!(workers > 0, "scheduler needs at least one worker");
        let mut deques: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers];
        for i in 0..items {
            deques[deal(items, workers, i)].push_back(i);
        }
        StealScheduler {
            state: Mutex::new(SchedState {
                deques,
                in_flight: vec![None; workers],
                alive: vec![true; workers],
                remaining: items,
                steals: 0,
                deaths: 0,
            }),
            abort: AtomicBool::new(false),
            items,
            workers,
        }
    }

    /// The worker item `i` was dealt to. An item executed by any other
    /// worker was stolen, or re-queued after its owner died.
    pub fn dealt_owner(&self, i: usize) -> usize {
        deal(self.items, self.workers, i)
    }

    /// Applies an injected fault to `worker`'s item `i`; call it inside
    /// the worker's unwind barrier. A straggler stalls, cut short once the
    /// pool is aborted so a cancelled drive never waits one out; a panic
    /// unwinds.
    pub fn inject(&self, fault: Option<FabricFaultKind>, worker: usize, i: usize) {
        match fault {
            Some(FabricFaultKind::Straggler { delay_ms }) => {
                let until = Instant::now() + Duration::from_millis(delay_ms);
                while Instant::now() < until && !self.aborted() {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            Some(FabricFaultKind::Panic) => {
                panic!("injected fabric fault: worker {worker} item {i}")
            }
            None => {}
        }
    }

    /// Next item for `worker`: own front, else the back of the longest
    /// surviving victim's deque (a steal), else wait/done.
    pub fn next(&self, worker: usize) -> Next {
        if self.aborted() {
            return Next::Done;
        }
        let mut s = self.state.lock().unwrap();
        if !s.alive[worker] {
            return Next::Done;
        }
        if let Some(i) = s.deques[worker].pop_front() {
            s.in_flight[worker] = Some(i);
            return Next::Item(i);
        }
        let victim = (0..s.deques.len())
            .filter(|&v| v != worker && s.alive[v] && !s.deques[v].is_empty())
            .max_by_key(|&v| s.deques[v].len());
        if let Some(v) = victim {
            let i = s.deques[v].pop_back().expect("victim checked non-empty");
            s.steals += 1;
            s.in_flight[worker] = Some(i);
            return Next::Item(i);
        }
        if s.remaining > 0 {
            Next::Wait
        } else {
            Next::Done
        }
    }

    /// Marks `worker`'s current item complete.
    pub fn complete(&self, worker: usize) {
        let mut s = self.state.lock().unwrap();
        if s.in_flight[worker].take().is_some() {
            s.remaining -= 1;
        }
    }

    /// Marks `worker` permanently dead; its in-flight item and queued
    /// backlog are re-queued to the least-loaded survivor. Returns `false`
    /// when no survivors remain but work is still outstanding — the
    /// caller must surface a typed error rather than hang.
    pub fn worker_died(&self, worker: usize) -> bool {
        let mut s = self.state.lock().unwrap();
        if !s.alive[worker] {
            return s.remaining == 0 || s.alive.iter().any(|&a| a);
        }
        s.alive[worker] = false;
        s.deaths += 1;
        let mut orphans: Vec<usize> = s.in_flight[worker].take().into_iter().collect();
        orphans.extend(s.deques[worker].drain(..));
        let survivors: Vec<usize> = (0..s.alive.len()).filter(|&v| s.alive[v]).collect();
        if survivors.is_empty() {
            return s.remaining == 0;
        }
        for i in orphans {
            let target = *survivors
                .iter()
                .min_by_key(|&&v| s.deques[v].len())
                .expect("survivors non-empty");
            // Front of the queue: orphaned work is the oldest outstanding
            // and the merge frontier is usually waiting on it.
            s.deques[target].push_front(i);
        }
        true
    }

    /// Requests cooperative shutdown; workers observe it on their next
    /// [`StealScheduler::next`] call.
    pub fn abort(&self) {
        self.abort.store(true, Ordering::SeqCst);
    }

    /// True once [`StealScheduler::abort`] has been called.
    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// Cross-worker steals so far.
    pub fn steals(&self) -> u64 {
        self.state.lock().unwrap().steals
    }

    /// Workers marked dead so far.
    pub fn deaths(&self) -> u64 {
        self.state.lock().unwrap().deaths
    }

    /// True when every worker is dead with items still outstanding.
    pub fn exhausted(&self) -> bool {
        let s = self.state.lock().unwrap();
        s.remaining > 0 && s.alive.iter().all(|&a| !a)
    }

    /// Items not yet completed.
    pub fn remaining(&self) -> usize {
        self.state.lock().unwrap().remaining
    }
}

/// Outcome of a virtual-time schedule replay.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedSchedule {
    /// Virtual seconds until the last item completes.
    pub makespan: f64,
    /// Virtual busy seconds per worker.
    pub per_worker_busy: Vec<f64>,
    /// Items each worker processed.
    pub per_worker_items: Vec<u64>,
    /// Cross-worker steals the replay performed.
    pub steals: u64,
}

/// Replays the [`StealScheduler`] discipline in deterministic virtual
/// time over measured per-item costs: workers advance their own clocks,
/// the globally-earliest idle worker (ties to the lowest index) claims
/// the next item under the same own-front/steal-longest-back policy, and
/// the makespan is the latest worker clock. No threads, no wall clock —
/// the same costs and worker count always produce the same schedule,
/// which is what lets a single-core host project 4–8-worker throughput
/// from calibrated single-worker measurements.
pub fn simulate_makespan(costs: &[f64], workers: usize) -> SimulatedSchedule {
    assert!(workers > 0, "simulation needs at least one worker");
    let sched = StealScheduler::new(costs.len(), workers);
    let mut clock = vec![0.0f64; workers];
    let mut busy = vec![0.0f64; workers];
    let mut items = vec![0u64; workers];
    loop {
        // Earliest-idle worker claims next; lowest index breaks ties so
        // the replay is fully deterministic.
        let w = (0..workers)
            .min_by(|&a, &b| clock[a].total_cmp(&clock[b]).then(a.cmp(&b)))
            .expect("workers > 0");
        match sched.next(w) {
            Next::Item(i) => {
                clock[w] += costs[i];
                busy[w] += costs[i];
                items[w] += 1;
                sched.complete(w);
            }
            // Virtual workers never hold items in flight across turns, so
            // an empty scheduler means completion, not waiting.
            Next::Wait | Next::Done => break,
        }
    }
    SimulatedSchedule {
        makespan: clock.iter().cloned().fold(0.0, f64::max),
        per_worker_busy: busy,
        per_worker_items: items,
        steals: sched.steals(),
    }
}

/// Why [`run_ordered`] failed.
#[derive(Debug)]
pub enum FabricError {
    /// Every worker died (injected or organic panics) with items left.
    AllWorkersDead {
        /// Items that completed before the pool emptied.
        completed: usize,
        /// Total items requested.
        total: usize,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::AllWorkersDead { completed, total } => write!(
                f,
                "all fabric workers died with {}/{} items complete",
                completed, total
            ),
        }
    }
}

impl std::error::Error for FabricError {}

/// Per-run statistics from [`run_ordered`].
#[derive(Debug, Clone, Default)]
pub struct FabricStats {
    /// Cross-worker steals.
    pub steals: u64,
    /// Workers lost to (injected or organic) panics.
    pub worker_panics: u64,
    /// Items processed per worker (successful completions).
    pub per_worker_items: Vec<u64>,
    /// Wall seconds per item, indexed by item.
    pub item_seconds: Vec<f64>,
}

/// Keeps injected fabric-worker panics from spraying default panic-hook
/// backtraces over test and bench output. Chains to the previous hook for
/// every other thread; installed at most once per process.
pub fn install_quiet_fabric_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let quiet = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(FABRIC_THREAD_PREFIX));
            if !quiet {
                prev(info);
            }
        }));
    });
}

/// Runs `job` over every item on a work-stealing pool of `workers`
/// threads, containing panics (a panicking worker dies permanently and
/// its items move to survivors), and returns results in item order.
///
/// `job(worker, index, &item)` may panic; `faults` are applied per
/// `(worker, nth-started-item)` before the closure runs.
pub fn run_ordered<T, R, F>(
    items: &[T],
    workers: usize,
    faults: &FaultPlan<FabricFaultKind>,
    tel: &Telemetry,
    job: F,
) -> Result<(Vec<R>, FabricStats), FabricError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, usize, &T) -> R + Sync,
{
    assert!(workers > 0, "fabric needs at least one worker");
    install_quiet_fabric_panics();
    let _span = tel.span("distsim.fabric");
    let items_total = tel.counter("apf_distsim_fabric_items_total", "Items completed by the fabric");
    let steals_total =
        tel.counter("apf_distsim_fabric_steals_total", "Items stolen across fabric workers");
    let deaths_total =
        tel.counter("apf_distsim_fabric_deaths_total", "Fabric workers lost to panics");
    let item_s =
        tel.histogram("apf_distsim_fabric_item_seconds", "Per-item fabric processing time");

    let sched = StealScheduler::new(items.len(), workers);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let durations: Mutex<Vec<f64>> = Mutex::new(vec![0.0; items.len()]);
    let per_worker: Mutex<Vec<u64>> = Mutex::new(vec![0; workers]);

    // OS threads do not inherit the caller's trace context; hand it across
    // the spawn explicitly so worker spans parent under the fabric span.
    let ctx = TraceContext::current();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let sched = &sched;
            let results = &results;
            let durations = &durations;
            let per_worker = &per_worker;
            let job = &job;
            let item_s = &item_s;
            std::thread::Builder::new()
                .name(format!("{}-{}", FABRIC_THREAD_PREFIX, w))
                .spawn_scoped(scope, move || {
                    // The fabric workers are the parallelism: their kernels
                    // run inline, not on the shared pool.
                    apf_tensor::kernels::mark_thread_inline();
                    let _ctx_guard = ctx.map(TraceContext::install);
                    let mut nth = 0u64;
                    loop {
                        match sched.next(w) {
                            Next::Done => break,
                            Next::Wait => {
                                std::thread::sleep(Duration::from_millis(1));
                                continue;
                            }
                            Next::Item(i) => {
                                let fault = faults.fault_for(w, nth);
                                nth += 1;
                                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                                    // Opened inside the unwind boundary: a
                                    // panicking item still flushes its span,
                                    // marked truncated by the guard. Items
                                    // run off their dealt worker carry a
                                    // "steal" note.
                                    let _item_span = if sched.dealt_owner(i) == w {
                                        tel.span_id("distsim.fabric.item", i as u64)
                                    } else {
                                        tel.span_noted("distsim.fabric.item", i as u64, "steal")
                                    };
                                    sched.inject(fault, w, i);
                                    let t0 = Instant::now();
                                    let r = job(w, i, &items[i]);
                                    (r, t0.elapsed().as_secs_f64())
                                }));
                                match outcome {
                                    Ok((r, secs)) => {
                                        results.lock().unwrap()[i] = Some(r);
                                        durations.lock().unwrap()[i] = secs;
                                        per_worker.lock().unwrap()[w] += 1;
                                        item_s.record(secs);
                                        sched.complete(w);
                                    }
                                    Err(_) => {
                                        tel.flight("fabric_worker_death", || {
                                            format!("worker={w} item={i}")
                                        });
                                        sched.worker_died(w);
                                        break;
                                    }
                                }
                            }
                        }
                    }
                })
                .expect("spawn fabric worker");
        }
    });

    let stats = FabricStats {
        steals: sched.steals(),
        worker_panics: sched.deaths(),
        per_worker_items: per_worker.into_inner().unwrap(),
        item_seconds: durations.into_inner().unwrap(),
    };
    steals_total.add(stats.steals);
    deaths_total.add(stats.worker_panics);

    if sched.remaining() > 0 {
        return Err(FabricError::AllWorkersDead {
            completed: items.len() - sched.remaining(),
            total: items.len(),
        });
    }
    let out: Vec<R> = results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("all items completed"))
        .collect();
    items_total.add(out.len() as u64);
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dealt_owner_names_the_deque_that_first_holds_each_item() {
        for (items, workers) in [(0, 3), (2, 5), (5, 5), (6, 2), (7, 3), (10, 4), (289, 8)] {
            let sched = StealScheduler::new(items, workers);
            let state = sched.state.lock().unwrap();
            let mut next = 0;
            for (w, dq) in state.deques.iter().enumerate() {
                // Contiguous blocks in item order, the first `items % workers`
                // one item longer.
                let take = items / workers + usize::from(w < items % workers);
                assert!(dq.iter().copied().eq(next..next + take), "worker {w}: {dq:?}");
                next += take;
                for &i in dq {
                    assert_eq!(sched.dealt_owner(i), w, "item {i} of {items} over {workers}");
                }
            }
            assert_eq!(next, items);
        }
    }

    #[test]
    fn scheduler_deals_blocks_and_steals_from_longest() {
        let sched = StealScheduler::new(6, 2);
        // Worker 1 drains its own block (items 3..6) then steals from 0.
        assert_eq!(sched.next(1), Next::Item(3));
        sched.complete(1);
        assert_eq!(sched.next(1), Next::Item(4));
        sched.complete(1);
        assert_eq!(sched.next(1), Next::Item(5));
        sched.complete(1);
        // Steal comes from the victim's back.
        assert_eq!(sched.next(1), Next::Item(2));
        sched.complete(1);
        assert_eq!(sched.steals(), 1);
        assert_eq!(sched.next(0), Next::Item(0));
        sched.complete(0);
        assert_eq!(sched.next(0), Next::Item(1));
        sched.complete(0);
        assert_eq!(sched.next(0), Next::Done);
        assert_eq!(sched.remaining(), 0);
    }

    #[test]
    fn dead_worker_requeues_backlog_and_in_flight() {
        let sched = StealScheduler::new(4, 2);
        let Next::Item(first) = sched.next(0) else { panic!("expected an item") };
        assert_eq!(first, 0);
        // Worker 0 dies holding item 0, with 1 still queued.
        assert!(sched.worker_died(0));
        let mut got = Vec::new();
        while let Next::Item(i) = sched.next(1) {
            got.push(i);
            sched.complete(1);
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3], "orphans must reach the survivor");
        assert_eq!(sched.next(0), Next::Done, "dead workers stay dead");
        assert!(!sched.exhausted());
    }

    #[test]
    fn all_dead_is_reported_not_hung() {
        let sched = StealScheduler::new(3, 2);
        sched.next(0);
        assert!(sched.worker_died(0), "one survivor remains");
        sched.next(1);
        assert!(!sched.worker_died(1), "no survivors with work outstanding");
        assert!(sched.exhausted());
        assert_eq!(sched.next(0), Next::Done);
        assert_eq!(sched.next(1), Next::Done);
    }

    #[test]
    fn simulation_is_deterministic_and_scales() {
        let costs: Vec<f64> = (0..64).map(|i| 1.0 + 0.01 * (i % 7) as f64).collect();
        let serial: f64 = costs.iter().sum();
        let a = simulate_makespan(&costs, 4);
        let b = simulate_makespan(&costs, 4);
        assert_eq!(a, b, "virtual-time replay must be deterministic");
        assert!(a.makespan < serial / 3.0, "4 workers should beat 3x");
        let c = simulate_makespan(&costs, 8);
        assert!(c.makespan < serial / 5.0, "8 workers should beat 5x");
        assert!(
            (serial - a.per_worker_busy.iter().sum::<f64>()).abs() < 1e-9,
            "busy time must conserve total work"
        );
        let one = simulate_makespan(&costs, 1);
        assert!((one.makespan - serial).abs() < 1e-9);
    }

    #[test]
    fn run_ordered_preserves_item_order() {
        let tel = Telemetry::disabled();
        let items: Vec<usize> = (0..40).collect();
        let (out, stats) =
            run_ordered(&items, 4, &FaultPlan::none(), &tel, |_w, _i, &x| x * 2).unwrap();
        assert_eq!(out, (0..40).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(stats.per_worker_items.iter().sum::<u64>(), 40);
        assert_eq!(stats.worker_panics, 0);
    }

    #[test]
    fn panics_are_contained_and_orphaned_work_completes() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let tel = Telemetry::enabled();
        let items: Vec<usize> = (0..24).collect();
        // The first worker to touch item 5 panics; the retry on a
        // survivor succeeds. Guarantees exactly one contained death
        // regardless of which worker the scheduler hands item 5 to.
        let tripped = AtomicBool::new(false);
        let (out, stats) = run_ordered(&items, 4, &FaultPlan::none(), &tel, |_w, i, &x| {
            if i == 5 && !tripped.swap(true, Ordering::SeqCst) {
                panic!("organic worker failure on item 5");
            }
            x + 1
        })
        .unwrap();
        assert_eq!(out, (1..=24).collect::<Vec<_>>());
        assert_eq!(stats.worker_panics, 1);
        let snap = tel.snapshot();
        let deaths = snap.get("apf_distsim_fabric_deaths_total", &[]).expect("metric registered");
        assert!(deaths.value >= 1.0);
    }

    #[test]
    fn worker_spans_join_the_callers_trace_and_panics_flush_truncated() {
        let tel = Telemetry::enabled();
        let ctx = tel.new_trace().expect("sampling defaults to on");
        let _guard = ctx.install();
        let items: Vec<usize> = (0..16).collect();
        let plan = FaultPlan::none().with_burst(1, 0, 1, FabricFaultKind::Panic);
        // Items must outlast thread spawn, or the first worker drains the
        // whole list before worker 1 ever picks up its faulted item.
        let (_, stats) = run_ordered(&items, 3, &plan, &tel, |_w, _i, &x| {
            std::thread::sleep(Duration::from_millis(3));
            x
        })
        .unwrap();
        assert_eq!(stats.worker_panics, 1);

        let events = tel.trace_events();
        let item_spans: Vec<_> =
            events.iter().filter(|e| e.name == "distsim.fabric.item").collect();
        assert!(item_spans.len() > items.len(), "panicked item retries add a span");
        // Every worker span crossed the thread spawn with the caller's trace.
        assert!(item_spans.iter().all(|e| e.trace_id == ctx.trace_id));
        // The injected panic flushed a partial span marked truncated...
        let truncated: Vec<_> = item_spans.iter().filter(|e| e.truncated).collect();
        assert_eq!(truncated.len(), 1);
        // ...and its retry on a survivor is annotated as moved work.
        let id = truncated[0].id.expect("item spans carry the item index");
        assert!(item_spans
            .iter()
            .any(|e| e.id == Some(id) && !e.truncated && e.note == Some("steal")));
        // The death is on the flight recorder with the trace stamped.
        let deaths: Vec<_> =
            tel.flight_events().into_iter().filter(|f| f.kind == "fabric_worker_death").collect();
        assert_eq!(deaths.len(), 1);
        assert_eq!(deaths[0].trace_id, ctx.trace_id);
    }

    #[test]
    fn all_workers_dead_is_a_typed_error() {
        let tel = Telemetry::disabled();
        let items: Vec<usize> = (0..10).collect();
        let plan = FaultPlan::none()
            .with_burst(0, 0, 1, FabricFaultKind::Panic)
            .with_burst(1, 0, 1, FabricFaultKind::Panic);
        let err = run_ordered(&items, 2, &plan, &tel, |_w, _i, &x| x).unwrap_err();
        match err {
            FabricError::AllWorkersDead { completed, total } => {
                assert_eq!(completed, 0);
                assert_eq!(total, 10);
            }
        }
    }

    #[test]
    fn stragglers_delay_but_do_not_break() {
        let tel = Telemetry::disabled();
        let items: Vec<usize> = (0..8).collect();
        let plan =
            FaultPlan::none().with_burst(0, 0, 2, FabricFaultKind::Straggler { delay_ms: 5 });
        let (out, _) = run_ordered(&items, 2, &plan, &tel, |_w, _i, &x| x).unwrap();
        assert_eq!(out, items);
    }
}
