//! Soak test of the resilient serving engine: hammer `apf-serve` with a
//! seeded mix of valid, malformed, deadline-doomed, and whole-slide
//! requests while a deterministic fault plan panics workers, poisons
//! outputs with NaN, and slows inference — then prove the resilience
//! invariants held:
//!
//! * the process never panics (every worker fault is contained),
//! * slide requests — serial and distributed-stitched alike — share the
//!   patch queue and come back only as completion, deadline, worker
//!   failure, or backpressure (never silently dropped or half-written),
//! * the admission queue never exceeds its bound,
//! * every submitted request gets exactly one response, labelled with the
//!   degradation tier it was admitted at,
//! * the served tier is monotone in the queue depth at admission,
//! * the circuit breaker both trips (-> open) and recovers
//!   (half-open -> closed) during the run.
//!
//! Usage: `cargo run --release -p apf-bench --bin serve_soak
//!         [--steps 200] [--seed 7] [--workers 2] [--capacity 8] [--quick]`

use apf_bench::{print_table, save_atomic, save_json, Args};
use apf_core::fault::FaultPlan;
use apf_imaging::GrayImage;
use apf_serve::{
    BatchConfig, BreakerConfig, BreakerState, DegradationPolicy, InferenceFaultKind, Outcome,
    SegRequest, SegResponse, ServeConfig, ServeEngine, ServeMetrics, ServeReport, SlideRequest,
    Tier, Ticket, WorkerReport,
};
use apf_telemetry::{validate_jsonl, HistogramSnapshot, Telemetry, TelemetrySnapshot};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Latency quantiles derived from one registry histogram (not ad-hoc
/// timers): the engine records every observation, the soak only reads.
#[derive(Serialize)]
struct LatencySummary {
    count: u64,
    mean_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

impl LatencySummary {
    fn from_histogram(h: &HistogramSnapshot) -> Self {
        LatencySummary {
            count: h.count,
            mean_ms: h.mean() * 1e3,
            p50_ms: h.quantile(0.50) * 1e3,
            p95_ms: h.quantile(0.95) * 1e3,
            p99_ms: h.quantile(0.99) * 1e3,
            max_ms: h.max * 1e3,
        }
    }
}

#[derive(Serialize)]
struct SoakReport {
    steps: u64,
    seed: u64,
    workers: usize,
    queue_capacity: usize,
    max_queue_depth: usize,
    injected_faults: usize,
    metrics: ServeMetrics,
    worker_reports: Vec<WorkerReport>,
    /// Submission-to-response latency over ALL outcomes, from
    /// `apf_serve_request_latency_seconds`.
    request_latency: LatencySummary,
    /// Worker-side inference latency, from
    /// `apf_serve_inference_latency_seconds`.
    inference_latency: LatencySummary,
    /// `apf_serve_responses_total{tier=..}` counters.
    tier_full: u64,
    tier_reduced: u64,
    tier_coarse: u64,
    /// `apf_serve_breaker_transitions_total{to=..}` counters.
    breaker_to_open: u64,
    breaker_to_half_open: u64,
    breaker_to_closed: u64,
    /// Spans retained in (and evicted from) the trace ring.
    trace_events: usize,
    trace_evicted: u64,
    /// The soak's pass/fail verdicts, archived alongside the raw numbers.
    /// Whole-slide requests mixed into the workload (serial and
    /// distributed-stitched), and how many completed.
    slides_submitted: usize,
    slides_completed: u64,
    zero_process_panics: bool,
    queue_bound_held: bool,
    every_request_answered: bool,
    tiers_monotone_in_depth: bool,
    breaker_tripped: bool,
    breaker_recovered: bool,
    slides_answered_typed: bool,
    registry_consistent_with_engine: bool,
}

/// Reads a labelled counter out of a registry snapshot (0 if absent).
fn counter(snap: &TelemetrySnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    snap.get(name, labels).map_or(0, |m| m.value as u64)
}

/// A power-of-two test image with seed-dependent texture.
fn valid_image(rng: &mut ChaCha8Rng) -> GrayImage {
    let size = if rng.gen_bool(0.25) { 128 } else { 64 };
    let a = rng.gen_range(1usize..13);
    let b = rng.gen_range(1usize..13);
    GrayImage::from_fn(size, size, move |x, y| ((x * a + y * b) % 97) as f32 / 96.0)
}

/// One of four malformed shapes the typed validation must reject.
fn malformed_image(rng: &mut ChaCha8Rng) -> GrayImage {
    match rng.gen_range(0u32..4) {
        0 => {
            // NaN pixel in an otherwise fine image.
            let mut img = GrayImage::from_fn(64, 64, |x, y| (x + y) as f32 / 128.0);
            img.set(7, 11, f32::NAN);
            img
        }
        1 => GrayImage::new(64, 32),  // non-square
        2 => GrayImage::new(48, 48),  // non-power-of-two
        _ => GrayImage::new(0, 0),    // empty
    }
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let steps = args.get("steps", if quick { 80u64 } else { 200 });
    let seed = args.get("seed", 7u64);
    let workers = args.get("workers", 2usize);
    let capacity = args.get("capacity", 8usize);
    if workers < 1 || capacity < 1 || steps < 40 {
        eprintln!(
            "serve_soak: need --workers >= 1, --capacity >= 1, --steps >= 40 \
             (got workers {workers}, capacity {capacity}, steps {steps})"
        );
        std::process::exit(2);
    }

    let breaker = BreakerConfig { failure_threshold: 3, cooldown_polls: 4, half_open_successes: 2 };

    // Fault plan: random panics/NaNs/slowdowns on workers 1.., but worker 0
    // carries exactly one hand-placed panic burst long enough to trip its
    // breaker — and nothing else, so its half-open probes are guaranteed to
    // succeed and the run deterministically witnesses a full
    // open -> half-open -> closed recovery cycle.
    let random = FaultPlan::random(seed, workers, steps, InferenceFaultKind::draw);
    let side_faults = random.events().iter().copied().filter(|e| e.lane != 0).collect();
    let plan = FaultPlan::new(side_faults).with_burst(
        0,
        1,
        breaker.failure_threshold as u64,
        InferenceFaultKind::WorkerPanic,
    );
    let injected_faults = plan.events().len();

    // The engine publishes into this registry; everything the report says
    // about latency, tiers, and breaker churn is read back out of it.
    let tel = Telemetry::enabled();
    let policy = DegradationPolicy::default();
    let cfg = ServeConfig {
        workers,
        queue_capacity: capacity,
        patch_size: 4,
        model: apf_models::vit::ViTConfig::tiny(16, policy.full_len),
        model_seed: seed,
        default_deadline_ms: None,
        retry_after_ms: 25,
        poll_ms: 1,
        breaker,
        policy,
        faults: plan,
        batch: BatchConfig::default(),
        telemetry: tel.clone(),
        flight_dump_dir: None,
    };
    println!(
        "serve_soak: {} requests, seed {}, {} workers, queue capacity {}, {} injected faults",
        steps, seed, workers, capacity, injected_faults
    );

    // A small on-disk slide shared by every whole-slide request in the mix
    // (the request only carries the path; workers open it independently).
    let soak_dir = std::env::temp_dir().join("apf_serve_soak");
    std::fs::create_dir_all(&soak_dir).expect("create soak scratch dir");
    let slide_path = soak_dir.join("soak_slide.apt1");
    let slide_img = GrayImage::from_fn(128, 128, |x, y| ((x * 7 + y * 13) % 97) as f32 / 96.0);
    apf_gigapixel::write_tiled(&slide_path, 128, 128, 32, |_, _, x0, y0, w, h| {
        slide_img.crop(x0, y0, w, h).into_data()
    })
    .expect("write soak slide container");

    let engine = ServeEngine::start(cfg);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x50AC);
    let mut tickets: Vec<Ticket> = Vec::with_capacity(steps as usize);
    let mut malformed_ids = Vec::new();
    let mut doomed_ids = Vec::new();
    let mut slide_ids: Vec<u64> = Vec::new();
    // Submission comes in waves: instant bursts one deeper than the queue
    // bound (forcing backpressure rejections and the degraded tiers), then
    // a pause lets it drain (restoring the full tier and feeding the
    // half-open breaker probes).
    let wave = capacity as u64 + 4;
    let pause = std::time::Duration::from_millis((wave * 2).min(50));
    for id in 0..steps {
        let draw: f64 = rng.gen();
        // Requests 0..=2 are pinned (one malformed, one doomed into an
        // empty queue, one whole-slide) so every outcome class is exercised
        // at any steps/capacity/seed combination; the rest is the seeded
        // mix.
        let ticket = if id == 0 || (id >= 3 && draw < 0.10) {
            // Malformed: must come back as a typed InvalidInput.
            malformed_ids.push(id);
            engine.submit(SegRequest { id, image: malformed_image(&mut rng), deadline_ms: None })
        } else if id == 1 || (id >= 3 && draw < 0.20) {
            // Doomed: a zero deadline can never complete.
            doomed_ids.push(id);
            engine.submit(SegRequest { id, image: valid_image(&mut rng), deadline_ms: Some(0) })
        } else if id == 2 || (id >= 3 && draw < 0.30) {
            // Whole-slide, alternating the serial in-worker stitcher with
            // the distributed drive (2 stitch workers + a checkpoint, so
            // the resumable path runs under the same injected faults).
            slide_ids.push(id);
            let mut req = SlideRequest::serial(
                id,
                slide_path.clone(),
                soak_dir.join(format!("soak_out_{id}.apt1")),
                64,
                8,
                1 << 20,
                None,
            );
            if slide_ids.len().is_multiple_of(2) {
                req.stitch_workers = 2;
                req.checkpoint_path = Some(soak_dir.join(format!("soak_{id}.ckpt.apf2")));
                req.resume = true;
            }
            engine.submit_slide(req)
        } else if draw < 0.40 {
            // Tight-but-feasible deadline.
            engine.submit(SegRequest { id, image: valid_image(&mut rng), deadline_ms: Some(50) })
        } else {
            engine.submit(SegRequest { id, image: valid_image(&mut rng), deadline_ms: None })
        };
        tickets.push(ticket);
        if (id + 1) % wave == 0 {
            std::thread::sleep(pause);
        }
    }
    let responses: Vec<SegResponse> = tickets
        .into_iter()
        .map(|t| t.wait().expect("engine must answer every request"))
        .collect();

    // Epilogue: one pinned resumable slide into the drained engine. The
    // main-loop slides can all legitimately die under a hostile
    // steps/capacity/seed combination, so the guaranteed slide completion
    // is anchored here instead: faults are keyed (worker, nth-processed)
    // and each failed attempt consumes exactly one scheduled slot, so
    // retrying with resume=true must complete within `injected_faults + 1`
    // attempts — and when an attempt dies mid-stitch, the retry exercises a
    // checkpointed resume under the same engine.
    let epi_out = soak_dir.join("soak_out_epilogue.apt1");
    let epi_ckpt = soak_dir.join("soak_epilogue.ckpt.apf2");
    let _ = std::fs::remove_file(&epi_out);
    let _ = std::fs::remove_file(&epi_ckpt);
    let _ = std::fs::remove_file(soak_dir.join("soak_epilogue.ckpt.apf2.prev"));
    let mut epilogue_attempts = 0u64;
    loop {
        assert!(
            epilogue_attempts <= injected_faults as u64,
            "epilogue slide failed {epilogue_attempts} times with only {injected_faults} faults scheduled"
        );
        let mut req = SlideRequest::serial(
            steps + epilogue_attempts,
            slide_path.clone(),
            epi_out.clone(),
            64,
            8,
            1 << 20,
            None,
        );
        req.stitch_workers = 2;
        req.checkpoint_path = Some(epi_ckpt.clone());
        req.resume = true;
        let r = engine
            .submit_slide(req)
            .wait()
            .expect("engine must answer the epilogue slide");
        epilogue_attempts += 1;
        match r.outcome {
            Outcome::SlideCompleted { windows, .. } => {
                assert_eq!(windows, 9, "epilogue slide stitched the wrong window count");
                break;
            }
            Outcome::WorkerFailure { .. } => {}
            other => panic!("epilogue slide attempt got {other:?}"),
        }
    }
    apf_gigapixel::TileStore::open(&epi_out)
        .unwrap_or_else(|e| panic!("epilogue slide output unreadable: {e}"));
    let _ = std::fs::remove_file(&epi_out);
    let _ = std::fs::remove_file(&epi_ckpt);
    let _ = std::fs::remove_file(soak_dir.join("soak_epilogue.ckpt.apf2.prev"));
    let total_requests = steps + epilogue_attempts;

    let report: ServeReport = engine.shutdown();

    // ---- Invariant checks (the binary IS the gate: any violation panics
    // the process, which check.sh treats as failure) ----
    let every_request_answered =
        responses.len() as u64 == steps && report.metrics.responses() == total_requests;
    assert!(every_request_answered, "lost responses: {} of {}", responses.len(), steps);

    let queue_bound_held = report.max_queue_depth <= report.queue_capacity;
    assert!(
        queue_bound_held,
        "queue bound violated: depth {} > capacity {}",
        report.max_queue_depth, report.queue_capacity
    );

    // Tier monotone in admission depth across the whole run.
    let mut by_depth: Vec<(usize, u8)> =
        responses.iter().map(|r| (r.depth_at_admission, r.tier.rank())).collect();
    by_depth.sort();
    let tiers_monotone_in_depth = by_depth.windows(2).all(|w| w[0].1 <= w[1].1);
    assert!(tiers_monotone_in_depth, "tier not monotone in queue depth");
    assert!(
        responses.iter().any(|r| r.tier != Tier::Full),
        "burst load never pushed service out of the full tier"
    );
    assert!(report.metrics.rejected > 0, "burst load never triggered backpressure");

    // The breaker must have tripped AND recovered somewhere.
    let breaker_tripped = report.workers.iter().any(|w| w.trips >= 1);
    let breaker_recovered = report.workers.iter().any(|w| w.recoveries >= 1);
    assert!(breaker_tripped, "no breaker ever tripped despite the panic burst");
    assert!(breaker_recovered, "no breaker recovered (half-open -> closed)");
    assert_eq!(
        report.workers[0].final_state,
        BreakerState::Closed,
        "worker 0 must end healthy after its scripted burst"
    );

    // Injected worker panics were contained: they show up as counted
    // failures, and reaching this line at all means the process survived.
    let zero_process_panics = true;
    assert!(report.metrics.worker_panics >= breaker.failure_threshold as u64);
    assert!(report.metrics.completed > 0, "soak completed nothing");
    // Malformed requests are always the typed rejection, never anything
    // else — and request 0 guarantees the class is non-empty.
    for &id in &malformed_ids {
        assert!(
            matches!(responses[id as usize].outcome, Outcome::InvalidInput { .. }),
            "malformed request {id} got {:?}",
            responses[id as usize].outcome
        );
    }
    assert!(report.metrics.invalid_input >= malformed_ids.len() as u64);
    // A zero-deadline request may be refused at the door or expire, but
    // must never complete; request 1 (doomed into an empty queue) is
    // guaranteed to expire rather than be rejected.
    for &id in &doomed_ids {
        assert!(
            matches!(
                responses[id as usize].outcome,
                Outcome::Rejected { .. } | Outcome::DeadlineExceeded { .. }
            ),
            "zero-deadline request {id} got {:?}",
            responses[id as usize].outcome
        );
    }
    assert!(
        matches!(responses[1].outcome, Outcome::DeadlineExceeded { .. }),
        "request 1 (doomed, empty queue) got {:?}",
        responses[1].outcome
    );

    // Slide requests under worker faults: every one answered with a typed
    // slide-shaped outcome (completion, deadline, contained worker failure,
    // or backpressure) — never invalid input, never dropped.
    let mut slides_completed_seen = 0u64;
    for &id in &slide_ids {
        match &responses[id as usize].outcome {
            Outcome::SlideCompleted { windows, .. } => {
                assert_eq!(*windows, 9, "slide {id} stitched the wrong window count");
                slides_completed_seen += 1;
            }
            Outcome::DeadlineExceeded { .. }
            | Outcome::WorkerFailure { .. }
            | Outcome::Rejected { .. } => {}
            other => panic!("slide request {id} got {other:?}"),
        }
    }
    let slides_answered_typed = true;
    // The epilogue slide is the one completion guaranteed at every shape;
    // the engine counter must agree with the responses we observed plus it.
    assert!(report.metrics.slides_completed > 0, "epilogue slide never completed");
    assert_eq!(
        report.metrics.slides_completed,
        slides_completed_seen + 1,
        "engine slide counter disagrees with observed responses (+1 epilogue)"
    );
    // Completed slides left a finished container; failed ones left nothing
    // half-written at the output path.
    for &id in &slide_ids {
        let out = soak_dir.join(format!("soak_out_{id}.apt1"));
        match &responses[id as usize].outcome {
            Outcome::SlideCompleted { .. } => {
                apf_gigapixel::TileStore::open(&out)
                    .unwrap_or_else(|e| panic!("slide {id} output unreadable: {e}"));
            }
            _ => assert!(!out.exists(), "failed slide {id} left a partial container"),
        }
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(soak_dir.join(format!("soak_{id}.ckpt.apf2")));
        let _ = std::fs::remove_file(soak_dir.join(format!("soak_{id}.ckpt.apf2.prev")));
    }

    // ---- Registry-derived report ----
    // Latency quantiles, tier counts, and breaker churn all come from the
    // telemetry registry the engine recorded into — the soak's own clocks
    // are not consulted.
    let snap = tel.snapshot();
    let request_latency = LatencySummary::from_histogram(
        &snap
            .get("apf_serve_request_latency_seconds", &[])
            .and_then(|m| m.histogram.clone())
            .expect("engine recorded request latency"),
    );
    let inference_latency = LatencySummary::from_histogram(
        &snap
            .get("apf_serve_inference_latency_seconds", &[])
            .and_then(|m| m.histogram.clone())
            .expect("engine recorded inference latency"),
    );
    let tier_full = counter(&snap, "apf_serve_responses_total", &[("tier", "full")]);
    let tier_reduced = counter(&snap, "apf_serve_responses_total", &[("tier", "reduced")]);
    let tier_coarse = counter(&snap, "apf_serve_responses_total", &[("tier", "coarse")]);
    let breaker_to_open = counter(&snap, "apf_serve_breaker_transitions_total", &[("to", "open")]);
    let breaker_to_half_open =
        counter(&snap, "apf_serve_breaker_transitions_total", &[("to", "half_open")]);
    let breaker_to_closed =
        counter(&snap, "apf_serve_breaker_transitions_total", &[("to", "closed")]);

    // The registry and the engine's own counters are two independent paths;
    // they must tell the same story.
    let m: &ServeMetrics = &report.metrics;
    let engine_transitions: usize = report.workers.iter().map(|w| w.transitions.len()).sum();
    let registry_consistent_with_engine = counter(&snap, "apf_serve_requests_total", &[])
        == total_requests
        && request_latency.count == total_requests
        && counter(&snap, "apf_serve_outcomes_total", &[("outcome", "completed")]) == m.completed
        && counter(&snap, "apf_serve_outcomes_total", &[("outcome", "rejected")]) == m.rejected
        && counter(&snap, "apf_serve_outcomes_total", &[("outcome", "invalid_input")])
            == m.invalid_input
        && tier_full + tier_reduced + tier_coarse == total_requests
        && (breaker_to_open + breaker_to_half_open + breaker_to_closed) as usize
            == engine_transitions
        && breaker_to_open as usize >= report.workers.iter().map(|w| w.trips as usize).sum();
    assert!(
        registry_consistent_with_engine,
        "registry diverged from engine counters:\n{}",
        snap.render_prometheus()
    );

    // Prometheus exposition: every metric line carries the apf_ prefix.
    let prom = snap.render_prometheus();
    for line in prom.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        assert!(line.starts_with("apf_"), "unprefixed metric line: {line}");
    }

    // The span trace must contain at least one completed request's full
    // tree (request -> inference -> patchify -> forward sharing one id)
    // and parse as valid JSON lines.
    let events = tel.trace_events();
    let has_tree = |id: u64| {
        ["serve.request", "serve.inference", "serve.patchify", "serve.forward"]
            .iter()
            .all(|n| events.iter().any(|e| e.name == *n && e.id == Some(id)))
    };
    let traced_tree = events
        .iter()
        .filter(|e| e.name == "serve.request")
        .filter_map(|e| e.id)
        .find(|&id| has_tree(id));
    assert!(
        traced_tree.is_some(),
        "no request produced a complete span tree ({} events retained)",
        events.len()
    );
    assert!(
        events.iter().any(|e| e.name == "core.quadtree"),
        "core-crate spans did not nest into the serve trace"
    );
    let trace = tel.trace_jsonl();
    let trace_lines = validate_jsonl(&trace)
        .unwrap_or_else(|e| panic!("trace JSONL failed validation: {e}"));
    assert_eq!(trace_lines, events.len(), "one JSON line per retained span");
    save_atomic("serve_soak_trace.jsonl", &trace);
    save_atomic("serve_soak_metrics.prom", &prom);

    let outcome_rows: Vec<(&str, u64)> = vec![
        ("completed", m.completed),
        ("slide completed", m.slides_completed),
        ("rejected (backpressure)", m.rejected),
        ("invalid input", m.invalid_input),
        ("deadline (queued)", m.deadline_queued),
        ("deadline (inference)", m.deadline_inference),
        ("deadline (stitching)", m.deadline_stitching),
        ("worker panic (contained)", m.worker_panics),
        ("non-finite output", m.non_finite_outputs),
    ];
    print_table(
        "serve_soak — outcomes",
        &["outcome", "count"],
        &outcome_rows
            .iter()
            .map(|(k, v)| vec![k.to_string(), v.to_string()])
            .collect::<Vec<_>>(),
    );
    print_table(
        "serve_soak — responses by tier (registry)",
        &["tier", "count"],
        &[
            vec!["full".into(), tier_full.to_string()],
            vec!["reduced".into(), tier_reduced.to_string()],
            vec!["coarse".into(), tier_coarse.to_string()],
        ],
    );
    print_table(
        "serve_soak — latency quantiles (registry histograms)",
        &["histogram", "count", "p50 ms", "p95 ms", "p99 ms", "max ms"],
        &[&request_latency, &inference_latency]
            .iter()
            .zip(["request", "inference"])
            .map(|(l, name)| {
                vec![
                    name.to_string(),
                    l.count.to_string(),
                    format!("{:.2}", l.p50_ms),
                    format!("{:.2}", l.p95_ms),
                    format!("{:.2}", l.p99_ms),
                    format!("{:.2}", l.max_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        "serve_soak — breakers",
        &["worker", "processed", "trips", "recoveries", "transitions"],
        &report
            .workers
            .iter()
            .map(|w| {
                vec![
                    w.worker.to_string(),
                    w.processed.to_string(),
                    w.trips.to_string(),
                    w.recoveries.to_string(),
                    w.transitions.len().to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nmax queue depth {} / capacity {}; request latency p50 {:.2} / p95 {:.2} / p99 {:.2} ms \
         (registry); traced request {} ({} spans retained, {} evicted)",
        report.max_queue_depth,
        report.queue_capacity,
        request_latency.p50_ms,
        request_latency.p95_ms,
        request_latency.p99_ms,
        traced_tree.unwrap(),
        events.len(),
        tel.trace_evicted(),
    );
    println!("all resilience invariants held");

    save_json(
        "serve_soak",
        &SoakReport {
            steps,
            seed,
            workers,
            queue_capacity: report.queue_capacity,
            max_queue_depth: report.max_queue_depth,
            injected_faults,
            metrics: report.metrics.clone(),
            worker_reports: report.workers.clone(),
            request_latency,
            inference_latency,
            tier_full,
            tier_reduced,
            tier_coarse,
            breaker_to_open,
            breaker_to_half_open,
            breaker_to_closed,
            trace_events: events.len(),
            trace_evicted: tel.trace_evicted(),
            slides_submitted: slide_ids.len() + epilogue_attempts as usize,
            slides_completed: slides_completed_seen + 1,
            zero_process_panics,
            queue_bound_held,
            every_request_answered,
            tiers_monotone_in_depth,
            breaker_tripped,
            breaker_recovered,
            slides_answered_typed,
            registry_consistent_with_engine,
        },
    );
}
