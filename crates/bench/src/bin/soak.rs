//! The soak gates: one binary, four scenarios, one report schema.
//!
//! * `engine` — the in-process fault soak. A seeded mix of valid,
//!   malformed, deadline-doomed and whole-slide requests arrives in waves
//!   one deeper than the queue, while a fault plan panics workers, poisons
//!   outputs with NaN and slows inference. Worker 0 carries one scripted
//!   panic burst, so its breaker trips and recovers. Gates: no lost
//!   response, the queue bound, tiers monotone in queue depth, typed
//!   outcomes for every request class, a guaranteed resumable slide
//!   completion, registry/engine agreement, a complete span tree.
//! * `wire` — the faulted front door. Client threads hammer a loopback
//!   `WireServer` under socket faults (torn frames, stalls, disconnects,
//!   garbage) and engine faults; one tenant is starved by its quota; the
//!   server drains mid-soak with two idle connections parked. Gates: no
//!   server panic, exact quota accounting, fairness, drain within bound
//!   with a `GoAway` on every closed connection, typed client failures, a
//!   traced probe stitched end to end, admin-plane parity and a
//!   flight-recorder dump of the injected worker panic.
//! * `scale` — the clean high-volume run. 16 × 6 400 requests over the
//!   wire to a batched, cached engine with zero failures, >= 90 % cache
//!   hits, batches that form and one kept connection per client (only a
//!   retry may open another); then in process, the batched and cached
//!   engine must serve a repeated 256² pool at >= 2× the default engine
//!   (uncached batches of one) at concurrency 16.
//! * `slide` — out-of-core stitching. On a slide that fits in memory, the
//!   single- and multi-window stitches match the full-image path and the
//!   dense windowed reference (1e-5), and a 3-worker distributed stitch
//!   equals the serial one bit for bit. A 16384² slide (4096² with
//!   `--quick`) is streamed to `APT1` under `APF_SCRATCH_DIR` (default
//!   `target/gigapixel`), tree-built and stitched under 1/8 of its dense
//!   bytes (1/2 with `--quick`); replaying its measured window costs
//!   reaches >= 3x at 4 workers and >= 5x at 8.
//!
//! Every verdict is asserted where it is computed ([`SoakReport::check`]),
//! so exit 0 means all of them held; the report lands in
//! `results/soak_<scenario>.json` for `scripts/check.sh` to re-grep.
//!
//! Usage: `cargo run --release -p apf-bench --bin soak -- --scenario engine|wire|scale|slide
//!         [--quick] [--seed 7] [--steps 200] [--workers 2] [--capacity 8]`
//! (`--steps`, `--workers` and `--capacity` shape the `engine` scenario;
//! bad values exit with code 2).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apf_bench::harness::{bits_equal, max_abs_diff};
use apf_bench::report::results_dir;
use apf_bench::{save_atomic, Args, SoakReport};
use apf_core::fault::FaultPlan;
use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_core::reconstruct_mask;
use apf_distsim::simulate_makespan;
use apf_gigapixel::{
    build_streaming_quadtree, stream_paip_slide, write_tiled, DistStitchOptions, Residency,
    SlideSegmenter, StitchConfig, TileCache, TileStore,
};
use apf_imaging::paip::{PaipConfig, PaipGenerator};
use apf_imaging::GrayImage;
use apf_models::vit::{ViTConfig, ViTSegmenter};
use apf_serve::wire::{
    read_frame, AdminRequest, ClientConfig, ClientError, FrameKind, NetFaultKind, QuotaConfig,
    QuotaLimit, TenantAccount, WireClient, WireConfig, WireRequest, WireServer, WireStatus,
    DEFAULT_MAX_PAYLOAD,
};
use apf_serve::{
    BreakerConfig, BreakerState, InferenceFaultKind, Outcome, SegRequest, ServeConfig, ServeEngine,
    SlideRequest, Tier,
};
use apf_telemetry::{validate_jsonl, HistogramSnapshot, Telemetry, TelemetrySnapshot};
use apf_tensor::prelude::Graph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Breaker of the faulted scenarios: three failures trip it.
const BREAKER: BreakerConfig =
    BreakerConfig { failure_threshold: 3, cooldown_polls: 4, half_open_successes: 2 };

fn main() {
    let args = Args::parse();
    let scenario: String = args.get("scenario", String::new());
    let quick = args.flag("quick");
    let seed = args.get("seed", 7u64);
    match scenario.as_str() {
        "engine" => engine(&args, quick, seed),
        "wire" => wire(quick, seed),
        "scale" => scale(quick, seed),
        "slide" => slide(quick, seed),
        _ => {
            eprintln!("soak: need --scenario engine|wire|scale|slide (got {scenario:?})");
            std::process::exit(2);
        }
    }
}

// ---- Shared fixtures --------------------------------------------------

/// Reads a labelled counter out of a registry snapshot (0 if absent).
fn counter(snap: &TelemetrySnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    snap.get(name, labels).map_or(0, |m| m.value as u64)
}

/// A per-scenario scratch directory holding the shared 128² APT1 slide
/// (tile 32, texture `(x·7 + y·13) % 97`) that every whole-slide request
/// reads; returns the directory and the slide's path.
fn slide_fixture(scenario: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("apf_soak_{scenario}"));
    std::fs::create_dir_all(&dir).expect("create soak scratch dir");
    let slide = dir.join("slide.apt1");
    apf_gigapixel::write_tiled(&slide, 128, 128, 32, |_, _, x0, y0, w, h| {
        (0..w * h).map(|i| (((x0 + i % w) * 7 + (y0 + i / w) * 13) % 97) as f32 / 96.0).collect()
    })
    .expect("write soak slide container");
    (dir, slide)
}

/// The repeated-image pool: 8 distinct `side`² images requested over and
/// over, so after 8 builds the preprocessing cache can answer everything.
fn image_pool(side: usize) -> Vec<GrayImage> {
    (0..8usize)
        .map(|s| {
            GrayImage::from_fn(side, side, move |x, y| {
                (((x * (3 + s)) ^ (y * (5 + s))) % 97) as f32 / 96.0
            })
        })
        .collect()
}

/// Runs `client(c)` for `c in 0..n` on named threads and `meanwhile()` on
/// the calling thread, then joins the fleet. Returns the results of the
/// clients that returned, how many panicked, and `meanwhile`'s result.
fn fleet<T: Send, R>(
    name: &str,
    n: usize,
    client: impl Fn(usize) -> T + Sync,
    meanwhile: impl FnOnce() -> R,
) -> (Vec<T>, u64, R) {
    std::thread::scope(|s| {
        let client = &client;
        let handles: Vec<_> = (0..n)
            .map(|c| {
                std::thread::Builder::new()
                    .name(format!("{name}-{c}"))
                    .spawn_scoped(s, move || client(c))
                    .expect("spawn client thread")
            })
            .collect();
        let r = meanwhile();
        let (mut done, mut panicked) = (Vec::new(), 0u64);
        for h in handles {
            match h.join() {
                Ok(t) => done.push(t),
                Err(_) => panicked += 1,
            }
        }
        (done, panicked, r)
    })
}

/// Records a registry histogram's count, mean and quantiles (in ms).
fn latency_counts(r: &mut SoakReport, name: &str, h: &HistogramSnapshot) {
    r.count(&format!("{name}_count"), h.count as f64);
    for (q, seconds) in [
        ("mean", h.mean()),
        ("p50", h.quantile(0.50)),
        ("p95", h.quantile(0.95)),
        ("p99", h.quantile(0.99)),
        ("max", h.max),
    ] {
        r.count(&format!("{name}_{q}_ms"), seconds * 1e3);
    }
}

/// A slide request for the shared fixture, 64-pixel windows with an
/// 8-pixel halo; `stitch_workers > 1` also checkpoints and resumes.
fn slide_request(id: u64, slide: &Path, out: PathBuf, stitch_workers: usize) -> SlideRequest {
    let mut req = SlideRequest::serial(id, slide.to_path_buf(), out.clone(), 64, 8, 1 << 20, None);
    if stitch_workers > 1 {
        req.stitch_workers = stitch_workers;
        req.checkpoint_path = Some(out.with_extension("ckpt.apf2"));
        req.resume = true;
    }
    req
}

/// Removes a slide output and its checkpoint pair.
fn remove_slide_files(out: &Path) {
    for p in
        [out.to_path_buf(), out.with_extension("ckpt.apf2"), out.with_extension("ckpt.apf2.prev")]
    {
        let _ = std::fs::remove_file(p);
    }
}

// ---- engine -----------------------------------------------------------

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
        1 => GrayImage::new(64, 32), // non-square
        2 => GrayImage::new(48, 48), // non-power-of-two
        _ => GrayImage::new(0, 0),   // empty
    }
}

fn engine(args: &Args, quick: bool, seed: u64) {
    let steps = args.get("steps", if quick { 80u64 } else { 200 });
    let workers = args.get("workers", 2usize);
    let capacity = args.get("capacity", 8usize);
    if workers < 1 || capacity < 1 || steps < 40 {
        eprintln!(
            "soak: engine needs --workers >= 1, --capacity >= 1, --steps >= 40 \
             (got workers {workers}, capacity {capacity}, steps {steps})"
        );
        std::process::exit(2);
    }

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
        BREAKER.failure_threshold as u64,
        InferenceFaultKind::WorkerPanic,
    );
    let injected_faults = plan.events().len();
    let mut r = SoakReport::new(
        "engine",
        seed,
        &[
            ("steps", steps as f64),
            ("workers", workers as f64),
            ("capacity", capacity as f64),
            ("injected_faults", injected_faults as f64),
        ],
    );
    println!(
        "soak engine: {steps} requests, seed {seed}, {workers} workers, queue capacity \
         {capacity}, {injected_faults} injected faults"
    );

    // The engine publishes into this registry; everything the report says
    // about latency, tiers, and breaker churn is read back out of it.
    let tel = Telemetry::enabled();
    let engine = ServeEngine::start(ServeConfig {
        workers,
        queue_capacity: capacity,
        model_seed: seed,
        poll_ms: 1,
        breaker: BREAKER,
        faults: plan,
        telemetry: tel.clone(),
        ..ServeConfig::small()
    });
    let (dir, slide) = slide_fixture("engine");
    let slide_out = |id: u64| dir.join(format!("out_{id}.apt1"));

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x50AC);
    let mut tickets = Vec::with_capacity(steps as usize);
    let (mut malformed_ids, mut doomed_ids, mut slide_ids) = (Vec::new(), Vec::new(), Vec::new());
    // Submission comes in waves: instant bursts one deeper than the queue
    // bound (forcing backpressure rejections and the degraded tiers), then
    // a pause lets it drain (restoring the full tier and feeding the
    // half-open breaker probes).
    let wave = capacity as u64 + 4;
    let pause = Duration::from_millis((wave * 2).min(50));
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
            let stitch_workers = if slide_ids.len().is_multiple_of(2) { 2 } else { 1 };
            engine.submit_slide(slide_request(id, &slide, slide_out(id), stitch_workers))
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
    let responses: Vec<_> =
        tickets.into_iter().map(|t| t.wait().expect("engine must answer every request")).collect();
    let outcome = |id: u64| &responses[id as usize].outcome;

    // Epilogue: one pinned resumable slide into the drained engine. The
    // main-loop slides can all legitimately die under a hostile
    // steps/capacity/seed combination, so the guaranteed slide completion
    // is anchored here instead: faults are keyed (worker, nth-processed)
    // and each failed attempt consumes exactly one scheduled slot, so
    // retrying with resume=true must complete within `injected_faults + 1`
    // attempts — and when an attempt dies mid-stitch, the retry exercises a
    // checkpointed resume under the same engine.
    let epi_out = dir.join("out_epilogue.apt1");
    remove_slide_files(&epi_out);
    let mut epilogue_attempts = 0u64;
    let epilogue = loop {
        let req = slide_request(steps + epilogue_attempts, &slide, epi_out.clone(), 2);
        let outcome =
            engine.submit_slide(req).wait().expect("engine must answer the epilogue slide").outcome;
        epilogue_attempts += 1;
        if !matches!(outcome, Outcome::WorkerFailure { .. })
            || epilogue_attempts > injected_faults as u64
        {
            break outcome;
        }
    };
    r.check(
        "epilogue_slide_completed",
        matches!(epilogue, Outcome::SlideCompleted { windows: 9, .. })
            && apf_gigapixel::TileStore::open(&epi_out).is_ok(),
        format_args!("{epilogue:?} after {epilogue_attempts} attempts, {injected_faults} faults"),
    );
    remove_slide_files(&epi_out);
    let total_requests = steps + epilogue_attempts;
    let report = engine.shutdown();
    let m = &report.metrics;

    r.check(
        "every_request_answered",
        responses.len() as u64 == steps && m.responses() == total_requests,
        format_args!(
            "{} of {steps} responses, {} of {total_requests}",
            responses.len(),
            m.responses()
        ),
    );
    r.check(
        "queue_bound_held",
        report.max_queue_depth <= report.queue_capacity,
        format_args!("depth {} > capacity {}", report.max_queue_depth, report.queue_capacity),
    );
    let mut by_depth: Vec<(usize, u8)> =
        responses.iter().map(|x| (x.depth_at_admission, x.tier.rank())).collect();
    by_depth.sort();
    r.check(
        "tiers_monotone_in_depth",
        by_depth.windows(2).all(|w| w[0].1 <= w[1].1),
        "tier not monotone in queue depth",
    );
    r.check(
        "burst_left_full_tier",
        responses.iter().any(|x| x.tier != Tier::Full),
        "burst load never pushed service out of the full tier",
    );
    r.check("burst_hit_backpressure", m.rejected > 0, "burst load never triggered backpressure");
    r.check(
        "breaker_tripped",
        report.workers.iter().any(|w| w.trips >= 1),
        "no breaker ever tripped despite the panic burst",
    );
    r.check(
        "breaker_recovered",
        report.workers.iter().any(|w| w.recoveries >= 1),
        "no breaker recovered (half-open -> closed)",
    );
    r.check(
        "worker0_ends_closed",
        report.workers[0].final_state == BreakerState::Closed,
        "worker 0 must end healthy after its scripted burst",
    );
    // Injected worker panics were contained: they show up as counted
    // failures, and reaching this line at all means the process survived.
    r.check(
        "zero_process_panics",
        m.worker_panics >= BREAKER.failure_threshold as u64,
        format_args!("only {} contained worker panics counted", m.worker_panics),
    );
    r.check("requests_completed", m.completed > 0, "soak completed nothing");
    // Malformed requests are always the typed rejection; request 0
    // guarantees the class is non-empty.
    r.check(
        "malformed_rejected_typed",
        malformed_ids.iter().all(|&id| matches!(outcome(id), Outcome::InvalidInput { .. }))
            && m.invalid_input >= malformed_ids.len() as u64,
        format_args!("malformed {malformed_ids:?}, invalid_input {}", m.invalid_input),
    );
    // A zero-deadline request may be refused at the door or expire, but
    // never complete; request 1 (doomed into an empty queue) must expire.
    r.check(
        "doomed_never_completed",
        doomed_ids.iter().all(|&id| {
            matches!(outcome(id), Outcome::Rejected { .. } | Outcome::DeadlineExceeded { .. })
        }) && matches!(outcome(1), Outcome::DeadlineExceeded { .. }),
        format_args!("doomed {doomed_ids:?}, request 1 got {:?}", outcome(1)),
    );

    // Slide requests under worker faults: every one answered with a typed
    // slide-shaped outcome (completion, deadline, contained worker failure,
    // or backpressure) — never invalid input, never dropped. Completed
    // slides left a readable container; failed ones left nothing
    // half-written at the output path.
    let mut slides_completed = 0u64;
    let (mut typed, mut no_partial) = (true, true);
    for &id in &slide_ids {
        let out = slide_out(id);
        match outcome(id) {
            Outcome::SlideCompleted { windows: 9, .. } => {
                slides_completed += 1;
                no_partial &= apf_gigapixel::TileStore::open(&out).is_ok();
            }
            Outcome::DeadlineExceeded { .. }
            | Outcome::WorkerFailure { .. }
            | Outcome::Rejected { .. } => no_partial &= !out.exists(),
            _ => typed = false,
        }
        remove_slide_files(&out);
    }
    r.check("slides_answered_typed", typed, format_args!("slide outcomes for {slide_ids:?}"));
    r.check("no_partial_slide_containers", no_partial, "a slide output is partial or unreadable");
    // The epilogue slide is the one completion guaranteed at every shape;
    // the engine counter must agree with the responses observed plus it.
    r.check(
        "slide_counter_matches_responses",
        m.slides_completed == slides_completed + 1,
        format_args!("engine {} vs observed {slides_completed} + 1", m.slides_completed),
    );

    // ---- Registry-derived counts ----
    // Latency quantiles, tier counts, and breaker churn all come from the
    // telemetry registry the engine recorded into — the soak's own clocks
    // are not consulted.
    let snap = tel.snapshot();
    let histogram = |name: &str| {
        snap.get(name, &[]).and_then(|m| m.histogram.clone()).expect("engine recorded latency")
    };
    let request_latency = histogram("apf_serve_request_latency_seconds");
    latency_counts(&mut r, "request_latency", &request_latency);
    latency_counts(&mut r, "inference_latency", &histogram("apf_serve_inference_latency_seconds"));
    let tiers = ["full", "reduced", "coarse"]
        .map(|t| counter(&snap, "apf_serve_responses_total", &[("tier", t)]));
    let breaker = ["open", "half_open", "closed"]
        .map(|t| counter(&snap, "apf_serve_breaker_transitions_total", &[("to", t)]));
    for (name, v) in ["tier_full", "tier_reduced", "tier_coarse"].iter().zip(tiers) {
        r.count(name, v as f64);
    }
    for (name, v) in
        ["breaker_to_open", "breaker_to_half_open", "breaker_to_closed"].iter().zip(breaker)
    {
        r.count(name, v as f64);
    }

    // The registry and the engine's own counters are two independent paths;
    // they must tell the same story.
    let outcomes = |o: &str| counter(&snap, "apf_serve_outcomes_total", &[("outcome", o)]);
    let engine_transitions: usize = report.workers.iter().map(|w| w.transitions.len()).sum();
    let trips: u64 = report.workers.iter().map(|w| w.trips as u64).sum();
    let prom = snap.render_prometheus();
    r.check(
        "registry_consistent_with_engine",
        counter(&snap, "apf_serve_requests_total", &[]) == total_requests
            && request_latency.count == total_requests
            && outcomes("completed") == m.completed
            && outcomes("rejected") == m.rejected
            && outcomes("invalid_input") == m.invalid_input
            && tiers.iter().sum::<u64>() == total_requests
            && breaker.iter().sum::<u64>() as usize == engine_transitions
            && breaker[0] >= trips,
        format_args!("registry diverged from engine counters:\n{prom}"),
    );
    r.check(
        "prometheus_lines_prefixed",
        prom.lines().all(|l| l.is_empty() || l.starts_with('#') || l.starts_with("apf_")),
        "unprefixed metric line in the exposition",
    );

    // The span trace must contain at least one completed request's full
    // tree (request -> inference -> patchify -> forward sharing one id)
    // and parse as valid JSON lines.
    let events = tel.trace_events();
    let has_tree = |id: u64| {
        ["serve.request", "serve.inference", "serve.patchify", "serve.forward"]
            .iter()
            .all(|n| events.iter().any(|e| e.name == *n && e.id == Some(id)))
    };
    r.check(
        "span_tree_complete",
        events.iter().filter(|e| e.name == "serve.request").filter_map(|e| e.id).any(has_tree),
        format_args!("no request produced a complete span tree ({} events)", events.len()),
    );
    r.check(
        "core_spans_nested",
        events.iter().any(|e| e.name == "core.quadtree"),
        "core-crate spans did not nest into the serve trace",
    );
    let trace = tel.trace_jsonl();
    let trace_lines = validate_jsonl(&trace);
    r.check(
        "trace_jsonl_valid",
        trace_lines.as_ref().is_ok_and(|&n| n == events.len()),
        format_args!("{trace_lines:?} lines for {} retained spans", events.len()),
    );
    save_atomic("soak_engine_trace.jsonl", &trace);
    save_atomic("soak_engine_metrics.prom", &prom);

    for (name, v) in [
        ("requests", total_requests),
        ("completed", m.completed),
        ("rejected", m.rejected),
        ("invalid_input", m.invalid_input),
        ("deadline_queued", m.deadline_queued),
        ("deadline_inference", m.deadline_inference),
        ("deadline_stitching", m.deadline_stitching),
        ("worker_panics", m.worker_panics),
        ("non_finite_outputs", m.non_finite_outputs),
        ("slides_submitted", slide_ids.len() as u64 + epilogue_attempts),
        ("slides_completed", m.slides_completed),
        ("max_queue_depth", report.max_queue_depth as u64),
        ("trace_events", events.len() as u64),
        ("trace_evicted", tel.trace_evicted()),
    ] {
        r.count(name, v as f64);
    }
    r.detail("serve_report", &report);
    r.finish();
}

// ---- wire -------------------------------------------------------------

/// Tenant id of the deliberately starved client.
const POOR_TENANT: u64 = 1;

/// One client thread's typed outcome ledger. `calls` must equal the sum of
/// the outcome buckets — an untyped escape has nowhere to hide.
#[derive(Debug, Default, Serialize)]
struct ClientLedger {
    tenant: u64,
    calls: u64,
    ok: u64,
    slide_ok: u64,
    terminal_invalid: u64,
    terminal_deadline: u64,
    exhausted: u64,
    budget_exhausted: u64,
    wire_failures: u64,
    retries: u64,
    goaways_seen: u64,
    over_quota_seen: u64,
    faults_injected: u64,
}

impl ClientLedger {
    fn outcomes(&self) -> u64 {
        self.ok
            + self.slide_ok
            + self.terminal_invalid
            + self.terminal_deadline
            + self.exhausted
            + self.budget_exhausted
            + self.wire_failures
    }
}

/// A whole-slide wire request for the shared fixture.
fn wire_slide(slide: &Path, output: &Path, stitch_workers: u32) -> WireRequest {
    WireRequest::Slide {
        deadline_ms: 0,
        window: 64,
        halo: 8,
        cache_budget_bytes: 1 << 20,
        stitch_workers,
        slide_path: slide.display().to_string(),
        output_path: output.display().to_string(),
    }
}

/// A square segment wire request.
fn wire_segment(side: usize, pixels: Vec<f32>) -> WireRequest {
    WireRequest::Segment { deadline_ms: 0, width: side as u32, height: side as u32, pixels }
}

/// The per-client request mix, drawn from the client's own seeded RNG.
fn draw_request(
    rng: &mut ChaCha8Rng,
    slide: &Path,
    dir: &Path,
    tenant: u64,
    call: u64,
) -> WireRequest {
    let roll: f64 = rng.gen();
    if roll < 0.08 {
        // Invalid: NaN pixels; the server must answer terminal InvalidInput.
        wire_segment(8, vec![f32::NAN; 64])
    } else if roll < 0.16 {
        // Whole-slide request (server-local paths, unique output per call).
        wire_slide(slide, &dir.join(format!("out_t{tenant}_c{call}.apt1")), 1)
    } else {
        let side = if rng.gen_bool(0.3) { 64 } else { 32 };
        let a = rng.gen_range(1usize..13);
        let b = rng.gen_range(1usize..13);
        let pixels =
            (0..side * side).map(|i| ((i % side * a + i / side * b) % 97) as f32 / 96.0).collect();
        wire_segment(side, pixels)
    }
}

/// The `flight_*.jsonl` dumps under `dir` with their file names.
fn flight_dumps(dir: &Path) -> Vec<(String, PathBuf)> {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| (e.file_name().to_string_lossy().into_owned(), e.path()))
        .filter(|(n, _)| n.starts_with("flight_") && n.ends_with(".jsonl"))
        .collect()
}

fn wire(quick: bool, seed: u64) {
    let (clients, requests) = if quick { (4usize, 12u64) } else { (6, 18) };
    // One guaranteed worker panic, so the flight-recorder dump the gate
    // requires exists regardless of what the seeded plan drew.
    let engine_faults =
        FaultPlan::random(seed ^ 0xE6, 2, clients as u64 * requests, InferenceFaultKind::draw)
            .with_burst(0, 3, 1, InferenceFaultKind::WorkerPanic);
    let injected_engine_faults = engine_faults.events().len();
    let mut r = SoakReport::new(
        "wire",
        seed,
        &[
            ("clients", clients as f64),
            ("requests_per_client", requests as f64),
            ("injected_engine_faults", injected_engine_faults as f64),
        ],
    );

    // Stale flight dumps from a previous run would satisfy the end-of-run
    // verdicts vacuously; clear them first.
    let dump_dir = results_dir();
    for (_, path) in flight_dumps(&dump_dir) {
        let _ = std::fs::remove_file(path);
    }

    // Engine: small model, light seeded worker faults so WorkerFailure
    // statuses cross the wire too.
    let tel = Telemetry::enabled();
    let engine = Arc::new(ServeEngine::start(ServeConfig {
        model_seed: seed,
        default_deadline_ms: Some(5_000),
        poll_ms: 1,
        breaker: BREAKER,
        faults: engine_faults,
        telemetry: tel.clone(),
        flight_dump_dir: Some(dump_dir.clone()),
        ..ServeConfig::small()
    }));
    let (dir, slide) = slide_fixture("wire");

    // Quotas: every tenant generous except the designated poor one, which
    // gets a bucket small enough to be rejected within its first calls.
    let server = WireServer::start(
        Arc::clone(&engine),
        WireConfig {
            read_timeout_ms: 50,
            write_timeout_ms: 1_000,
            max_connections: clients * 4,
            drain_deadline_ms: 15_000,
            quota: QuotaConfig {
                default_limit: QuotaLimit { burst: 1e6, per_sec: 1e6 },
                overrides: vec![(POOR_TENANT, QuotaLimit { burst: 3.0, per_sec: 0.5 })],
            },
            telemetry: tel.clone(),
            flight_dump_dir: Some(dump_dir.clone()),
            ..WireConfig::default()
        },
    )
    .expect("bind loopback front door");
    let addr = server.local_addr();
    println!(
        "soak wire: {clients} clients x {requests} requests, seed {seed}, server {addr}, \
         poor tenant {POOR_TENANT}, {injected_engine_faults} engine faults"
    );

    // ---- Traced probe + admin plane ----------------------------------
    // One traced whole-slide request before the fleet: its spans must
    // stitch into a single trace covering client -> wire server -> engine
    // -> >= 2 stitch workers -> merge, archived as a Chrome trace. It runs
    // (and is verified) before the untraced soak traffic can evict it
    // from the bounded span ring.
    let mut probe = WireClient::connect(
        addr,
        ClientConfig {
            tenant: 42,
            seed: seed ^ 0x7AACE,
            attempt_budget_ms: 30_000,
            read_timeout_ms: 30_000,
            telemetry: tel.clone(),
            ..ClientConfig::default()
        },
    );
    let mut trace_complete = false;
    for attempt in 0..3 {
        let output = dir.join(format!("probe_out_{attempt}.apt1"));
        let status = probe.call(&wire_slide(&slide, &output, 2)).expect("traced probe slide");
        assert!(matches!(status, WireStatus::SlideOk { .. }), "probe got {status:?}");
        let _ = std::fs::remove_file(&output);
        // The server-side request span completes just after the response
        // hits the socket; give it a beat before reading the ring.
        std::thread::sleep(Duration::from_millis(150));
        let events = tel.trace_events();
        let trace_id = events
            .iter()
            .rev()
            .find(|e| e.name == "wire.client.call" && e.trace_id != 0)
            .map(|e| e.trace_id)
            .expect("probe call span is traced");
        let in_trace: Vec<_> = events.iter().filter(|e| e.trace_id == trace_id).collect();
        let has = |name: &str| in_trace.iter().any(|e| e.name == name);
        let infer_tids: std::collections::HashSet<u64> =
            in_trace.iter().filter(|e| e.name == "gigapixel.window_infer").map(|e| e.tid).collect();
        let span_ids: std::collections::HashSet<u64> = in_trace.iter().map(|e| e.span_id).collect();
        trace_complete =
            ["wire.client.call", "serve.wire.request", "serve.request", "gigapixel.window_merge"]
                .into_iter()
                .all(has)
                && infer_tids.len() >= 2
                && in_trace.iter().all(|e| e.parent_span == 0 || span_ids.contains(&e.parent_span));
        if trace_complete {
            r.detail("probe_trace_id", &trace_id);
            break;
        }
        // One stitch worker can win the spawn race and run every window;
        // retry under a fresh trace rather than flake.
        println!("soak wire: probe trace incomplete on attempt {attempt}, retrying");
    }
    r.check("trace_complete", trace_complete, "probe trace did not stitch end to end");
    let chrome = tel.chrome_trace_json();
    r.check(
        "chrome_trace_has_trace_events",
        chrome.contains("\"traceEvents\""),
        "not Chrome trace JSON",
    );
    save_atomic("soak_wire_trace.json", &chrome);

    // The admin plane must tell the same story as the in-process registry.
    // Wire-door counters move with the admin exchange itself (the response
    // is accounted after the body renders), so both sides are compared
    // with `apf_serve_wire_*` lines stripped.
    let health = probe.admin(&AdminRequest::Health).expect("admin health");
    r.check(
        "admin_health_serving",
        health.ok && health.body == "serving",
        format_args!("{health:?}"),
    );
    let prom = probe.admin(&AdminRequest::MetricsProm).expect("admin metrics");
    let strip = |s: &str| -> String {
        s.lines().filter(|l| !l.contains("apf_serve_wire_")).collect::<Vec<_>>().join("\n")
    };
    r.check(
        "admin_matches_prom",
        prom.ok && strip(&prom.body) == strip(&tel.render_prometheus()),
        "admin metrics diverge from the registry exposition",
    );
    let dump = probe.admin(&AdminRequest::FlightDump).expect("admin flight dump");
    r.check(
        "admin_flight_dump_jsonl",
        dump.ok
            && !dump.body.is_empty()
            && dump.body.lines().all(|l| l.starts_with('{') && l.ends_with('}')),
        "admin flight dump is empty or not JSONL",
    );
    drop(probe);

    // Client fleet. Each thread owns a WireClient with its own seed and
    // socket-fault plan; successes are counted into a shared atomic the
    // main thread watches to time the mid-soak drain.
    let successes = AtomicU64::new(0);
    let socket_faults = AtomicU64::new(0);
    let client = |c: usize| {
        let tenant = c as u64;
        let client_seed = seed ^ (0xC11E << 8) ^ tenant;
        // The starved tenant keeps a clean wire so its rejections are
        // unambiguously quota rejections.
        let faults = if tenant == POOR_TENANT {
            FaultPlan::none()
        } else {
            FaultPlan::random(client_seed, 1, requests * 4, NetFaultKind::draw)
        };
        socket_faults.fetch_add(faults.events().len() as u64, Ordering::Relaxed);
        let mut rng = ChaCha8Rng::seed_from_u64(client_seed ^ 0x5eed);
        let cfg = ClientConfig {
            tenant,
            seed: client_seed,
            max_attempts: if tenant == POOR_TENANT { 2 } else { 5 },
            base_backoff_ms: 4,
            max_backoff_ms: 120,
            attempt_budget_ms: 8_000,
            read_timeout_ms: 8_000,
            ..ClientConfig::default()
        };
        let mut cli = WireClient::connect(addr, cfg).with_faults(faults);
        let mut l = ClientLedger { tenant, ..ClientLedger::default() };
        for call in 0..requests {
            let req = draw_request(&mut rng, &slide, &dir, tenant, call);
            l.calls += 1;
            match cli.call(&req) {
                Ok(WireStatus::Ok { .. }) => {
                    l.ok += 1;
                    successes.fetch_add(1, Ordering::Relaxed);
                }
                Ok(WireStatus::SlideOk { .. }) => {
                    l.slide_ok += 1;
                    successes.fetch_add(1, Ordering::Relaxed);
                }
                Ok(other) => unreachable!("non-terminal success {other:?}"),
                Err(ClientError::Terminal { status }) => match status {
                    WireStatus::InvalidInput { .. } => l.terminal_invalid += 1,
                    WireStatus::DeadlineExceeded { .. } => l.terminal_deadline += 1,
                    other => unreachable!("retryable status was terminal: {other:?}"),
                },
                Err(ClientError::Wire(_)) => l.wire_failures += 1,
                Err(ClientError::Exhausted { .. }) => l.exhausted += 1,
                Err(ClientError::BudgetExhausted { .. }) => l.budget_exhausted += 1,
            }
        }
        let stats = cli.stats();
        ClientLedger {
            retries: stats.retries,
            goaways_seen: stats.goaways_seen,
            over_quota_seen: stats.over_quota_seen,
            faults_injected: stats.faults_injected,
            ..l
        }
    };

    // Mid-soak drain: wait until the fleet has landed a meaningful number
    // of successes (or a hard cap expires), then pull the plug while
    // clients are still sending — with two raw idle connections parked
    // across it. Everything after this point must fail *typed* on the
    // client side, and every live connection must observe a GoAway.
    let mid_soak_drain = || {
        let trigger = (clients as u64 * requests) / 4;
        let t0 = Instant::now();
        while successes.load(Ordering::Relaxed) < trigger && t0.elapsed() < Duration::from_secs(60)
        {
            std::thread::sleep(Duration::from_millis(20));
        }
        println!(
            "soak wire: draining at {} successes after {:.1}s",
            successes.load(Ordering::Relaxed),
            t0.elapsed().as_secs_f64()
        );
        let idlers: Vec<_> = (0..2)
            .map(|_| {
                let s = std::net::TcpStream::connect(addr).expect("park idle connection");
                s.set_read_timeout(Some(Duration::from_secs(20))).expect("idler read timeout");
                s
            })
            .collect();
        std::thread::sleep(Duration::from_millis(60)); // let the accept loop adopt them
        let drain = server.drain();
        let idle_goaways = idlers
            .into_iter()
            .filter(|mut s| {
                read_frame(&mut s, DEFAULT_MAX_PAYLOAD).is_ok_and(|f| {
                    f.kind == FrameKind::GoAway
                        && matches!(
                            WireStatus::decode(&f.payload),
                            Ok(WireStatus::GoAway { retry_after_ms }) if retry_after_ms >= 1
                        )
                })
            })
            .count();
        (drain, idle_goaways)
    };
    let (ledgers, untyped, (drain, idle_goaways)) =
        fleet("wire-client", clients, client, mid_soak_drain);
    r.check(
        "idle_connections_observed_goaway",
        idle_goaways == 2,
        format_args!("{idle_goaways} of 2"),
    );

    // The server threads are joined; the engine has exactly one owner left.
    let engine = Arc::try_unwrap(engine).ok().expect("engine still shared after drain");
    let report = engine.shutdown();
    let m = &report.metrics;
    r.check(
        "zero_server_panics",
        drain.conn_panics == 0,
        format_args!("{} connection handlers panicked", drain.conn_panics),
    );
    r.check(
        "no_orphaned_worker_slots",
        m.responses() == m.submitted,
        format_args!("{} submitted, {} answered", m.submitted, m.responses()),
    );

    // Quota exactness, per tenant and in aggregate; the registry tells the
    // same story as the gate's internal ledgers.
    let accounts = &drain.quota_accounts;
    r.check(
        "quota_accounting_exact",
        accounts.iter().all(TenantAccount::is_consistent),
        format_args!("{accounts:?}"),
    );
    let quota_drift: u64 = accounts.iter().map(|a| a.checked - a.granted - a.rejected).sum();
    r.check("zero_quota_drift", quota_drift == 0, format_args!("drift {quota_drift}"));
    let granted: u64 = accounts.iter().map(|a| a.granted).sum();
    let rejected: u64 = accounts.iter().map(|a| a.rejected).sum();
    let snap = tel.snapshot();
    let (reg_granted, reg_rejected) = (
        counter(&snap, "apf_serve_quota_granted_total", &[]),
        counter(&snap, "apf_serve_quota_rejections_total", &[]),
    );
    r.check(
        "registry_agrees_with_quota_gate",
        reg_granted == granted && reg_rejected == rejected,
        format_args!("granted {reg_granted} vs {granted}, rejected {reg_rejected} vs {rejected}"),
    );
    // The poor tenant was throttled, every OverQuota a client saw is backed
    // by a gate rejection, and no rich tenant was ever quota-rejected.
    r.check(
        "poor_tenant_throttled",
        accounts.iter().any(|a| a.tenant == POOR_TENANT && a.rejected > 0),
        format_args!("{accounts:?}"),
    );
    let over_quota_seen: u64 = ledgers.iter().map(|l| l.over_quota_seen).sum();
    r.check(
        "over_quota_backed_by_rejections",
        rejected >= over_quota_seen,
        format_args!("clients saw {over_quota_seen} OverQuota, the gate rejected {rejected}"),
    );
    r.check(
        "rich_tenants_unstarved",
        accounts.iter().filter(|a| a.tenant != POOR_TENANT).all(|a| a.rejected == 0),
        format_args!("{accounts:?}"),
    );

    // Drain: inside the bound, and every drain-closed connection got its
    // terminal GoAway.
    r.check(
        "drain_within_bound",
        drain.completed_within_bound,
        format_args!("drain took {:.0} ms (bound {} ms)", drain.drain_ms, drain.drain_deadline_ms),
    );
    r.check(
        "drained_connections_got_goaway",
        drain.connections.iter().filter(|c| c.close_cause == "drain").all(|c| c.goaway_sent),
        "a drained connection missed its GoAway",
    );

    // Every client call landed in exactly one typed bucket, and no client
    // thread panicked.
    r.check(
        "zero_untyped_client_failures",
        untyped == 0,
        format_args!("{untyped} client threads panicked"),
    );
    let calls: u64 = ledgers.iter().map(|l| l.calls).sum();
    let calls_ok: u64 = ledgers.iter().map(|l| l.ok + l.slide_ok).sum();
    r.check(
        "all_client_failures_typed",
        ledgers.iter().all(|l| l.calls == l.outcomes()) && calls == clients as u64 * requests,
        format_args!("{ledgers:?}"),
    );
    r.check("calls_succeeded", calls_ok > 0, "no call ever succeeded before the drain");

    // Slide outputs: completed slides left readable containers; clean up.
    let outputs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("scan soak dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("out_")))
        .collect();
    let unreadable: Vec<_> =
        outputs.iter().filter(|p| apf_gigapixel::TileStore::open(p).is_err()).collect();
    r.check("slide_outputs_readable", unreadable.is_empty(), format_args!("{unreadable:?}"));
    for p in &outputs {
        let _ = std::fs::remove_file(p);
    }

    // The injected worker panic must have left a black-box dump holding
    // the panic event plus the window of events that preceded it.
    let flight_dump_ok = flight_dumps(&dump_dir).iter().any(|(name, path)| {
        name.starts_with("flight_panic_")
            && std::fs::read_to_string(path)
                .unwrap_or_default()
                .lines()
                .position(|l| l.contains("\"kind\":\"worker_panic\""))
                .is_some_and(|i| i > 0)
    });
    r.check(
        "flight_dump_ok",
        flight_dump_ok,
        "no flight dump with a preceding window from the injected panic",
    );

    let prom = snap.render_prometheus();
    for name in ["apf_serve_quota_rejections_total", "apf_serve_wire_quota_checked_total"] {
        r.check(&format!("exposition_has_{name}"), prom.contains(name), "metric missing");
    }
    save_atomic("soak_wire_metrics.prom", &prom);

    for (name, v) in [
        ("injected_socket_faults", socket_faults.load(Ordering::Relaxed)),
        ("connections", drain.connections_total),
        ("connections_at_drain", drain.connections_at_drain as u64),
        ("goaways_sent", drain.goaways_sent),
        ("conn_limit_rejections", drain.conn_limit_rejections),
        ("server_panics", drain.conn_panics),
        ("quota_granted", granted),
        ("quota_rejected", rejected),
        ("quota_drift", quota_drift),
        ("calls", calls),
        ("calls_ok", calls_ok),
        ("calls_failed_typed", calls - calls_ok),
        ("untyped_client_failures", untyped),
        ("engine_submitted", m.submitted),
        ("engine_responses", m.responses()),
    ] {
        r.count(name, v as f64);
    }
    r.count("drain_ms", drain.drain_ms);
    r.detail("quota_accounts", accounts);
    r.detail("client_ledgers", &ledgers);
    r.detail("serve_report", &report);
    r.finish();
}

// ---- scale ------------------------------------------------------------

/// Batches close at 16 requests or 2 ms of linger in both scale runs.
const MAX_BATCH: usize = 16;
const BATCH_LINGER_MS: u64 = 2;

fn scale(quick: bool, seed: u64) {
    let (clients, requests) = (16usize, if quick { 256u64 } else { 6_400 });
    let wire_total = clients as u64 * requests;
    let (concurrency, engine_total) = (16usize, if quick { 1_024u64 } else { 4_096 });
    let mut r = SoakReport::new(
        "scale",
        seed,
        &[
            ("clients", clients as f64),
            ("requests_per_client", requests as f64),
            ("max_batch", MAX_BATCH as f64),
            ("batch_linger_ms", BATCH_LINGER_MS as f64),
            ("engine_requests", engine_total as f64),
            ("concurrency", concurrency as f64),
        ],
    );
    if !quick {
        r.check("wire_requests_at_least_1e5", wire_total >= 100_000, format_args!("{wire_total}"));
    }

    // ---- Over the wire: >= 10^5 clean requests from the 32² pool ----
    let tel = Telemetry::enabled();
    let engine = Arc::new(ServeEngine::start(ServeConfig {
        // Deep enough that 16 in-flight clients never cross the
        // degradation thresholds: one tier means one cache variant per
        // image in the pool.
        queue_capacity: 256,
        model_seed: seed,
        poll_ms: 1,
        telemetry: tel.clone(),
        ..ServeConfig::small_batched(MAX_BATCH, BATCH_LINGER_MS)
    }));
    let server = WireServer::start(
        Arc::clone(&engine),
        WireConfig {
            read_timeout_ms: 50,
            write_timeout_ms: 5_000,
            max_connections: clients * 2,
            drain_deadline_ms: 30_000,
            quota: QuotaConfig {
                default_limit: QuotaLimit { burst: 1e9, per_sec: 1e9 },
                overrides: vec![],
            },
            telemetry: tel,
            flight_dump_dir: None,
            ..WireConfig::default()
        },
    )
    .expect("bind loopback front door");
    let addr = server.local_addr();
    println!(
        "soak scale: {clients} clients x {requests} requests ({wire_total} total) over {addr}, \
         batching {MAX_BATCH}x{BATCH_LINGER_MS}ms"
    );
    let pool = image_pool(32);
    let t0 = Instant::now();
    let (done, untyped, ()) = fleet(
        "scale-client",
        clients,
        |c| {
            let mut cli = WireClient::connect(
                addr,
                ClientConfig {
                    tenant: c as u64,
                    seed: 0x5ca1e ^ c as u64,
                    max_attempts: 6,
                    base_backoff_ms: 2,
                    max_backoff_ms: 200,
                    attempt_budget_ms: 60_000,
                    read_timeout_ms: 60_000,
                    ..ClientConfig::default()
                },
            );
            let ok = (0..requests)
                .filter(|k| {
                    let img = &pool[(c as u64 + k) as usize % pool.len()];
                    matches!(
                        cli.call(&wire_segment(32, img.data().to_vec())),
                        Ok(WireStatus::Ok { .. })
                    )
                })
                .count() as u64;
            (ok, cli.stats().retries)
        },
        || (),
    );
    let elapsed_s = t0.elapsed().as_secs_f64();
    let calls_ok: u64 = done.iter().map(|(ok, _)| ok).sum();
    let retries: u64 = done.iter().map(|(_, retries)| retries).sum();
    let typed_failures = done.len() as u64 * requests - calls_ok;
    let drain = server.drain();
    let report = Arc::try_unwrap(engine).ok().expect("engine still shared after drain").shutdown();
    let batch = report.batch.clone().expect("batched engine reports batch stats");
    let cache = report.cache.clone().expect("batched engine reports cache stats");
    let m = &report.metrics;

    r.check(
        "zero_untyped_client_failures",
        untyped == 0,
        format_args!("{untyped} client threads panicked"),
    );
    r.check(
        "zero_typed_client_failures",
        calls_ok == wire_total,
        format_args!("{calls_ok} of {wire_total} completed, {typed_failures} failed"),
    );
    r.check(
        "no_orphaned_worker_slots",
        m.responses() == m.submitted,
        format_args!("{} submitted, {} answered", m.submitted, m.responses()),
    );
    r.check("zero_server_panics", drain.conn_panics == 0, "connection handlers panicked");
    // Each client keeps one connection: only a retry may open another.
    r.check(
        "wire_connections_reused",
        drain.connections_total <= clients as u64 + retries,
        format_args!(
            "{} connections for {clients} clients and {retries} retries",
            drain.connections_total
        ),
    );
    r.check(
        "wire_cache_hit_rate_ok",
        cache.hit_rate() >= 0.90,
        format_args!("repeated pool landed {:.4} cache hits (gate 0.90)", cache.hit_rate()),
    );
    r.check(
        "batching_active",
        batch.mean_occupancy > 1.0 && batch.batches < batch.batched_requests,
        format_args!("batches never formed under {clients} concurrent clients: {batch:?}"),
    );
    for (name, v) in [
        ("wire_requests", wire_total as f64),
        ("wire_calls_ok", calls_ok as f64),
        ("wire_typed_client_failures", typed_failures as f64),
        ("wire_connections", drain.connections_total as f64),
        ("wire_client_retries", retries as f64),
        ("wire_untyped_client_failures", untyped as f64),
        ("wire_elapsed_s", elapsed_s),
        ("wire_throughput_rps", wire_total as f64 / elapsed_s),
        ("wire_batches", batch.batches as f64),
        ("wire_mean_occupancy", batch.mean_occupancy),
        ("wire_cache_hit_rate", cache.hit_rate()),
    ] {
        r.count(name, v);
    }
    r.detail("wire_batch", &batch);
    r.detail("wire_cache", &cache);
    r.detail("wire_metrics", m);

    // ---- In process: batched + cached vs the default engine ----------
    // The 256² pool makes preprocessing (quadtree + edge analysis over all
    // pixels) the memoizable part; inference (budget-capped forward) is
    // real work every time. The baseline is the default engine: batches of
    // one with no cache, rebuilding the quadtree and a fresh graph per
    // request.
    let pool = image_pool(256);
    let per_thread = engine_total / concurrency as u64;
    let drive = |cfg: ServeConfig| {
        let engine = ServeEngine::start(ServeConfig { queue_capacity: 256, ..cfg });
        let t0 = Instant::now();
        let (done, _, ()) = fleet(
            "scale-submitter",
            concurrency,
            |c| {
                (0..per_thread)
                    .filter(|&k| {
                        let image = pool[(c as u64 + k) as usize % pool.len()].clone();
                        let id = c as u64 * per_thread + k;
                        let resp =
                            engine.submit(SegRequest { id, image, deadline_ms: None }).wait();
                        resp.is_some_and(|x| matches!(x.outcome, Outcome::Completed { .. }))
                    })
                    .count() as u64
            },
            || (),
        );
        let elapsed_s = t0.elapsed().as_secs_f64();
        // A panicked submitter's requests count as not completed.
        (done.iter().sum::<u64>(), elapsed_s, engine.shutdown())
    };
    println!(
        "soak scale: baseline and batched engines, {engine_total} requests each, \
         {concurrency} submitters"
    );
    let (base_done, base_s, base) = drive(ServeConfig::small());
    let (batched_done, batched_s, batched) =
        drive(ServeConfig::small_batched(MAX_BATCH, BATCH_LINGER_MS));
    r.check(
        "engine_requests_completed",
        base_done == engine_total && batched_done == engine_total,
        format_args!("baseline {base_done}, batched {batched_done} of {engine_total}"),
    );
    r.check(
        "baseline_uncached",
        base.cache.is_none() && base.batch.as_ref().is_some_and(|b| b.mean_occupancy == 1.0),
        format_args!("cache {:?}, batch {:?}", base.cache, base.batch),
    );
    let speedup = base_s / batched_s;
    r.check(
        "speedup_ok",
        speedup >= 2.0,
        format_args!("batched engine is only {speedup:.2}x the baseline (gate 2x)"),
    );
    let batch = batched.batch.clone().expect("batched engine reports batch stats");
    let cache = batched.cache.clone().expect("batched engine reports cache stats");
    r.check(
        "engine_cache_hit_rate_ok",
        cache.hit_rate() >= 0.90,
        format_args!("repeated pool landed {:.4} cache hits (gate 0.90)", cache.hit_rate()),
    );
    r.check("engine_batching_active", batch.mean_occupancy > 1.0, format_args!("{batch:?}"));
    for (name, v) in [
        ("baseline_rps", engine_total as f64 / base_s),
        ("batched_rps", engine_total as f64 / batched_s),
        ("speedup", speedup),
        ("engine_mean_occupancy", batch.mean_occupancy),
        ("engine_cache_hit_rate", cache.hit_rate()),
    ] {
        r.count(name, v);
    }
    r.detail("engine_batch", &batch);
    r.detail("engine_cache", &cache);
    r.finish();
}

// ---- slide ------------------------------------------------------------

/// Patch side and token budget of the slide model, `ViTConfig::tiny(16, 256)`.
const PATCH: usize = 4;
const SEQ_LEN: usize = 256;
/// Stitch geometry shared by both presets: big-slide tile, cross-check
/// tile and the blend halo.
const SLIDE_TILE: usize = 512;
const CROSS_TILE: usize = 256;
const HALO: usize = 32;
/// Workers of the cross-check's distributed drive.
const CROSS_WORKERS: usize = 3;
/// Stitched outputs must match their in-memory references this closely.
const TOLERANCE: f64 = 1e-5;

/// Reads a whole tiled container back into a dense image.
fn read_store_dense(path: &Path) -> GrayImage {
    let store = Arc::new(TileStore::open(path).expect("open stitched output"));
    let tel = Telemetry::disabled();
    let res = Residency::new(&tel);
    let g = store.geometry();
    let cache = TileCache::new(store, g.width * g.height * 4, tel, res);
    cache.read_region(0, 0, g.width, g.height).expect("read stitched output")
}

/// The full-image inference path: adaptive patchify to `SEQ_LEN` tokens,
/// one forward pass, reconstruct the logit mask.
fn full_image_inference(model: &ViTSegmenter, img: &GrayImage) -> GrayImage {
    let pc =
        PatcherConfig::for_resolution(img.width()).with_patch_size(PATCH).with_target_len(SEQ_LEN);
    let seq = AdaptivePatcher::new(pc).try_patchify(img).expect("cross-check image is valid");
    let tokens = seq.to_tensor().reshape([1, seq.len(), PATCH * PATCH]);
    let mut g = Graph::new();
    let bp = model.params.bind(&mut g);
    let x = g.constant(tokens);
    let y = model.forward(&mut g, &bp, x);
    reconstruct_mask(&seq, g.value(y))
}

fn slide(quick: bool, seed: u64) {
    // The blend band is W rows of the full slide width, so at 4096² it
    // dominates and 1/8 of dense is out of reach: quick proves 1/2 and
    // leaves the headline 16384²-under-1/8 claim to the full run.
    let (res, window, cross_res, cache_bytes, budget_div) =
        if quick { (4096, 512, 1024, 8 << 20, 2) } else { (16384, 1024, 2048, 16 << 20, 8) };
    let dense_bytes = res * res * 4;
    let budget_bytes = dense_bytes / budget_div;
    let mut r = SoakReport::new(
        "slide",
        seed,
        &[
            ("resolution", res as f64),
            ("tile", SLIDE_TILE as f64),
            ("window", window as f64),
            ("halo", HALO as f64),
            ("cache_bytes", cache_bytes as f64),
            ("budget_bytes", budget_bytes as f64),
            ("crosscheck_resolution", cross_res as f64),
            ("crosscheck_tile", CROSS_TILE as f64),
            ("crosscheck_workers", CROSS_WORKERS as f64),
            ("tolerance", TOLERANCE),
        ],
    );
    let model = ViTSegmenter::new(ViTConfig::tiny(PATCH * PATCH, SEQ_LEN), seed);
    let scratch: PathBuf =
        std::env::var("APF_SCRATCH_DIR").map_or_else(|_| "target/gigapixel".into(), PathBuf::from);
    std::fs::create_dir_all(&scratch).expect("create slide scratch dir");
    let tel = Telemetry::enabled();

    // ---- Cross-check on a slide that also fits in memory -------------
    println!("soak slide: cross-check at {cross_res}²");
    let dense = PaipGenerator::new(PaipConfig::at_resolution(cross_res)).generate(1).image;
    let cross_path = scratch.join("crosscheck.apt1");
    write_tiled(&cross_path, cross_res, cross_res, CROSS_TILE, |_, _, x0, y0, w, h| {
        dense.crop(x0, y0, w, h).into_data()
    })
    .expect("write cross-check slide");
    let residency = Residency::new(&tel);
    let store = Arc::new(TileStore::open(&cross_path).expect("open cross-check slide"));
    let cache =
        TileCache::new(store, 8 * CROSS_TILE * CROSS_TILE * 4, tel.clone(), residency.clone());
    let serial = |seg: &SlideSegmenter, name: &str| {
        let out = scratch.join(name);
        seg.segment_store(&cache, &out, &residency, || false).expect("serial stitch");
        let img = read_store_dense(&out);
        let _ = std::fs::remove_file(out);
        img
    };

    // One window covering the slide has a constant blend weight, so the
    // stitch must reproduce the full-image path.
    let single_cfg = StitchConfig::for_window(cross_res, cross_res / 16, SEQ_LEN);
    let single = serial(&SlideSegmenter::new(&model, single_cfg, tel.clone()), "single.apt1");
    let single_diff = max_abs_diff(&single, &full_image_inference(&model, &dense));
    // Multi-window out of core does the same f32 work as the windowed
    // algorithm run in memory; the distributed drive must merge to the
    // same bits as the serial one.
    let multi_cfg = StitchConfig::for_window(cross_res / 2, HALO, SEQ_LEN);
    let seg = SlideSegmenter::new(&model, multi_cfg, tel.clone());
    let multi = serial(&seg, "multi.apt1");
    let (reference, _) = seg.segment_dense(&dense).expect("dense reference stitch");
    let multi_diff = max_abs_diff(&multi, &reference);
    for (verdict, count, diff) in [
        ("single_window_matches_full_image_path", "crosscheck_single_window_max_diff", single_diff),
        ("multi_window_matches_dense_stitch", "crosscheck_multi_window_max_diff", multi_diff),
    ] {
        let diff = f64::from(diff);
        r.check(
            verdict,
            diff <= TOLERANCE,
            format_args!("max diff {diff:.2e} (tolerance {TOLERANCE:.0e})"),
        );
        r.count(count, diff);
    }
    let dist_out = scratch.join("distributed.apt1");
    let dist = seg
        .segment_store_distributed(
            &cache,
            &dist_out,
            &residency,
            &DistStitchOptions::new(CROSS_WORKERS),
            || false,
        )
        .expect("distributed stitch");
    r.check(
        "distributed_bit_identical_to_serial",
        bits_equal(&read_store_dense(&dist_out), &multi),
        format_args!("{CROSS_WORKERS}-worker stitch diverged from the serial drive"),
    );
    for p in [&cross_path, &dist_out] {
        let _ = std::fs::remove_file(p);
    }
    r.count("crosscheck_steals", dist.steals as f64);

    // ---- The big slide: stream, tree, serial drive under the budget ---
    println!("soak slide: {res}² slide, window {window}, halo {HALO}");
    let slide_path = scratch.join("slide.apt1");
    let out_path = scratch.join("slide_logits.apt1");
    let t0 = Instant::now();
    let gen = PaipGenerator::new(PaipConfig::at_resolution(res));
    stream_paip_slide(&gen, 0, SLIDE_TILE, &slide_path, &tel).expect("stream slide");
    let generate_s = t0.elapsed().as_secs_f64();
    // The ledger starts after generation: it meters the out-of-core tree
    // build and drive, which are what the budget constrains.
    let residency = Residency::new(&tel);
    let store = Arc::new(TileStore::open(&slide_path).expect("open slide"));
    let cache = TileCache::new(Arc::clone(&store), cache_bytes, tel.clone(), residency.clone());
    let t0 = Instant::now();
    let quad_cfg = PatcherConfig::for_resolution(res).quadtree;
    let tree = build_streaming_quadtree(&cache, &quad_cfg, &tel).expect("stream tree");
    let tree_build_s = t0.elapsed().as_secs_f64();
    let seg =
        SlideSegmenter::new(&model, StitchConfig::for_window(window, HALO, SEQ_LEN), tel.clone());
    let t0 = Instant::now();
    let stitch =
        seg.segment_store(&cache, &out_path, &residency, || false).expect("stitched inference");
    let inference_s = t0.elapsed().as_secs_f64();
    let peak = residency.peak();
    r.check(
        "peak_resident_within_budget",
        peak <= budget_bytes,
        format_args!("peak resident {peak} bytes exceeds the budget of {budget_bytes}"),
    );
    let out = TileStore::open(&out_path).expect("open stitched output").geometry();
    r.check(
        "output_covers_slide",
        (out.width, out.height) == (res, res),
        format_args!("output is {}x{}, slide is {res}²", out.width, out.height),
    );
    let _ = std::fs::remove_file(&out_path);

    // ---- Per-window costs from a one-worker distributed drive --------
    // A fresh cache and ledger, so this drive cannot touch the gated peak.
    let residency = Residency::new(&tel);
    let cache = TileCache::new(store, cache_bytes, tel.clone(), residency.clone());
    let t0 = Instant::now();
    let dist = seg
        .segment_store_distributed(
            &cache,
            &out_path,
            &residency,
            &DistStitchOptions::new(1),
            || false,
        )
        .expect("distributed stitch, one worker");
    let measured_serial_s = t0.elapsed().as_secs_f64();
    for p in [&slide_path, &out_path] {
        let _ = std::fs::remove_file(p);
    }
    // Merge (window) order: the order the virtual-time replay deals them.
    let costs: Vec<f64> = dist.window_seconds.iter().map(|&(_, s)| s).collect();
    r.check(
        "one_cost_per_window",
        costs.len() == dist.stitch.windows,
        format_args!("{} costs for {} windows", costs.len(), dist.stitch.windows),
    );
    for (name, v) in [
        ("generate_s", generate_s),
        ("tree_leaves", tree.leaves.len() as f64),
        ("tree_build_s", tree_build_s),
        ("inference_s", inference_s),
        ("windows", stitch.windows as f64),
        ("tokens", stitch.tokens as f64),
        ("positive_fraction", stitch.positive_fraction),
        ("peak_resident_bytes", peak as f64),
        ("dense_bytes", dense_bytes as f64),
        ("measured_serial_s", measured_serial_s),
        ("mean_window_s", costs.iter().sum::<f64>() / costs.len() as f64),
        ("max_window_s", costs.iter().copied().fold(0.0, f64::max)),
    ] {
        r.count(name, v);
    }

    // ---- Replay the costs at 1/2/4/8 workers -------------------------
    // The host has too few cores to time 8-way threading honestly, but the
    // fabric's virtual-time schedule (stealing, imbalance, stragglers) is
    // exact for the measured costs.
    let base = simulate_makespan(&costs, 1).makespan;
    for (workers, required) in [(1, None), (2, None), (4, Some(3.0)), (8, Some(5.0))] {
        let sim = simulate_makespan(&costs, workers);
        let speedup = base / sim.makespan;
        let busy = &sim.per_worker_busy;
        for (name, v) in [
            ("makespan_s", sim.makespan),
            ("speedup", speedup),
            ("steals", sim.steals as f64),
            ("busiest_worker_s", busy.iter().copied().fold(0.0, f64::max)),
            ("idlest_worker_s", busy.iter().copied().fold(f64::INFINITY, f64::min)),
        ] {
            r.count(&format!("w{workers}_{name}"), v);
        }
        if let Some(required) = required {
            r.check(
                &format!("speedup_{workers}_workers_at_least_{required}x"),
                speedup >= required,
                format_args!("{workers} workers reached {speedup:.2}x (gate {required}x)"),
            );
        }
    }
    r.finish();
}
