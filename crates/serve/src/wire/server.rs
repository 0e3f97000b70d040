//! The TCP front door: a thread-per-connection listener speaking `APFW1`.
//!
//! Responsibilities, in the order a byte meets them:
//!
//! 1. **Connection admission** — a hard connection cap; over it the server
//!    answers with an immediate `GoAway` and a load-aware retry hint.
//! 2. **Framing with deadlines** — every read and write on the socket
//!    carries a timeout. An *idle* connection (no frame in flight) may wait
//!    indefinitely between frames, but once a frame starts arriving a stall
//!    longer than the read deadline kills the connection: the slow-loris
//!    defense. Torn, oversized, garbage, or bit-flipped bytes are all typed
//!    [`WireError`]s that close the connection after a best-effort `GoAway`.
//! 3. **Quota gate** — the frame header's tenant id is charged against a
//!    token bucket before the engine sees anything; an empty bucket maps to
//!    the `OverQuota` status with a quota-specific retry hint and ticks
//!    `apf_serve_quota_rejections_total`.
//! 4. **Engine bridge** — decoded requests flow through the ordinary
//!    [`ServeEngine`] admission path (bounded queue, tiers, deadlines,
//!    breakers), and every engine [`Outcome`] maps onto a typed wire
//!    status.
//! 5. **Graceful drain** — [`WireServer::drain`] stops the accept loop
//!    (its `accept` blocks; one uncounted loopback connect wakes it),
//!    lets in-flight requests complete (or hit their deadlines), sends
//!    every live connection a terminal `GoAway{retry_after_ms}`, and joins
//!    every thread; the report says whether that finished inside the bound.

use std::collections::VecDeque;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use apf_imaging::GrayImage;
use apf_telemetry::{Counter, Gauge, Histogram, Telemetry};
use serde::Serialize;

use crate::engine::ServeEngine;
use crate::request::{DeadlineStage, FailureReason, Outcome, SegRequest, SegResponse, SlideRequest};

use super::frame::{
    read_frame, write_frame, AdminRequest, AdminResponse, Frame, FrameKind, WireError,
    WireRequest, WireStatus,
};
use super::quota::{QuotaConfig, TenantAccount, TenantQuotas};

/// Front-door configuration.
#[derive(Clone)]
pub struct WireConfig {
    /// Address to bind; `127.0.0.1:0` (an ephemeral loopback port) in tests.
    pub bind_addr: String,
    /// Hard cap on declared payload length; larger frames are refused
    /// before allocation.
    pub max_payload: u32,
    /// Per-read socket deadline in milliseconds. Bounds how long a stalled
    /// (slow-loris) frame can hold a connection thread, and how long a
    /// drain waits for an idle connection to notice the flag.
    pub read_timeout_ms: u64,
    /// Per-write socket deadline in milliseconds.
    pub write_timeout_ms: u64,
    /// Maximum simultaneous connections; over it, accept answers `GoAway`.
    pub max_connections: usize,
    /// Bound the drain must finish within for its report to say so.
    pub drain_deadline_ms: u64,
    /// Per-tenant token-bucket quotas.
    pub quota: QuotaConfig,
    /// Telemetry sink (pass the engine's so one exposition covers both).
    pub telemetry: Telemetry,
    /// Where flight-recorder dumps land (on drain and on admin trigger);
    /// `None` disables file dumps (the admin response still carries the
    /// window inline).
    pub flight_dump_dir: Option<PathBuf>,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            bind_addr: "127.0.0.1:0".to_string(),
            max_payload: super::frame::DEFAULT_MAX_PAYLOAD,
            read_timeout_ms: 100,
            write_timeout_ms: 1_000,
            max_connections: 64,
            drain_deadline_ms: 5_000,
            quota: QuotaConfig::default(),
            telemetry: Telemetry::disabled(),
            flight_dump_dir: None,
        }
    }
}

/// Telemetry handles for the wire hot path.
#[derive(Clone)]
struct WireTel {
    tel: Telemetry,
    connections_total: Counter,
    active_connections: Gauge,
    frames_in: Counter,
    frames_out: Counter,
    goaway_total: Counter,
    conn_panics_total: Counter,
    conn_limit_rejections_total: Counter,
    admin_total: Counter,
    drains_total: Counter,
    draining: Gauge,
    drain_connections: Gauge,
    drain_s: Histogram,
    errors: Vec<(&'static str, Counter)>,
}

impl WireTel {
    fn new(tel: Telemetry) -> Self {
        let dir = |d: &'static str| {
            tel.counter_with(
                "apf_serve_wire_frames_total",
                vec![("dir", d.to_string())],
                "Frames moved across the wire, by direction",
            )
        };
        // One counter per typed decode failure; the exhaustive list keeps
        // the hot path HashMap-free.
        let error_labels = [
            "disconnected",
            "truncated",
            "idle_timeout",
            "stalled",
            "bad_magic",
            "bad_version",
            "bad_kind",
            "oversized",
            "bad_header_crc",
            "bad_extension_crc",
            "bad_extension",
            "bad_payload_crc",
            "bad_payload",
            "bad_request_id",
            "io",
        ];
        WireTel {
            connections_total: tel.counter(
                "apf_serve_wire_connections_total",
                "Connections accepted by the front door",
            ),
            active_connections: tel.gauge(
                "apf_serve_wire_active_connections",
                "Connections currently being served",
            ),
            frames_in: dir("in"),
            frames_out: dir("out"),
            goaway_total: tel.counter(
                "apf_serve_wire_goaway_total",
                "Terminal GoAway frames sent (drain, protocol error, connection cap)",
            ),
            conn_panics_total: tel.counter(
                "apf_serve_wire_conn_panics_total",
                "Connection-handler panics contained by the unwind barrier",
            ),
            conn_limit_rejections_total: tel.counter(
                "apf_serve_wire_conn_limit_rejections_total",
                "Connections turned away at the connection cap",
            ),
            admin_total: tel.counter(
                "apf_serve_wire_admin_total",
                "Admin-plane operations served over the wire",
            ),
            drains_total: tel.counter(
                "apf_serve_wire_drains_total",
                "Graceful drains performed over the server's lifetime",
            ),
            draining: tel.gauge(
                "apf_serve_wire_draining",
                "1 while a graceful drain is in progress, else 0",
            ),
            drain_connections: tel.gauge(
                "apf_serve_wire_drain_connections",
                "Connections that were live when the most recent drain started",
            ),
            drain_s: tel.histogram(
                "apf_serve_wire_drain_seconds",
                "Wall time of a graceful drain (stop accept -> all threads joined)",
            ),
            errors: error_labels
                .iter()
                .map(|l| {
                    (
                        *l,
                        tel.counter_with(
                            "apf_serve_wire_errors_total",
                            vec![("kind", l.to_string())],
                            "Typed wire decode/transport failures",
                        ),
                    )
                })
                .collect(),
            tel,
        }
    }

    fn record_error(&self, e: &WireError) {
        let label = e.label();
        if let Some((_, c)) = self.errors.iter().find(|(l, _)| *l == label) {
            c.inc();
        }
    }
}

/// One connection's lifetime summary.
#[derive(Debug, Clone, Serialize)]
pub struct ConnSummary {
    /// Connection sequence number.
    pub conn: u64,
    /// Request frames fully decoded on this connection.
    pub frames_in: u64,
    /// Response frames written.
    pub responses: u64,
    /// Whether the terminal `GoAway` reached the write path.
    pub goaway_sent: bool,
    /// Why the connection closed (typed error label, `drain`, or `peer`).
    pub close_cause: String,
    /// Whether the handler panicked (always false unless there is a bug;
    /// the soak asserts the sum is zero).
    pub panicked: bool,
}

/// What [`WireServer::drain`] returns: the proof material for the drain
/// acceptance gate.
#[derive(Debug, Clone, Serialize)]
pub struct DrainReport {
    /// Wall time from the drain signal to the last joined thread.
    pub drain_ms: f64,
    /// The configured bound.
    pub drain_deadline_ms: u64,
    /// `drain_ms <= drain_deadline_ms`.
    pub completed_within_bound: bool,
    /// Connections accepted over the server's lifetime.
    pub connections_total: u64,
    /// Connections that were live when the drain started.
    pub connections_at_drain: usize,
    /// `GoAway` frames sent over the server's lifetime.
    pub goaways_sent: u64,
    /// Contained connection-handler panics (must be zero).
    pub conn_panics: u64,
    /// Connections turned away at the cap.
    pub conn_limit_rejections: u64,
    /// Per-connection summaries: at most `REAPED_SUMMARIES_KEPT` (4096) of
    /// the most recently closed connections, plus every connection live at
    /// drain time.
    pub connections: Vec<ConnSummary>,
    /// Per-tenant quota ledgers (exact by construction).
    pub quota_accounts: Vec<TenantAccount>,
}

struct WireShared {
    engine: Arc<ServeEngine>,
    cfg: WireConfig,
    quotas: TenantQuotas,
    draining: AtomicBool,
    active: AtomicUsize,
    // Report fields live in atomics: the telemetry handles are inert when
    // telemetry is disabled, and the drain report must stay exact anyway.
    connections_seen: AtomicU64,
    limit_rejections: AtomicU64,
    goaways_sent: AtomicU64,
    conn_panics: AtomicU64,
    tm: WireTel,
}

/// The running front door. Dropping it without [`WireServer::drain`] still
/// stops and joins every thread (un-gracefully: no bound is reported).
pub struct WireServer {
    shared: Arc<WireShared>,
    local_addr: SocketAddr,
    accept_handle: Option<thread::JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<thread::JoinHandle<ConnSummary>>>>,
    reaped: Arc<Mutex<VecDeque<ConnSummary>>>,
}

/// Closed-connection summaries retained for the drain report. Older ones
/// are dropped first; the bound is what lets a one-connection-per-request
/// workload run indefinitely without accumulating per-connection state.
const REAPED_SUMMARIES_KEPT: usize = 4096;

impl WireServer {
    /// Binds the listener and starts the accept loop.
    pub fn start(engine: Arc<ServeEngine>, cfg: WireConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.bind_addr)?;
        let local_addr = listener.local_addr()?;
        let tm = WireTel::new(cfg.telemetry.clone());
        let quotas = TenantQuotas::new(cfg.quota.clone(), &cfg.telemetry);
        let shared = Arc::new(WireShared {
            engine,
            cfg,
            quotas,
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            connections_seen: AtomicU64::new(0),
            limit_rejections: AtomicU64::new(0),
            goaways_sent: AtomicU64::new(0),
            conn_panics: AtomicU64::new(0),
            tm,
        });
        let conn_handles: Arc<Mutex<Vec<thread::JoinHandle<ConnSummary>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let reaped: Arc<Mutex<VecDeque<ConnSummary>>> = Arc::new(Mutex::new(VecDeque::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conn_handles);
        let accept_reaped = Arc::clone(&reaped);
        let accept_handle = thread::Builder::new()
            .name("apf-wire-accept".to_string())
            .spawn(move || accept_loop(listener, &accept_shared, &accept_conns, &accept_reaped))
            .expect("spawn accept thread");
        Ok(WireServer {
            shared,
            local_addr,
            accept_handle: Some(accept_handle),
            conn_handles,
            reaped,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently live.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Per-tenant quota ledgers so far.
    pub fn quota_accounts(&self) -> Vec<TenantAccount> {
        self.shared.quotas.accounting()
    }

    /// Graceful drain: stop accepting, let in-flight requests complete (or
    /// hit their deadlines), send every live connection a terminal
    /// `GoAway`, join every thread, and report whether it all happened
    /// inside the configured bound.
    pub fn drain(mut self) -> DrainReport {
        let t0 = Instant::now();
        let connections_at_drain = self.shared.active.load(Ordering::Relaxed);
        let tel = self.shared.tm.tel.clone();
        tel.flight("drain_begin", || {
            format!("port={} live_connections={connections_at_drain}", self.local_addr.port())
        });
        self.shared.tm.draining.set(1.0);
        self.shared.tm.drain_connections.set(connections_at_drain as f64);
        self.stop_accepting();
        let handles: Vec<_> = {
            let mut guard = self.conn_handles.lock().unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        // Summaries reaped mid-run (bounded, oldest dropped) come first;
        // connections still live at drain time are joined here and follow.
        let mut connections: Vec<ConnSummary> = self
            .reaped
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        connections.extend(handles.into_iter().map(|h| {
            h.join().unwrap_or_else(|_| ConnSummary {
                conn: u64::MAX,
                frames_in: 0,
                responses: 0,
                goaway_sent: false,
                close_cause: "join_failed".to_string(),
                panicked: true,
            })
        }));
        let drain_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.shared.tm.drain_s.record(drain_ms / 1e3);
        self.shared.tm.drains_total.inc();
        self.shared.tm.draining.set(0.0);
        tel.flight("drain_end", || {
            format!("port={} drain_ms={drain_ms:.1}", self.local_addr.port())
        });
        // The black-box dump: the drain is the server's natural end of
        // flight, so archive the recorder window when a dump dir is set.
        if let Some(dir) = &self.shared.cfg.flight_dump_dir {
            let _ = tel.dump_flight(dir, &format!("drain_{}", self.local_addr.port()));
        }
        DrainReport {
            drain_ms,
            drain_deadline_ms: self.shared.cfg.drain_deadline_ms,
            completed_within_bound: drain_ms <= self.shared.cfg.drain_deadline_ms as f64,
            connections_total: self.shared.connections_seen.load(Ordering::Relaxed),
            connections_at_drain,
            goaways_sent: self.shared.goaways_sent.load(Ordering::Relaxed),
            conn_panics: self.shared.conn_panics.load(Ordering::Relaxed),
            conn_limit_rejections: self.shared.limit_rejections.load(Ordering::Relaxed),
            connections,
            quota_accounts: self.shared.quotas.accounting(),
        }
    }

    /// Raises the drain flag, wakes the blocking `accept` with one loopback
    /// connect (which the accept loop drops uncounted), and joins the
    /// accept thread. Idempotent: the second call finds no handle.
    fn stop_accepting(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            let mut wake = self.local_addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            let _ = h.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        // drain() disarms this by taking the accept handle; reaching here
        // with it armed means the server is being dropped raw (e.g. a
        // panicking test) — stop the threads, skip the report.
        self.stop_accepting();
        let handles: Vec<_> = {
            let mut guard = self.conn_handles.lock().unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: &Arc<WireShared>,
    conns: &Arc<Mutex<Vec<thread::JoinHandle<ConnSummary>>>>,
    reaped: &Arc<Mutex<VecDeque<ConnSummary>>>,
) {
    let mut conn_seq: u64 = 0;
    while !shared.draining.load(Ordering::SeqCst) {
        // Reap finished connection threads before accepting more: an
        // unjoined finished thread keeps its stack mapped, and a
        // connection-per-request client fleet (10^5+ connections) would
        // exhaust thread spawn long before the drain ever joined them.
        {
            let mut guard = conns.lock().unwrap_or_else(|e| e.into_inner());
            let mut i = 0;
            while i < guard.len() {
                if guard[i].is_finished() {
                    let handle = guard.swap_remove(i);
                    if let Ok(summary) = handle.join() {
                        let mut done = reaped.lock().unwrap_or_else(|e| e.into_inner());
                        if done.len() >= REAPED_SUMMARIES_KEPT {
                            done.pop_front();
                        }
                        done.push_back(summary);
                    }
                } else {
                    i += 1;
                }
            }
        }
        match listener.accept() {
            // The flag is raised before the wake-up connect, so whatever
            // is accepted after it is that connect (or a client too late
            // for a draining server): dropped, neither served nor counted.
            Ok(_) if shared.draining.load(Ordering::SeqCst) => break,
            Ok((stream, _peer)) => {
                conn_seq += 1;
                let conn = conn_seq;
                shared.connections_seen.fetch_add(1, Ordering::Relaxed);
                shared.tm.connections_total.inc();
                if shared.active.load(Ordering::Relaxed) >= shared.cfg.max_connections {
                    shared.limit_rejections.fetch_add(1, Ordering::Relaxed);
                    shared.tm.conn_limit_rejections_total.inc();
                    send_goaway(shared, &stream, shared.engine.retry_after_hint());
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                shared.active.fetch_add(1, Ordering::Relaxed);
                shared.tm.active_connections.set(shared.active.load(Ordering::Relaxed) as f64);
                let conn_shared = Arc::clone(shared);
                let handle = thread::Builder::new()
                    .name(format!("apf-wire-conn-{conn}"))
                    .spawn(move || {
                        let summary =
                            catch_unwind(AssertUnwindSafe(|| serve_connection(conn, &conn_shared, stream)))
                                .unwrap_or_else(|_| {
                                    conn_shared.tm.conn_panics_total.inc();
                                    conn_shared.conn_panics.fetch_add(1, Ordering::Relaxed);
                                    ConnSummary {
                                        conn,
                                        frames_in: 0,
                                        responses: 0,
                                        goaway_sent: false,
                                        close_cause: "panic".to_string(),
                                        panicked: true,
                                    }
                                });
                        conn_shared.active.fetch_sub(1, Ordering::Relaxed);
                        conn_shared
                            .tm
                            .active_connections
                            .set(conn_shared.active.load(Ordering::Relaxed) as f64);
                        summary
                    })
                    .expect("spawn connection thread");
                conns.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // A broken listener cannot accept; treat as an implicit drain
            // signal rather than spinning.
            Err(_) => break,
        }
    }
}

/// Best-effort terminal `GoAway`; failures are ignored (the peer may
/// already be gone) but sends are counted.
fn send_goaway(shared: &WireShared, stream: &TcpStream, retry_after_ms: u64) {
    let frame = Frame::new(
        FrameKind::GoAway,
        0,
        0,
        WireStatus::GoAway { retry_after_ms }.encode(),
    );
    let mut w = stream;
    if write_frame(&mut w, &frame).is_ok() {
        shared.goaways_sent.fetch_add(1, Ordering::Relaxed);
        shared.tm.goaway_total.inc();
        shared.tm.frames_out.inc();
    }
}

fn serve_connection(conn: u64, shared: &WireShared, stream: TcpStream) -> ConnSummary {
    let _span = shared.tm.tel.span_id("serve.wire.conn", conn);
    // The per-call timeouts are the deadline mechanism.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(shared.cfg.read_timeout_ms.max(1))));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(shared.cfg.write_timeout_ms.max(1))));
    let mut summary = ConnSummary {
        conn,
        frames_in: 0,
        responses: 0,
        goaway_sent: false,
        close_cause: String::new(),
        panicked: false,
    };
    let mut reader = &stream;
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            send_goaway(shared, &stream, shared.engine.retry_after_hint());
            summary.goaway_sent = true;
            summary.close_cause = "drain".to_string();
            break;
        }
        let frame = match read_frame(&mut reader, shared.cfg.max_payload) {
            Ok(f) => f,
            // Idle is not an error: nothing was in flight. Loop back so the
            // drain flag is polled at least every read_timeout.
            Err(WireError::IdleTimeout) => continue,
            Err(WireError::Disconnected) => {
                summary.close_cause = "peer".to_string();
                break;
            }
            Err(e) => {
                // Torn, stalled, oversized, or garbage bytes: the
                // connection is beyond trust. Count the typed error, wave
                // goodbye, close.
                shared.tm.record_error(&e);
                send_goaway(shared, &stream, shared.engine.retry_after_hint());
                summary.goaway_sent = true;
                summary.close_cause = e.label().to_string();
                break;
            }
        };
        shared.tm.frames_in.inc();
        summary.frames_in += 1;
        // Cross-process trace handoff: the extension (when present) makes
        // this request's spans children of the client's call span. The
        // guard scopes the context to this frame only.
        let _ctx_guard = frame.trace.map(apf_telemetry::TraceContext::install);
        let _req_span = shared.tm.tel.span_id("serve.wire.request", frame.request);
        // The admin plane answers from the wire layer (behind the quota
        // gate, never touching the engine) and replies in an Admin frame;
        // everything else takes the engine path and a Response frame.
        let reply = if frame.kind == FrameKind::Admin {
            let resp = respond_to_admin(shared, &frame);
            Frame::new(FrameKind::Admin, frame.tenant, frame.request, resp.encode())
        } else {
            let status = respond_to_frame(shared, &frame);
            Frame::new(FrameKind::Response, frame.tenant, frame.request, status.encode())
        };
        let mut w = &stream;
        match write_frame(&mut w, &reply) {
            Ok(()) => {
                shared.tm.frames_out.inc();
                summary.responses += 1;
            }
            Err(e) => {
                shared.tm.record_error(&e);
                summary.close_cause = e.label().to_string();
                break;
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    summary
}

/// The admin plane: decode the op, answer from the wire layer's own state
/// (metrics registry, flight recorder, sampling knob). The quota gate
/// applies like any other frame; an over-quota tenant gets a failed
/// response rather than a metrics dump.
fn respond_to_admin(shared: &WireShared, frame: &Frame) -> AdminResponse {
    if let Err(retry_after_ms) = shared.quotas.try_acquire(frame.tenant) {
        return AdminResponse { ok: false, body: format!("over quota; retry in {retry_after_ms} ms") };
    }
    let req = match AdminRequest::decode(&frame.payload) {
        Ok(r) => r,
        Err(e) => return AdminResponse { ok: false, body: e.to_string() },
    };
    shared.tm.admin_total.inc();
    let tel = &shared.tm.tel;
    match req {
        AdminRequest::MetricsProm => AdminResponse { ok: true, body: tel.render_prometheus() },
        AdminRequest::MetricsJson => AdminResponse { ok: true, body: tel.snapshot().render_json() },
        AdminRequest::Health => AdminResponse {
            ok: true,
            body: if shared.draining.load(Ordering::SeqCst) { "draining" } else { "serving" }
                .to_string(),
        },
        AdminRequest::SetSampling { rate } => {
            let clamped = rate.clamp(0.0, 1.0);
            tel.set_trace_sampling(clamped);
            tel.flight("sampling_change", || format!("rate={clamped}"));
            AdminResponse { ok: true, body: format!("sampling={clamped}") }
        }
        AdminRequest::FlightDump => {
            tel.flight("flight_dump", || format!("trigger=admin request={}", frame.request));
            let body = tel.flight_jsonl();
            if let Some(dir) = &shared.cfg.flight_dump_dir {
                if let Some(Err(e)) = tel.dump_flight(dir, &format!("admin_{}", frame.request)) {
                    return AdminResponse { ok: false, body: format!("dump failed: {e}") };
                }
            }
            AdminResponse { ok: true, body }
        }
        AdminRequest::TraceDump => AdminResponse { ok: true, body: tel.chrome_trace_json() },
    }
}

/// The frame -> engine -> status pipeline for one request frame.
fn respond_to_frame(shared: &WireShared, frame: &Frame) -> WireStatus {
    // Quota first: over-quota tenants must not cost the engine anything.
    // The hint is the *max* of the bucket's refill time and the engine's
    // load-aware backoff: retrying the moment tokens refill is useless if
    // the retry would only queue behind the backlog anyway.
    if let Err(quota_ms) = shared.quotas.try_acquire(frame.tenant) {
        return WireStatus::OverQuota {
            retry_after_ms: quota_ms.max(shared.engine.retry_after_hint()),
        };
    }
    let request = match WireRequest::decode(frame.kind, &frame.payload) {
        Ok(r) => r,
        Err(e) => return WireStatus::InvalidInput { reason: e.to_string() },
    };
    let ticket = match request {
        WireRequest::Segment { deadline_ms, width, height, pixels } => {
            let image = match GrayImage::try_from_raw(width as usize, height as usize, pixels) {
                Ok(img) => img,
                Err(e) => return WireStatus::InvalidInput { reason: e.to_string() },
            };
            shared.engine.submit(SegRequest {
                id: frame.request,
                image,
                deadline_ms: (deadline_ms > 0).then_some(deadline_ms),
            })
        }
        WireRequest::Slide {
            deadline_ms,
            window,
            halo,
            cache_budget_bytes,
            stitch_workers,
            slide_path,
            output_path,
        } => shared.engine.submit_slide(SlideRequest {
            id: frame.request,
            slide_path: slide_path.into(),
            output_path: output_path.into(),
            window: window as usize,
            halo: halo as usize,
            cache_budget_bytes: cache_budget_bytes as usize,
            deadline_ms: (deadline_ms > 0).then_some(deadline_ms),
            stitch_workers: stitch_workers as usize,
            checkpoint_path: None,
            resume: false,
        }),
    };
    match ticket.wait() {
        Some(resp) => status_for_response(&resp),
        // The engine answers every submission; `None` can only mean it was
        // torn down underneath the front door — shaped like a worker loss.
        None => WireStatus::WorkerFailure { reason: 0 },
    }
}

/// Maps an engine response onto the wire status taxonomy.
pub fn status_for_response(resp: &SegResponse) -> WireStatus {
    let tier = resp.tier.rank();
    match &resp.outcome {
        Outcome::Completed { tokens, positive_fraction } => WireStatus::Ok {
            tokens: *tokens as u64,
            positive_fraction: *positive_fraction,
            tier,
        },
        Outcome::SlideCompleted { windows, tokens, positive_fraction } => WireStatus::SlideOk {
            windows: *windows as u64,
            tokens: *tokens as u64,
            positive_fraction: *positive_fraction,
            tier,
        },
        Outcome::Rejected { retry_after_ms } => {
            WireStatus::Rejected { retry_after_ms: *retry_after_ms }
        }
        Outcome::InvalidInput { reason } => WireStatus::InvalidInput { reason: reason.clone() },
        Outcome::DeadlineExceeded { stage } => WireStatus::DeadlineExceeded {
            stage: match stage {
                DeadlineStage::Queued => 0,
                DeadlineStage::Inference { .. } => 1,
                DeadlineStage::Stitching { .. } => 2,
            },
        },
        Outcome::WorkerFailure { reason } => WireStatus::WorkerFailure {
            reason: match reason {
                FailureReason::Panicked => 0,
                FailureReason::NonFiniteOutput => 1,
            },
        },
    }
}