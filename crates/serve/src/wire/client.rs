//! A retrying `APFW1` client with bounded exponential backoff.
//!
//! Every call owns its own retry loop: connect, send the request frame,
//! read the response, classify. Retryable outcomes — transport-level
//! [`WireError`]s, `Rejected`, `OverQuota`, `GoAway`, `WorkerFailure` —
//! trigger a reconnect after a delay that is the *maximum* of the server's
//! `retry_after_ms` hint (the server knows its queue) and the client's own
//! jittered exponential backoff (the client knows its attempt count).
//! Terminal outcomes — `Ok`, `SlideOk`, `InvalidInput`,
//! `DeadlineExceeded` — return immediately: retrying a request the server
//! proved invalid or too slow only wastes both parties' time.
//!
//! Two budgets bound the loop, whichever trips first: `max_attempts`
//! caps the count, `attempt_budget_ms` caps the wall clock including
//! backoff sleeps. Exhaustion returns [`ClientError::Exhausted`] carrying
//! the last failure so callers never see an untyped "gave up".
//!
//! A seeded [`FaultPlan<NetFaultKind>`] can be attached to mangle the send
//! path on scheduled attempts (torn/stalled/garbage writes, pre-send
//! disconnects), which is how the soak drives the server's error taxonomy
//! and this client's reconnect logic from a single seed.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use apf_core::fault::FaultPlan;
use apf_telemetry::{Telemetry, TraceContext};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::frame::{
    read_frame, write_frame, AdminRequest, AdminResponse, Frame, FrameKind, WireError,
    WireRequest, WireStatus,
};
use super::netfault::NetFaultKind;

/// Client retry/backoff configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Tenant id stamped into every frame header.
    pub tenant: u64,
    /// Maximum attempts per call (first try included).
    pub max_attempts: u32,
    /// First backoff step in milliseconds; doubles per retry.
    pub base_backoff_ms: u64,
    /// Ceiling for any single backoff sleep.
    pub max_backoff_ms: u64,
    /// Wall-clock budget per call, sleeps included. Once spent, the call
    /// stops retrying even with attempts left.
    pub attempt_budget_ms: u64,
    /// Socket read deadline per response in milliseconds.
    pub read_timeout_ms: u64,
    /// Socket write deadline per frame in milliseconds.
    pub write_timeout_ms: u64,
    /// Largest response payload this client will accept.
    pub max_payload: u32,
    /// Seed for backoff jitter (and garbage bytes under fault injection).
    pub seed: u64,
    /// Client-side telemetry: spans for calls/attempts and the trace roots
    /// whose contexts ride the wire extension. The default (disabled) sends
    /// context-free frames, byte-identical to the pre-extension protocol.
    pub telemetry: Telemetry,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            tenant: 0,
            max_attempts: 6,
            base_backoff_ms: 5,
            max_backoff_ms: 500,
            attempt_budget_ms: 10_000,
            read_timeout_ms: 2_000,
            write_timeout_ms: 1_000,
            max_payload: super::frame::DEFAULT_MAX_PAYLOAD,
            seed: 0,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Why a call ultimately failed. Every variant is typed; the soak asserts
/// no client ever reports anything outside this taxonomy.
#[derive(Debug, Clone)]
pub enum ClientError {
    /// The server answered with a terminal (non-retryable) status.
    Terminal {
        /// The status as received.
        status: WireStatus,
    },
    /// Transport or protocol failure on the final attempt.
    Wire(WireError),
    /// All attempts were retryable failures; `last` is the final one.
    Exhausted {
        /// Attempts actually made.
        attempts: u32,
        /// Stable label of the last retryable failure.
        last: String,
    },
    /// The wall-clock budget ran out before the attempt cap.
    BudgetExhausted {
        /// Attempts actually made.
        attempts: u32,
        /// Milliseconds spent when the loop stopped.
        spent_ms: u64,
        /// Stable label of the last retryable failure.
        last: String,
    },
}

impl ClientError {
    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ClientError::Terminal { .. } => "terminal",
            ClientError::Wire(_) => "wire",
            ClientError::Exhausted { .. } => "exhausted",
            ClientError::BudgetExhausted { .. } => "budget_exhausted",
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Terminal { status } => write!(f, "terminal status {}", status.label()),
            ClientError::Wire(e) => write!(f, "wire failure: {e}"),
            ClientError::Exhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts (last: {last})")
            }
            ClientError::BudgetExhausted { attempts, spent_ms, last } => {
                write!(f, "budget exhausted after {attempts} attempts / {spent_ms} ms (last: {last})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Counters one client accumulates across calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Attempts made (each opens a connection).
    pub attempts: u64,
    /// Attempts beyond the first for their call.
    pub retries: u64,
    /// `GoAway` statuses observed (drain or protocol-error closes).
    pub goaways_seen: u64,
    /// `OverQuota` statuses observed.
    pub over_quota_seen: u64,
    /// Attempts mangled by the fault plan.
    pub faults_injected: u64,
}

/// The retrying client. One instance is single-threaded; spawn one per
/// client thread in soaks.
pub struct WireClient {
    cfg: ClientConfig,
    addr: SocketAddr,
    rng: ChaCha8Rng,
    faults: FaultPlan<NetFaultKind>,
    attempt_counter: u64,
    stats: ClientStats,
}

impl WireClient {
    /// A client for the server at `addr`.
    pub fn connect(addr: SocketAddr, cfg: ClientConfig) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        WireClient { cfg, addr, rng, faults: FaultPlan::none(), attempt_counter: 0, stats: ClientStats::default() }
    }

    /// Attaches a fault plan on lane 0, keyed by attempt; scheduled
    /// attempts mangle the send path.
    pub fn with_faults(mut self, plan: FaultPlan<NetFaultKind>) -> Self {
        self.faults = plan;
        self
    }

    /// Counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Sends one request with the full retry loop. On success returns the
    /// terminal successful status (`Ok`/`SlideOk`).
    pub fn call(&mut self, request: &WireRequest) -> Result<WireStatus, ClientError> {
        // One call = one trace (unless the calling thread is already inside
        // one, in which case the call joins it). The context installed here
        // is what each attempt copies into the frame's wire extension, so
        // retries of one call share a single trace id.
        let minted =
            if TraceContext::current().is_none() { self.cfg.telemetry.new_trace() } else { None };
        let _ctx_guard = minted.map(TraceContext::install);
        let _call_span = self.cfg.telemetry.span("wire.client.call");
        let started = Instant::now();
        let budget = Duration::from_millis(self.cfg.attempt_budget_ms);
        let mut last_label = String::from("none");
        let mut attempts = 0u32;
        while attempts < self.cfg.max_attempts {
            if started.elapsed() >= budget {
                return Err(ClientError::BudgetExhausted {
                    attempts,
                    spent_ms: started.elapsed().as_millis() as u64,
                    last: last_label,
                });
            }
            attempts += 1;
            self.stats.attempts += 1;
            if attempts > 1 {
                self.stats.retries += 1;
            }
            let nth = self.attempt_counter;
            self.attempt_counter += 1;
            let outcome = {
                let _attempt_span = if attempts > 1 {
                    self.cfg.telemetry.span_noted("wire.client.attempt", nth, "retry")
                } else {
                    self.cfg.telemetry.span_id("wire.client.attempt", nth)
                };
                self.attempt(request, nth)
            };
            let retry_hint = match outcome {
                Ok(status) => {
                    match &status {
                        WireStatus::GoAway { .. } => self.stats.goaways_seen += 1,
                        WireStatus::OverQuota { .. } => self.stats.over_quota_seen += 1,
                        _ => {}
                    }
                    if !status.is_retryable() {
                        return match status {
                            ok @ (WireStatus::Ok { .. } | WireStatus::SlideOk { .. }) => Ok(ok),
                            terminal => Err(ClientError::Terminal { status: terminal }),
                        };
                    }
                    last_label = status.label().to_string();
                    status.retry_after_ms()
                }
                Err(e) => {
                    if !e.is_retryable() {
                        return Err(ClientError::Wire(e));
                    }
                    last_label = e.label().to_string();
                    None
                }
            };
            if attempts >= self.cfg.max_attempts {
                break;
            }
            let sleep = self.backoff(attempts, retry_hint);
            // Sleeping past the budget is pointless; clip to what remains.
            let remaining = budget.saturating_sub(started.elapsed());
            thread::sleep(sleep.min(remaining));
        }
        Err(ClientError::Exhausted { attempts, last: last_label })
    }

    /// The delay before retry `attempt + 1`: jittered exponential backoff,
    /// floored by the server hint when one was given.
    fn backoff(&mut self, attempt: u32, server_hint_ms: Option<u64>) -> Duration {
        let exp = self
            .cfg
            .base_backoff_ms
            .saturating_mul(1u64 << (attempt - 1).min(20))
            .min(self.cfg.max_backoff_ms);
        // Full jitter keeps retry storms decorrelated across clients.
        let jittered = if exp == 0 { 0 } else { self.rng.gen_range(0..=exp) };
        Duration::from_millis(jittered.max(server_hint_ms.unwrap_or(0)).min(self.cfg.max_backoff_ms))
    }

    /// One connect/send/receive round. `Ok` carries whatever status the
    /// server answered (including retryable ones); `Err` is transport.
    fn attempt(&mut self, request: &WireRequest, nth: u64) -> Result<WireStatus, WireError> {
        let stream = TcpStream::connect_timeout(
            &self.addr,
            Duration::from_millis(self.cfg.write_timeout_ms.max(1)),
        )
        .map_err(|e| WireError::Io { kind: format!("{:?}", e.kind()) })?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(self.cfg.read_timeout_ms.max(1))));
        let _ = stream.set_write_timeout(Some(Duration::from_millis(self.cfg.write_timeout_ms.max(1))));

        if let Some(fault) = self.faults.fault_for(0, nth) {
            self.stats.faults_injected += 1;
            return Err(self.inject(&stream, fault, request, nth));
        }

        let frame = Frame::new(request.kind(), self.cfg.tenant, nth, request.encode())
            .with_trace(TraceContext::current());
        let mut w = &stream;
        write_frame(&mut w, &frame)?;
        let mut r = &stream;
        let reply = read_frame(&mut r, self.cfg.max_payload)?;
        let _ = stream.shutdown(Shutdown::Both);
        match reply.kind {
            FrameKind::Response | FrameKind::GoAway => WireStatus::decode(&reply.payload),
            other => Err(WireError::BadKind { found: other.to_u8() }),
        }
    }

    /// One admin-plane round trip: no retry loop (admin callers want the
    /// current state, not an eventually-consistent one). Shares the wire's
    /// quota and deadline machinery server-side.
    pub fn admin(&mut self, request: &AdminRequest) -> Result<AdminResponse, WireError> {
        let minted =
            if TraceContext::current().is_none() { self.cfg.telemetry.new_trace() } else { None };
        let _ctx_guard = minted.map(TraceContext::install);
        let nth = self.attempt_counter;
        self.attempt_counter += 1;
        self.stats.attempts += 1;
        let _span = self.cfg.telemetry.span_id("wire.client.admin", nth);
        let stream = TcpStream::connect_timeout(
            &self.addr,
            Duration::from_millis(self.cfg.write_timeout_ms.max(1)),
        )
        .map_err(|e| WireError::Io { kind: format!("{:?}", e.kind()) })?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(self.cfg.read_timeout_ms.max(1))));
        let _ = stream.set_write_timeout(Some(Duration::from_millis(self.cfg.write_timeout_ms.max(1))));
        let frame = Frame::new(FrameKind::Admin, self.cfg.tenant, nth, request.encode())
            .with_trace(TraceContext::current());
        let mut w = &stream;
        write_frame(&mut w, &frame)?;
        let mut r = &stream;
        let reply = read_frame(&mut r, self.cfg.max_payload)?;
        let _ = stream.shutdown(Shutdown::Both);
        match reply.kind {
            FrameKind::Admin => AdminResponse::decode(&reply.payload),
            other => Err(WireError::BadKind { found: other.to_u8() }),
        }
    }

    /// Executes a scheduled fault on an open connection and reports what
    /// the client-side symptom is (always a retryable transport error).
    fn inject(
        &mut self,
        stream: &TcpStream,
        fault: NetFaultKind,
        request: &WireRequest,
        nth: u64,
    ) -> WireError {
        let frame_bytes = Frame::new(request.kind(), self.cfg.tenant, nth, request.encode()).encode();
        let mut w = stream;
        match fault {
            NetFaultKind::TornWrite { keep_bytes } => {
                let keep = keep_bytes.min(frame_bytes.len().saturating_sub(1)).max(1);
                let _ = w.write_all(&frame_bytes[..keep]);
                let _ = w.flush();
                let _ = stream.shutdown(Shutdown::Both);
                WireError::Io { kind: "torn_write".to_string() }
            }
            NetFaultKind::StalledWrite { keep_bytes, stall_ms } => {
                let keep = keep_bytes.min(frame_bytes.len().saturating_sub(1)).max(1);
                let _ = w.write_all(&frame_bytes[..keep]);
                let _ = w.flush();
                thread::sleep(Duration::from_millis(stall_ms));
                let _ = stream.shutdown(Shutdown::Both);
                WireError::Io { kind: "stalled_write".to_string() }
            }
            NetFaultKind::Disconnect => {
                let _ = stream.shutdown(Shutdown::Both);
                WireError::Disconnected
            }
            NetFaultKind::Garbage { len } => {
                let junk = NetFaultKind::garbage_bytes(self.cfg.seed, nth, len);
                let _ = w.write_all(&junk);
                let _ = w.flush();
                let _ = stream.shutdown(Shutdown::Both);
                WireError::Io { kind: "garbage_write".to_string() }
            }
        }
    }
}
