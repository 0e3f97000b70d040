//! The hardened socket front door: `APFW1` over TCP.
//!
//! Layer map, bottom-up:
//!
//! * [`frame`] — the length-prefixed, CRC-checked wire format and its
//!   typed error taxonomy ([`WireError`]), plus the request/status payload
//!   codecs ([`WireRequest`], [`WireStatus`]).
//! * [`quota`] — per-tenant token buckets with exact accounting
//!   ([`TenantQuotas`]).
//! * [`server`] — the thread-per-connection listener with read/write
//!   deadlines, the quota gate, engine outcome mapping, and graceful
//!   drain ([`WireServer`]).
//! * [`client`] — the reconnecting, backoff-aware caller
//!   ([`WireClient`]).
//! * [`netfault`] — seeded socket-level fault kinds ([`NetFaultKind`])
//!   used by the soak and the loopback tests here.
//!
//! See `DESIGN.md` §12 for the frame layout, the status ↔ [`Outcome`]
//! mapping table, the drain state machine, and quota semantics.
//!
//! [`Outcome`]: crate::request::Outcome

pub mod client;
pub mod frame;
pub mod netfault;
pub mod quota;
pub mod server;

pub use apf_telemetry::TraceContext;
pub use client::{ClientConfig, ClientError, ClientStats, WireClient};
pub use frame::{
    read_frame, write_frame, AdminRequest, AdminResponse, Frame, FrameKind, WireError,
    WireRequest, WireStatus, DEFAULT_MAX_PAYLOAD, FLAG_TRACE_CONTEXT, HEADER_LEN, TRACE_EXT_LEN,
    WIRE_MAGIC, WIRE_VERSION,
};
pub use netfault::NetFaultKind;
pub use quota::{QuotaConfig, QuotaLimit, TenantAccount, TenantQuotas};
pub use server::{ConnSummary, DrainReport, WireConfig, WireServer};

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use apf_core::fault::{Fault, FaultPlan};
    use apf_telemetry::Telemetry;

    use crate::engine::{ServeConfig, ServeEngine};

    use super::*;

    fn engine() -> Arc<ServeEngine> {
        Arc::new(ServeEngine::start(ServeConfig {
            queue_capacity: 32,
            default_deadline_ms: Some(2_000),
            ..ServeConfig::small()
        }))
    }

    fn server(engine: &Arc<ServeEngine>, quota: QuotaConfig) -> WireServer {
        WireServer::start(
            Arc::clone(engine),
            WireConfig {
                read_timeout_ms: 60,
                drain_deadline_ms: 10_000,
                quota,
                telemetry: Telemetry::disabled(),
                ..WireConfig::default()
            },
        )
        .expect("bind loopback")
    }

    fn segment_request(px: usize) -> WireRequest {
        WireRequest::Segment {
            deadline_ms: 2_000,
            width: px as u32,
            height: px as u32,
            pixels: vec![0.5; px * px],
        }
    }

    fn client(addr: std::net::SocketAddr, tenant: u64, seed: u64) -> WireClient {
        WireClient::connect(
            addr,
            ClientConfig { tenant, seed, base_backoff_ms: 2, max_backoff_ms: 50, ..ClientConfig::default() },
        )
    }

    #[test]
    fn loopback_roundtrip_serves_segmentation() {
        let engine = engine();
        let srv = server(&engine, QuotaConfig::default());
        let mut cli = client(srv.local_addr(), 1, 7);
        match cli.call(&segment_request(32)).expect("call succeeds") {
            WireStatus::Ok { tokens, positive_fraction, .. } => {
                assert!(tokens > 0);
                assert!((0.0..=1.0).contains(&positive_fraction));
            }
            other => panic!("unexpected status {other:?}"),
        }
        let report = srv.drain();
        assert_eq!(report.conn_panics, 0);
        assert!(report.completed_within_bound);
        let engine = Arc::try_unwrap(engine).ok().expect("sole engine owner after drain");
        engine.shutdown();
    }

    #[test]
    fn over_quota_tenant_is_rejected_with_a_quota_hint_while_others_pass() {
        let engine = engine();
        let starved = QuotaLimit { burst: 1.0, per_sec: 0.25 };
        let srv = server(
            &engine,
            QuotaConfig { overrides: vec![(9, starved)], ..QuotaConfig::default() },
        );
        let mut rich = client(srv.local_addr(), 1, 1);
        // One-shot client: no retries, so OverQuota surfaces immediately.
        let mut poor = WireClient::connect(
            srv.local_addr(),
            ClientConfig { tenant: 9, max_attempts: 1, ..ClientConfig::default() },
        );
        assert!(matches!(poor.call(&segment_request(16)), Ok(WireStatus::Ok { .. })));
        match poor.call(&segment_request(16)) {
            Err(ClientError::Exhausted { attempts: 1, last }) => assert_eq!(last, "over_quota"),
            other => panic!("expected quota exhaustion, got {other:?}"),
        }
        // The flooded tenant does not starve the well-behaved one.
        assert!(matches!(rich.call(&segment_request(16)), Ok(WireStatus::Ok { .. })));
        let report = srv.drain();
        let acct = report.quota_accounts.iter().find(|a| a.tenant == 9).expect("tenant 9 ledger");
        assert_eq!((acct.granted, acct.rejected), (1, 1));
        assert!(report.quota_accounts.iter().all(TenantAccount::is_consistent));
        Arc::try_unwrap(engine).ok().expect("sole owner").shutdown();
    }

    #[test]
    fn garbage_and_torn_frames_get_typed_errors_and_the_client_recovers() {
        let engine = engine();
        let srv = server(&engine, QuotaConfig::default());
        // Faults on attempts 0 and 1; attempt 2 goes through clean.
        let plan = FaultPlan::new(vec![
            Fault { lane: 0, nth: 0, kind: NetFaultKind::Garbage { len: 24 } },
            Fault { lane: 0, nth: 1, kind: NetFaultKind::TornWrite { keep_bytes: 11 } },
        ]);
        let mut cli = client(srv.local_addr(), 3, 5).with_faults(plan);
        assert!(matches!(cli.call(&segment_request(16)), Ok(WireStatus::Ok { .. })));
        let stats = cli.stats();
        assert_eq!(stats.faults_injected, 2);
        assert_eq!(stats.retries, 2);
        let report = srv.drain();
        assert_eq!(report.conn_panics, 0);
        Arc::try_unwrap(engine).ok().expect("sole owner").shutdown();
    }

    #[test]
    fn slow_loris_mid_frame_stall_is_cut_by_the_read_deadline() {
        let engine = engine();
        let srv = server(&engine, QuotaConfig::default());
        // Stall far past the 60 ms server read deadline mid-header.
        let plan = FaultPlan::new(vec![Fault {
            lane: 0,
            nth: 0,
            kind: NetFaultKind::StalledWrite { keep_bytes: 9, stall_ms: 250 },
        }]);
        let mut cli = client(srv.local_addr(), 4, 9).with_faults(plan);
        let t0 = std::time::Instant::now();
        assert!(matches!(cli.call(&segment_request(16)), Ok(WireStatus::Ok { .. })));
        // The server thread must have been freed by its deadline, not held
        // for the client's full stall.
        assert!(t0.elapsed() < Duration::from_secs(5));
        let report = srv.drain();
        assert_eq!(report.conn_panics, 0);
        let stalled = report
            .connections
            .iter()
            .any(|c| c.close_cause == "stalled" || c.close_cause == "truncated" || c.close_cause == "peer");
        assert!(stalled, "stalled connection missing from {:?}", report.connections);
        Arc::try_unwrap(engine).ok().expect("sole owner").shutdown();
    }

    #[test]
    fn drain_sends_goaway_to_idle_connections_and_joins_within_bound() {
        let engine = engine();
        let srv = server(&engine, QuotaConfig::default());
        let addr = srv.local_addr();
        // Park two raw idle connections; they must each observe a GoAway.
        let idlers: Vec<std::net::TcpStream> = (0..2)
            .map(|_| {
                let s = std::net::TcpStream::connect(addr).expect("connect");
                s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                s
            })
            .collect();
        // Give the accept loop time to hand them to conn threads.
        std::thread::sleep(Duration::from_millis(50));
        let report = srv.drain();
        assert!(report.completed_within_bound, "drain took {} ms", report.drain_ms);
        assert_eq!(report.connections_at_drain, 2);
        assert_eq!(report.goaways_sent, 2);
        assert_eq!(report.conn_panics, 0);
        for mut s in idlers {
            let frame = read_frame(&mut s, DEFAULT_MAX_PAYLOAD).expect("goaway frame");
            assert_eq!(frame.kind, FrameKind::GoAway);
            match WireStatus::decode(&frame.payload).expect("goaway status") {
                WireStatus::GoAway { retry_after_ms } => assert!(retry_after_ms >= 1),
                other => panic!("expected GoAway, got {other:?}"),
            }
        }
        Arc::try_unwrap(engine).ok().expect("sole owner").shutdown();
    }

    /// Strips lines whose metric name starts with `apf_serve_wire_` — the
    /// admin call itself moves wire counters between the remote render and
    /// the local one, so parity is asserted on everything else.
    fn strip_wire_lines(prom: &str) -> String {
        prom.lines()
            .filter(|l| !l.contains("apf_serve_wire_"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn admin_plane_serves_metrics_health_sampling_and_flight_dumps() {
        let tel = Telemetry::enabled();
        let engine = Arc::new(ServeEngine::start(ServeConfig {
            queue_capacity: 32,
            default_deadline_ms: Some(2_000),
            telemetry: tel.clone(),
            ..ServeConfig::small()
        }));
        let srv = WireServer::start(
            Arc::clone(&engine),
            WireConfig {
                read_timeout_ms: 60,
                drain_deadline_ms: 10_000,
                telemetry: tel.clone(),
                ..WireConfig::default()
            },
        )
        .expect("bind loopback");
        let mut cli = WireClient::connect(
            srv.local_addr(),
            ClientConfig { tenant: 1, telemetry: tel.clone(), ..ClientConfig::default() },
        );
        // Move some real metrics first so parity is non-trivial.
        assert!(matches!(cli.call(&segment_request(16)), Ok(WireStatus::Ok { .. })));

        let health = cli.admin(&AdminRequest::Health).expect("health");
        assert!(health.ok);
        assert_eq!(health.body, "serving");

        // The admin metrics snapshot must match the registry the server
        // itself renders (modulo the wire counters the call perturbs).
        let remote = cli.admin(&AdminRequest::MetricsProm).expect("metrics");
        assert!(remote.ok);
        assert!(remote.body.contains("apf_serve_wire_frames_total"));
        assert!(remote.body.contains("apf_serve_wire_quota_checked_total"));
        assert_eq!(strip_wire_lines(&remote.body), strip_wire_lines(&tel.render_prometheus()));

        // JSON flavor parses and carries the same registry.
        let json = cli.admin(&AdminRequest::MetricsJson).expect("metrics json");
        assert!(json.ok);
        apf_telemetry::validate_json(&json.body).expect("valid JSON snapshot");
        assert!(json.body.contains("apf_serve_requests_total"));

        // Live sampling control round-trips into the registry.
        let set = cli.admin(&AdminRequest::SetSampling { rate: 0.25 }).expect("set sampling");
        assert!(set.ok);
        assert_eq!(tel.trace_sampling(), 0.25);
        let clamped = cli.admin(&AdminRequest::SetSampling { rate: 7.5 }).expect("clamped");
        assert!(clamped.ok);
        assert_eq!(tel.trace_sampling(), 1.0);

        // The flight dump carries the recorder window inline as JSONL,
        // including the quota/sampling events this test just caused.
        let dump = cli.admin(&AdminRequest::FlightDump).expect("flight dump");
        assert!(dump.ok);
        apf_telemetry::validate_jsonl(&dump.body).expect("valid flight JSONL");
        assert!(dump.body.contains("sampling_change"));

        let report = srv.drain();
        assert_eq!(report.conn_panics, 0);
        Arc::try_unwrap(engine).ok().expect("sole owner").shutdown();
    }

    #[test]
    fn traced_calls_produce_linked_client_and_server_spans() {
        let tel = Telemetry::enabled();
        let engine = Arc::new(ServeEngine::start(ServeConfig {
            queue_capacity: 32,
            default_deadline_ms: Some(2_000),
            telemetry: tel.clone(),
            ..ServeConfig::small()
        }));
        let srv = WireServer::start(
            Arc::clone(&engine),
            WireConfig {
                read_timeout_ms: 60,
                drain_deadline_ms: 10_000,
                telemetry: tel.clone(),
                ..WireConfig::default()
            },
        )
        .expect("bind loopback");
        let mut cli = WireClient::connect(
            srv.local_addr(),
            ClientConfig { tenant: 1, telemetry: tel.clone(), ..ClientConfig::default() },
        );
        assert!(matches!(cli.call(&segment_request(16)), Ok(WireStatus::Ok { .. })));
        let report = srv.drain();
        assert_eq!(report.conn_panics, 0);
        Arc::try_unwrap(engine).ok().expect("sole owner").shutdown();

        let events = tel.trace_events();
        let call = events
            .iter()
            .find(|e| e.name == "wire.client.call")
            .expect("client call span");
        assert_ne!(call.trace_id, 0, "client call must start a trace");
        // The server-side request span shares the client's trace id and
        // hangs under the client's attempt span (the wire handoff parent).
        let req = events
            .iter()
            .find(|e| e.name == "serve.wire.request")
            .expect("server request span");
        assert_eq!(req.trace_id, call.trace_id);
        let attempt = events
            .iter()
            .find(|e| e.name == "wire.client.attempt")
            .expect("attempt span");
        assert_eq!(req.parent_span, attempt.span_id);
        // The engine-side spans continue the same trace.
        let inference = events
            .iter()
            .find(|e| e.name == "serve.request")
            .expect("engine request span");
        assert_eq!(inference.trace_id, call.trace_id);
    }

    #[test]
    fn invalid_input_is_terminal_for_the_client() {
        let engine = engine();
        let srv = server(&engine, QuotaConfig::default());
        let mut cli = client(srv.local_addr(), 2, 3);
        // NaN pixels fail image validation server-side.
        let bad = WireRequest::Segment {
            deadline_ms: 1_000,
            width: 4,
            height: 4,
            pixels: vec![f32::NAN; 16],
        };
        match cli.call(&bad) {
            Err(ClientError::Terminal { status: WireStatus::InvalidInput { .. } }) => {}
            other => panic!("expected terminal InvalidInput, got {other:?}"),
        }
        // Terminal means exactly one attempt was spent.
        assert_eq!(cli.stats().attempts, 1);
        srv.drain();
        Arc::try_unwrap(engine).ok().expect("sole owner").shutdown();
    }
}
