//! The live telemetry endpoint.
//!
//! A deliberately tiny blocking HTTP/1.0 server over `std::net` — no
//! external dependencies, consistent with the workspace's offline-build
//! constraint. One accept thread, one connection at a time: scrapes are
//! rare (a probe polls every few seconds) and each response is rendered
//! from a *fresh* [`MetricsSnapshot`] at request time, so there is no
//! cached state to invalidate and nothing the hot paths ever wait on.
//!
//! Routes, all JSON:
//!
//! | path             | body                                                    |
//! |------------------|---------------------------------------------------------|
//! | `/snapshot.json` | [`MetricsSnapshot::to_json`], schema-stamped            |
//! | `/healthz`       | watchdog stall state + pool liveness (200 ok / 503 degraded) |
//! | `/tune`          | current `(k, b)` and its phase trajectory               |

use crate::recorder::{FlightRecorder, TriggerCounts};
use crate::{MetricsSnapshot, METRICS_SCHEMA_VERSION};
use afs_core::json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where the server gets its data: a snapshot closure and a recorder
/// closure (for `/healthz` trigger state and the `/tune` trajectory). Both
/// are evaluated fresh per request, so a pool the owner swapped in after
/// the server started is still the one seen.
pub struct TelemetrySource {
    snapshot: Box<dyn Fn() -> MetricsSnapshot + Send + Sync>,
    recorder: Box<dyn Fn() -> Arc<FlightRecorder> + Send + Sync>,
}

impl TelemetrySource {
    /// A source over `snapshot` and `recorder`.
    pub fn new(
        snapshot: impl Fn() -> MetricsSnapshot + Send + Sync + 'static,
        recorder: impl Fn() -> Arc<FlightRecorder> + Send + Sync + 'static,
    ) -> TelemetrySource {
        TelemetrySource {
            snapshot: Box::new(snapshot),
            recorder: Box::new(recorder),
        }
    }
}

/// Handle to a running telemetry server. Dropping it stops the accept
/// thread.
pub struct TelemetryServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for TelemetryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9464"`; port 0 picks a free port —
    /// read it back with [`TelemetryServer::local_addr`]) and starts the
    /// accept thread.
    pub fn start(
        addr: impl ToSocketAddrs,
        source: TelemetrySource,
    ) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Nonblocking accept + short sleep lets the thread notice shutdown
        // without a wake-up connection.
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("afs-telemetry-http".to_string())
            .spawn(move || accept_loop(listener, source, stop))?;
        Ok(TelemetryServer {
            addr: local,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept thread and waits for it to exit.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, source: TelemetrySource, shutdown: Arc<AtomicBool>) {
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline: scrapes are rare and responses small, so a
                // second thread per connection buys nothing.
                let _ = handle_connection(stream, &source);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, source: &TelemetrySource) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_nonblocking(false)?;
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    // Read until the end of the request head; we never read a body.
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(
            &mut stream,
            405,
            "text/plain; charset=utf-8",
            "method not allowed\n",
        );
    }
    // Ignore any query string; routes take no parameters.
    let path = target.split('?').next().unwrap_or(target);
    match path {
        "/snapshot.json" => {
            let body = (source.snapshot)().to_json();
            respond(&mut stream, 200, "application/json", &body)
        }
        "/healthz" => {
            let (status, body) = healthz(source);
            respond(&mut stream, status, "application/json", &body)
        }
        "/tune" => {
            let body = tune(source);
            respond(&mut stream, 200, "application/json", &body)
        }
        "/" => respond(
            &mut stream,
            200,
            "text/plain; charset=utf-8",
            "afs telemetry: /snapshot.json /healthz /tune\n",
        ),
        _ => respond(&mut stream, 404, "text/plain; charset=utf-8", "not found\n"),
    }
}

/// Health is derived, not stored: a pool is degraded when the watchdog has
/// flagged a stall, fewer workers started than were requested, or a shed
/// spike is active *right now* (the recorder's serve ring shows the
/// threshold exceeded within the current window — distinct from the
/// latched `shed_spike` trigger tally, which never clears). The body also
/// carries the flight-recorder trigger tallies so a probe can tell *why*
/// without reading a dump.
fn healthz(source: &TelemetrySource) -> (u16, String) {
    let snap = (source.snapshot)();
    let recorder = (source.recorder)();
    let shed_spike_active = recorder.shed_spike_active();
    let degraded = snap.stalls_detected > 0
        || snap.effective_workers < snap.workers.len()
        || shed_spike_active;
    let body = json::document(|o| {
        o.field("status", if degraded { "degraded" } else { "ok" })
            .field("schema_version", &METRICS_SCHEMA_VERSION)
            .field("workers", &snap.workers.len())
            .field("effective_workers", &snap.effective_workers)
            .field("stalls_detected", &snap.stalls_detected)
            .field("deadline_misses", &snap.deadline_misses)
            // Always 1 since the endpoint serves exactly one pool; the key
            // stays until the next schema bump.
            .field("recorders", &1usize)
            .field("shed_spike_active", &shed_spike_active)
            .field("triggers", &TriggerCounts(recorder.trigger_counts()))
            .field("dumped", &recorder.dumped());
    });
    (if degraded { 503 } else { 200 }, body)
}

/// Current controller state plus the per-phase `(k, b)`
/// trajectory out of the flight recorder's phase ring — the live view of
/// the adaptive controller converging.
fn tune(source: &TelemetrySource) -> String {
    let snap = (source.snapshot)();
    json::document(|o| {
        o.field("schema_version", &METRICS_SCHEMA_VERSION)
            .field("controllers", &snap.controllers)
            .array("trajectory", |a| {
                for p in (source.recorder)().phase_records() {
                    a.object(|o| {
                        o.field("seq", &p.seq)
                            .field("phase", &p.phase)
                            .field("k", &p.k)
                            .field("b", &p.b);
                    });
                }
            });
    })
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Blocking one-shot `GET` against a telemetry server; returns
/// `(status, body)`. Test and probe helper.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let req = format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = match raw.find("\r\n\r\n") {
        Some(i) => raw[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Trigger;
    use crate::MetricsRegistry;
    use afs_core::json::Value;

    /// `/path`'s status and its body parsed.
    fn get_json(srv: &TelemetryServer, path: &str) -> (u16, Value) {
        let (status, body) = get(srv.local_addr(), path).unwrap();
        (status, json::parse(&body).expect("route serves JSON"))
    }

    fn str_of<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
        v.get(key).and_then(Value::as_str)
    }

    fn num(v: &Value, key: &str) -> Option<f64> {
        v.get(key).and_then(Value::as_f64)
    }

    fn server_over(reg: Arc<MetricsRegistry>, rec: Arc<FlightRecorder>) -> TelemetryServer {
        let source = TelemetrySource::new(move || reg.snapshot(), move || Arc::clone(&rec));
        TelemetryServer::start("127.0.0.1:0", source).unwrap()
    }

    #[test]
    fn snapshot_json_is_schema_stamped() {
        let reg = Arc::new(MetricsRegistry::new(1));
        let rec = Arc::new(FlightRecorder::new(1));
        let srv = server_over(reg, rec);
        let (status, body) = get_json(&srv, "/snapshot.json");
        assert_eq!(status, 200);
        assert_eq!(
            num(&body, "schema_version"),
            Some(METRICS_SCHEMA_VERSION as f64)
        );
    }

    #[test]
    fn healthz_degrades_on_stall() {
        let reg = Arc::new(MetricsRegistry::new(2));
        let rec = Arc::new(FlightRecorder::new(1));
        let srv = server_over(Arc::clone(&reg), Arc::clone(&rec));
        let (status, body) = get_json(&srv, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(str_of(&body, "status"), Some("ok"));
        assert_eq!(num(&body, "workers"), Some(2.0));
        assert_eq!(num(&body, "stalls_detected"), Some(0.0));
        reg.record_stall(1);
        rec.trigger(Trigger::Stall { worker: 1 });
        let (status, body) = get_json(&srv, "/healthz");
        assert_eq!(status, 503);
        assert_eq!(str_of(&body, "status"), Some("degraded"));
        assert_eq!(num(&body, "stalls_detected"), Some(1.0));
        assert_eq!(num(body.get("triggers").unwrap(), "stall"), Some(1.0));
    }

    #[test]
    fn healthz_degrades_on_an_active_shed_spike() {
        use crate::recorder::{ServeEventKind, ServeRecord};
        let reg = Arc::new(MetricsRegistry::new(2));
        let rec = Arc::new(FlightRecorder::new(1));
        rec.set_shed_spike(3, 4);
        let srv = server_over(Arc::clone(&reg), Arc::clone(&rec));
        for id in 0..3 {
            rec.record_serve_event(ServeRecord {
                t_ns: id,
                kind: ServeEventKind::Shed,
                tenant: 0,
                id,
                code: 2,
            });
        }
        let (status, body) = get_json(&srv, "/healthz");
        assert_eq!(status, 503);
        assert_eq!(str_of(&body, "status"), Some("degraded"));
        assert_eq!(body.get("shed_spike_active"), Some(&Value::Bool(true)));
        // Completions push the sheds out of the window: the spike clears
        // and health recovers, even though the latched trigger tally stays.
        for id in 0..4 {
            rec.record_serve_event(ServeRecord {
                t_ns: 100 + id,
                kind: ServeEventKind::Complete,
                tenant: 0,
                id,
                code: 0,
            });
        }
        let (status, body) = get_json(&srv, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(body.get("shed_spike_active"), Some(&Value::Bool(false)));
        assert_eq!(num(body.get("triggers").unwrap(), "shed_spike"), Some(1.0));
    }

    #[test]
    fn tune_reports_trajectory() {
        let reg = Arc::new(MetricsRegistry::new(1));
        reg.record_sched_tune(4, 2, 3, false);
        let rec = Arc::new(FlightRecorder::new(1));
        crate::recorder::tests::record(&rec, &reg, &mut [Default::default()], 0, 1_000, 0);
        let srv = server_over(Arc::clone(&reg), Arc::clone(&rec));
        let (status, body) = get_json(&srv, "/tune");
        assert_eq!(status, 200);
        let sched = body
            .get("controllers")
            .and_then(|c| c.get("sched"))
            .unwrap();
        assert_eq!(num(sched, "k"), Some(4.0));
        let trajectory = body.get("trajectory").and_then(Value::as_array).unwrap();
        assert_eq!(
            trajectory,
            [json::parse(r#"{"seq": 0, "phase": 0, "k": 4, "b": 2}"#).unwrap()]
        );
    }

    #[test]
    fn unknown_route_is_404_and_post_is_405() {
        let reg = Arc::new(MetricsRegistry::new(1));
        let rec = Arc::new(FlightRecorder::new(1));
        let srv = server_over(reg, rec);
        for path in ["/nope", "/metrics"] {
            let (status, _) = get(srv.local_addr(), path).unwrap();
            assert_eq!(status, 404, "{path}");
        }
        let (status, index) = get(srv.local_addr(), "/").unwrap();
        assert_eq!(status, 200);
        assert_eq!(index, "afs telemetry: /snapshot.json /healthz /tune\n");
        let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
        stream
            .write_all(b"POST /snapshot.json HTTP/1.0\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.0 405"));
    }
}
