//! The live telemetry endpoint.
//!
//! A deliberately tiny blocking HTTP/1.0 server over `std::net` — no
//! external dependencies, consistent with the workspace's offline-build
//! constraint. One accept thread, one connection at a time: scrapes are
//! rare (a Prometheus agent polls every few seconds) and each response is
//! rendered from a *fresh* [`MetricsSnapshot`] at request time, so there is
//! no cached state to invalidate and nothing the hot paths ever wait on.
//!
//! Routes:
//!
//! | path             | body                                                    |
//! |------------------|---------------------------------------------------------|
//! | `/metrics`       | Prometheus text exposition (same bytes as the file export) |
//! | `/snapshot.json` | the JSON export, schema-stamped                         |
//! | `/healthz`       | watchdog stall state + pool liveness (200 ok / 503 degraded) |
//! | `/tune`          | current `(k, b)` and its phase trajectory               |

use crate::recorder::FlightRecorder;
use afs_metrics::{MetricsSnapshot, METRICS_SCHEMA_VERSION};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where the server gets its data: a snapshot closure (evaluated fresh per
/// scrape) and a recorder list (for `/healthz` trigger state and the
/// `/tune` trajectory).
pub struct TelemetrySource {
    snapshot: Box<dyn Fn() -> MetricsSnapshot + Send + Sync>,
    recorders: Box<dyn Fn() -> Vec<Arc<FlightRecorder>> + Send + Sync>,
}

impl TelemetrySource {
    /// A source over `snapshot`, with no flight recorders attached.
    pub fn new(snapshot: impl Fn() -> MetricsSnapshot + Send + Sync + 'static) -> TelemetrySource {
        TelemetrySource {
            snapshot: Box::new(snapshot),
            recorders: Box::new(Vec::new),
        }
    }

    /// Attaches a recorder-list closure (evaluated fresh per request, so
    /// pools created after the server started are still seen).
    pub fn with_recorders(
        mut self,
        recorders: impl Fn() -> Vec<Arc<FlightRecorder>> + Send + Sync + 'static,
    ) -> TelemetrySource {
        self.recorders = Box::new(recorders);
        self
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
            .name("afs-scope-http".to_string())
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
        "/metrics" => {
            let body = (source.snapshot)().to_prometheus();
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
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
            "afs-scope: /metrics /snapshot.json /healthz /tune\n",
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
    let recorders = (source.recorders)();
    let mut triggers = [0u64; 4];
    let mut dumped = false;
    let mut shed_spike_active = false;
    for r in &recorders {
        let c = r.trigger_counts();
        for i in 0..4 {
            triggers[i] += c[i];
        }
        dumped |= r.dumped();
        shed_spike_active |= r.shed_spike_active();
    }
    let degraded = snap.stalls_detected > 0
        || snap.effective_workers < snap.workers.len()
        || shed_spike_active;
    let status = if degraded { "degraded" } else { "ok" };
    let body = format!(
        "{{\"status\": \"{status}\", \"schema_version\": {METRICS_SCHEMA_VERSION}, \
         \"workers\": {}, \"effective_workers\": {}, \"stalls_detected\": {}, \
         \"deadline_misses\": {}, \"recorders\": {}, \
         \"shed_spike_active\": {shed_spike_active}, \
         \"triggers\": {{\"stall\": {}, \"phase_error\": {}, \"spawn_degraded\": {}, \
         \"shed_spike\": {}}}, \"dumped\": {dumped}}}\n",
        snap.workers.len(),
        snap.effective_workers,
        snap.stalls_detected,
        snap.deadline_misses,
        recorders.len(),
        triggers[0],
        triggers[1],
        triggers[2],
        triggers[3],
    );
    (if degraded { 503 } else { 200 }, body)
}

/// Current controller state plus the per-phase `(k, b)`
/// trajectory out of the flight recorders' phase rings — the live view of
/// the adaptive controller converging.
fn tune(source: &TelemetrySource) -> String {
    let snap = (source.snapshot)();
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"schema_version\": {METRICS_SCHEMA_VERSION},\n"
    ));
    out.push_str("  \"controllers\": ");
    match &snap.controllers {
        Some(c) => out.push_str(&c.to_json()),
        None => out.push_str("null"),
    }
    out.push_str(",\n  \"trajectory\": [\n");
    let mut first = true;
    for r in (source.recorders)() {
        for p in r.phase_records() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    {{\"seq\": {}, \"phase\": {}, \"k\": {}, \"b\": {}}}",
                p.seq, p.phase, p.k, p.b
            ));
        }
    }
    out.push_str("\n  ]\n}\n");
    out
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
/// `(status, body)`. Test and probe helper — also exercised by the CI
/// smoke probes via `curl`-free shells.
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
    use afs_metrics::MetricsRegistry;

    fn server_over(reg: Arc<MetricsRegistry>, rec: Arc<FlightRecorder>) -> TelemetryServer {
        let source = TelemetrySource::new(move || reg.snapshot())
            .with_recorders(move || vec![Arc::clone(&rec)]);
        TelemetryServer::start("127.0.0.1:0", source).unwrap()
    }

    #[test]
    fn metrics_scrape_matches_export() {
        let reg = Arc::new(MetricsRegistry::new(2));
        let rec = Arc::new(FlightRecorder::new());
        let srv = server_over(Arc::clone(&reg), rec);
        let (status, body) = get(srv.local_addr(), "/metrics").unwrap();
        assert_eq!(status, 200);
        // Byte-identical to the file export rendered at (nearly) the same
        // instant: the registry is quiescent, so both renders agree.
        assert_eq!(body, reg.snapshot().to_prometheus());
        assert!(body.contains("afs_iters_total"));
    }

    #[test]
    fn snapshot_json_is_schema_stamped() {
        let reg = Arc::new(MetricsRegistry::new(1));
        let rec = Arc::new(FlightRecorder::new());
        let srv = server_over(reg, rec);
        let (status, body) = get(srv.local_addr(), "/snapshot.json").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains(&format!("\"schema_version\": {METRICS_SCHEMA_VERSION}")));
    }

    #[test]
    fn healthz_degrades_on_stall() {
        let reg = Arc::new(MetricsRegistry::new(2));
        let rec = Arc::new(FlightRecorder::new());
        let srv = server_over(Arc::clone(&reg), Arc::clone(&rec));
        let (status, body) = get(srv.local_addr(), "/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"status\": \"ok\""));
        reg.record_stall(1);
        rec.trigger(Trigger::Stall { worker: 1 });
        let (status, body) = get(srv.local_addr(), "/healthz").unwrap();
        assert_eq!(status, 503);
        assert!(body.contains("\"status\": \"degraded\""));
        assert!(body.contains("\"stall\": 1"));
    }

    #[test]
    fn healthz_degrades_on_an_active_shed_spike() {
        use crate::recorder::{ServeEventKind, ServeRecord};
        let reg = Arc::new(MetricsRegistry::new(2));
        let rec = Arc::new(FlightRecorder::new());
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
        let (status, body) = get(srv.local_addr(), "/healthz").unwrap();
        assert_eq!(status, 503);
        assert!(body.contains("\"status\": \"degraded\""));
        assert!(body.contains("\"shed_spike_active\": true"));
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
        let (status, body) = get(srv.local_addr(), "/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"shed_spike_active\": false"));
        assert!(body.contains("\"shed_spike\": 1"));
    }

    #[test]
    fn tune_reports_trajectory() {
        let reg = Arc::new(MetricsRegistry::new(1));
        reg.record_sched_tune(4, 2, 3, false);
        let rec = Arc::new(FlightRecorder::new());
        rec.record_phase(0, 1_000, &reg);
        let srv = server_over(Arc::clone(&reg), Arc::clone(&rec));
        let (status, body) = get(srv.local_addr(), "/tune").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"k\": 4"));
        assert!(body.contains("\"trajectory\""));
        assert!(body.contains("{\"seq\": 0, \"phase\": 0, \"k\": 4, \"b\": 2}"));
    }

    #[test]
    fn unknown_route_is_404_and_post_is_405() {
        let reg = Arc::new(MetricsRegistry::new(1));
        let rec = Arc::new(FlightRecorder::new());
        let srv = server_over(reg, rec);
        let (status, _) = get(srv.local_addr(), "/nope").unwrap();
        assert_eq!(status, 404);
        let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.0 405"));
    }
}
