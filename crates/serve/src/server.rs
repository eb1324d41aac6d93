//! TCP front end: accept loop, per-connection threads, request dispatch,
//! and the failure story around all three.
//!
//! `std::net` only — blocking I/O with one thread per connection. The
//! daemon's concurrency bound is the admission gate in [`ServeState`], not
//! the connection count, so cheap requests (`PING`, `INFO`, `PROBE`) never
//! queue behind long campaigns.
//!
//! # Hardening
//!
//! * **Socket deadlines** — every connection gets read/write timeouts
//!   ([`ServeOptions`]), so a slow or dead peer can hold a thread for at
//!   most one deadline, never forever.
//! * **Capped request lines** — requests are read through a bounded line
//!   reader; an oversized line is drained in constant memory and answered
//!   with `ERR line too long` (the connection survives). The unbounded
//!   `read_line` this replaces was a one-connection memory DoS.
//! * **Panic isolation** — request execution runs under `catch_unwind`; a
//!   panicking campaign becomes an `ERR internal …` reply, not a dead
//!   thread (and its admission permit returns via RAII).
//! * **Graceful drain** — a connection registry tracks every live
//!   connection and which are mid-request; `SHUTDOWN` stops the accept
//!   loop, lets in-flight requests finish under a drain deadline, then
//!   force-closes stragglers. [`Server::wait`] reports what happened
//!   instead of panicking.
//! * **Accept backoff** — persistent `accept(2)` errors (EMFILE, ENFILE)
//!   back off exponentially instead of hot-spinning.

use crate::spec::{CampaignSpec, ProbeSpec};
use crate::state::ServeState;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Connection-layer limits and deadlines. The admission-side knobs
/// (in-flight bound, admission wait, shed hint) live on
/// [`crate::state::ServeState`].
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Per-read socket deadline: a peer that sends nothing for this long
    /// mid-request loses the connection. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Per-write socket deadline: a peer that stops draining its replies
    /// for this long loses the connection.
    pub write_timeout: Option<Duration>,
    /// Longest accepted request line in bytes; longer lines are rejected
    /// with `ERR line too long` without buffering them.
    pub max_line_bytes: usize,
    /// How long `SHUTDOWN` waits for in-flight requests before
    /// force-closing their connections.
    pub drain_deadline: Duration,
    /// First delay of the accept-loop error backoff.
    pub accept_backoff_base: Duration,
    /// Ceiling of the accept-loop error backoff.
    pub accept_backoff_cap: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            read_timeout: Some(Duration::from_secs(120)),
            write_timeout: Some(Duration::from_secs(30)),
            max_line_bytes: 64 * 1024,
            drain_deadline: Duration::from_secs(10),
            accept_backoff_base: Duration::from_millis(1),
            accept_backoff_cap: Duration::from_secs(1),
        }
    }
}

/// Capped exponential backoff for the accept loop: doubles per consecutive
/// error, resets on success. Keeps persistent `accept(2)` failures (file
/// descriptor exhaustion above all) from hot-spinning the CPU while still
/// recovering quickly from one-off blips.
#[derive(Debug)]
pub struct AcceptBackoff {
    base: Duration,
    cap: Duration,
    next: Duration,
}

impl AcceptBackoff {
    pub fn new(base: Duration, cap: Duration) -> Self {
        let base = base.max(Duration::from_micros(1));
        AcceptBackoff {
            base,
            cap: cap.max(base),
            next: base,
        }
    }

    /// The delay to sleep after one more consecutive error.
    pub fn on_error(&mut self) -> Duration {
        let delay = self.next;
        self.next = (self.next * 2).min(self.cap);
        delay
    }

    /// A successful accept resets the schedule.
    pub fn on_success(&mut self) {
        self.next = self.base;
    }
}

/// What `SHUTDOWN` draining observed; returned by [`Server::wait`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DrainReport {
    /// Requests still executing when the drain deadline expired; their
    /// connections were force-closed mid-request.
    pub forced_requests: usize,
    /// Idle connections closed by the drain (normal: clients that kept
    /// their connection open).
    pub closed_connections: usize,
    /// Connections whose handler threads had not exited by the end of the
    /// post-close grace window.
    pub lingering_connections: usize,
    /// The accept loop itself panicked (a daemon bug — campaign panics are
    /// isolated per-connection and never set this).
    pub accept_loop_panicked: bool,
}

impl DrainReport {
    /// True when every in-flight request finished inside the deadline and
    /// every handler thread exited.
    pub fn clean(&self) -> bool {
        self.forced_requests == 0 && self.lingering_connections == 0 && !self.accept_loop_panicked
    }
}

#[derive(Default)]
struct RegistryInner {
    /// Write-half clones used to force-close connections during drain.
    conns: HashMap<u64, TcpStream>,
    /// Connections currently executing a request (reply not yet written).
    busy: usize,
    next_id: u64,
    draining: bool,
}

/// Live-connection registry: who exists, who is mid-request, and the
/// condvar drain waits on.
#[derive(Default)]
struct Registry {
    inner: Mutex<RegistryInner>,
    cv: Condvar,
}

impl Registry {
    /// Admit a connection; `None` once draining (the stream should be
    /// dropped without service).
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let mut inner = lock(&self.inner);
        if inner.draining {
            return None;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        if let Ok(clone) = stream.try_clone() {
            inner.conns.insert(id, clone);
        }
        Some(id)
    }

    fn deregister(&self, id: u64) {
        let mut inner = lock(&self.inner);
        inner.conns.remove(&id);
        self.cv.notify_all();
    }

    /// Mark the connection mid-request. `false` means the daemon is
    /// draining and the request must be refused.
    fn begin_request(&self) -> bool {
        let mut inner = lock(&self.inner);
        if inner.draining {
            return false;
        }
        inner.busy += 1;
        true
    }

    fn end_request(&self) {
        let mut inner = lock(&self.inner);
        inner.busy = inner.busy.saturating_sub(1);
        self.cv.notify_all();
    }

    /// The drain sequence, run by the accept thread after its loop exits:
    /// refuse new requests, wait for in-flight ones under `deadline`,
    /// force-close every remaining socket, then give handler threads a
    /// short grace window to unwind.
    fn drain(&self, deadline: Duration) -> DrainReport {
        let t0 = Instant::now();
        let mut inner = lock(&self.inner);
        inner.draining = true;
        while inner.busy > 0 {
            let left = deadline.saturating_sub(t0.elapsed());
            if left.is_zero() {
                break;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(inner, left)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
        let forced_requests = inner.busy;
        let closed_connections = inner.conns.len();
        for stream in inner.conns.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Handlers observe the closed socket on their next read/write and
        // deregister on the way out; give them a bounded grace window.
        let grace = Instant::now();
        while !inner.conns.is_empty() && grace.elapsed() < Duration::from_secs(2) {
            let (guard, _) = self
                .cv
                .wait_timeout(inner, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
        DrainReport {
            forced_requests,
            closed_connections,
            lingering_connections: inner.conns.len(),
            accept_loop_panicked: false,
        }
    }
}

/// A running daemon; dropping the handle does NOT stop it — send
/// `SHUTDOWN` (or call [`Server::shutdown`]) and then [`Server::wait`].
pub struct Server {
    addr: SocketAddr,
    accept: JoinHandle<DrainReport>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the accept loop exits (after a `SHUTDOWN` request) and
    /// its drain completes. Never panics: if the accept loop itself died,
    /// the report says so.
    pub fn wait(self) -> DrainReport {
        self.accept.join().unwrap_or(DrainReport {
            accept_loop_panicked: true,
            ..DrainReport::default()
        })
    }

    /// Stop accepting: set the flag and poke the listener awake.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shutdown, self.addr);
    }
}

fn trigger_shutdown(flag: &AtomicBool, addr: SocketAddr) {
    flag.store(true, Ordering::SeqCst);
    // The accept loop blocks in `accept`; a throwaway connection wakes it
    // so it can observe the flag.
    let _ = TcpStream::connect(addr);
}

/// Bind `bind` (e.g. `127.0.0.1:0` for an ephemeral port) with default
/// [`ServeOptions`] and start accepting in a background thread.
pub fn spawn<A: ToSocketAddrs>(state: Arc<ServeState>, bind: A) -> std::io::Result<Server> {
    spawn_with(state, bind, ServeOptions::default())
}

/// [`spawn`] with explicit connection-layer options.
pub fn spawn_with<A: ToSocketAddrs>(
    state: Arc<ServeState>,
    bind: A,
    options: ServeOptions,
) -> std::io::Result<Server> {
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let accept = std::thread::spawn(move || accept_loop(listener, state, flag, addr, options));
    Ok(Server {
        addr,
        accept,
        shutdown,
    })
}

fn accept_loop(
    listener: TcpListener,
    state: Arc<ServeState>,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    options: ServeOptions,
) -> DrainReport {
    let registry = Arc::new(Registry::default());
    let mut backoff = AcceptBackoff::new(options.accept_backoff_base, options.accept_backoff_cap);
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(stream) => {
                backoff.on_success();
                stream
            }
            Err(_) => {
                // EMFILE and friends tend to persist; retrying instantly
                // would hot-spin. Back off, but keep watching the shutdown
                // flag so a drain is never delayed by the backoff cap.
                let delay = backoff.on_error();
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(delay);
                continue;
            }
        };
        let Some(conn_id) = registry.register(&stream) else {
            continue; // draining: refuse without service
        };
        let state = state.clone();
        let shutdown = shutdown.clone();
        let registry_for_conn = Arc::clone(&registry);
        // Connection threads detach; they hold only Arcs, deregister via
        // RAII on every exit path (including panics), and observe the
        // forced socket shutdown during drain, so nothing joins them.
        let spawned = osn_fault::io_point("serve.conn.spawn").and_then(|()| {
            std::thread::Builder::new().spawn(move || {
                let _ = handle_connection(
                    stream,
                    &state,
                    &shutdown,
                    addr,
                    &registry_for_conn,
                    conn_id,
                    options,
                );
            })
        });
        if spawned.is_err() {
            // The OS refused a thread: close this connection unserved (the
            // client sees a dropped connection and may retry) and keep
            // accepting instead of ending the loop.
            registry.deregister(conn_id);
        }
    }
    registry.drain(options.drain_deadline)
}

/// Deregisters the connection on every exit path, panics included.
struct ConnToken<'a> {
    registry: &'a Registry,
    id: u64,
}

impl Drop for ConnToken<'_> {
    fn drop(&mut self) {
        self.registry.deregister(self.id);
    }
}

/// Marks a request in flight; `end_request` runs even if reply writing
/// fails or the dispatch path unwinds.
struct RequestToken<'a>(&'a Registry);

impl Drop for RequestToken<'_> {
    fn drop(&mut self) {
        self.0.end_request();
    }
}

/// One request line, read under the length cap.
enum RequestLine {
    Line(String),
    /// The line exceeded the cap; it was consumed (in constant memory) up
    /// to and including its newline.
    TooLong,
}

/// Read one `\n`-terminated line, buffering at most `max` bytes. Oversized
/// lines are drained chunk-by-chunk without retaining them. `Ok(None)` is
/// clean EOF before any byte of a new line.
fn read_request_line<R: BufRead>(
    reader: &mut R,
    max: usize,
) -> std::io::Result<Option<RequestLine>> {
    let mut line = Vec::new();
    let mut overflow = false;
    loop {
        osn_fault::io_point("serve.conn.read")?;
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF. A partial unterminated line still gets served — the
            // peer may have shut down its write half after the request.
            return Ok(match (overflow, line.is_empty()) {
                (true, _) => Some(RequestLine::TooLong),
                (false, true) => None,
                (false, false) => Some(RequestLine::Line(
                    String::from_utf8_lossy(&line).into_owned(),
                )),
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !overflow && line.len() + pos <= max {
                    line.extend_from_slice(&chunk[..pos]);
                } else {
                    overflow = true;
                }
                reader.consume(pos + 1);
                return Ok(Some(if overflow {
                    RequestLine::TooLong
                } else {
                    RequestLine::Line(String::from_utf8_lossy(&line).into_owned())
                }));
            }
            None => {
                let len = chunk.len();
                if !overflow {
                    if line.len() + len > max {
                        overflow = true;
                        line = Vec::new(); // free what an attacker streamed
                    } else {
                        line.extend_from_slice(chunk);
                    }
                }
                reader.consume(len);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_connection(
    stream: TcpStream,
    state: &Arc<ServeState>,
    shutdown: &Arc<AtomicBool>,
    addr: SocketAddr,
    registry: &Registry,
    conn_id: u64,
    options: ServeOptions,
) -> std::io::Result<()> {
    let _token = ConnToken {
        registry,
        id: conn_id,
    };
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(options.read_timeout).ok();
    stream.set_write_timeout(options.write_timeout).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let request = match read_request_line(&mut reader, options.max_line_bytes)? {
            None => return Ok(()), // clean EOF
            Some(RequestLine::TooLong) => {
                // Reject but keep the connection: the oversized line was
                // fully consumed, so the stream is still line-aligned.
                write_reply(
                    &mut writer,
                    &[format!(
                        "ERR line too long (max {} bytes)",
                        options.max_line_bytes
                    )],
                )?;
                continue;
            }
            Some(RequestLine::Line(line)) => line,
        };
        let request = request.trim();
        if request.is_empty() {
            continue;
        }
        if !registry.begin_request() {
            // Draining: refuse new work so the drain's busy count can only
            // go down; the force-close will end the connection shortly.
            write_reply(&mut writer, &["ERR draining (daemon shutting down)".into()])?;
            continue;
        }
        // The busy token must cover the reply write, not just the
        // dispatch: a drain waiting on `busy == 0` would otherwise
        // force-close the socket in the window between a campaign
        // completing and its reply reaching the wire.
        let stop = {
            let _request_token = RequestToken(registry);
            let (stop, reply) = dispatch(state, request);
            write_reply(&mut writer, &reply)?;
            stop
        };
        if stop {
            trigger_shutdown(shutdown, addr);
            return Ok(());
        }
    }
}

fn write_reply(writer: &mut TcpStream, reply: &[String]) -> std::io::Result<()> {
    osn_fault::io_point("serve.conn.write")?;
    for l in reply {
        writer.write_all(l.as_bytes())?;
        writer.write_all(b"\n")?;
    }
    writer.flush()
}

/// Run `f` with panic isolation: a panic becomes an `ERR internal …` reply
/// (and the panic's cause travels in the message) instead of killing the
/// connection thread. RAII guards acquired inside `f` — the admission
/// permit, the batcher's leader reign — release during the unwind, so an
/// isolated panic cannot leak capacity or strand followers.
fn isolate<F: FnOnce() -> Result<Vec<String>, String>>(f: F) -> Vec<String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(reply)) => reply,
        Ok(Err(e)) => vec![format!("ERR {e}")],
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            vec![format!("ERR internal: {}", msg.replace('\n', " "))]
        }
    }
}

/// Answer one request line; `true` means the daemon should stop accepting.
fn dispatch(state: &Arc<ServeState>, request: &str) -> (bool, Vec<String>) {
    let (verb, body) = match request.split_once(' ') {
        Some((v, b)) => (v, b),
        None => (request, ""),
    };
    let reply = match verb {
        "PING" => vec!["PONG".to_string()],
        "INFO" => {
            let mut lines = vec!["OK".to_string()];
            lines.extend(state.info_lines());
            lines.push("END".to_string());
            lines
        }
        "CAMPAIGN" => isolate(|| {
            CampaignSpec::parse(body)
                .and_then(|s| state.run_campaign(&s))
                .map(|reply| reply.wire_lines())
        }),
        "PROBE" => isolate(|| {
            ProbeSpec::parse(body)
                .and_then(|s| state.probe(&s))
                .map(|line| vec![line])
        }),
        "SHUTDOWN" => return (true, vec!["BYE".to_string()]),
        other => vec![format!("ERR unknown request {other:?}")],
    };
    (false, reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_doubles_to_the_cap_and_resets() {
        let mut b = AcceptBackoff::new(Duration::from_millis(1), Duration::from_millis(100));
        let schedule: Vec<u128> = (0..9).map(|_| b.on_error().as_millis()).collect();
        assert_eq!(schedule, vec![1, 2, 4, 8, 16, 32, 64, 100, 100]);
        b.on_success();
        assert_eq!(
            b.on_error(),
            Duration::from_millis(1),
            "reset after success"
        );
        // Degenerate configuration: cap below base clamps to base.
        let mut tight = AcceptBackoff::new(Duration::from_millis(5), Duration::from_millis(1));
        assert_eq!(tight.on_error(), Duration::from_millis(5));
        assert_eq!(tight.on_error(), Duration::from_millis(5));
    }

    #[test]
    fn bounded_line_reader_caps_and_keeps_alignment() {
        use std::io::Cursor;
        let mut r = Cursor::new(b"short\nway too long for the cap\nnext\n".to_vec());
        let got = read_request_line(&mut r, 10).expect("read");
        assert!(matches!(got, Some(RequestLine::Line(l)) if l == "short"));
        let got = read_request_line(&mut r, 10).expect("read");
        assert!(matches!(got, Some(RequestLine::TooLong)));
        // The oversized line was consumed through its newline: the stream
        // is still aligned and the next request parses.
        let got = read_request_line(&mut r, 10).expect("read");
        assert!(matches!(got, Some(RequestLine::Line(l)) if l == "next"));
        assert!(read_request_line(&mut r, 10).expect("read").is_none());
    }

    #[test]
    fn bounded_line_reader_drains_multi_chunk_overflow_in_constant_memory() {
        use std::io::Cursor;
        // 1 MiB without a newline, then a valid request. A 64-byte BufRead
        // chunk size forces the multi-chunk drain path.
        let mut payload = vec![b'x'; 1 << 20];
        payload.extend_from_slice(b"\nPING\n");
        let mut r = BufReader::with_capacity(64, Cursor::new(payload));
        let got = read_request_line(&mut r, 1024).expect("read");
        assert!(matches!(got, Some(RequestLine::TooLong)));
        let got = read_request_line(&mut r, 1024).expect("read");
        assert!(matches!(got, Some(RequestLine::Line(l)) if l == "PING"));
    }

    #[test]
    fn bounded_line_reader_serves_exactly_max_and_unterminated_tails() {
        use std::io::Cursor;
        let mut r = Cursor::new(b"12345\ntail".to_vec());
        let got = read_request_line(&mut r, 5).expect("read");
        assert!(
            matches!(got, Some(RequestLine::Line(l)) if l == "12345"),
            "a line of exactly max bytes is served"
        );
        let got = read_request_line(&mut r, 5).expect("read");
        assert!(matches!(got, Some(RequestLine::Line(l)) if l == "tail"));
    }

    #[test]
    fn isolate_turns_panics_into_err_internal() {
        assert_eq!(isolate(|| Ok(vec!["OK".into()])), vec!["OK".to_string()]);
        assert_eq!(
            isolate(|| Err("BUSY retry-after-ms=50".into())),
            vec!["ERR BUSY retry-after-ms=50".to_string()]
        );
        let reply = isolate(|| panic!("worlds collided"));
        assert_eq!(reply.len(), 1);
        assert!(
            reply[0].starts_with("ERR internal: ") && reply[0].contains("worlds collided"),
            "{reply:?}"
        );
    }
}
