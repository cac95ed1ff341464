//! A small HTTP/1.1 server over `std::net::TcpListener`.
//!
//! The workspace is offline — no tokio, no hyper — and the daemon's
//! needs are modest: short JSON request/response exchanges plus one
//! long-lived chunked NDJSON stream per watcher. So this is the
//! simplest server that does that correctly:
//!
//! * a **bounded worker pool** (blocking I/O, one connection per
//!   worker at a time; excess connections queue in a bounded channel,
//!   and beyond that in the kernel accept backlog),
//! * `Connection: close` semantics (one exchange per connection — the
//!   thin client opens cheap local connections per call),
//! * hard caps on header and body size, and read timeouts on request
//!   parsing, so a stalled or hostile peer cannot wedge a worker
//!   forever (streaming responses clear the timeout — a watcher may
//!   idle as long as the job runs),
//! * a **blocking accept loop**: the listener thread sleeps in
//!   `accept()` and a connection is dispatched the moment the kernel
//!   hands it over, so a request costs its own work and no share of a
//!   poll interval. The price is that a flag alone cannot stop the
//!   server — nothing would wake the thread to read it — so the only
//!   way to stop one is its [`Stopper`], which sets the flag *and*
//!   makes one throwaway connection to the listener. `serve` takes no
//!   flag of its own: a caller cannot set one and forget the wake-up.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::json::Json;

/// Request line + headers cap — far beyond any client of this API.
const MAX_HEAD: usize = 16 * 1024;
/// Body cap: a `CampaignSpec` is a few hundred bytes; a megabyte is
/// generous headroom, and anything larger is not a spec.
const MAX_BODY: usize = 1024 * 1024;
/// How long a connection may take to deliver its request.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, `DELETE`, …
    pub method: String,
    /// Request target, query string stripped.
    pub path: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// The body writer a [`Reply::Stream`] hands the connection: it owns
/// the stream for the job's lifetime, writing one NDJSON line per
/// chunk.
pub type StreamBody = Box<dyn FnOnce(&mut LineStream<'_>) -> io::Result<()> + Send>;

/// What a handler tells the server to send.
pub enum Reply {
    /// A JSON document with this status code.
    Json(u16, Json),
    /// `Transfer-Encoding: chunked` NDJSON: the closure drives the
    /// stream, writing one line per chunk, for as long as it likes.
    Stream(StreamBody),
}

impl Reply {
    /// A `{"error": message}` document with this status code.
    pub fn error(status: u16, message: impl Into<String>) -> Reply {
        Reply::Json(status, Json::Obj(vec![("error".into(), Json::Str(message.into()))]))
    }
}

/// Writer side of a [`Reply::Stream`]: one NDJSON line per chunk,
/// flushed eagerly so watchers see events as they happen.
pub struct LineStream<'a> {
    stream: &'a mut TcpStream,
}

impl LineStream<'_> {
    /// Send one line (newline appended) as one chunk.
    pub fn line(&mut self, line: &str) -> io::Result<()> {
        write!(self.stream, "{:x}\r\n", line.len() + 1)?;
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n\r\n")?;
        self.stream.flush()
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        411 => "Length Required",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Why a request never reached the handler: either the socket/framing
/// failed ([`ParseError::Io`], answered 400) or the request was
/// well-formed but asked for something this server deliberately does
/// not speak ([`ParseError::Reject`], answered with its own status).
enum ParseError {
    Io,
    Reject(u16, String),
}

impl From<io::Error> for ParseError {
    fn from(_: io::Error) -> ParseError {
        ParseError::Io
    }
}

fn write_head(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    length: Option<usize>,
) -> io::Result<()> {
    write!(stream, "HTTP/1.1 {} {}\r\n", status, status_text(status))?;
    write!(stream, "Content-Type: {}\r\n", content_type)?;
    match length {
        Some(n) => write!(stream, "Content-Length: {}\r\n", n)?,
        None => write!(stream, "Transfer-Encoding: chunked\r\n")?,
    }
    write!(stream, "Connection: close\r\n\r\n")
}

fn parse_request(stream: &mut TcpStream) -> Result<Request, ParseError> {
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(ParseError::from)?;
    let mut reader = BufReader::new(stream);
    let mut head = Vec::new();
    // Read byte-wise up to the blank line; BufReader makes this cheap
    // and never over-reads into the body. Each line is read through
    // what is left of the head budget, so a peer that never sends a
    // newline is answered once the budget is spent instead of growing
    // `line` until the read timeout.
    loop {
        let mut line = Vec::new();
        let budget = (MAX_HEAD + 1 - head.len()) as u64;
        reader.by_ref().take(budget).read_until(b'\n', &mut line)?;
        if line.is_empty() {
            return Err(ParseError::Io);
        }
        let blank = line == b"\r\n" || line == b"\n";
        head.extend_from_slice(&line);
        if head.len() > MAX_HEAD {
            return Err(ParseError::Io);
        }
        if blank {
            break;
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts.next().unwrap_or("");
    if method.is_empty() || !target.starts_with('/') {
        return Err(ParseError::Io);
    }
    let path = target.split('?').next().unwrap_or("/").to_string();
    let mut content_length: Option<usize> = None;
    let mut transfer_encoding: Option<String> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(value.trim().parse().map_err(|_| ParseError::Io)?);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                transfer_encoding = Some(value.trim().to_string());
            }
        }
    }
    // Request bodies are Content-Length-framed only. A chunked (or any
    // other transfer-coded) body would otherwise parse as *empty* and
    // fail downstream with a misleading spec-validation error — say
    // what is actually unsupported instead.
    if let Some(encoding) = transfer_encoding {
        return Err(ParseError::Reject(
            501,
            format!(
                "Transfer-Encoding '{}' is not implemented; send a Content-Length-framed body",
                encoding
            ),
        ));
    }
    let content_length = match (content_length, method.as_str()) {
        (Some(n), _) => n,
        // Body-bearing methods must declare their length explicitly.
        (None, "POST" | "PUT" | "PATCH") => {
            return Err(ParseError::Reject(
                411,
                format!("{} requires a Content-Length header", method),
            ));
        }
        (None, _) => 0,
    };
    if content_length > MAX_BODY {
        return Err(ParseError::Io);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

fn handle_connection(mut stream: TcpStream, handler: &dyn Fn(&Request) -> Reply) {
    let request = match parse_request(&mut stream) {
        Ok(r) => r,
        Err(ParseError::Reject(status, message)) => {
            // Understood but unsupported: answer with the specific
            // status so the client can say what to change.
            let body = Json::Obj(vec![("error".into(), Json::Str(message))]).render();
            let _ = write_head(&mut stream, status, "application/json", Some(body.len()))
                .and_then(|()| stream.write_all(body.as_bytes()));
            return;
        }
        Err(ParseError::Io) => {
            // Unparseable request: best-effort 400, then hang up.
            let body = b"{\"error\":\"malformed request\"}";
            let _ = write_head(&mut stream, 400, "application/json", Some(body.len()))
                .and_then(|()| stream.write_all(body));
            return;
        }
    };
    match handler(&request) {
        Reply::Json(status, value) => {
            let body = value.render();
            let _ = write_head(&mut stream, status, "application/json", Some(body.len()))
                .and_then(|()| stream.write_all(body.as_bytes()));
        }
        Reply::Stream(drive) => {
            // A watcher may sit on the stream for the whole campaign.
            let _ = stream.set_read_timeout(None);
            if write_head(&mut stream, 200, "application/x-ndjson", None).is_err() {
                return;
            }
            let mut lines = LineStream { stream: &mut stream };
            if drive(&mut lines).is_ok() {
                let _ = stream.write_all(b"0\r\n\r\n");
            }
        }
    }
}

/// The server: a bound listener plus the worker pool `serve` runs.
pub struct HttpServer {
    listener: TcpListener,
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
}

/// The one way to stop a serving [`HttpServer`] (see the module docs):
/// cheap to clone, usable from any thread, before or after `serve`
/// starts.
#[derive(Clone)]
pub struct Stopper {
    stopping: Arc<AtomicBool>,
    wake: SocketAddr,
}

impl Stopper {
    /// Ask the server to stop accepting: set the flag, then wake the
    /// accept loop with a connection it will drop unread. `serve`
    /// returns once the in-flight connections have finished.
    /// Idempotent; blocks for a second at most.
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        // A failed connect needs no handling: either the listener is
        // already closed (`serve` returned) or its backlog is full, in
        // which case `accept()` is returning anyway and the loop reads
        // the flag.
        let _ = TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT);
    }
}

/// Bound on the stopper's wake-up connect.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

impl HttpServer {
    /// Bind (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(addr: &str) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(HttpServer { listener, addr, stopping: Arc::new(AtomicBool::new(false)) })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The handle that stops this server; take it before `serve`
    /// consumes the server.
    pub fn stopper(&self) -> Stopper {
        // A wildcard bind is reached through loopback.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Stopper { stopping: Arc::clone(&self.stopping), wake }
    }

    /// Accept until this server's [`Stopper`] fires, dispatching
    /// connections to `workers` pool threads. Returns once the stop is
    /// observed and every in-flight connection has finished.
    pub fn serve(
        self,
        workers: usize,
        handler: Arc<dyn Fn(&Request) -> Reply + Send + Sync>,
    ) -> io::Result<()> {
        let workers = workers.max(1);
        let (tx, rx) = sync_channel::<TcpStream>(workers * 2);
        let rx: Arc<Mutex<Receiver<TcpStream>>> = Arc::new(Mutex::new(rx));
        let pool: Vec<_> = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || loop {
                    // Hold the lock only to receive; disconnection
                    // (sender dropped at shutdown) ends the worker.
                    let conn = match rx.lock().unwrap_or_else(|e| e.into_inner()).recv() {
                        Ok(conn) => conn,
                        Err(_) => return,
                    };
                    let _ = conn.set_nodelay(true);
                    handle_connection(conn, handler.as_ref());
                })
            })
            .collect();

        let outcome = loop {
            let accepted = self.listener.accept();
            // Whatever `accept` returned after a stop — the stopper's
            // wake-up, a late client, an error — is dropped unserved.
            if self.stopping.load(Ordering::SeqCst) {
                break Ok(());
            }
            match accepted {
                // The queue is bounded; while it is full the listener
                // waits here for a worker to finish its exchange, and
                // further connections wait in the kernel backlog.
                Ok((conn, _)) => {
                    if tx.send(conn).is_err() {
                        break Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        drop(tx);
        for worker in pool {
            let _ = worker.join();
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exchange(addr: SocketAddr, raw: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        out
    }

    fn start(
        handler: impl Fn(&Request) -> Reply + Send + Sync + 'static,
    ) -> (SocketAddr, Stopper, std::thread::JoinHandle<()>) {
        let server = HttpServer::bind("127.0.0.1:0").unwrap();
        let (addr, stopper) = (server.addr(), server.stopper());
        let join = std::thread::spawn(move || {
            server.serve(2, Arc::new(handler)).unwrap();
        });
        (addr, stopper, join)
    }

    /// The request body back as a JSON string.
    fn echo(req: &Request) -> Reply {
        Reply::Json(200, Json::Str(String::from_utf8_lossy(&req.body).into_owned()))
    }

    #[test]
    fn request_response_and_clean_shutdown() {
        let (addr, stopper, join) = start(|req| match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/ping") => Reply::Json(200, Json::Str("pong".into())),
            ("POST", "/echo") => echo(req),
            _ => Reply::error(404, "no such route"),
        });
        let out = exchange(addr, "GET /ping?x=1 HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        assert!(out.ends_with("\"pong\""), "{out}");
        let out = exchange(addr, "POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
        assert!(out.ends_with("\"hello\""), "{out}");
        let out = exchange(addr, "GET /missing HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 404"), "{out}");
        let out = exchange(addr, "garbage\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        stopper.stop();
        join.join().unwrap();
    }

    #[test]
    fn chunked_stream_delivers_lines() {
        let (addr, stopper, join) = start(|_req| {
            Reply::Stream(Box::new(|s| {
                s.line("{\"n\":1}")?;
                s.line("{\"n\":2}")
            }))
        });
        let out = exchange(addr, "GET /stream HTTP/1.1\r\n\r\n");
        assert!(out.contains("Transfer-Encoding: chunked"), "{out}");
        assert!(out.contains("{\"n\":1}\n"), "{out}");
        assert!(out.contains("{\"n\":2}\n"), "{out}");
        assert!(out.ends_with("0\r\n\r\n"), "{out}");
        stopper.stop();
        join.join().unwrap();
    }

    #[test]
    fn transfer_coded_bodies_get_501_and_lengthless_posts_411() {
        let (addr, stopper, join) = start(echo);
        // A chunked POST would otherwise be read as an *empty* body and
        // fail downstream with a misleading validation error.
        let out = exchange(
            addr,
            "POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        );
        assert!(out.starts_with("HTTP/1.1 501 Not Implemented"), "{out}");
        assert!(out.contains("Transfer-Encoding 'chunked' is not implemented"), "{out}");
        // Exotic codings are equally unimplemented, not silently empty.
        let out = exchange(addr, "POST /jobs HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 501"), "{out}");
        // Body-bearing methods must declare a length.
        let out = exchange(addr, "POST /jobs HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 411 Length Required"), "{out}");
        assert!(out.contains("POST requires a Content-Length"), "{out}");
        // GET without a length stays fine — there is no body to frame.
        let out = exchange(addr, "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        stopper.stop();
        join.join().unwrap();
    }

    #[test]
    fn oversized_heads_are_rejected() {
        let (addr, stopper, join) = start(|_req| Reply::Json(200, Json::Null));
        // No terminating blank line: the server trips the head cap
        // mid-parse (and the client never has unread bytes in flight,
        // so the 400 arrives without a reset race).
        let big = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n", "x".repeat(MAX_HEAD));
        let out = exchange(addr, &big);
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        stopper.stop();
        join.join().unwrap();
    }

    /// A head that never ends a line is refused when the head budget
    /// is spent, not when the read timeout expires: the client sends
    /// exactly one byte more than the cap, no newline, and keeps the
    /// socket open.
    #[test]
    fn an_unterminated_head_is_refused_at_the_cap_not_at_the_timeout() {
        let (addr, stopper, join) = start(|_req| Reply::Json(200, Json::Null));
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(READ_TIMEOUT / 2)).unwrap();
        let sent = std::time::Instant::now();
        conn.write_all(&vec![b'x'; MAX_HEAD + 1]).unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).expect("no answer before the client gave up");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        assert!(sent.elapsed() < READ_TIMEOUT / 4, "answered after {:?}", sent.elapsed());
        stopper.stop();
        join.join().unwrap();
    }

    /// Join `join`, failing instead of hanging if it takes longer than
    /// `limit`.
    fn join_within(join: std::thread::JoinHandle<()>, limit: Duration) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || done_tx.send(join.join()));
        done_rx.recv_timeout(limit).expect("serve did not return in time").unwrap();
    }

    #[test]
    fn an_idle_server_stops_within_a_second() {
        // Nothing ever connects: only the stopper's own wake-up can get
        // the listener out of `accept()`.
        let (_, stopper, join) = start(|_req| Reply::Json(200, Json::Null));
        stopper.clone().stop();
        join_within(join, Duration::from_secs(1));
        // Idempotent, also after the listener is gone.
        stopper.stop();
    }

    #[test]
    fn a_wildcard_bind_is_woken_through_loopback() {
        let server = HttpServer::bind("0.0.0.0:0").unwrap();
        let stopper = server.stopper();
        assert!(stopper.wake.ip().is_loopback());
        assert_eq!(stopper.wake.port(), server.addr().port());
        let join = std::thread::spawn(move || {
            server.serve(1, Arc::new(|_req: &Request| Reply::Json(200, Json::Null))).unwrap();
        });
        stopper.stop();
        join_within(join, Duration::from_secs(1));
    }

    /// An exchange costs its own work, not a share of a poll interval:
    /// a 5 ms accept poll makes 100 sequential exchanges take at least
    /// half a second; accepting as connections arrive, they measured
    /// 12–21 ms here (test profile, the crate's suite running beside it).
    #[test]
    fn a_hundred_sequential_exchanges_take_well_under_a_poll_interval_each() {
        let (addr, stopper, join) = start(|_req| Reply::Json(200, Json::Str("ok".into())));
        exchange(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        let start = std::time::Instant::now();
        for _ in 0..100 {
            let out = exchange(addr, "GET /healthz HTTP/1.1\r\n\r\n");
            assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        }
        let took = start.elapsed();
        assert!(took < Duration::from_millis(250), "100 exchanges took {took:?}");
        stopper.stop();
        join.join().unwrap();
    }
}
