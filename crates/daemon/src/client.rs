//! The thin client: a blocking HTTP/1.1 client over [`TcpStream`]
//! for the daemon's REST/NDJSON surface. `repro daemon submit|status|
//! watch|cancel|jobs` and the integration suite both drive the
//! daemon exclusively through this module, so the wire format is
//! exercised on every test run.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use ffis_core::engine::job::CampaignSpec;

use crate::api::{self, JobView, StreamEvent};
use crate::json::{self, Json};

/// Connect timeout for every request.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Cap on any one size a reply declares (a `Content-Length`, a chunk's
/// size line). A job listing is kilobytes and a stream chunk is one
/// NDJSON line; a size beyond this is a damaged size line, and asking
/// the allocator for it would abort the process rather than fail the
/// call.
const MAX_RESPONSE: usize = 64 * 1024 * 1024;
/// Cap on any one framing line of a reply (the status line, a header,
/// a chunk's size line, the trailer): the daemon's own are under a
/// hundred bytes. A peer that never sends `\n` fails the call here
/// instead of growing the line until memory or the read timeout ends it.
const MAX_LINE: usize = 8 * 1024;

/// A client bound to one daemon address (`host:port`).
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
}

impl Client {
    /// A client for the daemon at `addr`.
    pub fn new(addr: impl Into<String>) -> Client {
        Client { addr: addr.into() }
    }

    /// `GET /healthz` → `(running, queued, max_concurrent)`.
    pub fn health(&self) -> Result<(u64, u64, u64), String> {
        let value = self.healthz()?;
        let get = |key: &str| value.get(key).and_then(Json::as_u64).unwrap_or(0);
        Ok((get("running"), get("queued"), get("max_concurrent")))
    }

    /// `GET /healthz`, the whole reply: the three numbers above plus
    /// `app_builds` and `golden_runs`.
    pub fn healthz(&self) -> Result<Json, String> {
        self.request_json("GET", "/api/v0/healthz", None)
    }

    /// `POST /jobs` → job id.
    pub fn submit(&self, spec: &CampaignSpec) -> Result<u64, String> {
        let body = api::spec_to_json(spec).render();
        let value = self.request_json("POST", "/api/v0/jobs", Some(&body))?;
        value.get("id").and_then(Json::as_u64).ok_or_else(|| "submit reply without id".into())
    }

    /// `GET /jobs/:id`.
    pub fn job(&self, id: u64) -> Result<JobView, String> {
        let value = self.request_json("GET", &format!("/api/v0/jobs/{}", id), None)?;
        api::job_from_json(&value)
    }

    /// `GET /jobs`.
    pub fn jobs(&self) -> Result<Vec<JobView>, String> {
        let value = self.request_json("GET", "/api/v0/jobs", None)?;
        let items = value.as_arr().ok_or("jobs reply is not an array")?;
        items.iter().map(api::job_from_json).collect()
    }

    /// `DELETE /jobs/:id` → the view after cancellation.
    pub fn cancel(&self, id: u64) -> Result<JobView, String> {
        let value = self.request_json("DELETE", &format!("/api/v0/jobs/{}", id), None)?;
        api::job_from_json(&value)
    }

    /// `GET /jobs/:id/stream`: decode the chunked NDJSON stream,
    /// calling `on_event` for every line, and return the terminal
    /// view from the `done` event. The connection stays open for the
    /// job's whole lifetime.
    pub fn watch(
        &self,
        id: u64,
        mut on_event: impl FnMut(&StreamEvent),
    ) -> Result<JobView, String> {
        let mut stream = self.connect()?;
        let path = format!("/api/v0/jobs/{}/stream", id);
        write!(stream, "GET {} HTTP/1.1\r\nHost: ffis\r\nConnection: close\r\n\r\n", path)
            .map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        let (status, chunked, content_length) = read_head(&mut reader)?;
        if status != 200 {
            let body = read_body(&mut reader, chunked, content_length)?;
            return Err(error_message(status, &body));
        }
        let body = read_body(&mut reader, chunked, content_length)?;
        let text = String::from_utf8_lossy(&body);
        let mut done = None;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let event = api::stream_event(line)?;
            if let StreamEvent::Done(view) = &event {
                done = Some(view.clone());
            }
            on_event(&event);
        }
        done.ok_or_else(|| "stream ended without a done event".into())
    }

    /// `watch`, but incremental: events are delivered as each chunk
    /// arrives rather than after the stream closes. This is what the
    /// CLI `repro daemon watch` uses to print runs live.
    pub fn watch_live(
        &self,
        id: u64,
        mut on_event: impl FnMut(&StreamEvent),
    ) -> Result<JobView, String> {
        let mut stream = self.connect()?;
        let path = format!("/api/v0/jobs/{}/stream", id);
        write!(stream, "GET {} HTTP/1.1\r\nHost: ffis\r\nConnection: close\r\n\r\n", path)
            .map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        let (status, chunked, content_length) = read_head(&mut reader)?;
        if status != 200 {
            let body = read_body(&mut reader, chunked, content_length)?;
            return Err(error_message(status, &body));
        }
        let mut done = None;
        let mut pending = String::new();
        let mut visit = |line: &str| -> Result<(), String> {
            if line.trim().is_empty() {
                return Ok(());
            }
            let event = api::stream_event(line)?;
            if let StreamEvent::Done(view) = &event {
                done = Some(view.clone());
            }
            on_event(&event);
            Ok(())
        };
        if chunked {
            while let Some(chunk) = read_chunk(&mut reader)? {
                pending.push_str(&String::from_utf8_lossy(&chunk));
                while let Some(pos) = pending.find('\n') {
                    let line: String = pending.drain(..=pos).collect();
                    visit(line.trim_end())?;
                }
            }
        } else {
            let body = read_body(&mut reader, false, content_length)?;
            pending.push_str(&String::from_utf8_lossy(&body));
        }
        for line in pending.lines() {
            visit(line)?;
        }
        done.ok_or_else(|| "stream ended without a done event".into())
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let mut last = String::from("no address resolved");
        let addrs = std::net::ToSocketAddrs::to_socket_addrs(&self.addr)
            .map_err(|e| format!("resolve {}: {}", self.addr, e))?;
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
                Ok(stream) => return Ok(stream),
                Err(e) => last = e.to_string(),
            }
        }
        Err(format!("connect {}: {}", self.addr, last))
    }

    fn request_json(&self, method: &str, path: &str, body: Option<&str>) -> Result<Json, String> {
        let mut stream = self.connect()?;
        stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
        let body_bytes = body.unwrap_or("").as_bytes();
        write!(
            stream,
            "{} {} HTTP/1.1\r\nHost: ffis\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            method,
            path,
            body_bytes.len()
        )
        .map_err(|e| e.to_string())?;
        stream.write_all(body_bytes).map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        let (status, chunked, content_length) = read_head(&mut reader)?;
        let body = read_body(&mut reader, chunked, content_length)?;
        let text = String::from_utf8_lossy(&body);
        let value =
            json::parse(&text).map_err(|e| format!("HTTP {}: unparseable body ({})", status, e))?;
        if (200..300).contains(&status) {
            Ok(value)
        } else {
            Err(error_message(status, &body))
        }
    }
}

fn error_message(status: u16, body: &[u8]) -> String {
    let text = String::from_utf8_lossy(body);
    let detail = json::parse(&text)
        .ok()
        .and_then(|v| v.get("error").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| text.trim().to_string());
    // Mirror the server's body-framing rejects with actionable advice:
    // this client always sends Content-Length-framed bodies, so a 411
    // or 501 here means some other intermediary or caller re-framed
    // the request.
    match status {
        411 | 501 => format!(
            "HTTP {}: {} (the daemon only accepts Content-Length-framed request bodies; \
             chunked and other transfer codings are not supported)",
            status, detail
        ),
        _ => format!("HTTP {}: {}", status, detail),
    }
}

/// Read one framing line through what [`MAX_LINE`] allows; empty at
/// end of stream.
fn read_line<R: BufRead>(reader: &mut R, what: &str) -> Result<String, String> {
    let mut line = String::new();
    reader.by_ref().take(MAX_LINE as u64).read_line(&mut line).map_err(|e| e.to_string())?;
    if line.len() == MAX_LINE && !line.ends_with('\n') {
        return Err(format!("{} exceeds the {} byte line cap", what, MAX_LINE));
    }
    Ok(line)
}

/// Parse the status line and headers; returns `(status, chunked,
/// content_length)`.
fn read_head<R: BufRead>(reader: &mut R) -> Result<(u16, bool, Option<usize>), String> {
    let line = read_line(reader, "status line")?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {:?}", line.trim()))?;
    let mut chunked = false;
    let mut content_length = None;
    loop {
        let header = read_line(reader, "header line")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "transfer-encoding" if value.eq_ignore_ascii_case("chunked") => chunked = true,
                "content-length" => content_length = value.parse().ok(),
                _ => {}
            }
        }
    }
    Ok((status, chunked, content_length))
}

/// A declared size the client is willing to allocate for.
fn checked_size(size: usize, what: &str) -> Result<usize, String> {
    if size > MAX_RESPONSE {
        return Err(format!("{} {} exceeds the {} byte reply cap", what, size, MAX_RESPONSE));
    }
    Ok(size)
}

/// Read one chunk of a chunked body; `None` at the terminal chunk.
fn read_chunk<R: BufRead>(reader: &mut R) -> Result<Option<Vec<u8>>, String> {
    let mut size_line = String::new();
    // Tolerate stray CRLFs between chunks.
    while size_line.trim().is_empty() {
        size_line = read_line(reader, "chunk size line")?;
        if size_line.is_empty() {
            return Err("chunked body ended without its terminal chunk".into());
        }
    }
    let size_line = size_line.trim();
    let size = usize::from_str_radix(size_line.split(';').next().unwrap_or(""), 16)
        .map_err(|_| format!("bad chunk size {:?}", size_line))?;
    let size = checked_size(size, "chunk size")?;
    if size == 0 {
        let _ = read_line(reader, "trailer");
        return Ok(None);
    }
    let mut chunk = vec![0u8; size];
    reader.read_exact(&mut chunk).map_err(|e| e.to_string())?;
    let mut crlf = [0u8; 2];
    reader.read_exact(&mut crlf).map_err(|e| e.to_string())?;
    Ok(Some(chunk))
}

fn read_body<R: BufRead>(
    reader: &mut R,
    chunked: bool,
    content_length: Option<usize>,
) -> Result<Vec<u8>, String> {
    if chunked {
        let mut body = Vec::new();
        while let Some(chunk) = read_chunk(reader)? {
            body.extend_from_slice(&chunk);
        }
        Ok(body)
    } else if let Some(len) = content_length {
        let mut body = vec![0u8; checked_size(len, "Content-Length")?];
        reader.read_exact(&mut body).map_err(|e| e.to_string())?;
        Ok(body)
    } else {
        let mut body = Vec::new();
        match reader.read_to_end(&mut body) {
            Ok(_) => Ok(body),
            // Connection: close without a length — a torn read still
            // yields what arrived.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(body),
            Err(e) => Err(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// One flipped bit in a size line must fail the call, not ask the
    /// allocator for terabytes (an abort no `catch_unwind` sees).
    #[test]
    fn declared_sizes_beyond_the_reply_cap_are_errors_not_allocations() {
        let err = read_chunk(&mut Cursor::new(&b"FFFFFFFFFFFF\r\n"[..])).unwrap_err();
        assert!(err.contains("chunk size"), "{err}");
        let err = read_body(&mut Cursor::new(&b""[..]), false, Some(0xFFFF_FFFF_FFFF)).unwrap_err();
        assert!(err.contains("Content-Length"), "{err}");
        let mut ok = Cursor::new(&b"5\r\nhello\r\n0\r\n\r\n"[..]);
        assert_eq!(read_body(&mut ok, true, None).unwrap(), b"hello");
    }

    /// Blank lines between chunks are skipped in a loop: a million of
    /// them cost no stack, and running out of stream is an error.
    #[test]
    fn a_stream_of_blank_lines_neither_recurses_nor_hangs() {
        let mut blanks = Cursor::new(b"\r\n".repeat(1_000_000));
        assert!(read_chunk(&mut blanks).is_err());
        let mut stray = Cursor::new(&b"\r\n\r\n3\r\nabc\r\n"[..]);
        assert_eq!(read_chunk(&mut stray).unwrap().as_deref(), Some(&b"abc"[..]));
    }

    /// Counts the bytes read out of `inner`.
    struct Counting<'a, R> {
        inner: R,
        consumed: &'a std::cell::Cell<usize>,
    }

    impl<R: Read> Read for Counting<'_, R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.consumed.set(self.consumed.get() + n);
            Ok(n)
        }
    }

    /// A peer that stops sending newlines — in the status line, in a
    /// header, in a chunk's size line — fails the call at the line cap,
    /// not after the client has swallowed everything it sent.
    #[test]
    fn a_line_that_never_ends_is_an_error_at_the_line_cap() {
        const FLOOD: u64 = 4 * 1024 * 1024;
        const BUFFER: usize = 8 * 1024;
        let consumed = std::cell::Cell::new(0);
        let flood_after = |prefix: &'static [u8]| {
            consumed.set(0);
            let inner = Cursor::new(prefix).chain(io::repeat(b'x').take(FLOOD));
            BufReader::with_capacity(BUFFER, Counting { inner, consumed: &consumed })
        };
        let at_the_cap = |what: &str, prefix: usize, err: String| {
            assert!(err.contains("line cap"), "{what}: {err:.120}");
            let consumed = consumed.get();
            assert!(consumed <= prefix + MAX_LINE + BUFFER, "{what}: consumed {consumed} bytes");
        };
        at_the_cap("status line", 0, read_head(&mut flood_after(b"")).unwrap_err());
        let head = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Pad: ";
        at_the_cap("header line", head.len(), read_head(&mut flood_after(head)).unwrap_err());
        at_the_cap("chunk size line", 0, read_chunk(&mut flood_after(b"")).unwrap_err());
        let stray = b"\r\n\r\n";
        at_the_cap(
            "chunk size line",
            stray.len(),
            read_chunk(&mut flood_after(stray)).unwrap_err(),
        );

        // A line of exactly the cap, newline included, is still a line.
        let mut line = vec![b'x'; MAX_LINE - 1];
        line.push(b'\n');
        assert_eq!(read_line(&mut Cursor::new(&line), "line").unwrap().len(), MAX_LINE);
        line.insert(0, b'x');
        assert!(read_line(&mut Cursor::new(&line), "line").is_err());
    }
}
