//! A bundled in-process object-store test server.
//!
//! [`crate::remote::HttpFile`] needs something real to talk to; this module
//! provides it without any external dependency: a minimal HTTP/1.1 server
//! (std `TcpListener`, one thread per connection) that serves named byte
//! blobs ("objects") with exactly the surface an object store exposes to a
//! range-reading client:
//!
//! * `GET /name` — the whole object (`200 OK`);
//! * `GET /name` + `Range: bytes=a-b` — one inclusive byte range
//!   (`206 Partial Content` with a `Content-Range: bytes a-b/total` header,
//!   the client's source of truth for the object's total size);
//! * persistent connections (HTTP/1.1 keep-alive) so a client can reuse one
//!   TCP stream for many ranged GETs.
//!
//! Two test levers make the remote cost model and failure model real:
//!
//! * **chunk latency** — a configurable per-request stall, the round-trip
//!   cost a remote link charges for every GET (what request coalescing
//!   dodges);
//! * **fault injection** — scripted or periodic faults: `503` responses,
//!   connections dropped before any response, and short reads (a response
//!   that advertises the full `Content-Length` but delivers only half the
//!   body before the connection dies). These exercise the client's
//!   retry/backoff path; see [`Fault`] and [`FaultPlan`].
//!
//! The server is test infrastructure, not a production artifact: it buffers
//! objects in memory, parses only the request subset the client emits, and
//! answers everything else with `400`/`404`/`405`. It still holds a peer to
//! bounds: a request head is read with [`crate::netio`]'s bounded reader,
//! and a connection silent for 120 s is closed, so no peer holds a
//! connection thread for as long as the store lives.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufReader, Write};

use crate::netio::ConnBuf;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pai_common::Result;

/// One injectable fault, applied to a single request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Respond `503 Service Unavailable` (a retryable server error).
    Status5xx,
    /// Close the connection without sending any response.
    Drop,
    /// Send headers advertising the full body length, deliver only half the
    /// bytes, then close the connection mid-body.
    ShortRead,
}

/// When the server injects faults.
///
/// [`FaultPlan::Off`] (the default), or a periodic plan that injects its
/// fault on every `every`-th request (1-based, so `every: 5` fails requests
/// 5, 10, 15, …). Scripted one-shot faults for unit tests are queued with
/// [`ObjectStore::push_fault`] and always take priority over the periodic
/// plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPlan {
    /// Never inject (scripted faults still fire).
    #[default]
    Off,
    /// Inject `fault` on every `every`-th request.
    Periodic {
        /// The fault to inject.
        fault: Fault,
        /// Period in requests (≥ 1; 1 would fail every request forever, so
        /// the client's bounded retry turns it into a hard error).
        every: u64,
    },
}

/// One stored object: its bytes plus a generation number that becomes the
/// `ETag` header — bumped every time a `put` replaces the object, so
/// clients can detect mid-session mutation and drop stale cached spans.
struct StoredObject {
    bytes: Arc<Vec<u8>>,
    generation: u64,
}

/// Shared mutable state behind the listener and every connection thread.
struct Shared {
    objects: Mutex<HashMap<String, StoredObject>>,
    scripted: Mutex<VecDeque<Fault>>,
    plan: FaultPlan,
    latency: Duration,
    shutdown: AtomicBool,
    requests: AtomicU64,
    faults_injected: AtomicU64,
    /// Read timeout of every accepted socket ([`READ_TIMEOUT`]; tests
    /// shorten it).
    read_timeout: Duration,
}

/// How long an accepted connection may stay silent before the store closes
/// it. Far longer than any pause between a client's requests, so a pooled
/// keep-alive connection is never closed under a working client (which
/// would cost it a metered retry).
const READ_TIMEOUT: Duration = Duration::from_secs(120);

impl Shared {
    /// The fault (if any) to apply to the request numbered `n` (1-based).
    fn fault_for(&self, n: u64) -> Option<Fault> {
        if let Some(f) = self.scripted.lock().expect("fault queue").pop_front() {
            return Some(f);
        }
        match self.plan {
            FaultPlan::Off => None,
            FaultPlan::Periodic { fault, every } => n.is_multiple_of(every).then_some(fault),
        }
    }
}

/// The in-process object-store server. Binds a loopback port on
/// construction and serves until dropped.
///
/// ```
/// use pai_storage::objstore::ObjectStore;
/// let store = ObjectStore::serve().unwrap();
/// store.put("data", vec![1, 2, 3, 4]);
/// let addr = store.addr(); // hand to HttpFile::open
/// ```
pub struct ObjectStore {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl std::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectStore")
            .field("addr", &self.addr)
            .field("requests", &self.requests_served())
            .finish()
    }
}

impl ObjectStore {
    /// Starts an empty store with no latency and no periodic faults.
    pub fn serve() -> Result<ObjectStore> {
        ObjectStore::serve_with(Duration::ZERO, FaultPlan::Off)
    }

    /// Starts an empty store with a per-request stall and a fault plan.
    pub fn serve_with(latency: Duration, plan: FaultPlan) -> Result<ObjectStore> {
        ObjectStore::start(latency, plan, READ_TIMEOUT)
    }

    /// An empty store that closes a connection silent for `timeout` instead
    /// of [`READ_TIMEOUT`], so a test of a silent peer takes milliseconds.
    #[cfg(test)]
    fn serve_with_read_timeout(timeout: Duration) -> Result<ObjectStore> {
        ObjectStore::start(Duration::ZERO, FaultPlan::Off, timeout)
    }

    fn start(latency: Duration, plan: FaultPlan, read_timeout: Duration) -> Result<ObjectStore> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            objects: Mutex::new(HashMap::new()),
            scripted: Mutex::new(VecDeque::new()),
            plan,
            latency,
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            read_timeout,
        });
        let accept_state = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("pai-objstore".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_state.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Responses are written head-then-body in small pieces;
                    // without nodelay each exchange stalls on delayed ACKs.
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(accept_state.read_timeout));
                    let state = Arc::clone(&accept_state);
                    let _ = std::thread::Builder::new()
                        .name("pai-objstore-conn".into())
                        .spawn(move || serve_connection(stream, &state));
                }
            })?;
        Ok(ObjectStore { shared, addr })
    }

    /// The loopback address clients connect to (`127.0.0.1:<port>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Uploads (or replaces) an object. Replacing bumps the object's
    /// generation, which the server exposes as its `ETag` — the signal a
    /// caching client uses to drop spans fetched from the old bytes.
    pub fn put(&self, name: impl Into<String>, bytes: impl Into<Vec<u8>>) {
        let name = name.into();
        let mut objects = self.shared.objects.lock().expect("object map");
        let generation = objects.get(&name).map_or(1, |o| o.generation + 1);
        objects.insert(
            name,
            StoredObject {
                bytes: Arc::new(bytes.into()),
                generation,
            },
        );
    }

    /// The object's current generation (its `ETag` value), if it exists.
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.shared
            .objects
            .lock()
            .expect("object map")
            .get(name)
            .map(|o| o.generation)
    }

    /// Whether an object exists.
    pub fn contains(&self, name: &str) -> bool {
        self.shared
            .objects
            .lock()
            .expect("object map")
            .contains_key(name)
    }

    /// Queues one scripted fault; the next request consumes it (scripted
    /// faults take priority over the periodic plan).
    pub fn push_fault(&self, fault: Fault) {
        self.shared
            .scripted
            .lock()
            .expect("fault queue")
            .push_back(fault);
    }

    /// Total requests received so far (including faulted ones) — the
    /// server-side twin of the client's `http_requests` meter.
    pub fn requests_served(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Total faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.shared.faults_injected.load(Ordering::Relaxed)
    }
}

impl Drop for ObjectStore {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A parsed request: object name and optional inclusive byte range.
struct Request {
    name: String,
    range: Option<(u64, u64)>,
    close: bool,
}

/// Reads and parses one request off the stream, reusing `buf`'s
/// scratch line between requests (the connection loop's only per-request
/// allocation is the object path itself). `Ok(None)` = clean EOF
/// (client closed the keep-alive connection); a head over the bounds of
/// [`crate::netio`], or a peer silent past the read timeout, is an error.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    buf: &mut ConnBuf,
) -> std::io::Result<Option<Request>> {
    let Some(line) = buf.read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let method_is_get = parts.next() == Some("GET");
    let path = parts.next().unwrap_or("").to_string();
    let mut range = None;
    let mut close = false;
    buf.read_headers(reader, |key, value| {
        if key.eq_ignore_ascii_case("range") {
            range = parse_range(value);
        } else if key.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    })?;
    if !method_is_get {
        // Signal unsupported methods with an empty name; the responder
        // turns that into a 405.
        return Ok(Some(Request {
            name: String::new(),
            range: None,
            close: true,
        }));
    }
    Ok(Some(Request {
        name: path.trim_start_matches('/').to_string(),
        range,
        close,
    }))
}

/// Parses `bytes=a-b` (inclusive). Open-ended (`a-`) and suffix (`-n`)
/// forms are not emitted by our client and parse to `None` → `200 OK` full
/// body, which is always a correct (if larger) answer.
fn parse_range(value: &str) -> Option<(u64, u64)> {
    let spec = value.strip_prefix("bytes=")?;
    let (a, b) = spec.split_once('-')?;
    let start: u64 = a.trim().parse().ok()?;
    let end: u64 = b.trim().parse().ok()?;
    (end >= start).then_some((start, end))
}

fn write_simple(
    stream: &mut TcpStream,
    status: &str,
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let conn = if close { "close" } else { "keep-alive" };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Serves one keep-alive connection until EOF, error, shutdown, or an
/// injected drop.
fn serve_connection(stream: TcpStream, state: &Shared) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // One scratch buffer per connection; every request on the keep-alive
    // loop reuses it instead of allocating fresh line/head strings.
    let mut buf = ConnBuf::new();
    loop {
        if state.shutdown.load(Ordering::Acquire) {
            return;
        }
        let req = match read_request(&mut reader, &mut buf) {
            Ok(Some(req)) => req,
            Ok(None) | Err(_) => return,
        };
        let n = state.requests.fetch_add(1, Ordering::Relaxed) + 1;
        if !state.latency.is_zero() {
            std::thread::sleep(state.latency);
        }
        let fault = state.fault_for(n);
        if fault.is_some() {
            state.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        match fault {
            Some(Fault::Drop) => return,
            Some(Fault::Status5xx) => {
                if write_simple(&mut writer, "503 Service Unavailable", b"", req.close).is_err()
                    || req.close
                {
                    return;
                }
                continue;
            }
            _ => {}
        }
        if req.name.is_empty() {
            let _ = write_simple(&mut writer, "405 Method Not Allowed", b"", true);
            return;
        }
        let object = state
            .objects
            .lock()
            .expect("object map")
            .get(&req.name)
            .map(|o| (Arc::clone(&o.bytes), o.generation));
        let Some((object, generation)) = object else {
            if write_simple(&mut writer, "404 Not Found", b"", req.close).is_err() || req.close {
                return;
            }
            continue;
        };
        let total = object.len() as u64;
        // Clamp the range like real stores do; a range entirely past EOF is
        // unsatisfiable.
        let (status, start, end) = match req.range {
            Some((a, b)) if a < total => ("206 Partial Content", a, b.min(total - 1)),
            Some(_) => {
                let conn = if req.close { "close" } else { "keep-alive" };
                let msg = buf.head_scratch();
                let _ = write!(msg, "HTTP/1.1 416 Range Not Satisfiable\r\nContent-Range: bytes */{total}\r\nContent-Length: 0\r\nConnection: {conn}\r\n\r\n");
                if writer.write_all(msg.as_bytes()).is_err() || req.close {
                    return;
                }
                continue;
            }
            None if total == 0 => ("200 OK", 0, 0),
            None => ("200 OK", 0, total - 1),
        };
        let body = if total == 0 {
            &[][..]
        } else {
            &object[start as usize..=end as usize]
        };
        let advertised = body.len();
        let deliver = match fault {
            Some(Fault::ShortRead) => advertised / 2,
            _ => advertised,
        };
        let conn = if req.close { "close" } else { "keep-alive" };
        let head = buf.head_scratch();
        let _ = write!(
            head,
            "HTTP/1.1 {status}\r\nContent-Length: {advertised}\r\nContent-Range: bytes {start}-{end}/{total}\r\nAccept-Ranges: bytes\r\nETag: \"g{generation}\"\r\nConnection: {conn}\r\n\r\n",
        );
        if writer.write_all(head.as_bytes()).is_err()
            || writer.write_all(&body[..deliver]).is_err()
            || writer.flush().is_err()
        {
            return;
        }
        if matches!(fault, Some(Fault::ShortRead)) || req.close {
            return; // short read: die mid-body; close: honor the client
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Read};

    /// Minimal raw client for exercising the server without the real
    /// `HttpFile` client (which has its own tests).
    fn raw_get(addr: SocketAddr, path: &str, range: Option<(u64, u64)>) -> (String, Vec<u8>) {
        let mut stream = TcpStream::connect(addr).unwrap();
        let range_header = match range {
            Some((a, b)) => format!("Range: bytes={a}-{b}\r\n"),
            None => String::new(),
        };
        write!(
            stream,
            "GET /{path} HTTP/1.1\r\nHost: test\r\n{range_header}Connection: close\r\n\r\n"
        )
        .unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        let split = buf
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("header terminator");
        (
            String::from_utf8_lossy(&buf[..split]).to_string(),
            buf[split + 4..].to_vec(),
        )
    }

    #[test]
    fn serves_whole_and_ranged_objects() {
        let store = ObjectStore::serve().unwrap();
        store.put("blob", (0u8..100).collect::<Vec<u8>>());
        assert!(store.contains("blob"));

        let (head, body) = raw_get(store.addr(), "blob", None);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body.len(), 100);

        let (head, body) = raw_get(store.addr(), "blob", Some((10, 19)));
        assert!(head.starts_with("HTTP/1.1 206"), "{head}");
        assert!(head.contains("Content-Range: bytes 10-19/100"), "{head}");
        assert_eq!(body, (10u8..20).collect::<Vec<u8>>());
        assert_eq!(store.requests_served(), 2);
    }

    #[test]
    fn range_clamps_to_eof_and_rejects_past_eof() {
        let store = ObjectStore::serve().unwrap();
        store.put("blob", vec![7u8; 10]);
        let (head, body) = raw_get(store.addr(), "blob", Some((5, 500)));
        assert!(head.contains("bytes 5-9/10"), "{head}");
        assert_eq!(body.len(), 5);
        let (head, _) = raw_get(store.addr(), "blob", Some((10, 20)));
        assert!(head.starts_with("HTTP/1.1 416"), "{head}");
    }

    #[test]
    fn etag_tracks_the_object_generation_across_replaces() {
        let store = ObjectStore::serve().unwrap();
        store.put("blob", vec![1u8; 16]);
        assert_eq!(store.generation("blob"), Some(1));
        let (head, _) = raw_get(store.addr(), "blob", Some((0, 7)));
        assert!(head.contains("ETag: \"g1\""), "{head}");

        store.put("blob", vec![2u8; 16]);
        assert_eq!(store.generation("blob"), Some(2), "replace bumps");
        let (head, body) = raw_get(store.addr(), "blob", Some((0, 7)));
        assert!(head.contains("ETag: \"g2\""), "{head}");
        assert_eq!(body, vec![2u8; 8], "new generation's bytes");
        assert_eq!(store.generation("nope"), None);
    }

    #[test]
    fn unknown_objects_are_404() {
        let store = ObjectStore::serve().unwrap();
        let (head, _) = raw_get(store.addr(), "nope", None);
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let store = ObjectStore::serve().unwrap();
        store.put("blob", (0u8..50).collect::<Vec<u8>>());
        let mut stream = TcpStream::connect(store.addr()).unwrap();
        for i in 0..3u64 {
            write!(
                stream,
                "GET /blob HTTP/1.1\r\nHost: t\r\nRange: bytes={}-{}\r\n\r\n",
                i * 10,
                i * 10 + 9
            )
            .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            let mut content_length = 0usize;
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("HTTP/1.1 206"), "{line}");
            loop {
                let mut h = String::new();
                reader.read_line(&mut h).unwrap();
                if h.trim_end().is_empty() {
                    break;
                }
                if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                    content_length = v.trim().parse().unwrap();
                }
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body).unwrap();
            assert_eq!(body[0], (i * 10) as u8);
        }
        assert_eq!(store.requests_served(), 3);
    }

    #[test]
    fn scripted_faults_fire_in_order() {
        let store = ObjectStore::serve().unwrap();
        store.put("blob", vec![1u8; 100]);
        store.push_fault(Fault::Status5xx);
        let (head, _) = raw_get(store.addr(), "blob", Some((0, 9)));
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        let (head, body) = raw_get(store.addr(), "blob", Some((0, 9)));
        assert!(head.starts_with("HTTP/1.1 206"), "{head}");
        assert_eq!(body.len(), 10);
        assert_eq!(store.faults_injected(), 1);
    }

    #[test]
    fn short_read_fault_truncates_the_body() {
        let store = ObjectStore::serve().unwrap();
        store.put("blob", vec![9u8; 100]);
        store.push_fault(Fault::ShortRead);
        let (head, body) = raw_get(store.addr(), "blob", Some((0, 99)));
        assert!(head.contains("Content-Length: 100"), "{head}");
        assert_eq!(body.len(), 50, "half the body, then the connection dies");
    }

    #[test]
    fn drop_fault_closes_without_response() {
        let store = ObjectStore::serve().unwrap();
        store.put("blob", vec![9u8; 10]);
        store.push_fault(Fault::Drop);
        let mut stream = TcpStream::connect(store.addr()).unwrap();
        write!(stream, "GET /blob HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        assert!(buf.is_empty(), "dropped connections send nothing");
    }

    #[test]
    fn periodic_fault_plan_fires() {
        let plan = FaultPlan::Periodic {
            fault: Fault::Status5xx,
            every: 2,
        };
        let store = ObjectStore::serve_with(Duration::ZERO, plan).unwrap();
        store.put("blob", vec![1u8; 4]);
        let (head, _) = raw_get(store.addr(), "blob", None);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let (head, _) = raw_get(store.addr(), "blob", None);
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert_eq!(store.faults_injected(), 1);
    }

    /// Whether the store has ended `stream`'s connection: a read sees EOF or
    /// a reset within five seconds, not a timeout.
    fn ended_by_store(stream: &mut TcpStream) -> bool {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 1024];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return true,
                Ok(_) => continue,
                Err(e) => {
                    return !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    )
                }
            }
        }
    }

    /// A ranged GET on a connection of its own is answered.
    fn assert_served(store: &ObjectStore) {
        let (head, body) = raw_get(store.addr(), "blob", Some((10, 19)));
        assert!(head.starts_with("HTTP/1.1 206"), "{head}");
        assert_eq!(body, (10u8..20).collect::<Vec<u8>>());
    }

    #[test]
    fn an_endless_request_line_ends_its_connection() {
        let store = ObjectStore::serve().unwrap();
        store.put("blob", (0u8..100).collect::<Vec<u8>>());
        let mut hostile = TcpStream::connect(store.addr()).unwrap();
        let mut line = b"GET /".to_vec();
        line.resize(64 * 1024, b'x');
        // Fails once the store hangs up mid-line, as it should.
        let _ = hostile.write_all(&line);
        assert_served(&store);
        assert!(ended_by_store(&mut hostile), "a line past the cap ends it");
        assert_eq!(store.requests_served(), 1, "only the well-formed GET");
    }

    #[test]
    fn a_flood_of_header_lines_ends_its_connection() {
        let store = ObjectStore::serve().unwrap();
        store.put("blob", (0u8..100).collect::<Vec<u8>>());
        let mut hostile = TcpStream::connect(store.addr()).unwrap();
        let flood = "GET /blob HTTP/1.1\r\n".to_string() + &"X-Flood: 1\r\n".repeat(1000);
        let _ = hostile.write_all(flood.as_bytes());
        assert_served(&store);
        assert!(ended_by_store(&mut hostile), "a head past the cap ends it");
        assert_eq!(store.requests_served(), 1, "only the well-formed GET");
    }

    #[test]
    fn a_silent_peer_is_disconnected_after_the_read_timeout() {
        let timeout = Duration::from_millis(200);
        let store = ObjectStore::serve_with_read_timeout(timeout).unwrap();
        store.put("blob", (0u8..100).collect::<Vec<u8>>());
        let t0 = std::time::Instant::now();
        let mut silent = TcpStream::connect(store.addr()).unwrap();
        assert_served(&store);
        assert!(ended_by_store(&mut silent), "silence ends it");
        assert!(t0.elapsed() >= timeout, "{:?}", t0.elapsed());
        // A keep-alive connection that goes quiet after a request is closed
        // the same way.
        let mut quiet = TcpStream::connect(store.addr()).unwrap();
        write!(
            quiet,
            "GET /blob HTTP/1.1\r\nHost: t\r\nRange: bytes=0-9\r\n\r\n"
        )
        .unwrap();
        let mut reader = BufReader::new(quiet.try_clone().unwrap());
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert!(status.starts_with("HTTP/1.1 206"), "{status}");
        assert!(ended_by_store(&mut quiet), "idle keep-alive ends too");
        assert_served(&store);
    }

    #[test]
    fn latency_is_charged_per_request() {
        let store = ObjectStore::serve_with(Duration::from_millis(20), FaultPlan::Off).unwrap();
        store.put("blob", vec![0u8; 8]);
        let t0 = std::time::Instant::now();
        raw_get(store.addr(), "blob", None);
        raw_get(store.addr(), "blob", None);
        assert!(t0.elapsed() >= Duration::from_millis(40));
    }
}
