//! `HttpFile`: a real remote object-store backend over HTTP/1.1 ranged GETs.
//!
//! [`crate::LatencyFile`] simulates the remote *cost model*; this module is
//! the remote *transport*. An [`HttpFile`] serves a PaiZone image
//! that lives behind an HTTP object store (in tests and benches, the
//! bundled [`crate::objstore::ObjectStore`]) and implements the full
//! [`crate::RawFile`] surface — scans, positional reads, zone-map pushdown —
//! by fetching byte ranges on demand. Six client-side mechanisms make
//! that viable when every request pays a round trip:
//!
//! * **Request coalescing** ([`HttpBlob::lend_spans`]) — the decode layers
//!   hand the client *batches* of byte spans (one per block run), and the
//!   client merges spans that are adjacent or nearly so (gap ≤ 256 bytes,
//!   about what one more request would cost in head bytes) into single
//!   ranged GETs. How far a merge may grow depends on what the batch is: a
//!   positional read's stops at [`HttpOptions::part_bytes`], which bounds
//!   its over-fetch and its retry size; a streaming scan's runs are wanted
//!   whole and merge up to 1 MiB whatever the part size, so a scan
//!   partition costs one GET per column run — sequential I/O, as on a
//!   local file. Skipped zone-map blocks never enter a batch, so pushdown
//!   translates directly into GETs never issued.
//! * **The response is the buffer** ([`SpanBatch`]) — a GET's body is read
//!   once, into unzeroed capacity, and the batch's spans are lent out of it
//!   (or out of the resident cache page that holds them): a scan decodes its
//!   blocks straight from the response, and a 16 KiB page is copied out
//!   only when the cache admits it.
//! * **Connection reuse** — keep-alive connections are pooled and recycled
//!   across requests (and across concurrent readers).
//! * **Bounded retry with exponential backoff** — transient failures (5xx
//!   responses, dropped connections, short reads) are retried up to
//!   [`HttpOptions::max_retries`] times, doubling
//!   [`HttpOptions::backoff`] each attempt. Every retry is metered. Every
//!   socket carries connect, read and write timeouts, so a peer that stalls
//!   is one more transient failure, and what a response head may claim is
//!   bounded before it is believed: the lines of [`crate::netio`]'s bounded
//!   head reader, a `Content-Length` of at most the range asked for.
//! * **Overlapped fetching** ([`HttpOptions::fetch_workers`]) — a bounded
//!   pool of scoped worker threads issues a span batch's merged GETs
//!   concurrently and hands each completed body through a channel back to
//!   the calling thread. The groups are computed *before* any worker
//!   starts, so the request pattern (and every logical meter) is
//!   byte-identical to the sequential path — only wall-clock changes.
//!   `fetch_workers = 1` is exactly the old sequential loop.
//! * **Page cache** ([`crate::CachedFile`], [`HttpBlob::attach_cache`]) —
//!   with a [`crate::cache::BlockCache`] bound, a batch's spans are mapped
//!   to their covering [`PAGE_BYTES`] pages, resident pages are subtracted,
//!   the *missing pages* take the very same coalesce → fetch path above
//!   (adjacent pages merge up to the batch's size limit), and the spans are
//!   lent out of the responses and the resident pages. The cached request
//!   pattern is page-aligned; cold, it costs no more GETs or wire bytes
//!   than the uncached one on the gated workloads, and warm it costs none.
//!
//! Metering: the wrapped file's logical meters (`bytes_read`, `seeks`,
//! `blocks_read`, …) tick exactly as they do on a local `ZoneFile`
//! — answers and logical I/O are byte-identical by construction — while
//! the transport meters make the remote story visible end-to-end:
//! `http_requests` (ranged GETs issued), `http_bytes` (bytes on the wire in
//! both directions, headers included), `retries`, plus the pipeline meters
//! `fetch_inflight_peak` and `fetch_request_us`/`fetch_wall_us` (whose
//! ratio is the overlap factor). The naive and coalesced clients share one
//! group-fetch path ([`HttpBlob::read_spans`] treats a naive batch as
//! single-span groups), so retry/backoff metering is identical in both
//! modes by construction.

use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use pai_common::geometry::Rect;
use pai_common::{AttrId, IoCounters, PaiError, Result, RowLocator};

use crate::batch::RowBatch;
use crate::cache::{BlockCache, CacheMode, Page, PAGE_BYTES};
use crate::netio::{read_head_line, read_headers};
use crate::raw::{BatchHandler, RawFile, ScanRequest};
use crate::schema::Schema;
use crate::zone::ZoneFile;

/// Client-side tuning for a remote object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpOptions {
    /// The most one merged GET of a *positional* batch
    /// ([`CacheMode::Admit`]: the rows of chosen tiles) may span — the object
    /// store's "part" size. Such a batch is scattered, so a merge fetches the
    /// gaps between its spans too and a failed request is retried whole:
    /// this bounds both (a single span larger than a part is still fetched
    /// in one request). It does not govern a streaming scan
    /// ([`CacheMode::Stream`]), whose contiguous runs are wanted in full and
    /// merge up to 1 MiB (or this, if larger); it also sizes the open-time
    /// probe and header read-ahead.
    pub part_bytes: u64,
    /// Whether to coalesce at all. `false` is the naive client: one ranged
    /// GET per span, exactly as requested (the baseline the coalescing
    /// gate and the retry-metering test measure against).
    pub coalesce: bool,
    /// How many times a transiently-failed request is retried before the
    /// error surfaces.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles on each subsequent one.
    pub backoff: Duration,
    /// Fetch workers for one span batch: merged GETs are issued by up to
    /// this many scoped threads concurrently, streaming completed groups
    /// into the caller while later GETs are in flight. `1` (the default)
    /// is the sequential loop; values are clamped to the group count.
    pub fetch_workers: usize,
    /// How long cached pages may be served without re-checking the remote
    /// object's `ETag`. `None` (the default) never proactively revalidates:
    /// a fully-cached batch does zero HTTP work, and a mutation is only
    /// noticed when some miss issues a GET. `Some(ttl)` probes the object
    /// with a 1-byte GET once per `ttl` before serving hits, so even
    /// all-hit batches notice a replaced object within the TTL. Either
    /// way, an observed ETag change drops every cached page of the object
    /// and refetches the batch — stale pages become misses, never lies.
    /// Replacements are assumed layout-compatible (same length and format,
    /// e.g. a compaction rewrite); a reshaped object needs a reopen.
    pub revalidate_ttl: Option<Duration>,
}

impl Default for HttpOptions {
    fn default() -> Self {
        HttpOptions {
            part_bytes: 64 * 1024,
            coalesce: true,
            max_retries: 4,
            backoff: Duration::from_millis(1),
            fetch_workers: 1,
            revalidate_ttl: None,
        }
    }
}

impl HttpOptions {
    /// The naive client: no coalescing, every span its own ranged GET.
    pub fn naive() -> Self {
        HttpOptions {
            coalesce: false,
            ..HttpOptions::default()
        }
    }

    /// Default options with the given part size (`0` = naive client).
    pub fn with_part_bytes(part_bytes: u64) -> Self {
        if part_bytes == 0 {
            HttpOptions::naive()
        } else {
            HttpOptions {
                part_bytes,
                ..HttpOptions::default()
            }
        }
    }

    /// These options with `n` overlapped fetch workers (min 1).
    pub fn with_fetch_workers(mut self, n: usize) -> Self {
        self.fetch_workers = n.max(1);
        self
    }

    /// These options with an ETag-revalidation TTL (see
    /// [`HttpOptions::revalidate_ttl`]).
    pub fn with_revalidate_ttl(mut self, ttl: Option<Duration>) -> Self {
        self.revalidate_ttl = ttl;
        self
    }
}

/// Classifies an attempt failure: retry or surface.
enum GetError {
    /// Worth retrying: 5xx, dropped connection, short read.
    Transient(String),
    /// Not worth retrying: 4xx, malformed response.
    Permanent(PaiError),
}

/// One parsed response head.
struct ResponseHead {
    status: u16,
    content_length: Option<u64>,
    /// The bytes `[a, b + 1)` of `Content-Range: bytes a-b/total`.
    range: Option<(u64, u64)>,
    /// Total object size from `Content-Range: bytes a-b/total`.
    total: Option<u64>,
    /// The object's entity tag (quotes stripped), if the store sent one.
    etag: Option<String>,
    head_bytes: u64,
}

/// A pooled keep-alive connection.
type Conn = BufReader<TcpStream>;

/// The HTTP/1.1 range client for one remote object: connection pool,
/// retry/backoff, transport metering.
pub struct HttpClient {
    addr: SocketAddr,
    object: String,
    opts: HttpOptions,
    counters: IoCounters,
    pool: Mutex<Vec<Conn>>,
    /// Last `ETag` observed on any successful response.
    etag: Mutex<Option<String>>,
    /// Sticky flag: some response revealed the object changed generations
    /// since the last observation. Consumed by [`HttpClient::take_etag_change`].
    etag_changed: AtomicBool,
    /// Connect, read and write timeout of every socket ([`IO_TIMEOUT`];
    /// tests shorten it).
    timeout: Duration,
}

/// Connect, read and write timeout of every client socket. A peer that
/// accepts and then says nothing fails the attempt — a transient error, so
/// the bounded retry turns a stalled store into an `Err` — instead of
/// pinning the caller and a pooled connection for good. It bounds the wait
/// for the *next* bytes, not a whole response, so it need not scale with
/// the request size.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// The longest 5xx error body drained to keep a connection reusable; past
/// it the connection is dropped instead.
const MAX_ERROR_BODY: u64 = 64 * 1024;

impl HttpClient {
    fn new(addr: SocketAddr, object: String, opts: HttpOptions, counters: IoCounters) -> Self {
        HttpClient {
            addr,
            object,
            opts,
            counters,
            pool: Mutex::new(Vec::new()),
            etag: Mutex::new(None),
            etag_changed: AtomicBool::new(false),
            timeout: IO_TIMEOUT,
        }
    }

    /// This client giving up on a silent socket after `timeout` instead of
    /// [`IO_TIMEOUT`], so a test of a stalled peer takes milliseconds.
    #[cfg(test)]
    fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Records a response's entity tag; a change against the previously
    /// observed tag raises the sticky changed flag.
    fn note_etag(&self, tag: Option<&str>) {
        let Some(tag) = tag else { return };
        let mut seen = self.etag.lock().expect("etag");
        if seen.as_deref().is_some_and(|old| old != tag) {
            self.etag_changed.store(true, Ordering::Relaxed);
        }
        *seen = Some(tag.to_string());
    }

    /// Consumes the changed flag: `true` exactly once per detected
    /// generation change.
    fn take_etag_change(&self) -> bool {
        self.etag_changed.swap(false, Ordering::Relaxed)
    }

    fn checkout(&self) -> std::io::Result<Conn> {
        if let Some(conn) = self.pool.lock().expect("conn pool").pop() {
            return Ok(conn);
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        // Many small request/response exchanges per connection: Nagle's
        // algorithm would serialize them against delayed ACKs.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        Ok(BufReader::new(stream))
    }

    fn checkin(&self, conn: Conn) {
        let mut pool = self.pool.lock().expect("conn pool");
        if pool.len() < 8 {
            pool.push(conn);
        }
    }

    /// Fetches bytes `[start, end)` with bounded retry. Returns the body and
    /// the object's total size (from `Content-Range`).
    pub fn get_range(&self, start: u64, end: u64) -> Result<(Vec<u8>, u64)> {
        debug_assert!(end > start, "empty ranges never reach the client");
        let mut attempt = 0u32;
        loop {
            match self.try_get(start, end) {
                Ok(ok) => return Ok(ok),
                Err(GetError::Permanent(e)) => return Err(e),
                Err(GetError::Transient(what)) => {
                    if attempt >= self.opts.max_retries {
                        return Err(PaiError::internal(format!(
                            "remote GET bytes={start}-{} failed after {attempt} retries: {what}",
                            end - 1
                        )));
                    }
                    self.counters.add_retries(1);
                    let delay = self.opts.backoff * 2u32.saturating_pow(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// One attempt: checkout a connection, issue the ranged GET, read the
    /// response. The connection returns to the pool only on full success.
    fn try_get(&self, start: u64, end: u64) -> std::result::Result<(Vec<u8>, u64), GetError> {
        let mut conn = self
            .checkout()
            .map_err(|e| GetError::Transient(format!("connect: {e}")))?;
        let request = format!(
            "GET /{} HTTP/1.1\r\nHost: {}\r\nRange: bytes={start}-{}\r\nConnection: keep-alive\r\n\r\n",
            self.object,
            self.addr,
            end - 1
        );
        self.counters.add_http_requests(1);
        self.counters.add_http_bytes(request.len() as u64);
        if let Err(e) = conn.get_mut().write_all(request.as_bytes()) {
            return Err(GetError::Transient(format!("send: {e}")));
        }
        let head = read_head(&mut conn).map_err(GetError::Transient)?;
        self.counters.add_http_bytes(head.head_bytes);
        if head.status >= 500 {
            // The server answered; the keep-alive connection is reusable
            // once the (usually empty) error body is drained — returning it
            // undrained would desync the stream for the next request.
            let reusable = match head.content_length {
                Some(n) if n <= MAX_ERROR_BODY => {
                    let drained = std::io::copy(&mut (&mut conn).take(n), &mut std::io::sink());
                    let drained = drained.unwrap_or(0);
                    self.counters.add_http_bytes(drained);
                    drained == n
                }
                // Unknown or absurd body length: cannot trust the stream.
                _ => false,
            };
            if reusable {
                self.checkin(conn);
            }
            return Err(GetError::Transient(format!("HTTP {}", head.status)));
        }
        if head.status != 206 && head.status != 200 {
            return Err(GetError::Permanent(PaiError::internal(format!(
                "remote GET bytes={start}-{}: HTTP {}",
                end - 1,
                head.status
            ))));
        }
        self.note_etag(head.etag.as_deref());
        let expected = head.content_length.ok_or_else(|| {
            GetError::Permanent(PaiError::internal("response carried no Content-Length"))
        })?;
        // The length is the peer's word: hold it to the range that was asked
        // for before it sizes anything. A store that ignores `Range` and
        // answers with the whole object, or lies, is not worth retrying.
        if expected > end - start {
            return Err(GetError::Permanent(PaiError::internal(format!(
                "remote GET bytes={start}-{}: response advertises {expected} body bytes for a \
                 {}-byte range",
                end - 1,
                end - start
            ))));
        }
        // So is where the body sits in the object: a `Content-Range` must
        // name exactly the bytes asked for, or their prefix when the object
        // ends there, or they would decode into wrong values rather than
        // fail. A `200` without one is the whole object, from its first byte.
        let total = head.total.unwrap_or(expected);
        let (from, to) = match head.range {
            Some(range) => range,
            None if head.status == 200 => (0, expected),
            None => (start, start),
        };
        if (from, to) != (start, start + expected) || (to < end && to != total) {
            return Err(GetError::Permanent(PaiError::internal(format!(
                "remote GET bytes={start}-{}: response holds bytes {from}..{to} of {total}",
                end - 1
            ))));
        }
        // `read_to_end` fills spare capacity as it is: the body is written
        // once, by the socket read, into the buffer the spans are lent from.
        let mut body = Vec::with_capacity(expected as usize);
        let read = (&mut conn).take(expected).read_to_end(&mut body);
        self.counters.add_http_bytes(body.len() as u64);
        if let Err(e) = read {
            return Err(GetError::Transient(format!("recv: {e}")));
        }
        if (body.len() as u64) < expected {
            return Err(GetError::Transient(format!(
                "short read: {} of {expected} body bytes",
                body.len()
            )));
        }
        self.checkin(conn);
        Ok((body, total))
    }
}

/// Reads a status line plus headers, each line bounded by
/// [`read_head_line`]'s rule. Errors are transient (connection-level).
fn read_head(conn: &mut Conn) -> std::result::Result<ResponseHead, String> {
    let recv = |e: std::io::Error| format!("recv: {e}");
    let mut line = String::new();
    read_head_line(conn, &mut line).map_err(recv)?;
    if line.is_empty() {
        return Err("connection closed before any response".into());
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {line:?}"))?;
    let mut head = ResponseHead {
        status,
        content_length: None,
        range: None,
        total: None,
        etag: None,
        head_bytes: line.len() as u64,
    };
    let bytes = read_headers(conn, &mut line, |key, value| {
        if key.eq_ignore_ascii_case("content-length") {
            head.content_length = value.parse().ok();
        } else if key.eq_ignore_ascii_case("content-range") {
            (head.range, head.total) = parse_content_range(value);
        } else if key.eq_ignore_ascii_case("etag") {
            head.etag = Some(value.trim_matches('"').to_string());
        }
    })
    .map_err(recv)?;
    head.head_bytes += bytes;
    Ok(head)
}

/// `Content-Range: bytes a-b/total` (or `bytes */total`) as the bytes
/// `[a, b + 1)` and the total.
fn parse_content_range(value: &str) -> (Option<(u64, u64)>, Option<u64>) {
    let (span, size) = value.rsplit_once('/').unwrap_or((value, ""));
    let range = span.trim_start_matches("bytes").trim().split_once('-');
    let range =
        range.and_then(|(a, b)| Some((a.parse().ok()?, b.parse::<u64>().ok()?.checked_add(1)?)));
    (range, size.parse().ok())
}

/// The widest gap (bytes) bridged when merging spans into one request.
/// Gap bytes are fetched and thrown away, so it matches what a merge saves:
/// the ≈ 250 wire bytes of one more request's head.
const COALESCE_GAP: u64 = 256;
/// What an object store serves well in one request: a streaming scan's
/// contiguous runs merge up to it (see [`HttpBlob::lend_spans`]).
const PART_CEILING: u64 = 1 << 20;

/// The bytes of one span batch, held in the buffers they arrived in: the
/// bodies of the batch's ranged GETs and the resident cache pages it hit. A
/// span that lies inside one of those is a slice of it — a scan decodes its
/// blocks straight out of the response — and only a span that straddles two
/// (a resident page beside a fetched one, two GETs) is stitched into a
/// buffer of its own.
#[derive(Debug, Default)]
pub struct SpanBatch {
    bufs: Vec<Page>,
    /// Per span, in input order: the buffer, the offset into it, the length.
    at: Vec<(usize, usize, usize)>,
}

impl SpanBatch {
    /// How many spans the batch holds.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// Whether the batch holds no span.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// The bytes of the batch's `i`-th span.
    pub fn get(&self, i: usize) -> &[u8] {
        let (buf, a, len) = self.at[i];
        // A zero-length span names no buffer (the batch may hold none).
        self.bufs.get(buf).map_or(&[], |b| &b[a..a + len])
    }

    /// Every span of the batch, in input order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// What one coalesced fetch brought back.
struct Fetched {
    /// The merged GETs' bodies, in offset order.
    bodies: Vec<Vec<u8>>,
    /// Per request, in input order: the body it lies in and where.
    at: Vec<(usize, usize)>,
}

/// A remote object addressed as a flat byte blob: the span-fetch layer the
/// binary backends read through when their bytes live behind HTTP.
pub struct HttpBlob {
    client: HttpClient,
    len: u64,
    /// The object's leading bytes, captured by the single open-time GET
    /// that also learns the total size: magic sniffing and header decoding
    /// start from this buffer instead of re-fetching offset 0.
    prefix: Vec<u8>,
    /// Bound block cache, if any: a batch's resident pages are served from
    /// it and subtracted before coalescing. Set once, by
    /// [`HttpBlob::attach_cache`].
    cache: OnceLock<CacheBinding>,
    /// When the object's ETag was last proactively checked (see
    /// [`HttpOptions::revalidate_ttl`]).
    last_validated: Mutex<Instant>,
}

/// A blob's handle into a (possibly shared) block cache.
struct CacheBinding {
    cache: Arc<BlockCache>,
    /// This blob's object id within the cache's registry.
    object: u64,
}

impl std::fmt::Debug for HttpBlob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpBlob")
            .field("addr", &self.client.addr)
            .field("object", &self.client.object)
            .field("len", &self.len)
            .finish()
    }
}

impl HttpBlob {
    /// Connects to `addr` and opens `object` with a single part-sized GET
    /// that learns the total size (from `Content-Range`) and captures the
    /// leading bytes for header decoding. Empty objects are rejected (no
    /// valid image is zero bytes).
    pub fn open(
        addr: impl ToSocketAddrs,
        object: impl Into<String>,
        opts: HttpOptions,
        counters: IoCounters,
    ) -> Result<HttpBlob> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| PaiError::config("object store address resolves to nothing"))?;
        HttpBlob::open_client(HttpClient::new(addr, object.into(), opts, counters))
    }

    fn open_client(client: HttpClient) -> Result<HttpBlob> {
        let chunk = client.opts.part_bytes.clamp(4096, 1 << 20);
        let (prefix, len) = client.get_range(0, chunk)?;
        Ok(HttpBlob {
            client,
            len,
            prefix,
            cache: OnceLock::new(),
            last_validated: Mutex::new(Instant::now()),
        })
    }

    /// Binds a block cache to this blob's span-fetch path (at most once
    /// per blob; later calls are no-ops returning `false`). Shared caches
    /// key entries by object name, so two blobs opening the same object
    /// hit each other's admissions.
    pub fn attach_cache(&self, cache: Arc<BlockCache>) -> bool {
        let object = cache.object_id(&self.client.object);
        self.cache.set(CacheBinding { cache, object }).is_ok()
    }

    /// The leading bytes captured at open time (up to one part).
    pub(crate) fn prefix(&self) -> &[u8] {
        &self.prefix
    }

    /// Total object size in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the object is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The shared transport meters.
    pub fn counters(&self) -> &IoCounters {
        &self.client.counters
    }

    /// The client tuning this blob was opened with.
    pub fn options(&self) -> &HttpOptions {
        &self.client.opts
    }

    /// Fetches raw bytes `[off, off + len)` in one ranged GET (no
    /// coalescing; header decoding and probes use this).
    pub fn fetch(&self, off: u64, len: u64) -> Result<Vec<u8>> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let (bytes, _) = self.client.get_range(off, off + len)?;
        if bytes.len() as u64 != len {
            return Err(PaiError::internal(format!(
                "remote returned {} bytes for a {len}-byte range",
                bytes.len()
            )));
        }
        Ok(bytes)
    }

    /// Fetches many `(offset, len)` spans, coalescing them into as few
    /// ranged GETs as the options allow. Results come back in input order,
    /// each exactly `len` bytes. Spans must lie inside the object.
    ///
    /// With `fetch_workers > 1` the merged GETs are issued by a bounded
    /// pool of scoped threads; the groups themselves are computed up front
    /// either way, so the request pattern is identical at every worker
    /// count. The naive client takes exactly this path with single-span
    /// groups — retry, backoff, and every meter are shared between the
    /// naive and coalesced modes by construction.
    ///
    /// Misses admit to a bound cache under [`CacheMode::Admit`]; scan
    /// paths use [`HttpBlob::lend_spans`] with [`CacheMode::Stream`] to opt
    /// into the one-touch streaming rule (and the streaming request size)
    /// instead.
    pub fn read_spans(&self, spans: &[(u64, u64)]) -> Result<Vec<Vec<u8>>> {
        self.read_spans_mode(spans, CacheMode::Admit)
    }

    /// [`HttpBlob::read_spans`] with an explicit batch mode: the bytes of
    /// [`HttpBlob::lend_spans`], copied out into one buffer per span.
    pub fn read_spans_mode(&self, spans: &[(u64, u64)], mode: CacheMode) -> Result<Vec<Vec<u8>>> {
        let batch = self.lend_spans(spans, mode)?;
        Ok(batch.iter().map(<[u8]>::to_vec).collect())
    }

    /// Fetches a span batch and lends its bytes out of the buffers they
    /// arrived in — the bodies of the ranged GETs and the resident cache
    /// pages — instead of copying each span out (see [`SpanBatch`]).
    ///
    /// `mode` says what kind of traffic the batch is, which sets two rules:
    ///
    /// * *Request size.* A [`CacheMode::Admit`] batch is positional — the
    ///   rows of chosen tiles, scattered — and its merged GETs stop at
    ///   [`HttpOptions::part_bytes`], which bounds what a merge over-fetches
    ///   across gaps and what one failed request costs to retry. A
    ///   [`CacheMode::Stream`] batch is a scan: every byte between its first
    ///   and last is wanted, so contiguous wanted bytes (the same 256-byte
    ///   gap rule: a block the zone maps skipped is still never fetched)
    ///   merge up to 1 MiB (`PART_CEILING`), whatever `part_bytes` says. A
    ///   scan partition's column run is then one GET, as it is one
    ///   sequential read on a local file.
    /// * *Admission*, when a cache is bound (see [`CacheMode`]).
    ///
    /// When a cache is bound, the batch is served page by page (see
    /// [`crate::cache::PAGE_BYTES`]): the spans' covering pages are looked
    /// up *before* sorting and coalescing, so only the missing pages shape
    /// the merged GETs. A fully-cached batch does zero
    /// HTTP work (and adds zero fetch wall time). The request pattern of a
    /// cached client is therefore page-aligned, not the uncached client's;
    /// what the tests and the `remote_bench` gates pin instead is that a
    /// cold cached session never issues more GETs or wire bytes than the
    /// uncached one. Fetched pages are offered to the cache under `mode`'s
    /// admission rule, and copied out of the GET body only if it takes
    /// them; `cache_hits`/`cache_misses` count page lookups, added once per
    /// batch.
    ///
    /// Staleness guard: if any GET in the batch reveals a changed `ETag`
    /// (the store replaced the object mid-session), every cached page of
    /// the object is dropped and — when the batch had used any resident
    /// page, which may now be from the retired generation — the whole
    /// batch is refetched once against the emptied cache. The result
    /// therefore never mixes generations that a single GET could tell
    /// apart.
    pub fn lend_spans(&self, spans: &[(u64, u64)], mode: CacheMode) -> Result<SpanBatch> {
        self.maybe_revalidate()?;
        let (out, had_hits) = self.lend_attempt(spans, mode)?;
        if self.client.take_etag_change() {
            self.invalidate_cached_spans();
            if had_hits {
                // The hits came from the old generation; the cache is now
                // empty for this object, so one retry fetches everything
                // fresh (and its GETs re-observe the *new* tag, so this
                // cannot recurse).
                let (out, _) = self.lend_attempt(spans, mode)?;
                return Ok(out);
            }
        }
        Ok(out)
    }

    /// Probes the object's current `ETag` with a 1-byte GET when the
    /// configured [`HttpOptions::revalidate_ttl`] has lapsed, dropping
    /// cached pages if the object changed. A no-op without a TTL, without
    /// a bound cache, or within the TTL.
    fn maybe_revalidate(&self) -> Result<()> {
        let Some(ttl) = self.client.opts.revalidate_ttl else {
            return Ok(());
        };
        if self.cache.get().is_none() || self.len == 0 {
            return Ok(());
        }
        {
            let mut last = self.last_validated.lock().expect("revalidate clock");
            if last.elapsed() < ttl {
                return Ok(());
            }
            *last = Instant::now();
        }
        let _ = self.client.get_range(0, 1)?;
        if self.client.take_etag_change() {
            self.invalidate_cached_spans();
        }
        Ok(())
    }

    /// Drops every page this blob has cached (no-op without a bound
    /// cache), metering the removals as `cache_invalidations`. Returns how
    /// many pages were dropped.
    pub fn invalidate_cached_spans(&self) -> u64 {
        let Some(b) = self.cache.get() else { return 0 };
        let n = b.cache.invalidate_object(b.object);
        if n > 0 {
            self.client.counters.add_cache_invalidations(n);
        }
        n
    }

    /// One pass of the span-batch fetch. Uncached, the spans themselves go
    /// to the coalescer and are lent out of the GET bodies. With a cache
    /// bound, the spans are mapped to their covering pages, resident pages
    /// are subtracted, the *missing pages* go to the same coalescer
    /// (adjacent pages have gap 0, so they merge up to the part size) and
    /// are offered to the cache under `mode`; a span is then lent from the
    /// GET body or the resident page that holds all of it, and stitched
    /// together page by page only when none does. Returns the batch and
    /// whether any page was served from the cache.
    fn lend_attempt(&self, spans: &[(u64, u64)], mode: CacheMode) -> Result<(SpanBatch, bool)> {
        for &(off, len) in spans {
            if off.checked_add(len).is_none_or(|end| end > self.len) {
                return Err(PaiError::internal(format!(
                    "span {off}+{len} exceeds the {}-byte remote object",
                    self.len
                )));
            }
        }
        let Some(b) = self.cache.get() else {
            let got = self.fetch_coalesced(spans, mode)?;
            let at = spans.iter().zip(&got.at);
            let at = at
                .map(|(&(_, len), &(g, a))| (g, a, len as usize))
                .collect();
            let bufs = got.bodies.into_iter().map(Arc::new).collect();
            return Ok((SpanBatch { bufs, at }, false));
        };
        let counters = &self.client.counters;
        let mut pages: Vec<u64> = spans
            .iter()
            .filter(|&&(_, len)| len > 0)
            .flat_map(|&(off, len)| off / PAGE_BYTES..=(off + len - 1) / PAGE_BYTES)
            .collect();
        pages.sort_unstable();
        pages.dedup();
        let resident: Vec<Option<Page>> = pages
            .iter()
            .map(|&page| b.cache.lookup(b.object, page))
            .collect();
        let missing: Vec<usize> = (0..pages.len())
            .filter(|&k| resident[k].is_none())
            .collect();
        let hits = pages.len() - missing.len();
        counters.add_cache_hits(hits as u64);
        counters.add_cache_misses(missing.len() as u64);
        let page_span = |k: usize| {
            let off = pages[k] * PAGE_BYTES;
            (off, PAGE_BYTES.min(self.len - off))
        };
        let wanted: Vec<(u64, u64)> = missing.iter().map(|&k| page_span(k)).collect();
        let got = self.fetch_coalesced(&wanted, mode)?;
        // Where a missing page's bytes are: the GET body and the offset.
        let mut fetched: Vec<Option<(usize, usize)>> = vec![None; pages.len()];
        for (&k, &at) in missing.iter().zip(&got.at) {
            fetched[k] = Some(at);
        }
        let page_bytes = |k: usize| match (&resident[k], fetched[k]) {
            (Some(page), _) => page.as_slice(),
            (None, Some((g, a))) => &got.bodies[g][a..a + page_span(k).1 as usize],
            (None, None) => unreachable!("a page is resident or was just fetched"),
        };
        for &k in &missing {
            let bytes = page_bytes(k);
            let copy = || Arc::new(bytes.to_vec());
            b.cache
                .admit_with(b.object, pages[k], bytes.len() as u64, mode, counters, copy);
        }
        // The GET bodies are the batch's first buffers; resident pages and
        // stitched spans follow as spans ask for them.
        let n_bodies = got.bodies.len();
        let mut extra: Vec<Page> = Vec::new();
        let mut lent_page = vec![usize::MAX; pages.len()];
        let at = spans
            .iter()
            .map(|&(off, len)| {
                let (a, len) = ((off % PAGE_BYTES) as usize, len as usize);
                if len == 0 {
                    return (0, 0, 0);
                }
                // The span's covering pages sit consecutively in `pages`.
                let k0 = pages.partition_point(|&page| page < off / PAGE_BYTES);
                match (&resident[k0], fetched[k0]) {
                    // A scan's case: the run was fetched whole.
                    (_, Some((g, page_at))) if page_at + a + len <= got.bodies[g].len() => {
                        return (g, page_at + a, len);
                    }
                    (Some(page), _) if a + len <= page.len() => {
                        if lent_page[k0] == usize::MAX {
                            lent_page[k0] = n_bodies + extra.len();
                            extra.push(Arc::clone(page));
                        }
                        return (lent_page[k0], a, len);
                    }
                    _ => {}
                }
                // Straddles a resident page and a fetched one, or two GETs.
                let mut buf = Vec::with_capacity(len);
                let (mut a, mut k) = (a, k0);
                while buf.len() < len {
                    let page = page_bytes(k);
                    let n = (page.len() - a).min(len - buf.len());
                    buf.extend_from_slice(&page[a..a + n]);
                    (a, k) = (0, k + 1);
                }
                extra.push(Arc::new(buf));
                (n_bodies + extra.len() - 1, 0, len)
            })
            .collect();
        let mut bufs: Vec<Page> = got.bodies.into_iter().map(Arc::new).collect();
        bufs.append(&mut extra);
        Ok((SpanBatch { bufs, at }, hits > 0))
    }

    /// Fetches `(offset, len)` requests — a caller's spans, or the pages a
    /// cached batch is missing — in as few ranged GETs as the options and
    /// the batch's `mode` allow (see [`HttpBlob::lend_spans`]).
    fn fetch_coalesced(&self, reqs: &[(u64, u64)], mode: CacheMode) -> Result<Fetched> {
        let opts = &self.client.opts;
        let mut idx: Vec<usize> = (0..reqs.len()).filter(|&i| reqs[i].1 > 0).collect();
        idx.sort_by_key(|&i| reqs[i].0);
        let part = match mode {
            CacheMode::Admit => opts.part_bytes,
            CacheMode::Stream => opts.part_bytes.max(PART_CEILING),
        };
        // Greedy merge over offset-sorted requests: bridge gaps up to
        // `COALESCE_GAP`, stop growing a GET at the batch's part size.
        let mut groups: Vec<(u64, u64)> = Vec::new();
        let mut at = vec![(0usize, 0usize); reqs.len()];
        for &i in &idx {
            let (off, len) = reqs[i];
            let end = off + len;
            match groups.last_mut() {
                Some((g_start, g_end))
                    if opts.coalesce
                        && off <= g_end.saturating_add(COALESCE_GAP)
                        && end.max(*g_end) - *g_start <= part =>
                {
                    *g_end = (*g_end).max(end);
                }
                _ => groups.push((off, end)),
            }
            let g = groups.len() - 1;
            at[i] = (g, (off - groups[g].0) as usize);
        }
        let mut bodies: Vec<Vec<u8>> = vec![Vec::new(); groups.len()];
        if !groups.is_empty() {
            let wall = Instant::now();
            let result = self.fetch_groups(&groups, &mut bodies);
            self.client
                .counters
                .add_fetch_wall_us(wall.elapsed().as_micros() as u64);
            result?;
        }
        Ok(Fetched { bodies, at })
    }

    /// Fetches every merged group's body. Sequential when one worker
    /// suffices; otherwise a bounded scoped worker pool overlaps the GETs
    /// and the calling thread files completed bodies off a channel as they
    /// land. Either way every group is fetched exactly once, and on failure
    /// the remaining workers stop claiming new groups, the channel drains,
    /// and the first error surfaces.
    fn fetch_groups(&self, groups: &[(u64, u64)], bodies: &mut [Vec<u8>]) -> Result<()> {
        let counters = &self.client.counters;
        let workers = self.client.opts.fetch_workers.min(groups.len()).max(1);
        if workers == 1 {
            counters.note_fetch_inflight(1);
            for (&(g_start, g_end), body) in groups.iter().zip(bodies) {
                let t0 = Instant::now();
                *body = self.fetch(g_start, g_end - g_start)?;
                counters.add_fetch_request_us(t0.elapsed().as_micros() as u64);
            }
            return Ok(());
        }
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let inflight = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<Vec<u8>>)>();
        std::thread::scope(|s| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (next, abort, inflight) = (&next, &abort, &inflight);
                s.spawn(move || loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let g = next.fetch_add(1, Ordering::Relaxed);
                    if g >= groups.len() {
                        break;
                    }
                    let now = inflight.fetch_add(1, Ordering::Relaxed) + 1;
                    counters.note_fetch_inflight(now as u64);
                    let (g_start, g_end) = groups[g];
                    let t0 = Instant::now();
                    let res = self.fetch(g_start, g_end - g_start);
                    counters.add_fetch_request_us(t0.elapsed().as_micros() as u64);
                    inflight.fetch_sub(1, Ordering::Relaxed);
                    if res.is_err() {
                        abort.store(true, Ordering::Relaxed);
                    }
                    if tx.send((g, res)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            // The channel closes once every worker has exited, so this
            // drains all outstanding work even after a failure.
            let mut first_err = None;
            while let Ok((g, res)) = rx.recv() {
                match res {
                    Ok(bytes) => bodies[g] = bytes,
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
            match first_err {
                Some(e) => Err(e),
                None => Ok(()),
            }
        })
    }
}

/// Buffered sequential `Read + Seek` over a remote blob, used to decode
/// file headers at open time. Reads ahead one part per miss so a
/// header decode costs a handful of GETs, not one per field.
pub struct BlobReader<'a> {
    blob: &'a HttpBlob,
    pos: u64,
    buf: Vec<u8>,
    buf_start: u64,
}

impl<'a> BlobReader<'a> {
    /// A reader positioned at byte 0, primed with the blob's open-time
    /// prefix so short headers decode with zero additional GETs.
    pub fn new(blob: &'a HttpBlob) -> Self {
        BlobReader {
            blob,
            pos: 0,
            buf: blob.prefix().to_vec(),
            buf_start: 0,
        }
    }
}

impl Read for BlobReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if out.is_empty() || self.pos >= self.blob.len() {
            return Ok(0);
        }
        let in_buf =
            self.pos >= self.buf_start && self.pos < self.buf_start + self.buf.len() as u64;
        if !in_buf {
            let chunk = self
                .blob
                .options()
                .part_bytes
                .clamp(4096, 1 << 20)
                .min(self.blob.len() - self.pos);
            self.buf = self
                .blob
                .fetch(self.pos, chunk)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            self.buf_start = self.pos;
        }
        let at = (self.pos - self.buf_start) as usize;
        let n = out.len().min(self.buf.len() - at);
        out[..n].copy_from_slice(&self.buf[at..at + n]);
        self.pos += n as u64;
        Ok(n)
    }
}

impl Seek for BlobReader<'_> {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        let target = match pos {
            SeekFrom::Start(p) => p as i128,
            SeekFrom::Current(d) => self.pos as i128 + d as i128,
            SeekFrom::End(d) => self.blob.len() as i128 + d as i128,
        };
        if target < 0 {
            return Err(std::io::Error::other("seek before byte 0"));
        }
        self.pos = target as u64;
        Ok(self.pos)
    }
}

/// A raw file whose bytes live in a remote object store, fetched with
/// coalesced, retried HTTP range requests. See the module docs.
///
/// Cloning is cheap; clones share the connection pool and every meter.
#[derive(Debug, Clone)]
pub struct HttpFile {
    zone: ZoneFile,
    blob: Arc<HttpBlob>,
}

impl HttpFile {
    /// Opens the object `object` on the store at `addr` as a PaiZone image;
    /// an object that is not one is an error.
    pub fn open(
        addr: impl ToSocketAddrs,
        object: impl Into<String>,
        opts: HttpOptions,
    ) -> Result<HttpFile> {
        let blob = Arc::new(HttpBlob::open(addr, object, opts, IoCounters::new())?);
        let zone = ZoneFile::open_remote(Arc::clone(&blob))?;
        Ok(HttpFile { zone, blob })
    }
}

impl RawFile for HttpFile {
    fn schema(&self) -> &Schema {
        self.zone.schema()
    }

    fn counters(&self) -> &IoCounters {
        self.zone.counters()
    }

    fn size_bytes(&self) -> u64 {
        self.zone.size_bytes()
    }

    fn scan_batches(
        &self,
        request: &ScanRequest<'_>,
        handler: &mut BatchHandler<'_>,
    ) -> Result<()> {
        self.zone.scan_batches(request, handler)
    }

    fn read_rows_into(
        &self,
        locators: &[RowLocator],
        attrs: &[AttrId],
        window: Option<&Rect>,
        out: &mut RowBatch,
    ) -> Result<()> {
        self.zone.read_rows_into(locators, attrs, window, out)
    }

    fn inner(&self) -> Option<&dyn RawFile> {
        Some(&self.zone)
    }

    fn attach_cache(&self, cache: Arc<BlockCache>) -> bool {
        self.blob.attach_cache(cache)
    }

    fn invalidate_cache(&self) -> u64 {
        self.blob.invalidate_cached_spans()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, CachedFile};
    use crate::netio::MAX_HEAD_LINE;
    use crate::objstore::{Fault, FaultPlan, ObjectStore};
    use crate::zone::encode_zone_rows_with;
    use crate::Schema;

    /// Rows striped so consecutive 4-row blocks cover disjoint x ranges.
    fn striped_rows(n: u64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![i as f64, (i % 7) as f64, i as f64 * 10.0])
            .collect()
    }

    fn zone_bytes(n: u64, block_rows: u32) -> Vec<u8> {
        encode_zone_rows_with(&Schema::synthetic(3), striped_rows(n), block_rows).unwrap()
    }

    fn serve_zone(n: u64, block_rows: u32) -> (ObjectStore, ZoneFile) {
        let store = ObjectStore::serve().unwrap();
        store.put("data.paizone", zone_bytes(n, block_rows));
        let local =
            ZoneFile::from_rows_with_block(&Schema::synthetic(3), striped_rows(n), block_rows)
                .unwrap();
        (store, local)
    }

    fn collect_rows(f: &dyn RawFile) -> Vec<(u64, Vec<f64>)> {
        let mut rows = Vec::new();
        f.scan(&mut |_, loc, rec| {
            let mut vals = Vec::new();
            rec.extract_f64(&[0, 1, 2], &mut vals)?;
            rows.push((loc.raw(), vals));
            Ok(())
        })
        .unwrap();
        rows
    }

    #[test]
    fn http_zone_round_trips_scans_and_reads() {
        let (store, local) = serve_zone(64, 4);
        let f = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        assert_eq!(f.schema().len(), 3);
        assert_eq!(f.size_bytes(), local.size_bytes());
        assert_eq!(collect_rows(&f), collect_rows(&local), "scan parity");

        let locs: Vec<RowLocator> = [3u64, 40, 41, 7]
            .iter()
            .map(|&r| RowLocator::new(r))
            .collect();
        assert_eq!(
            f.read_rows(&locs, &[2, 0]).unwrap(),
            local.read_rows(&locs, &[2, 0]).unwrap(),
            "positional parity"
        );
        assert!(f.counters().http_requests() > 0, "requests metered");
        assert!(f.counters().http_bytes() > 0, "wire bytes metered");
        assert_eq!(f.counters().retries(), 0, "no faults, no retries");
        // Logical meters match the local twin exactly (scan + read).
        assert_eq!(f.counters().objects_read(), local.counters().objects_read());
        assert_eq!(f.counters().bytes_read(), local.counters().bytes_read());
        assert_eq!(f.counters().blocks_read(), local.counters().blocks_read());
    }

    /// A well-formed image of the fixed-stride `PAIBIN01` format the
    /// library once also read: two columns `x`, `y` (the axes), two rows.
    fn paibin_image() -> Vec<u8> {
        let mut out = b"PAIBIN01".to_vec();
        for word in [2u32, 0, 1] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(&2u64.to_le_bytes());
        for name in [b"x", b"y"] {
            out.extend_from_slice(&1u16.to_le_bytes());
            out.extend_from_slice(name);
        }
        for v in [1.0f64, 2.0, 3.0, 4.0] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    #[test]
    fn unknown_or_foreign_objects_fail_cleanly() {
        let store = ObjectStore::serve().unwrap();
        assert!(HttpFile::open(store.addr(), "missing", HttpOptions::default()).is_err());
        // Anything but a PaiZone image is refused by its magic: prose, a
        // `PAIBIN01` image, CSV, an object too short to hold a magic.
        let foreign = [
            (
                "not-a-pai-file",
                b"hello world, definitely not columnar".to_vec(),
            ),
            ("paibin", paibin_image()),
            ("csv", b"x,y,v\n1,2,3\n4,5,6\n".to_vec()),
            ("tiny", b"PAI".to_vec()),
        ];
        for (object, bytes) in foreign {
            store.put(object, bytes);
            let err = HttpFile::open(store.addr(), object, HttpOptions::default()).unwrap_err();
            assert!(err.to_string().contains("PaiZone"), "{object}: {err}");
        }
    }

    #[test]
    fn coalescing_issues_fewer_requests_than_naive_for_identical_answers() {
        let (store, local) = serve_zone(256, 4);
        let naive = HttpFile::open(store.addr(), "data.paizone", HttpOptions::naive()).unwrap();
        let before = store.requests_served();
        let naive_rows = collect_rows(&naive);
        let naive_reqs = store.requests_served() - before;

        let coalesced =
            HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        let before = store.requests_served();
        let client_before = coalesced.counters().http_requests();
        let coalesced_rows = collect_rows(&coalesced);
        let coalesced_reqs = store.requests_served() - before;

        assert_eq!(naive_rows, coalesced_rows, "same rows either way");
        assert_eq!(naive_rows, collect_rows(&local), "and both match local");
        assert!(
            coalesced_reqs < naive_reqs,
            "coalescing must merge adjacent block spans: {coalesced_reqs} vs {naive_reqs}"
        );
        // Client-side meters agree with the server's request count.
        assert_eq!(
            coalesced.counters().http_requests() - client_before,
            coalesced_reqs
        );
    }

    #[test]
    fn pushdown_skips_translate_into_never_issued_requests() {
        let (store, local) = serve_zone(256, 4);
        let f = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        let window = Rect::new(100.0, 120.0, -1.0, 8.0); // rows 100..120 of 256
        let served_before = store.requests_served();
        let request = ScanRequest {
            window: Some(&window),
            ..ScanRequest::whole(&[0, 1, 2])
        };
        let rows = crate::raw::scanned_rows(&f, &request).unwrap();
        let filtered_reqs = store.requests_served() - served_before;
        assert!(rows.iter().all(|(r, _)| (100..120).contains(r)));
        assert!(f.counters().blocks_skipped() > 0, "zone maps pruned");

        // The same scan without the window costs strictly more requests.
        let served_before = store.requests_served();
        f.scan(&mut |_, _, _| Ok(())).unwrap();
        let full_reqs = store.requests_served() - served_before;
        assert!(
            filtered_reqs < full_reqs,
            "skipped blocks must be GETs never issued: {filtered_reqs} vs {full_reqs}"
        );

        // Windowed positional reads agree with the local twin bit-for-bit.
        let locs: Vec<RowLocator> = (0..8).chain(100..108).map(RowLocator::new).collect();
        let remote = crate::batch::read_window(&f, &locs, &[2], Some(&window));
        let expect = crate::batch::read_window(&local, &locs, &[2], Some(&window));
        assert_eq!(remote.len(), expect.len());
        for (r, e) in remote.values().iter().zip(expect.values()) {
            assert_eq!(r.to_bits(), e.to_bits(), "NaN-exact parity");
        }
    }

    #[test]
    fn transient_5xx_is_retried_and_metered() {
        let (store, local) = serve_zone(64, 4);
        let f = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        store.push_fault(Fault::Status5xx);
        let locs: Vec<RowLocator> = (10..14).map(RowLocator::new).collect();
        let vals = f.read_rows(&locs, &[2]).unwrap();
        assert_eq!(vals, local.read_rows(&locs, &[2]).unwrap());
        assert_eq!(f.counters().retries(), 1, "one 5xx, one retry");
        assert_eq!(store.faults_injected(), 1);
    }

    #[test]
    fn short_read_mid_block_is_retried() {
        let (store, local) = serve_zone(64, 4);
        let f = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        store.push_fault(Fault::ShortRead);
        let locs: Vec<RowLocator> = (0..64).map(RowLocator::new).collect();
        assert_eq!(
            f.read_rows(&locs, &[0, 1, 2]).unwrap(),
            local.read_rows(&locs, &[0, 1, 2]).unwrap()
        );
        assert!(f.counters().retries() >= 1);
    }

    #[test]
    fn connection_drop_between_coalesced_ranges_is_retried() {
        let (store, local) = serve_zone(256, 4);
        let f = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        // A full scan issues several coalesced GETs; kill the connection
        // between two of them.
        store.push_fault(Fault::Drop);
        assert_eq!(collect_rows(&f), collect_rows(&local));
        assert!(f.counters().retries() >= 1, "the dropped GET was retried");
    }

    #[test]
    fn persistent_faults_exhaust_retries_and_surface() {
        let store = ObjectStore::serve_with(
            std::time::Duration::ZERO,
            FaultPlan::Periodic {
                fault: Fault::Status5xx,
                every: 1, // every request fails, forever
            },
        )
        .unwrap();
        store.put("data.paizone", zone_bytes(16, 4));
        let opts = HttpOptions {
            max_retries: 2,
            backoff: Duration::ZERO,
            ..HttpOptions::default()
        };
        let err = HttpFile::open(store.addr(), "data.paizone", opts).unwrap_err();
        assert!(err.to_string().contains("after 2 retries"), "{err}");
    }

    #[test]
    fn blob_read_spans_coalesces_by_gap_and_part() {
        let store = ObjectStore::serve().unwrap();
        store.put("blob", (0..=255u8).cycle().take(4096).collect::<Vec<u8>>());
        let opts = HttpOptions {
            part_bytes: 1024,
            ..HttpOptions::default()
        };
        let blob = HttpBlob::open(store.addr(), "blob", opts, IoCounters::new()).unwrap();
        assert_eq!(blob.len(), 4096);
        let probe_reqs = blob.counters().http_requests();

        // Three spans, gaps of exactly the bridgeable gap: one merged GET.
        let step = 32 + COALESCE_GAP;
        let spans = [(0u64, 32u64), (step, 32), (2 * step, 32)];
        let bufs = blob.read_spans(&spans).unwrap();
        assert_eq!(blob.counters().http_requests() - probe_reqs, 1);
        for (&(off, len), buf) in spans.iter().zip(&bufs) {
            assert_eq!(buf.len() as u64, len);
            assert_eq!(buf[0], (off % 256) as u8, "correct slice out of the merge");
        }

        // A gap one byte beyond it splits the request.
        let before = blob.counters().http_requests();
        blob.read_spans(&[(0, 32), (step + 1, 32)]).unwrap();
        assert_eq!(blob.counters().http_requests() - before, 2);

        // The part-size cap stops a merge from growing unboundedly.
        let before = blob.counters().http_requests();
        blob.read_spans(&[(0, 900), (900, 900)]).unwrap();
        assert_eq!(
            blob.counters().http_requests() - before,
            2,
            "1800 > part_bytes: two GETs"
        );

        // Out-of-range spans are errors, not truncated reads.
        assert!(blob.read_spans(&[(4000, 200)]).is_err());

        // Unsorted and duplicate spans come back in input order.
        let bufs = blob.read_spans(&[(64, 8), (0, 8), (64, 8)]).unwrap();
        assert_eq!(bufs[0], bufs[2]);
        assert_eq!(bufs[1][0], 0);
    }

    #[test]
    fn overlapped_read_spans_matches_sequential_with_identical_requests() {
        let store = ObjectStore::serve_with(Duration::from_millis(2), FaultPlan::Off).unwrap();
        store.put("blob", (0..=255u8).cycle().take(8192).collect::<Vec<u8>>());
        let opts = HttpOptions {
            part_bytes: 256,
            ..HttpOptions::default()
        };
        // Eight spans further apart than the bridgeable gap: eight groups.
        let spans: Vec<(u64, u64)> = (0..8).map(|i| (i * (64 + 3 * COALESCE_GAP), 64)).collect();

        let seq = HttpBlob::open(store.addr(), "blob", opts.clone(), IoCounters::new()).unwrap();
        let seq_before = seq.counters().http_requests();
        let seq_bufs = seq.read_spans(&spans).unwrap();
        let seq_reqs = seq.counters().http_requests() - seq_before;
        assert_eq!(seq.counters().fetch_inflight_peak(), 1, "sequential peak");
        assert!(seq.counters().fetch_wall_us() > 0);

        let ovl = HttpBlob::open(
            store.addr(),
            "blob",
            opts.with_fetch_workers(4),
            IoCounters::new(),
        )
        .unwrap();
        let ovl_before = ovl.counters().http_requests();
        let ovl_bufs = ovl.read_spans(&spans).unwrap();
        let ovl_reqs = ovl.counters().http_requests() - ovl_before;

        assert_eq!(seq_bufs, ovl_bufs, "same bytes at every worker count");
        assert_eq!(seq_reqs, ovl_reqs, "same GETs at every worker count");
        assert_eq!(seq_reqs, 8);
        // With 4 workers and 2ms-per-request latency the pool is saturated
        // almost immediately; at least two requests overlap.
        assert!(
            ovl.counters().fetch_inflight_peak() >= 2,
            "workers overlapped: peak {}",
            ovl.counters().fetch_inflight_peak()
        );
        assert!(
            ovl.counters().fetch_request_us() > ovl.counters().fetch_wall_us(),
            "summed request time exceeds wall time when requests overlap"
        );
    }

    #[test]
    fn naive_and_coalesced_meter_retries_identically() {
        // The naive client is single-span groups through the same
        // group-fetch path; a scripted fault costs exactly one metered
        // retry in both modes, for identical answers.
        let (store, local) = serve_zone(64, 4);
        let locs: Vec<RowLocator> = (10..14).map(RowLocator::new).collect();
        let expect = local.read_rows(&locs, &[2]).unwrap();

        let naive = HttpFile::open(store.addr(), "data.paizone", HttpOptions::naive()).unwrap();
        store.push_fault(Fault::Status5xx);
        assert_eq!(naive.read_rows(&locs, &[2]).unwrap(), expect);
        assert_eq!(naive.counters().retries(), 1, "naive meters the retry");

        let coalesced =
            HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        store.push_fault(Fault::Status5xx);
        assert_eq!(coalesced.read_rows(&locs, &[2]).unwrap(), expect);
        assert_eq!(
            coalesced.counters().retries(),
            naive.counters().retries(),
            "identical retry metering in both modes"
        );
    }

    #[test]
    fn overlapped_fetch_survives_midstream_faults() {
        // Faults landing on group N while group N+1 is in flight: bounded
        // retry, no lost or duplicated spans, identical bytes.
        let store = ObjectStore::serve().unwrap();
        let payload: Vec<u8> = (0..=255u8).cycle().take(16384).collect();
        store.put("blob", payload.clone());
        let opts = HttpOptions {
            part_bytes: 256,
            backoff: Duration::ZERO,
            ..HttpOptions::default()
        }
        .with_fetch_workers(4);
        let blob = HttpBlob::open(store.addr(), "blob", opts, IoCounters::new()).unwrap();
        // Twelve spans further apart than the bridgeable gap: twelve groups.
        let spans: Vec<(u64, u64)> = (0..12)
            .map(|i| (i * (128 + 4 * COALESCE_GAP), 128))
            .collect();
        store.push_fault(Fault::Status5xx);
        store.push_fault(Fault::Drop);
        store.push_fault(Fault::ShortRead);
        let bufs = blob.read_spans(&spans).unwrap();
        for (&(off, len), buf) in spans.iter().zip(&bufs) {
            assert_eq!(buf.as_slice(), &payload[off as usize..(off + len) as usize]);
        }
        assert!(blob.counters().retries() >= 3, "every fault was retried");
    }

    #[test]
    fn overlapped_fetch_surfaces_exhausted_retries_without_hanging() {
        let store = ObjectStore::serve_with(
            Duration::ZERO,
            FaultPlan::Periodic {
                fault: Fault::Status5xx,
                every: 1,
            },
        )
        .unwrap();
        store.put("blob", vec![7u8; 8192]);
        let opts = HttpOptions {
            max_retries: 1,
            backoff: Duration::ZERO,
            part_bytes: 256,
            ..HttpOptions::default()
        }
        .with_fetch_workers(4);
        // Opening itself retries; build the blob against a healthy store
        // first, then poison the plan via a fresh store is impossible —
        // so tolerate the open failing loudly instead.
        match HttpBlob::open(store.addr(), "blob", opts, IoCounters::new()) {
            Err(e) => assert!(e.to_string().contains("retries"), "{e}"),
            Ok(blob) => {
                let spans: Vec<(u64, u64)> =
                    (0..8).map(|i| (i * (64 + 3 * COALESCE_GAP), 64)).collect();
                let err = blob.read_spans(&spans).unwrap_err();
                assert!(err.to_string().contains("retries"), "{err}");
            }
        }
    }

    #[test]
    fn empty_and_zero_length_spans_cost_nothing() {
        let store = ObjectStore::serve().unwrap();
        store.put("blob", vec![5u8; 64]);
        let blob = HttpBlob::open(
            store.addr(),
            "blob",
            HttpOptions::default(),
            IoCounters::new(),
        )
        .unwrap();
        let before = blob.counters().http_requests();
        assert!(blob.read_spans(&[]).unwrap().is_empty());
        let bufs = blob.read_spans(&[(0, 0)]).unwrap();
        assert!(bufs[0].is_empty());
        assert_eq!(blob.counters().http_requests(), before, "no GETs issued");
    }

    #[test]
    fn connections_are_reused_across_requests() {
        let (store, _) = serve_zone(64, 4);
        let f = HttpFile::open(store.addr(), "data.paizone", HttpOptions::naive()).unwrap();
        let locs: Vec<RowLocator> = (0..32).map(RowLocator::new).collect();
        f.read_rows(&locs, &[2]).unwrap();
        f.read_rows(&locs, &[0]).unwrap();
        assert!(
            f.counters().http_requests() > 4,
            "sanity: many GETs happened"
        );
        // No server-side way to count connections directly, but the pool
        // keeps at most a handful open; assert the blob answered everything
        // without error and the pool is bounded.
        assert!(f.blob.client.pool.lock().unwrap().len() <= 8);
    }

    #[test]
    fn cached_blob_serves_repeat_reads_without_gets() {
        let (store, local) = serve_zone(256, 4);
        let cached = CachedFile::with_config(
            Box::new(HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap()),
            CacheConfig::new(1 << 20, 0),
        );
        let uncached =
            HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        let locs: Vec<RowLocator> = (40..80).map(RowLocator::new).collect();

        // Cold: the request pattern is page-aligned, and never costs more
        // GETs than the uncached client on the same batch.
        let b0 = cached.counters().http_requests();
        let u0 = uncached.counters().http_requests();
        let cold = cached.read_rows(&locs, &[0, 2]).unwrap();
        let expect = uncached.read_rows(&locs, &[0, 2]).unwrap();
        assert_eq!(cold, expect);
        assert_eq!(cold, local.read_rows(&locs, &[0, 2]).unwrap());
        let cold_gets = cached.counters().http_requests() - b0;
        assert!(
            (1..=uncached.counters().http_requests() - u0).contains(&cold_gets),
            "cold run: never more GETs than uncached ({cold_gets})"
        );
        // Nothing was resident: a cold hit can only be a page an earlier
        // column's batch of the same read fetched (both columns' runs may
        // share a page).
        let (cold_hits, cold_misses) = (
            cached.counters().cache_hits(),
            cached.counters().cache_misses(),
        );
        assert!(cold_misses > 0);

        // Warm: every span hits, zero GETs issued, identical bytes.
        let b1 = cached.counters().http_requests();
        let warm = cached.read_rows(&locs, &[0, 2]).unwrap();
        assert_eq!(warm, cold, "cache returns byte-identical values");
        assert_eq!(
            cached.counters().http_requests() - b1,
            0,
            "fully-cached batch does zero HTTP work"
        );
        assert_eq!(cached.counters().cache_misses(), cold_misses);
        assert_eq!(
            cached.counters().cache_hits() - cold_hits,
            cold_hits + cold_misses,
            "the cold run's page lookups again, every one a hit"
        );
        // Logical meters are cache-blind: both runs metered the same
        // objects and bytes.
        assert_eq!(
            cached.counters().objects_read(),
            uncached.counters().objects_read() * 2
        );
        // Uncached clients report no cache traffic at all.
        assert_eq!(uncached.counters().cache_hits(), 0);
        assert_eq!(uncached.counters().cache_misses(), 0);
    }

    #[test]
    fn mutated_object_invalidates_cached_spans_instead_of_serving_stale() {
        // Three pages and a short tail, so a batch can mix a resident page
        // with a missing one.
        let len = 3 * PAGE_BYTES as usize + 500;
        let store = ObjectStore::serve().unwrap();
        store.put("blob", vec![0xAAu8; len]);
        let blob = HttpBlob::open(
            store.addr(),
            "blob",
            HttpOptions::default(),
            IoCounters::new(),
        )
        .unwrap();
        blob.attach_cache(Arc::new(BlockCache::new(CacheConfig::new(1 << 20, 0))));

        // Pages 0 and 1 (the second span straddles their boundary).
        let spans = [(0u64, 64u64), (PAGE_BYTES - 32, 64), (PAGE_BYTES + 512, 64)];
        let cold = blob.read_spans(&spans).unwrap();
        assert!(cold.iter().all(|b| b.iter().all(|&x| x == 0xAA)));
        assert_eq!(blob.counters().cache_misses(), 2, "metered per page");
        let before = blob.counters().http_requests();
        blob.read_spans(&spans).unwrap();
        assert_eq!(
            blob.counters().http_requests() - before,
            0,
            "precondition: fully cached, zero GETs"
        );
        assert_eq!(blob.counters().cache_hits(), 2);

        // Replace the object mid-session. The next batch mixes resident
        // pages with one missing page (the short last one); the miss's GET
        // reveals the new ETag, every cached page is dropped, and the
        // batch refetches — the caller never sees old-generation bytes
        // next to new ones.
        store.put("blob", vec![0xBBu8; len]);
        let mixed = [(0u64, 64u64), (PAGE_BYTES - 32, 64), (len as u64 - 64, 64)];
        let bufs = blob.read_spans(&mixed).unwrap();
        assert_eq!(bufs.iter().map(Vec::len).sum::<usize>(), 192);
        assert!(
            bufs.iter().all(|b| b.iter().all(|&x| x == 0xBB)),
            "stale cached pages must miss, not lie"
        );
        assert!(
            blob.counters().cache_invalidations() > 0,
            "invalidation metered"
        );

        // The cache is coherent again: a warm repeat serves the new
        // generation with zero GETs.
        let before = blob.counters().http_requests();
        let again = blob.read_spans(&mixed).unwrap();
        assert_eq!(again, bufs);
        assert_eq!(blob.counters().http_requests() - before, 0);
    }

    #[test]
    fn revalidate_ttl_catches_mutation_on_fully_cached_batches() {
        let store = ObjectStore::serve().unwrap();
        store.put("blob", vec![0x11u8; 2048]);
        // Probe every batch.
        let opts = HttpOptions::default().with_revalidate_ttl(Some(Duration::ZERO));
        let blob = HttpBlob::open(store.addr(), "blob", opts, IoCounters::new()).unwrap();
        blob.attach_cache(Arc::new(BlockCache::new(CacheConfig::new(1 << 20, 0))));
        let spans = [(0u64, 64u64), (128, 64)];
        blob.read_spans(&spans).unwrap();

        store.put("blob", vec![0x22u8; 2048]);
        // Every span is cached, so without the TTL probe no GET would ever
        // observe the new generation.
        let bufs = blob.read_spans(&spans).unwrap();
        assert!(
            bufs.iter().all(|b| b.iter().all(|&x| x == 0x22)),
            "TTL probe must catch the replaced object"
        );
        assert!(blob.counters().cache_invalidations() > 0);
    }

    #[test]
    fn shared_cache_spans_files_opening_the_same_object() {
        let (store, _) = serve_zone(64, 4);
        let cache = Arc::new(BlockCache::new(CacheConfig::new(1 << 20, 0)));
        let a = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        let b = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        assert!(a.attach_cache(Arc::clone(&cache)));
        assert!(b.attach_cache(Arc::clone(&cache)), "b binds the same cache");
        assert!(!a.attach_cache(Arc::clone(&cache)), "at most one per file");

        let locs: Vec<RowLocator> = (0..16).map(RowLocator::new).collect();
        let va = a.read_rows(&locs, &[2]).unwrap();
        // b's reads hit what a admitted: same object name, same entries.
        let before = b.counters().http_requests();
        let vb = b.read_rows(&locs, &[2]).unwrap();
        assert_eq!(va, vb);
        assert_eq!(b.counters().http_requests() - before, 0);
        assert!(b.counters().cache_hits() > 0);
    }

    // ---- A scan's request pattern, as counts (`fetch_workers = 1`) ----

    const SCAN_BLOCKS: u64 = 40;
    const ZONE_BLOCK_ROWS: u32 = 1024;

    /// Three wide columns (every block of each some kilobytes, so the
    /// columns' runs lie far apart), `x` confined per block to one of four
    /// bands of 1 000 so a window over band 0 keeps every fourth block.
    fn wide_rows(block_rows: u64) -> Vec<Vec<f64>> {
        (0..SCAN_BLOCKS * block_rows)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let band = (i / block_rows % 4) as f64 * 1000.0;
                vec![
                    band + (h >> 44) as f64 / 1048.576,
                    (h >> 24 & 0xFFFF_FFFF) as f64,
                    (h & 0xFF_FFFF) as f64,
                ]
            })
            .collect()
    }

    /// The fixture as an image to serve and its local twin.
    fn wide_image() -> (Vec<u8>, Box<dyn RawFile>) {
        let schema = Schema::synthetic(3);
        let rows = wide_rows(ZONE_BLOCK_ROWS as u64);
        let image = encode_zone_rows_with(&schema, rows.clone(), ZONE_BLOCK_ROWS).unwrap();
        let local = ZoneFile::from_rows_with_block(&schema, rows, ZONE_BLOCK_ROWS).unwrap();
        (image, Box::new(local))
    }

    fn scan_opts(part_bytes: u64) -> HttpOptions {
        HttpOptions {
            part_bytes,
            backoff: Duration::ZERO,
            ..HttpOptions::default()
        }
    }

    /// An ample page cache: nothing a test reads is ever evicted.
    fn ample_cache() -> Arc<BlockCache> {
        Arc::new(BlockCache::new(CacheConfig::new(64 << 20, 0)))
    }

    /// The served fixture over HTTP, behind an ample page cache if `cached`.
    fn open_wide(store: &ObjectStore, part_bytes: u64, cached: bool) -> Box<dyn RawFile> {
        let f = Box::new(HttpFile::open(store.addr(), "wide", scan_opts(part_bytes)).unwrap());
        if cached {
            Box::new(CachedFile::new(f, ample_cache()))
        } else {
            f
        }
    }

    /// Scans `f` partition by partition (four of them), returning the rows
    /// and the GETs each partition issued.
    fn scan_by_partition(f: &dyn RawFile) -> (Vec<(u64, Vec<u64>)>, Vec<u64>) {
        let mut rows = Vec::new();
        let mut gets = Vec::new();
        for part in f.partitions(4).unwrap() {
            let before = f.counters().http_requests();
            let request = crate::raw::part_request(part, &[0, 1, 2]);
            for (loc, vals) in crate::raw::scanned_rows(f, &request).unwrap() {
                rows.push((loc, vals.iter().map(|v| v.to_bits()).collect()));
            }
            gets.push(f.counters().http_requests() - before);
        }
        (rows, gets)
    }

    fn logical_meters(f: &dyn RawFile) -> [u64; 4] {
        let c = f.counters();
        [c.bytes_read(), c.seeks(), c.objects_read(), c.blocks_read()]
    }

    #[test]
    fn a_scan_issues_one_get_per_column_run_whatever_the_part_size() {
        let (image, local) = wide_image();
        let store = ObjectStore::serve().unwrap();
        store.put("wide", image);
        let (expect_rows, _) = scan_by_partition(local.as_ref());
        for cached in [false, true] {
            for part_bytes in [4 << 10, 64 << 10, 1 << 20] {
                let label = format!("cached={cached} part_bytes={part_bytes}");
                let f = open_wide(&store, part_bytes, cached);
                let open = f.counters().snapshot();
                let (rows, gets) = scan_by_partition(&f);
                assert!(rows == expect_rows, "{label}: rows differ");
                // Four partitions of ten blocks; a partition's run of one
                // column is contiguous, some tens of kilobytes, and far
                // from the next column's: one GET each, whether the
                // client was told parts of 4 KiB or of 1 MiB, and whether
                // the runs went out as block spans or as 16 KiB pages.
                assert_eq!(gets, [3, 3, 3, 3], "{label}");
                let io = f.counters().snapshot().since(&open);
                assert_eq!(
                    [io.bytes_read, io.seeks, io.objects_read, io.blocks_read],
                    logical_meters(local.as_ref()),
                    "{label}: logical meters"
                );
                assert_eq!(io.retries, 0, "{label}");
            }
        }
    }

    #[test]
    fn a_window_scan_issues_no_get_for_a_skipped_block() {
        let (image, local) = wide_image();
        let store = ObjectStore::serve().unwrap();
        store.put("wide", image);
        // Band 0: blocks 0, 4, 8, …, 36 survive, three skipped between each.
        let window = Rect::new(0.0, 999.5, -1.0, 1e12);
        let scan = |f: &dyn RawFile| {
            let request = ScanRequest {
                window: Some(&window),
                ..ScanRequest::whole(&[0, 1, 2])
            };
            let rows = crate::raw::scanned_rows(f, &request).unwrap();
            rows.into_iter().map(|(loc, _)| loc).collect::<Vec<_>>()
        };
        let expect = scan(local.as_ref());
        assert_eq!(expect.len() as u64, 10 * ZONE_BLOCK_ROWS as u64);
        for part_bytes in [4 << 10, 1 << 20] {
            let f = open_wide(&store, part_bytes, false);
            let open = f.counters().snapshot();
            assert_eq!(scan(&f), expect);
            let io = f.counters().snapshot().since(&open);
            assert_eq!(io.blocks_skipped, 30 * 3);
            // Ten surviving blocks a column, none adjacent to the next: the
            // streaming cap merges nothing across the skipped ones.
            assert_eq!(io.http_requests, 30, "part_bytes={part_bytes}");
            assert!(
                io.http_bytes < io.bytes_read + 30 * 512,
                "only the surviving blocks' bytes (plus heads) crossed the wire: {} for {}",
                io.http_bytes,
                io.bytes_read
            );
            // Page-aligned, the cached client may fetch a little more of each
            // block's neighbours, but no more requests.
            let cached = open_wide(&store, part_bytes, true);
            let open = cached.counters().snapshot();
            assert_eq!(scan(&cached), expect);
            let io = cached.counters().snapshot().since(&open);
            assert!(io.http_requests <= 30, "{} GETs", io.http_requests);
        }
    }

    #[test]
    fn stream_batches_merge_to_the_ceiling_and_positional_ones_to_the_part() {
        let len = (5 * PART_CEILING / 2) as usize;
        let store = ObjectStore::serve().unwrap();
        let payload: Vec<u8> = (0..len).map(|i| ((i * 31) >> 3) as u8).collect();
        store.put("blob", payload.clone());
        // Forty adjacent 64 KiB spans: one run of 2.5 MiB.
        let spans: Vec<(u64, u64)> = (0..40).map(|i| (i * (64 << 10), 64 << 10)).collect();
        for cached in [false, true] {
            for coalesce in [true, false] {
                let opts = HttpOptions {
                    coalesce,
                    ..scan_opts(128 << 10)
                };
                let blob = HttpBlob::open(store.addr(), "blob", opts, IoCounters::new()).unwrap();
                let cache = ample_cache();
                if cached {
                    blob.attach_cache(Arc::clone(&cache));
                }
                let gets = |mode| {
                    let before = blob.counters().http_requests();
                    let batch = blob.lend_spans(&spans, mode).unwrap();
                    for (&(off, n), got) in spans.iter().zip(batch.iter()) {
                        assert!(got == &payload[off as usize..(off + n) as usize]);
                    }
                    blob.counters().http_requests() - before
                };
                let label = format!("cached={cached} coalesce={coalesce}");
                // One GET per span — or per page — without coalescing; with
                // it, ⌈2.5 MiB / 1 MiB⌉ for the scan and 2.5 MiB / 128 KiB
                // for the positional batch, which keeps its pattern.
                let per_request = if cached { 160 } else { 40 };
                let (stream, admit) = if coalesce {
                    (3, 20)
                } else {
                    (per_request, per_request)
                };
                assert_eq!(gets(CacheMode::Stream), stream, "{label}: stream");
                if cached {
                    // The scan's first touch admitted nothing.
                    assert_eq!(cache.entries(), 0, "{label}");
                }
                assert_eq!(gets(CacheMode::Admit), admit, "{label}: positional");
            }
        }
    }

    #[test]
    fn scans_survive_periodic_faults_inside_the_large_gets() {
        let (image, local) = wide_image();
        let (expect_rows, _) = scan_by_partition(local.as_ref());
        for fault in [Fault::ShortRead, Fault::Status5xx, Fault::Drop] {
            let plan = FaultPlan::Periodic { fault, every: 3 };
            let store = ObjectStore::serve_with(Duration::ZERO, plan).unwrap();
            store.put("wide", image.clone());
            for cached in [false, true] {
                let label = format!("{fault:?} cached={cached}");
                let f = open_wide(&store, 64 << 10, cached);
                let open = f.counters().snapshot();
                let (rows, gets) = scan_by_partition(&f);
                assert!(rows == expect_rows, "{label}: rows differ");
                let io = f.counters().snapshot().since(&open);
                assert_eq!(
                    [io.bytes_read, io.seeks, io.objects_read, io.blocks_read],
                    logical_meters(local.as_ref()),
                    "{label}: logical meters"
                );
                // Twelve column runs, every third request faulted: each
                // failed attempt is one metered retry on top of them.
                assert!(io.retries >= 4, "{label}: {} retries", io.retries);
                assert_eq!(gets.iter().sum::<u64>(), 12 + io.retries, "{label}");
            }
        }
    }

    // ---- Hostile and stalled peers: stub servers on a bare listener ----

    /// A peer scripted per connection: `serve(n, stream)` handles the `n`-th
    /// accepted connection on the accept thread and hands back the stream if
    /// it is to stay open (silent) until the stub is dropped.
    struct StubPeer {
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl StubPeer {
        fn serve(
            mut serve: impl FnMut(usize, TcpStream) -> Option<TcpStream> + Send + 'static,
        ) -> StubPeer {
            let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let addr = listener.local_addr().unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let stopped = Arc::clone(&stop);
            let thread = std::thread::spawn(move || {
                let mut held = Vec::new();
                for (n, conn) in listener.incoming().enumerate() {
                    if stopped.load(Ordering::SeqCst) {
                        break;
                    }
                    held.extend(conn.ok().and_then(|stream| serve(n, stream)));
                }
            });
            StubPeer {
                addr,
                stop,
                thread: Some(thread),
            }
        }
    }

    impl Drop for StubPeer {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop with one throwaway connection.
            let _ = TcpStream::connect(self.addr);
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }

    /// Reads one request head off `stream` (to its blank line).
    fn read_request_head(stream: &mut TcpStream) {
        let mut seen = Vec::new();
        let mut byte = [0u8; 1];
        while !seen.ends_with(b"\r\n\r\n") && stream.read(&mut byte).is_ok_and(|n| n == 1) {
            seen.push(byte[0]);
        }
    }

    fn open_stub(peer: &StubPeer, timeout: Duration) -> Result<HttpBlob> {
        let client = HttpClient::new(
            peer.addr,
            "blob".into(),
            scan_opts(64 << 10),
            IoCounters::new(),
        );
        HttpBlob::open_client(client.with_timeout(timeout))
    }

    #[test]
    fn a_content_length_above_the_range_is_refused_before_it_sizes_anything() {
        // Answers every ranged request with `200` and a body of 2^40 bytes —
        // so it says.
        let peer = StubPeer::serve(|_, mut stream| {
            read_request_head(&mut stream);
            let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", 1u64 << 40);
            let _ = stream.write_all(head.as_bytes());
            Some(stream)
        });
        let client = HttpClient::new(
            peer.addr,
            "blob".into(),
            scan_opts(64 << 10),
            IoCounters::new(),
        );
        let counters = client.counters.clone();
        let err = HttpBlob::open_client(client).unwrap_err();
        assert!(
            err.to_string().contains("advertises 1099511627776"),
            "{err}"
        );
        assert_eq!(counters.retries(), 0, "a lying length is not retried");
        assert_eq!(counters.http_requests(), 1);
    }

    #[test]
    fn a_range_other_than_the_one_asked_for_is_refused() {
        // Answers with the length of the range asked for, but the first
        // connection's bytes sit 8 further into the object than asked.
        let peer = StubPeer::serve(|n, mut stream| {
            read_request_head(&mut stream);
            let at = if n == 0 { 24 } else { 16 };
            let head = format!(
                "HTTP/1.1 206 Partial Content\r\nContent-Length: 32\r\n\
                 Content-Range: bytes {at}-{}/64\r\n\r\n",
                at + 31
            );
            let _ = stream.write_all(head.as_bytes());
            let _ = stream.write_all(&[at as u8; 32]);
            Some(stream)
        });
        let client = HttpClient::new(
            peer.addr,
            "blob".into(),
            scan_opts(64 << 10),
            IoCounters::new(),
        );
        let err = client.get_range(16, 48).unwrap_err();
        assert!(
            err.to_string().contains("holds bytes 24..56 of 64"),
            "{err}"
        );
        assert_eq!(
            client.counters.retries(),
            0,
            "a shifted range is not retried"
        );
        assert_eq!(client.counters.http_requests(), 1);
        // The same answer at the right place is taken.
        let (body, total) = client.get_range(16, 48).unwrap();
        assert_eq!((body, total), (vec![16u8; 32], 64));
    }

    #[test]
    fn a_header_line_without_end_is_a_bounded_error() {
        // Streams `x` for as long as the client keeps the connection.
        let peer = StubPeer::serve(|_, mut stream| {
            read_request_head(&mut stream);
            let chunk = [b'x'; 4096];
            while stream.write_all(&chunk).is_ok() {}
            None
        });
        let client = HttpClient::new(
            peer.addr,
            "blob".into(),
            scan_opts(64 << 10),
            IoCounters::new(),
        );
        let counters = client.counters.clone();
        let err = HttpBlob::open_client(client).unwrap_err();
        assert!(
            err.to_string().contains("head line over 8192 bytes"),
            "{err}"
        );
        assert_eq!(counters.retries(), 4, "transient: retried, then surfaced");
        assert!(
            counters.http_bytes() < 5 * (MAX_HEAD_LINE + 1024),
            "each attempt read at most one capped line: {} bytes",
            counters.http_bytes()
        );
    }

    #[test]
    fn a_silent_peer_is_an_error_in_bounded_time_never_a_hang() {
        let timeout = Duration::from_millis(40);
        // Five attempts of one timeout each, and slack for a loaded box.
        let bound = Duration::from_secs(5);

        // Accepts, reads nothing, sends nothing.
        let mute = StubPeer::serve(|_, stream| Some(stream));
        let t0 = Instant::now();
        let err = open_stub(&mute, timeout).unwrap_err();
        assert!(err.to_string().contains("after 4 retries"), "{err}");
        assert!(t0.elapsed() >= 5 * timeout && t0.elapsed() < bound);

        // Answers the open probe like a store holding 64 bytes would, then
        // goes quiet — on that connection, which the client has pooled, and
        // on every later one.
        let fades = StubPeer::serve(|n, mut stream| {
            if n == 0 {
                read_request_head(&mut stream);
                let head = "HTTP/1.1 206 Partial Content\r\nContent-Length: 64\r\n\
                            Content-Range: bytes 0-63/64\r\n\r\n";
                let _ = stream.write_all(head.as_bytes());
                let _ = stream.write_all(&[7u8; 64]);
            }
            Some(stream)
        });
        let blob = open_stub(&fades, timeout).unwrap();
        assert_eq!(blob.len(), 64);
        assert_eq!(blob.client.pool.lock().unwrap().len(), 1, "pooled");
        let t0 = Instant::now();
        let err = blob.read_spans(&[(8, 16)]).unwrap_err();
        assert!(err.to_string().contains("after 4 retries"), "{err}");
        assert!(t0.elapsed() < bound);
        assert_eq!(blob.counters().retries(), 4);
    }
}
