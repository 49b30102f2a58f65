//! Thread-safe I/O accounting.
//!
//! The paper's evaluation observes that "evaluation times closely follow the
//! number of objects (i.e., CSV file rows) that need to be read from the raw
//! data file". These counters make that metric explicit and hardware-neutral:
//! every raw-file access path increments them, and the benchmark harness
//! reports them next to wall-clock time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::hist::{AtomicHistogram, LatencyHistogram};

/// Monotonic counters for raw-file access. Cheap to clone (shared handle).
#[derive(Debug, Default, Clone)]
pub struct IoCounters {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// CSV rows materialized from the file (the paper's headline cost).
    objects_read: AtomicU64,
    /// Bytes pulled from the file.
    bytes_read: AtomicU64,
    /// Random-access seek operations issued.
    seeks: AtomicU64,
    /// Full-file sequential scans performed (initialization, ground truth).
    full_scans: AtomicU64,
    /// `read_rows` invocations issued against the file. The batched
    /// adaptation pipeline coalesces many tiles into one call, so this
    /// meter (not `objects_read`) is what batching improves.
    read_calls: AtomicU64,
    /// Storage blocks materialized (one column's page/block of rows). Only
    /// block-structured backends (`PaiBin` pages, `PaiZone` compressed
    /// blocks) tick this; CSV has no block structure and leaves it at 0.
    blocks_read: AtomicU64,
    /// Blocks that a zone-map pushdown proved irrelevant to a predicate and
    /// therefore never touched — the meter that separates a pushdown-aware
    /// backend from one that reads everything it is asked to scan.
    blocks_skipped: AtomicU64,
    /// HTTP requests (ranged GETs) issued by a remote backend. Coalescing
    /// merges adjacent byte ranges into one request, so this meter (and
    /// `http_bytes`) is what request coalescing improves.
    http_requests: AtomicU64,
    /// Bytes moved over the wire by a remote backend — request lines,
    /// headers, and bodies in both directions. Differs from `bytes_read`
    /// (the logical payload the backend consumed): per-request overhead and
    /// over-fetch show up here.
    http_bytes: AtomicU64,
    /// Requests retried after a transient remote fault (5xx, dropped
    /// connection, short read). Nonzero retries with correct answers is the
    /// signature of the retry/backoff path doing its job.
    retries: AtomicU64,
    /// High-water mark of concurrently in-flight fetch requests since the
    /// last reset. Unlike every other counter this is a **peak**, not a
    /// running total: `since()` passes the later snapshot's value through
    /// unchanged, so a delta carries "the peak observed over the window",
    /// and a sequential fetch path reports exactly 1.
    fetch_inflight_peak: AtomicU64,
    /// Microseconds spent inside individual fetch requests, summed across
    /// requests (and across workers when requests overlap).
    fetch_request_us: AtomicU64,
    /// Microseconds of wall-clock spent in span-batch fetches (the time the
    /// caller actually waited). With overlapped workers `fetch_request_us /
    /// fetch_wall_us` exceeds 1 — that ratio is the `overlap_ratio` the
    /// reports derive downstream.
    fetch_wall_us: AtomicU64,
    /// Times the adaptive part sizer changed an object's effective
    /// coalescing parameters after observing a new span-gap distribution.
    parts_resized: AtomicU64,
    /// Page lookups the block cache served instead of the transport: one
    /// per distinct page a span batch covers, added once per batch. Each
    /// hit is a page the fetch path subtracted *before* coalescing, so a
    /// hit never contributes to `http_requests`/`http_bytes`.
    cache_hits: AtomicU64,
    /// Page lookups the block cache could not serve: pages handed to the
    /// transport (same unit and cadence as `cache_hits`).
    cache_misses: AtomicU64,
    /// Cache entries evicted to stay inside the memory + disk budgets.
    cache_evictions: AtomicU64,
    /// Bytes written to the cache's disk-spill tier.
    cache_spill_bytes: AtomicU64,
    /// Bytes currently resident in the cache's memory tier. A **gauge**,
    /// not a running total: `set_cache_mem_bytes` stores the level and
    /// `since()` passes the later snapshot's value through unchanged.
    cache_mem_bytes: AtomicU64,
    /// Queries answered entirely from block synopses: the CI met the target
    /// before any fetch was planned, so the answer cost zero data I/O.
    synopsis_hits: AtomicU64,
    /// Block synopses consulted by the synopsis evaluator (hit or miss).
    synopsis_blocks: AtomicU64,
    /// In-memory bytes of synopsis metadata consulted. Synopses live in the
    /// decoded header, so these bytes never touch the transport — the meter
    /// exists to compare synopsis footprint against the data I/O it saved.
    synopsis_bytes: AtomicU64,
    /// Rows appended through a backend's ingest path since the last reset.
    rows_ingested: AtomicU64,
    /// Sealed append-order delta blocks currently live in the backend. A
    /// **gauge** like `cache_mem_bytes`: ingest raises it, compaction
    /// lowers it, and `since()` passes the later snapshot's level through.
    delta_blocks: AtomicU64,
    /// Completed compaction passes (delta runs re-clustered into Z-order
    /// behind an atomic generation swap).
    compactions: AtomicU64,
    /// Storage blocks rewritten by compaction (the Z-ordered blocks of the
    /// installed generations, zone maps + synopses re-derived).
    blocks_rewritten: AtomicU64,
    /// Cached spans dropped because their object's generation tag changed
    /// (a remote rewrite observed via etag, or a compaction retiring a
    /// base) — the meter that separates "cache went cold" from "cache
    /// would have lied".
    cache_invalidations: AtomicU64,
    /// Per-request fetch latency distribution (log2 µs buckets). Fed by
    /// `add_fetch_request_us` alongside the scalar sum, so p50/p99 are
    /// observable wherever the sum already flows.
    fetch_hist: AtomicHistogram,
}

/// A point-in-time copy of the counter values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Rows materialized from the file.
    pub objects_read: u64,
    /// Logical bytes pulled from the file.
    pub bytes_read: u64,
    /// Random-access seek operations issued.
    pub seeks: u64,
    /// Full-file sequential scans performed.
    pub full_scans: u64,
    /// `read_rows` invocations issued.
    pub read_calls: u64,
    /// Storage blocks materialized.
    pub blocks_read: u64,
    /// Blocks a zone-map pushdown proved irrelevant and skipped.
    pub blocks_skipped: u64,
    /// Ranged HTTP requests issued by a remote backend (0 locally).
    pub http_requests: u64,
    /// Bytes on the wire for those requests, both directions (0 locally).
    pub http_bytes: u64,
    /// Remote requests retried after a transient fault (0 locally).
    pub retries: u64,
    /// Peak concurrently in-flight fetch requests (1 for a sequential
    /// fetch path, 0 when no span-batch fetch ran). A peak, not a total:
    /// `since()` keeps the later snapshot's value as-is.
    pub fetch_inflight_peak: u64,
    /// Summed microseconds spent inside fetch requests (overlap-inflated).
    pub fetch_request_us: u64,
    /// Wall-clock microseconds the caller waited on span-batch fetches.
    pub fetch_wall_us: u64,
    /// Adaptive part-sizer parameter changes.
    pub parts_resized: u64,
    /// Page lookups served from the block cache, one per distinct page of
    /// each span batch (0 when no cache is attached).
    pub cache_hits: u64,
    /// Page lookups the block cache handed to the transport.
    pub cache_misses: u64,
    /// Cache entries evicted under budget pressure.
    pub cache_evictions: u64,
    /// Bytes written to the cache's disk-spill tier.
    pub cache_spill_bytes: u64,
    /// Bytes resident in the cache's memory tier. A gauge, not a total:
    /// `since()` keeps the later snapshot's level as-is.
    pub cache_mem_bytes: u64,
    /// Queries answered entirely from block synopses (zero data I/O).
    pub synopsis_hits: u64,
    /// Block synopses consulted by the synopsis evaluator.
    pub synopsis_blocks: u64,
    /// In-memory synopsis metadata bytes consulted.
    pub synopsis_bytes: u64,
    /// Rows appended through an ingest path.
    pub rows_ingested: u64,
    /// Sealed delta blocks currently live. A gauge, not a total:
    /// `since()` keeps the later snapshot's level as-is.
    pub delta_blocks: u64,
    /// Completed compaction passes.
    pub compactions: u64,
    /// Storage blocks rewritten by compaction.
    pub blocks_rewritten: u64,
    /// Cached spans dropped on a generation-tag change.
    pub cache_invalidations: u64,
    /// Distribution of per-request fetch latencies over the window
    /// (one observation per transport request, log2 µs buckets);
    /// `fetch_hist.p50_us()` / `p99_us()` are the headline quantiles.
    /// `since()` subtracts bucket-wise like the scalar totals.
    pub fetch_hist: LatencyHistogram,
}

impl IoSnapshot {
    /// Counter deltas `self - earlier` (saturating, for safety against
    /// snapshots taken out of order).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            objects_read: self.objects_read.saturating_sub(earlier.objects_read),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            seeks: self.seeks.saturating_sub(earlier.seeks),
            full_scans: self.full_scans.saturating_sub(earlier.full_scans),
            read_calls: self.read_calls.saturating_sub(earlier.read_calls),
            blocks_read: self.blocks_read.saturating_sub(earlier.blocks_read),
            blocks_skipped: self.blocks_skipped.saturating_sub(earlier.blocks_skipped),
            http_requests: self.http_requests.saturating_sub(earlier.http_requests),
            http_bytes: self.http_bytes.saturating_sub(earlier.http_bytes),
            retries: self.retries.saturating_sub(earlier.retries),
            // Peak semantics: the high-water mark over the window is the
            // later snapshot's mark (resets zero it between windows).
            fetch_inflight_peak: self.fetch_inflight_peak,
            fetch_request_us: self
                .fetch_request_us
                .saturating_sub(earlier.fetch_request_us),
            fetch_wall_us: self.fetch_wall_us.saturating_sub(earlier.fetch_wall_us),
            parts_resized: self.parts_resized.saturating_sub(earlier.parts_resized),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
            cache_spill_bytes: self
                .cache_spill_bytes
                .saturating_sub(earlier.cache_spill_bytes),
            // Gauge semantics: the memory-tier level at the later snapshot.
            cache_mem_bytes: self.cache_mem_bytes,
            synopsis_hits: self.synopsis_hits.saturating_sub(earlier.synopsis_hits),
            synopsis_blocks: self.synopsis_blocks.saturating_sub(earlier.synopsis_blocks),
            synopsis_bytes: self.synopsis_bytes.saturating_sub(earlier.synopsis_bytes),
            rows_ingested: self.rows_ingested.saturating_sub(earlier.rows_ingested),
            // Gauge semantics: the delta-block count at the later snapshot.
            delta_blocks: self.delta_blocks,
            compactions: self.compactions.saturating_sub(earlier.compactions),
            blocks_rewritten: self
                .blocks_rewritten
                .saturating_sub(earlier.blocks_rewritten),
            cache_invalidations: self
                .cache_invalidations
                .saturating_sub(earlier.cache_invalidations),
            fetch_hist: self.fetch_hist.since(&earlier.fetch_hist),
        }
    }

    /// Fetch-stage busy time over fetch-stage wall time, i.e.
    /// `fetch_request_us / fetch_wall_us`. The numerator sums the
    /// microseconds spent *inside* individual transport requests (summed
    /// across workers, so overlapped requests count multiply); the
    /// denominator is the wall-clock the caller actually waited on
    /// span-batch fetches. Interpretation: `0.0` — no span-batch fetch ran
    /// in the window (local backend, or every span was a cache hit);
    /// `~1.0` — sequential fetching, one request in flight at a time;
    /// `> 1.0` — overlapped workers hid request latency (the value is the
    /// average number of requests concurrently in flight while fetching);
    /// `< 1.0` — per-batch overhead outside requests (merge planning,
    /// adaptive sizing, thread handoff) dominated the window.
    pub fn overlap_ratio(&self) -> f64 {
        if self.fetch_wall_us == 0 {
            0.0
        } else {
            self.fetch_request_us as f64 / self.fetch_wall_us as f64
        }
    }
}

impl IoCounters {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` rows materialized from the file.
    #[inline]
    pub fn add_objects(&self, n: u64) {
        self.inner.objects_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` logical bytes pulled from the file.
    #[inline]
    pub fn add_bytes(&self, n: u64) {
        self.inner.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` random-access seeks.
    #[inline]
    pub fn add_seeks(&self, n: u64) {
        self.inner.seeks.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one full sequential scan.
    #[inline]
    pub fn add_full_scan(&self) {
        self.inner.full_scans.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one `read_rows` invocation.
    #[inline]
    pub fn add_read_call(&self) {
        self.inner.read_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` storage blocks materialized.
    #[inline]
    pub fn add_blocks_read(&self, n: u64) {
        self.inner.blocks_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` blocks a zone-map pushdown proved irrelevant.
    #[inline]
    pub fn add_blocks_skipped(&self, n: u64) {
        self.inner.blocks_skipped.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` ranged HTTP requests issued by a remote backend.
    #[inline]
    pub fn add_http_requests(&self, n: u64) {
        self.inner.http_requests.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` bytes moved over the wire (requests + responses).
    #[inline]
    pub fn add_http_bytes(&self, n: u64) {
        self.inner.http_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` remote requests retried after a transient fault.
    #[inline]
    pub fn add_retries(&self, n: u64) {
        self.inner.retries.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the in-flight fetch high-water mark to at least `n`.
    #[inline]
    pub fn note_fetch_inflight(&self, n: u64) {
        self.inner
            .fetch_inflight_peak
            .fetch_max(n, Ordering::Relaxed);
    }

    /// Records `n` microseconds spent inside one fetch request. Also
    /// records the value as one observation in the fetch latency
    /// histogram, so every call site gets p50/p99 for free.
    #[inline]
    pub fn add_fetch_request_us(&self, n: u64) {
        self.inner.fetch_request_us.fetch_add(n, Ordering::Relaxed);
        self.inner.fetch_hist.record(n);
    }

    /// Records `n` wall-clock microseconds waited on a span-batch fetch.
    #[inline]
    pub fn add_fetch_wall_us(&self, n: u64) {
        self.inner.fetch_wall_us.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one adaptive part-sizer parameter change.
    #[inline]
    pub fn add_parts_resized(&self, n: u64) {
        self.inner.parts_resized.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` page lookups served from the block cache.
    #[inline]
    pub fn add_cache_hits(&self, n: u64) {
        self.inner.cache_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` page lookups the block cache handed to the transport.
    #[inline]
    pub fn add_cache_misses(&self, n: u64) {
        self.inner.cache_misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` cache entries evicted under budget pressure.
    #[inline]
    pub fn add_cache_evictions(&self, n: u64) {
        self.inner.cache_evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` bytes written to the cache's disk-spill tier.
    #[inline]
    pub fn add_cache_spill_bytes(&self, n: u64) {
        self.inner.cache_spill_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Stores the cache memory tier's current resident size (a gauge).
    #[inline]
    pub fn set_cache_mem_bytes(&self, n: u64) {
        self.inner.cache_mem_bytes.store(n, Ordering::Relaxed);
    }

    /// Records one query answered entirely from block synopses.
    #[inline]
    pub fn add_synopsis_hits(&self, n: u64) {
        self.inner.synopsis_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` block synopses consulted by the synopsis evaluator.
    #[inline]
    pub fn add_synopsis_blocks(&self, n: u64) {
        self.inner.synopsis_blocks.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` bytes of synopsis metadata consulted.
    #[inline]
    pub fn add_synopsis_bytes(&self, n: u64) {
        self.inner.synopsis_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` rows appended through an ingest path.
    #[inline]
    pub fn add_rows_ingested(&self, n: u64) {
        self.inner.rows_ingested.fetch_add(n, Ordering::Relaxed);
    }

    /// Stores the current number of live sealed delta blocks (a gauge).
    #[inline]
    pub fn set_delta_blocks(&self, n: u64) {
        self.inner.delta_blocks.store(n, Ordering::Relaxed);
    }

    /// Records one completed compaction pass.
    #[inline]
    pub fn add_compactions(&self, n: u64) {
        self.inner.compactions.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` storage blocks rewritten by compaction.
    #[inline]
    pub fn add_blocks_rewritten(&self, n: u64) {
        self.inner.blocks_rewritten.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` cached spans dropped on a generation-tag change.
    #[inline]
    pub fn add_cache_invalidations(&self, n: u64) {
        self.inner
            .cache_invalidations
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Rows materialized so far.
    pub fn objects_read(&self) -> u64 {
        self.inner.objects_read.load(Ordering::Relaxed)
    }

    /// Logical bytes pulled so far.
    pub fn bytes_read(&self) -> u64 {
        self.inner.bytes_read.load(Ordering::Relaxed)
    }

    /// Seeks issued so far.
    pub fn seeks(&self) -> u64 {
        self.inner.seeks.load(Ordering::Relaxed)
    }

    /// Full scans performed so far.
    pub fn full_scans(&self) -> u64 {
        self.inner.full_scans.load(Ordering::Relaxed)
    }

    /// `read_rows` invocations so far.
    pub fn read_calls(&self) -> u64 {
        self.inner.read_calls.load(Ordering::Relaxed)
    }

    /// Blocks materialized so far.
    pub fn blocks_read(&self) -> u64 {
        self.inner.blocks_read.load(Ordering::Relaxed)
    }

    /// Blocks skipped by pushdown so far.
    pub fn blocks_skipped(&self) -> u64 {
        self.inner.blocks_skipped.load(Ordering::Relaxed)
    }

    /// Ranged HTTP requests issued so far.
    pub fn http_requests(&self) -> u64 {
        self.inner.http_requests.load(Ordering::Relaxed)
    }

    /// Wire bytes moved so far (requests + responses).
    pub fn http_bytes(&self) -> u64 {
        self.inner.http_bytes.load(Ordering::Relaxed)
    }

    /// Remote requests retried so far.
    pub fn retries(&self) -> u64 {
        self.inner.retries.load(Ordering::Relaxed)
    }

    /// Peak concurrently in-flight fetch requests since the last reset.
    pub fn fetch_inflight_peak(&self) -> u64 {
        self.inner.fetch_inflight_peak.load(Ordering::Relaxed)
    }

    /// Summed in-request fetch microseconds so far.
    pub fn fetch_request_us(&self) -> u64 {
        self.inner.fetch_request_us.load(Ordering::Relaxed)
    }

    /// Wall-clock span-batch fetch microseconds so far.
    pub fn fetch_wall_us(&self) -> u64 {
        self.inner.fetch_wall_us.load(Ordering::Relaxed)
    }

    /// Adaptive part-sizer parameter changes so far.
    pub fn parts_resized(&self) -> u64 {
        self.inner.parts_resized.load(Ordering::Relaxed)
    }

    /// Page lookups served from the block cache so far.
    pub fn cache_hits(&self) -> u64 {
        self.inner.cache_hits.load(Ordering::Relaxed)
    }

    /// Pages handed to the transport after a cache miss so far.
    pub fn cache_misses(&self) -> u64 {
        self.inner.cache_misses.load(Ordering::Relaxed)
    }

    /// Cache entries evicted so far.
    pub fn cache_evictions(&self) -> u64 {
        self.inner.cache_evictions.load(Ordering::Relaxed)
    }

    /// Bytes written to the cache's disk-spill tier so far.
    pub fn cache_spill_bytes(&self) -> u64 {
        self.inner.cache_spill_bytes.load(Ordering::Relaxed)
    }

    /// Bytes currently resident in the cache's memory tier.
    pub fn cache_mem_bytes(&self) -> u64 {
        self.inner.cache_mem_bytes.load(Ordering::Relaxed)
    }

    /// Queries answered entirely from block synopses so far.
    pub fn synopsis_hits(&self) -> u64 {
        self.inner.synopsis_hits.load(Ordering::Relaxed)
    }

    /// Block synopses consulted so far.
    pub fn synopsis_blocks(&self) -> u64 {
        self.inner.synopsis_blocks.load(Ordering::Relaxed)
    }

    /// Synopsis metadata bytes consulted so far.
    pub fn synopsis_bytes(&self) -> u64 {
        self.inner.synopsis_bytes.load(Ordering::Relaxed)
    }

    /// Rows appended through an ingest path so far.
    pub fn rows_ingested(&self) -> u64 {
        self.inner.rows_ingested.load(Ordering::Relaxed)
    }

    /// Sealed delta blocks currently live.
    pub fn delta_blocks(&self) -> u64 {
        self.inner.delta_blocks.load(Ordering::Relaxed)
    }

    /// Completed compaction passes so far.
    pub fn compactions(&self) -> u64 {
        self.inner.compactions.load(Ordering::Relaxed)
    }

    /// Storage blocks rewritten by compaction so far.
    pub fn blocks_rewritten(&self) -> u64 {
        self.inner.blocks_rewritten.load(Ordering::Relaxed)
    }

    /// Cached spans dropped on generation-tag changes so far.
    pub fn cache_invalidations(&self) -> u64 {
        self.inner.cache_invalidations.load(Ordering::Relaxed)
    }

    /// Per-request fetch latency distribution so far.
    pub fn fetch_hist(&self) -> LatencyHistogram {
        self.inner.fetch_hist.snapshot()
    }

    /// Captures current values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            objects_read: self.objects_read(),
            bytes_read: self.bytes_read(),
            seeks: self.seeks(),
            full_scans: self.full_scans(),
            read_calls: self.read_calls(),
            blocks_read: self.blocks_read(),
            blocks_skipped: self.blocks_skipped(),
            http_requests: self.http_requests(),
            http_bytes: self.http_bytes(),
            retries: self.retries(),
            fetch_inflight_peak: self.fetch_inflight_peak(),
            fetch_request_us: self.fetch_request_us(),
            fetch_wall_us: self.fetch_wall_us(),
            parts_resized: self.parts_resized(),
            cache_hits: self.cache_hits(),
            cache_misses: self.cache_misses(),
            cache_evictions: self.cache_evictions(),
            cache_spill_bytes: self.cache_spill_bytes(),
            cache_mem_bytes: self.cache_mem_bytes(),
            synopsis_hits: self.synopsis_hits(),
            synopsis_blocks: self.synopsis_blocks(),
            synopsis_bytes: self.synopsis_bytes(),
            rows_ingested: self.rows_ingested(),
            delta_blocks: self.delta_blocks(),
            compactions: self.compactions(),
            blocks_rewritten: self.blocks_rewritten(),
            cache_invalidations: self.cache_invalidations(),
            fetch_hist: self.fetch_hist(),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.inner.objects_read.store(0, Ordering::Relaxed);
        self.inner.bytes_read.store(0, Ordering::Relaxed);
        self.inner.seeks.store(0, Ordering::Relaxed);
        self.inner.full_scans.store(0, Ordering::Relaxed);
        self.inner.read_calls.store(0, Ordering::Relaxed);
        self.inner.blocks_read.store(0, Ordering::Relaxed);
        self.inner.blocks_skipped.store(0, Ordering::Relaxed);
        self.inner.http_requests.store(0, Ordering::Relaxed);
        self.inner.http_bytes.store(0, Ordering::Relaxed);
        self.inner.retries.store(0, Ordering::Relaxed);
        self.inner.fetch_inflight_peak.store(0, Ordering::Relaxed);
        self.inner.fetch_request_us.store(0, Ordering::Relaxed);
        self.inner.fetch_wall_us.store(0, Ordering::Relaxed);
        self.inner.parts_resized.store(0, Ordering::Relaxed);
        self.inner.cache_hits.store(0, Ordering::Relaxed);
        self.inner.cache_misses.store(0, Ordering::Relaxed);
        self.inner.cache_evictions.store(0, Ordering::Relaxed);
        self.inner.cache_spill_bytes.store(0, Ordering::Relaxed);
        self.inner.cache_mem_bytes.store(0, Ordering::Relaxed);
        self.inner.synopsis_hits.store(0, Ordering::Relaxed);
        self.inner.synopsis_blocks.store(0, Ordering::Relaxed);
        self.inner.synopsis_bytes.store(0, Ordering::Relaxed);
        self.inner.rows_ingested.store(0, Ordering::Relaxed);
        self.inner.delta_blocks.store(0, Ordering::Relaxed);
        self.inner.compactions.store(0, Ordering::Relaxed);
        self.inner.blocks_rewritten.store(0, Ordering::Relaxed);
        self.inner.cache_invalidations.store(0, Ordering::Relaxed);
        self.inner.fetch_hist.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = IoCounters::new();
        c.add_objects(10);
        c.add_objects(5);
        c.add_bytes(100);
        c.add_seeks(2);
        c.add_full_scan();
        c.add_read_call();
        c.add_read_call();
        c.add_blocks_read(3);
        c.add_blocks_skipped(9);
        c.add_http_requests(4);
        c.add_http_bytes(777);
        c.add_retries(2);
        c.note_fetch_inflight(3);
        c.note_fetch_inflight(1);
        c.add_fetch_request_us(900);
        c.add_fetch_wall_us(300);
        c.add_parts_resized(1);
        c.add_cache_hits(6);
        c.add_cache_misses(2);
        c.add_cache_evictions(1);
        c.add_cache_spill_bytes(4096);
        c.set_cache_mem_bytes(128);
        c.set_cache_mem_bytes(96);
        c.add_synopsis_hits(1);
        c.add_synopsis_blocks(12);
        c.add_synopsis_bytes(2048);
        c.add_rows_ingested(64);
        c.set_delta_blocks(5);
        c.set_delta_blocks(3);
        c.add_compactions(1);
        c.add_blocks_rewritten(8);
        c.add_cache_invalidations(4);
        assert_eq!(c.objects_read(), 15);
        assert_eq!(c.bytes_read(), 100);
        assert_eq!(c.seeks(), 2);
        assert_eq!(c.full_scans(), 1);
        assert_eq!(c.read_calls(), 2);
        assert_eq!(c.blocks_read(), 3);
        assert_eq!(c.blocks_skipped(), 9);
        assert_eq!(c.http_requests(), 4);
        assert_eq!(c.http_bytes(), 777);
        assert_eq!(c.retries(), 2);
        // fetch_inflight_peak keeps the max, never sums.
        assert_eq!(c.fetch_inflight_peak(), 3);
        assert_eq!(c.fetch_request_us(), 900);
        assert_eq!(c.fetch_wall_us(), 300);
        assert_eq!(c.parts_resized(), 1);
        assert_eq!(c.cache_hits(), 6);
        assert_eq!(c.cache_misses(), 2);
        assert_eq!(c.cache_evictions(), 1);
        assert_eq!(c.cache_spill_bytes(), 4096);
        // cache_mem_bytes is a gauge: the last stored level, never a sum.
        assert_eq!(c.cache_mem_bytes(), 96);
        assert_eq!(c.synopsis_hits(), 1);
        assert_eq!(c.synopsis_blocks(), 12);
        assert_eq!(c.synopsis_bytes(), 2048);
        assert_eq!(c.rows_ingested(), 64);
        // delta_blocks is a gauge: the last stored level, never a sum.
        assert_eq!(c.delta_blocks(), 3);
        assert_eq!(c.compactions(), 1);
        assert_eq!(c.blocks_rewritten(), 8);
        assert_eq!(c.cache_invalidations(), 4);
        assert_eq!(c.snapshot().overlap_ratio(), 3.0);
        // Every add_fetch_request_us call is one histogram observation.
        assert_eq!(c.fetch_hist().count(), 1);
        assert!(c.fetch_hist().p50_us() >= 900);
    }

    #[test]
    fn clones_share_state() {
        let a = IoCounters::new();
        let b = a.clone();
        a.add_objects(7);
        assert_eq!(b.objects_read(), 7);
    }

    #[test]
    fn snapshot_deltas() {
        let c = IoCounters::new();
        c.add_objects(3);
        let s1 = c.snapshot();
        c.add_objects(4);
        c.add_bytes(9);
        c.add_blocks_read(2);
        c.add_blocks_skipped(5);
        c.add_http_requests(3);
        c.add_http_bytes(64);
        c.add_retries(1);
        c.note_fetch_inflight(2);
        c.add_fetch_request_us(50);
        c.add_fetch_wall_us(40);
        c.add_parts_resized(2);
        c.add_cache_hits(5);
        c.add_cache_misses(3);
        c.add_cache_evictions(2);
        c.add_cache_spill_bytes(512);
        c.set_cache_mem_bytes(777);
        c.add_synopsis_hits(2);
        c.add_synopsis_blocks(7);
        c.add_synopsis_bytes(640);
        c.add_rows_ingested(16);
        c.set_delta_blocks(9);
        c.add_compactions(1);
        c.add_blocks_rewritten(6);
        c.add_cache_invalidations(3);
        let s2 = c.snapshot();
        let d = s2.since(&s1);
        assert_eq!(d.objects_read, 4);
        assert_eq!(d.bytes_read, 9);
        assert_eq!(d.blocks_read, 2);
        assert_eq!(d.blocks_skipped, 5);
        assert_eq!(d.http_requests, 3);
        assert_eq!(d.http_bytes, 64);
        assert_eq!(d.retries, 1);
        // Peak passes through the delta; durations subtract like totals.
        assert_eq!(d.fetch_inflight_peak, 2);
        assert_eq!(d.fetch_request_us, 50);
        assert_eq!(d.fetch_wall_us, 40);
        assert_eq!(d.parts_resized, 2);
        assert_eq!(d.cache_hits, 5);
        assert_eq!(d.cache_misses, 3);
        assert_eq!(d.cache_evictions, 2);
        assert_eq!(d.cache_spill_bytes, 512);
        // The memory-tier gauge passes through like the in-flight peak.
        assert_eq!(d.cache_mem_bytes, 777);
        assert_eq!(d.synopsis_hits, 2);
        assert_eq!(d.synopsis_blocks, 7);
        assert_eq!(d.synopsis_bytes, 640);
        assert_eq!(d.rows_ingested, 16);
        // The delta-block gauge passes through like the memory gauge.
        assert_eq!(d.delta_blocks, 9);
        assert_eq!(d.compactions, 1);
        assert_eq!(d.blocks_rewritten, 6);
        assert_eq!(d.cache_invalidations, 3);
        // The histogram delta carries only the window's observations.
        assert_eq!(d.fetch_hist.count(), 1);
        // An idle window reports no overlap.
        assert_eq!(IoSnapshot::default().overlap_ratio(), 0.0);
        // Out-of-order snapshots saturate instead of underflowing.
        assert_eq!(s1.since(&s2).objects_read, 0);
    }

    #[test]
    fn reset_zeroes() {
        let c = IoCounters::new();
        c.add_objects(3);
        c.reset();
        assert_eq!(c.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn concurrent_increments() {
        let c = IoCounters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add_objects(1);
                    }
                });
            }
        });
        assert_eq!(c.objects_read(), 4000);
    }
}
