//! Thread-safe I/O accounting.
//!
//! The paper's evaluation observes that "evaluation times closely follow the
//! number of objects (i.e., CSV file rows) that need to be read from the raw
//! data file". These counters make that metric explicit and hardware-neutral:
//! every raw-file access path increments them, and the benchmark harness
//! reports them next to wall-clock time.
//!
//! Each scalar meter is one row of the table at the end of this module (doc,
//! field, kind, adder), which generates its atomic, its [`IoSnapshot`] field,
//! its line in [`IoSnapshot::since`], [`IoCounters::snapshot`] and
//! [`IoCounters::reset`], its `#[inline]` adder and its getter. Kinds:
//!
//! * `Total` — the adder `fetch_add`s; `since` subtracts (saturating).
//! * `Timing` — a `Total` of µs whose every addition is also one
//!   observation of `fetch_hist`, the one non-scalar meter (hand-written).
//! * `Peak` — the adder `fetch_max`es; `since` keeps the later value.
//! * `Gauge` — the adder `store`s; `since` keeps the later value.
//!
//! The progress trace, the query stats and the run records all carry an
//! [`IoSnapshot`], so a new meter reaches each of them with its row.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::hist::{AtomicHistogram, LatencyHistogram};

/// Monotonic counters for raw-file access. Cheap to clone (shared handle).
#[derive(Debug, Default, Clone)]
pub struct IoCounters {
    inner: Arc<Inner>,
}

impl IoSnapshot {
    /// Fetch-stage busy time over fetch-stage wall time,
    /// `fetch_request_us / fetch_wall_us`: `0.0` — no span-batch fetch ran
    /// (local backend, or all cache hits); `~1.0` — one request in flight at
    /// a time; `> 1.0` — overlapped workers hid request latency (the mean
    /// number of requests in flight); `< 1.0` — per-batch overhead outside
    /// requests (merge planning, sizing, handoff) dominated the window.
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

    /// Records one full sequential scan.
    #[inline]
    pub fn add_full_scan(&self) {
        self.add_full_scans(1);
    }

    /// Records one `read_rows` invocation.
    #[inline]
    pub fn add_read_call(&self) {
        self.add_read_calls(1);
    }
}

/// Generates every site of the scalar meters from one table (see the module
/// doc); `fetch_hist` is the one hand-written line at each site.
macro_rules! meters {
    (@since Peak, $l:expr, $e:expr) => { $l };
    (@since Gauge, $l:expr, $e:expr) => { $l };
    (@since $total:ident, $l:expr, $e:expr) => { $l.saturating_sub($e) };
    (@add Total, $i:expr, $f:ident, $n:expr) => { $i.$f.fetch_add($n, Ordering::Relaxed) };
    (@add Timing, $i:expr, $f:ident, $n:expr) => {
        $i.$f.fetch_add($n, Ordering::Relaxed);
        $i.fetch_hist.record($n);
    };
    (@add Peak, $i:expr, $f:ident, $n:expr) => { $i.$f.fetch_max($n, Ordering::Relaxed) };
    (@add Gauge, $i:expr, $f:ident, $n:expr) => { $i.$f.store($n, Ordering::Relaxed) };
    (@doc Total, $f:ident) => { concat!("Adds `n` to [`IoSnapshot::", stringify!($f), "`].") };
    (@doc Timing, $f:ident) => { concat!("Adds `n` to [`IoSnapshot::", stringify!($f),
        "`] and records it as one [`IoSnapshot::fetch_hist`] observation.") };
    (@doc Peak, $f:ident) => {
        concat!("Raises [`IoSnapshot::", stringify!($f), "`] to at least `n`.")
    };
    (@doc Gauge, $f:ident) => { concat!("Sets [`IoSnapshot::", stringify!($f), "`] to `n`.") };
    ($($(#[doc = $doc:literal])+ $field:ident: $kind:ident, $adder:ident;)+) => {
        #[derive(Debug, Default)]
        struct Inner {
            $($field: AtomicU64,)+
            fetch_hist: AtomicHistogram,
        }

        /// A point-in-time copy of the counter values.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct IoSnapshot {
            $($(#[doc = $doc])+ pub $field: u64,)+
            /// Distribution of per-request fetch latencies over the window
            /// (one observation per transport request, log2 µs buckets);
            /// `fetch_hist.p50_us()` / `p99_us()` are the headline quantiles.
            /// `since()` subtracts bucket-wise like the scalar totals.
            pub fetch_hist: LatencyHistogram,
        }

        impl IoSnapshot {
            /// The meters over the window from `earlier` to `self`: totals
            /// subtract (saturating), peaks and gauges keep `self`'s value.
            pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
                IoSnapshot {
                    $($field: meters!(@since $kind, self.$field, earlier.$field),)+
                    fetch_hist: self.fetch_hist.since(&earlier.fetch_hist),
                }
            }
        }

        impl IoCounters {
            $(
                #[doc = meters!(@doc $kind, $field)]
                #[inline]
                pub fn $adder(&self, n: u64) {
                    meters!(@add $kind, self.inner, $field, n);
                }

                #[doc = concat!("The current value of [`IoSnapshot::", stringify!($field), "`].")]
                pub fn $field(&self) -> u64 {
                    self.inner.$field.load(Ordering::Relaxed)
                }
            )+

            /// Per-request fetch latency distribution so far.
            pub fn fetch_hist(&self) -> LatencyHistogram {
                self.inner.fetch_hist.snapshot()
            }

            /// Captures current values.
            pub fn snapshot(&self) -> IoSnapshot {
                IoSnapshot {
                    $($field: self.$field(),)+
                    fetch_hist: self.fetch_hist(),
                }
            }

            /// Resets all counters to zero.
            pub fn reset(&self) {
                $(self.inner.$field.store(0, Ordering::Relaxed);)+
                self.inner.fetch_hist.reset();
            }
        }
    };
}

meters! {
    /// Rows materialized from the file (the paper's headline cost).
    objects_read: Total, add_objects;
    /// Logical bytes pulled from the file.
    bytes_read: Total, add_bytes;
    /// Random-access seek operations issued.
    seeks: Total, add_seeks;
    /// Full-file sequential scans performed (initialization, ground truth).
    full_scans: Total, add_full_scans;
    /// `read_rows` invocations issued: what batching many tiles into one
    /// call improves.
    read_calls: Total, add_read_calls;
    /// Storage blocks (one column's page or compressed block of rows)
    /// materialized; 0 on CSV, which has no block structure.
    blocks_read: Total, add_blocks_read;
    /// Blocks a zone-map pushdown proved irrelevant and never touched.
    blocks_skipped: Total, add_blocks_skipped;
    /// Ranged HTTP requests issued by a remote backend (0 locally): what
    /// request coalescing improves.
    http_requests: Total, add_http_requests;
    /// Bytes on the wire for those requests, headers and bodies in both
    /// directions: `bytes_read` plus per-request overhead and over-fetch.
    http_bytes: Total, add_http_bytes;
    /// Remote requests retried after a transient fault (5xx, dropped
    /// connection, short read); 0 locally.
    retries: Total, add_retries;
    /// Peak concurrently in-flight fetch requests (a peak, not a total): 1
    /// for a sequential fetch path, 0 when no span-batch fetch ran.
    fetch_inflight_peak: Peak, note_fetch_inflight;
    /// Microseconds spent inside individual fetch requests, summed across
    /// requests (and across workers when requests overlap).
    fetch_request_us: Timing, add_fetch_request_us;
    /// Wall-clock microseconds the caller waited on span-batch fetches; see
    /// [`IoSnapshot::overlap_ratio`].
    fetch_wall_us: Total, add_fetch_wall_us;
    /// Page lookups the block cache served instead of the transport, one
    /// per distinct page of each span batch (0 when no cache is attached).
    cache_hits: Total, add_cache_hits;
    /// Page lookups the block cache handed to the transport.
    cache_misses: Total, add_cache_misses;
    /// Cache pages evicted to stay inside the memory budget.
    cache_evictions: Total, add_cache_evictions;
    /// Always 0: the cache has no disk-spill tier any more. Kept until the
    /// benchmark drops `storage.cache_spill_mb`.
    cache_spill_bytes: Total, add_cache_spill_bytes;
    /// Bytes resident in the cache's memory tier (a gauge, not a total).
    cache_mem_bytes: Gauge, set_cache_mem_bytes;
    /// Queries answered entirely from block synopses: the CI met the target
    /// before any fetch was planned, so the answer cost zero data I/O.
    synopsis_hits: Total, add_synopsis_hits;
    /// Block synopses behind synopsis-only answers (a miss ticks none).
    synopsis_blocks: Total, add_synopsis_blocks;
    /// In-memory bytes of those synopses. They live in the decoded header,
    /// so these bytes never touch the transport.
    synopsis_bytes: Total, add_synopsis_bytes;
    /// Rows appended through a backend's ingest path.
    rows_ingested: Total, add_rows_ingested;
    /// Sealed append-order delta blocks currently live (a gauge): ingest
    /// raises it, compaction lowers it.
    delta_blocks: Gauge, set_delta_blocks;
    /// Completed compaction passes (delta runs re-clustered into Z-order
    /// behind an atomic generation swap).
    compactions: Total, add_compactions;
    /// Storage blocks rewritten by compaction.
    blocks_rewritten: Total, add_blocks_rewritten;
    /// Cached spans dropped because their object's generation tag changed
    /// (a remote rewrite observed via etag, or a compaction retiring a base).
    cache_invalidations: Total, add_cache_invalidations;
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
