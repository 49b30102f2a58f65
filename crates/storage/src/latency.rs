//! A latency-injecting wrapper backend: any [`RawFile`] behind a simulated
//! remote link.
//!
//! Object stores and remote block devices change the cost model of in-situ
//! exploration: each I/O *operation* pays a round trip, so batched fetches
//! (fewer `read_rows` calls) and zone-map pushdown (fewer blocks touched,
//! hence fewer operations) stop being byte-count niceties and start
//! dominating wall-clock. [`LatencyFile`] makes that cost model testable on
//! a laptop: it delegates every access to the wrapped backend and then
//! stalls the calling thread
//!
//! * a fixed `per_call` delay per access (the request round trip), plus
//! * `per_seek` for every seek the wrapped backend issued while serving it
//!   (one ranged GET per discontiguous span).
//!
//! Metering is transparent — the wrapper shares the inner file's
//! [`IoCounters`] — so reports show the same bytes/blocks while wall-clock
//! shows the remote story. Concurrent callers overlap their round trips
//! (exactly like real ranged GETs); every seek is charged to exactly one
//! in-flight access via a high-water mark over the shared seek counter, so
//! N concurrent callers never multiply the total stall by N.
//!
//! `LatencyFile` is the remote *cost model*; the remote *transport* —
//! actual HTTP range requests with coalescing and retry — is
//! [`crate::HttpFile`] (see [`crate::remote`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pai_common::geometry::Rect;
use pai_common::{AttrId, IoCounters, Result, RowLocator};

use crate::batch::RowBatch;
use crate::raw::{AppendReceipt, BatchHandler, RawFile, ScanRequest};
use crate::schema::Schema;

/// A [`RawFile`] that adds configurable per-operation latency to another
/// backend. See the module docs for the cost model.
///
/// Scans, positional reads and appends stall; every other call answers from
/// the inner file with no stall. A compaction rewrites inside the wrapped
/// backend, so it pays no link round trip beyond what its own accesses pay.
pub struct LatencyFile {
    inner: Box<dyn RawFile>,
    per_call: Duration,
    per_seek: Duration,
    /// High-water mark of the inner seek counter already charged to some
    /// access; the gap to the live counter is what the next stall pays.
    charged_seeks: AtomicU64,
}

impl LatencyFile {
    /// Wraps `inner`, stalling `per_call` on every access plus `per_seek`
    /// per seek the access needed.
    pub fn new(inner: Box<dyn RawFile>, per_call: Duration, per_seek: Duration) -> Self {
        LatencyFile {
            inner,
            per_call,
            per_seek,
            charged_seeks: AtomicU64::new(0),
        }
    }

    /// Stalls for one finished access: the per-call round trip plus
    /// `per_seek` for every not-yet-charged seek on the shared counter.
    /// The high-water mark hands each seek to exactly one concurrent
    /// caller (a counter `reset()` simply leaves seeks uncharged until the
    /// counter catches back up).
    fn stall(&self) {
        let total = self.inner.counters().seeks();
        let prev = self.charged_seeks.fetch_max(total, Ordering::AcqRel);
        let seeks = total.saturating_sub(prev);
        let d = self.per_call + self.per_seek * seeks as u32;
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

impl RawFile for LatencyFile {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn counters(&self) -> &IoCounters {
        self.inner.counters()
    }

    fn size_bytes(&self) -> u64 {
        self.inner.size_bytes()
    }

    fn scan_batches(
        &self,
        request: &ScanRequest<'_>,
        handler: &mut BatchHandler<'_>,
    ) -> Result<()> {
        let res = self.inner.scan_batches(request, handler);
        self.stall();
        res
    }

    fn read_rows_into(
        &self,
        locators: &[RowLocator],
        attrs: &[AttrId],
        window: Option<&Rect>,
        out: &mut RowBatch,
    ) -> Result<()> {
        let res = self.inner.read_rows_into(locators, attrs, window, out);
        self.stall();
        res
    }

    fn inner(&self) -> Option<&dyn RawFile> {
        Some(&*self.inner)
    }

    fn append_rows(&self, rows: &[Vec<f64>]) -> Result<AppendReceipt> {
        let res = self.inner.append_rows(rows);
        self.stall();
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Schema, ZoneFile};
    use pai_common::RowLocator;
    use std::time::Instant;

    fn striped(n: u64) -> ZoneFile {
        let data: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64, (i % 7) as f64, i as f64 * 10.0])
            .collect();
        ZoneFile::from_rows_with_block(&Schema::synthetic(3), data, 4).unwrap()
    }

    fn wrap(per_call_ms: u64, per_seek_ms: u64) -> LatencyFile {
        LatencyFile::new(
            Box::new(striped(64)),
            Duration::from_millis(per_call_ms),
            Duration::from_millis(per_seek_ms),
        )
    }

    #[test]
    fn delegates_data_and_shares_counters() {
        let f = wrap(0, 0);
        assert_eq!(f.schema().len(), 3);
        let locs: Vec<RowLocator> = (0..4).map(RowLocator::new).collect();
        let vals = f.read_rows(&locs, &[2]).unwrap();
        assert_eq!(vals.row(3), [30.0]);
        assert_eq!(f.counters().objects_read(), 4, "inner meters visible");
        assert!(f.block_stats().is_some(), "zone maps pass through");

        let mut rows = 0;
        f.scan(&mut |_, _, _| {
            rows += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(rows, 64);
    }

    #[test]
    fn per_call_latency_is_paid_per_access() {
        let f = wrap(20, 0);
        let locs = [RowLocator::new(0)];
        let t0 = Instant::now();
        f.read_rows(&locs, &[2]).unwrap();
        f.read_rows(&locs, &[2]).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(40),
            "two calls pay two round trips"
        );
    }

    #[test]
    fn concurrent_callers_split_seek_charges_instead_of_multiplying() {
        // 4 threads × 16 single-row reads, 1 seek each, per_seek = 2ms:
        // 64 seeks total = 128ms of charge, overlapped 4 ways ≈ 32ms/thread.
        // Charging each call for every *other* in-flight caller's seeks
        // (the shared-counter-delta bug) would bill ~4 seeks per call —
        // ~128ms of sleep per thread. The high-water mark must keep each
        // thread's bill near its own share.
        let f = wrap(0, 2);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let f = &f;
                s.spawn(move || {
                    for i in 0..16u64 {
                        // Scattered rows: one seek per read.
                        let loc = [RowLocator::new((t * 16 + i) % 64)];
                        f.read_rows(&loc, &[2]).unwrap();
                    }
                });
            }
        });
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(90),
            "cross-charging detected: {elapsed:?} (expected ~32-60ms)"
        );
    }

    #[test]
    fn pushdown_saves_wall_clock_under_seek_latency() {
        let window = Rect::new(20.0, 30.0, -1.0, 8.0);
        // Full scan: every stripe decoded, 3 seeks per stripe.
        let full = wrap(0, 2);
        let t0 = Instant::now();
        full.scan(&mut |_, _, _| Ok(())).unwrap();
        let full_elapsed = t0.elapsed();
        // Filtered scan: ~3 of 16 stripes survive the zone maps.
        let filtered = wrap(0, 2);
        let t0 = Instant::now();
        let request = ScanRequest {
            window: Some(&window),
            ..ScanRequest::whole(&[0, 1, 2])
        };
        filtered.scan_batches(&request, &mut |_| Ok(())).unwrap();
        let filtered_elapsed = t0.elapsed();
        assert!(
            filtered_elapsed * 2 < full_elapsed,
            "block skipping must dodge the per-seek latency: {filtered_elapsed:?} vs {full_elapsed:?}"
        );
        assert!(filtered.counters().blocks_skipped() > 0);
    }
}
