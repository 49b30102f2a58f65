//! Property test of the page-granular cache path in `HttpBlob`: whatever
//! the span batch, the budgets, the worker count, the coalescing switch or
//! the admission mode, a cached read returns exactly the bytes a direct
//! slice of the object would, the memory budget holds after every call, a
//! warmed ample cache does zero HTTP work, and the request pattern does not
//! depend on how many workers issue it. A scan's batches — long contiguous
//! runs cut into blocks, `CacheMode::Stream`, lent out of the responses
//! instead of copied — are held to the same slices, to one GET per run of
//! missing pages whatever the part size, and to the one-touch admission rule.
//! Above the blob, every file wrapper carries the seam that binds a cache
//! to the transport and drops its pages again, and answers every other
//! optional `RawFile` call from the file it wraps.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use pai_common::geometry::Rect;
use pai_common::{IoCounters, PaiError, RowLocator};
use pai_storage::cache::PAGE_BYTES;
use pai_storage::zone::encode_zone_rows_with;
use pai_storage::{
    AppendableFile, BlockCache, CacheConfig, CacheMode, CachedFile, HttpBlob, HttpFile,
    HttpOptions, LatencyFile, ObjectStore, RawFile, Schema, ZoneFile, DELTA_BLOCK_ROWS,
};
use proptest::prelude::*;

/// Deterministic filler: position-dependent, so a slice served from the
/// wrong offset or page cannot pass for the right one.
fn blob_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

/// Turns one raw draw into a span inside a `len`-byte object. The kinds
/// cover zero-length spans, sub-page runs, spans straddling one to three
/// page boundaries, and spans that end in the (short) last page.
fn span_of(len: u64, kind: usize, at: f64, size: f64) -> (u64, u64) {
    let off = ((at * len as f64) as u64).min(len - 1);
    let room = len - off;
    let want = match kind {
        0 => 0,
        1 => 1 + (size * 600.0) as u64,
        2 => PAGE_BYTES / 2 + (size * PAGE_BYTES as f64) as u64,
        3 => PAGE_BYTES + (size * 2.0 * PAGE_BYTES as f64) as u64,
        _ => room,
    };
    (off, want.min(room))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cached_reads_equal_direct_slices_at_every_budget_width_and_mode(
        len in 1usize..(5 * PAGE_BYTES as usize + 777),
        seed in any::<u64>(),
        draws in prop::collection::vec((0usize..6, 0.0f64..1.0, 0.0f64..1.0), 1..24),
    ) {
        let store = ObjectStore::serve().unwrap();
        let payload = blob_bytes(len, seed);
        store.put("blob", payload.clone());
        let mut spans: Vec<(u64, u64)> = draws
            .iter()
            .map(|&(kind, at, size)| span_of(len as u64, kind, at, size))
            .collect();
        // Kind 5 repeats an earlier span: duplicates in one batch.
        for (i, &(kind, ..)) in draws.iter().enumerate() {
            if kind == 5 {
                spans[i] = spans[i / 2];
            }
        }
        let expect: Vec<&[u8]> = spans
            .iter()
            .map(|&(off, n)| &payload[off as usize..(off + n) as usize])
            .collect();
        let ample = 8 * PAGE_BYTES;
        for mem_bytes in [0, PAGE_BYTES, 3 * PAGE_BYTES, ample] {
            for coalesce in [true, false] {
                for mode in [CacheMode::Admit, CacheMode::Stream] {
                    // Per read: (GETs, wire bytes) at each worker count.
                    let mut patterns: Vec<Vec<(u64, u64)>> = Vec::new();
                    for workers in [1, 2, 8] {
                        let opts = HttpOptions {
                            part_bytes: 2 * PAGE_BYTES,
                            coalesce,
                            ..HttpOptions::default()
                        }
                        .with_fetch_workers(workers);
                        let blob = HttpBlob::open(store.addr(), "blob", opts, IoCounters::new())
                            .unwrap();
                        let cache = Arc::new(BlockCache::new(CacheConfig::new(mem_bytes, 0)));
                        prop_assert!(blob.attach_cache(Arc::clone(&cache)));
                        let label = format!(
                            "len={len} mem={mem_bytes} coalesce={coalesce} {mode:?} workers={workers}"
                        );
                        let mut pattern = Vec::new();
                        for read in 0..3 {
                            let io = blob.counters().snapshot();
                            let bufs = blob.read_spans_mode(&spans, mode).unwrap();
                            let io = blob.counters().snapshot().since(&io);
                            pattern.push((io.http_requests, io.http_bytes));
                            prop_assert_eq!(bufs.len(), expect.len());
                            for (k, (buf, want)) in bufs.iter().zip(&expect).enumerate() {
                                prop_assert!(
                                    buf.as_slice() == *want,
                                    "{label}: read {read}, span {k} {:?} differs",
                                    spans[k]
                                );
                            }
                            prop_assert!(
                                cache.mem_used() <= mem_bytes,
                                "{label}: {} bytes resident",
                                cache.mem_used()
                            );
                        }
                        // A streamed page is admitted on its second touch,
                        // so `Stream` is warm one read later than `Admit`.
                        let warm = if mode == CacheMode::Admit { 1 } else { 2 };
                        if mem_bytes == ample {
                            prop_assert_eq!(pattern[warm].0, 0, "{}: warm read", label);
                        }
                        // Out of range stays an error, cache or no cache.
                        let beyond = [spans[0], (len as u64 - 1, 2)];
                        prop_assert!(blob.read_spans_mode(&beyond, mode).is_err(), "{}", label);
                        patterns.push(pattern);
                    }
                    prop_assert!(
                        patterns.iter().all(|p| *p == patterns[0]),
                        "mem={mem_bytes} coalesce={coalesce} {mode:?}: request pattern \
                         differs across worker counts: {patterns:?}"
                    );
                }
            }
        }
    }
}

/// The pages `spans` touch.
fn pages_of(spans: &[(u64, u64)]) -> BTreeSet<u64> {
    let touched = spans.iter().filter(|&&(_, n)| n > 0);
    touched
        .flat_map(|&(off, n)| off / PAGE_BYTES..=(off + n - 1) / PAGE_BYTES)
        .collect()
}

/// How many maximal runs of consecutive page numbers `pages` holds.
fn page_runs(pages: &BTreeSet<u64>) -> u64 {
    let starts = pages
        .iter()
        .filter(|&&p| p == 0 || !pages.contains(&(p - 1)));
    starts.count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn stream_runs_lend_direct_slices_and_admit_on_the_second_touch(
        n_pages in 8u64..40,
        tail in 0u64..PAGE_BYTES,
        seed in any::<u64>(),
        runs in prop::collection::vec((0.0f64..1.0, 1usize..12, 0.2f64..2.0), 1..4),
        warm in prop::collection::vec((0usize..4, 0.0f64..1.0), 0..6),
    ) {
        let len = n_pages * PAGE_BYTES + tail;
        let store = ObjectStore::serve().unwrap();
        let payload = blob_bytes(len as usize, seed);
        store.put("blob", payload.clone());
        // A scan's batch: each run a column's adjacent blocks, back to back.
        let mut spans: Vec<(u64, u64)> = Vec::new();
        let mut extents: Vec<(u64, u64)> = Vec::new();
        for &(at, blocks, size) in &runs {
            let start = ((at * len as f64) as u64).min(len - 1);
            let block = ((size * PAGE_BYTES as f64) as u64).max(1);
            let mut off = start;
            for _ in 0..blocks {
                let n = block.min(len - off);
                spans.push((off, n));
                off += n;
            }
            extents.push((start, off - start));
        }
        // Positional reads that came before it: pages resident inside the runs.
        let warm: Vec<(u64, u64)> = warm
            .iter()
            .map(|&(run, frac)| {
                let (start, extent) = extents[run % extents.len()];
                let off = (start + (frac * extent as f64) as u64).min(len - 1);
                (off, 64.min(len - off))
            })
            .collect();
        let resident = pages_of(&warm);
        let touched = pages_of(&spans);
        let missing: BTreeSet<u64> = touched.difference(&resident).copied().collect();
        let ample = (n_pages + 2) * PAGE_BYTES;
        for mem_bytes in [0, PAGE_BYTES, 3 * PAGE_BYTES, ample] {
            for coalesce in [true, false] {
                let mut patterns: Vec<Vec<(u64, u64)>> = Vec::new();
                for workers in [1, 2, 8] {
                    let opts = HttpOptions {
                        part_bytes: 2 * PAGE_BYTES,
                        coalesce,
                        ..HttpOptions::default()
                    }
                    .with_fetch_workers(workers);
                    let blob = HttpBlob::open(store.addr(), "blob", opts, IoCounters::new())
                        .unwrap();
                    let cache = Arc::new(BlockCache::new(CacheConfig::new(mem_bytes, 0)));
                    prop_assert!(blob.attach_cache(Arc::clone(&cache)));
                    let label =
                        format!("len={len} mem={mem_bytes} coalesce={coalesce} workers={workers}");
                    blob.read_spans_mode(&warm, CacheMode::Admit).unwrap();
                    let mut pattern = Vec::new();
                    for read in 0..3 {
                        let io = blob.counters().snapshot();
                        let batch = blob.lend_spans(&spans, CacheMode::Stream).unwrap();
                        let io = blob.counters().snapshot().since(&io);
                        pattern.push((io.http_requests, io.http_bytes));
                        prop_assert_eq!(batch.len(), spans.len());
                        for (k, &(off, n)) in spans.iter().enumerate() {
                            prop_assert!(
                                batch.get(k) == &payload[off as usize..(off + n) as usize],
                                "{label}: read {read}, span {k} {:?} differs",
                                spans[k]
                            );
                        }
                        prop_assert!(cache.mem_used() <= mem_bytes, "{}", label);
                        if mem_bytes < ample {
                            continue;
                        }
                        // With room for everything the rule can be read off
                        // from outside: the first touch of a page is
                        // remembered and admits nothing, the second admits
                        // it, the third finds it. A run of missing pages is
                        // one GET, though the part size is two pages.
                        let (gets, entries) = match read {
                            0 => (missing.len(), resident.len()),
                            1 => (missing.len(), resident.len() + missing.len()),
                            _ => (0, resident.len() + missing.len()),
                        };
                        let runs = if gets == 0 { 0 } else { page_runs(&missing) };
                        prop_assert_eq!(io.cache_misses, gets as u64, "{}: read {}", label, read);
                        prop_assert_eq!(
                            io.http_requests,
                            if coalesce { runs } else { gets as u64 },
                            "{}: read {}", label, read
                        );
                        prop_assert_eq!(cache.entries(), entries, "{}: read {}", label, read);
                    }
                    patterns.push(pattern);
                }
                prop_assert!(
                    patterns.iter().all(|p| *p == patterns[0]),
                    "mem={mem_bytes} coalesce={coalesce}: request pattern differs across \
                     worker counts: {patterns:?}"
                );
            }
        }
    }
}

/// The second half of the rule: the page a scan's second touch admits enters
/// at the cold end, so it — not the oldest positional page — makes room for
/// the next admission.
#[test]
fn a_streamed_page_enters_at_the_cold_end() {
    let store = ObjectStore::serve().unwrap();
    let payload = blob_bytes(12 * PAGE_BYTES as usize, 3);
    store.put("blob", payload);
    let blob = HttpBlob::open(
        store.addr(),
        "blob",
        HttpOptions::default(),
        IoCounters::new(),
    )
    .unwrap();
    let cache = Arc::new(BlockCache::new(CacheConfig::new(4 * PAGE_BYTES, 0)));
    assert!(blob.attach_cache(Arc::clone(&cache)));
    let in_page = |p: u64| [(p * PAGE_BYTES + 100, 64)];
    let gets = |spans: &[(u64, u64)], mode| {
        let before = blob.counters().http_requests();
        blob.lend_spans(spans, mode).unwrap();
        blob.counters().http_requests() - before
    };
    for p in 0..3 {
        assert_eq!(gets(&in_page(p), CacheMode::Admit), 1);
    }
    assert_eq!(gets(&in_page(8), CacheMode::Stream), 1, "first touch");
    assert_eq!(cache.entries(), 3, "remembered, not admitted");
    assert_eq!(gets(&in_page(8), CacheMode::Stream), 1, "second touch");
    assert_eq!(cache.entries(), 4, "admitted");
    // The tier is full: page 3 displaces the streamed page, not page 0.
    assert_eq!(gets(&in_page(3), CacheMode::Admit), 1);
    for p in 0..4 {
        assert_eq!(gets(&in_page(p), CacheMode::Admit), 0, "page {p} stayed");
    }
    assert_eq!(
        gets(&in_page(8), CacheMode::Admit),
        1,
        "the scan's page left"
    );
}

/// `CachedFile` is the one way to bind a cache to a file, so `attach_cache`
/// and `invalidate_cache` must reach the transport through every file in
/// between: the box and `LatencyFile` answer from their inner file
/// (`RawFile::inner`), `AppendableFile` forwards to its base by hand. Over
/// an `HttpFile` bare, boxed as `dyn RawFile`, behind a `LatencyFile` and
/// behind an `AppendableFile`, the cache binds, serves a repeated full
/// read, and drops the object's pages on request.
/// The full read is positional: a scan is one-touch, so its first pass
/// admits nothing (see `a_streamed_page_enters_at_the_cold_end`).
#[test]
fn every_wrapper_carries_the_cache_seam() {
    const ROWS: u64 = 4096;
    let rows = (0..ROWS).map(|i| vec![i as f64, (i % 7) as f64, (i * 10) as f64]);
    let image = encode_zone_rows_with(&Schema::synthetic(3), rows, 256).unwrap();
    let store = ObjectStore::serve().unwrap();
    store.put("seam.paizone", image);
    let open = || HttpFile::open(store.addr(), "seam.paizone", HttpOptions::default()).unwrap();
    let boxed: Box<dyn RawFile> = Box::new(open());
    let latency = LatencyFile::new(Box::new(open()), Duration::ZERO, Duration::ZERO);
    let appendable = AppendableFile::with_base_rows(open(), ROWS).unwrap();
    let wrapped: [(&str, Box<dyn RawFile>); 4] = [
        ("HttpFile", Box::new(open())),
        ("Box<dyn RawFile>", Box::new(boxed)),
        ("LatencyFile", Box::new(latency)),
        ("AppendableFile", Box::new(appendable)),
    ];
    let every_row: Vec<RowLocator> = (0..ROWS).map(RowLocator::new).collect();
    for (label, inner) in wrapped {
        let cache = Arc::new(BlockCache::new(CacheConfig::new(64 << 20, 0)));
        let file = CachedFile::new(inner, Arc::clone(&cache));
        assert!(
            file.is_attached(),
            "{label}: the cache reached the transport"
        );
        let full_read = || {
            let before = file.counters().snapshot();
            let rows = file.read_rows(&every_row, &[0, 1, 2]).unwrap();
            (rows, file.counters().snapshot().since(&before))
        };
        let (cold_rows, cold) = full_read();
        let (warm_rows, warm) = full_read();
        assert_eq!(warm_rows, cold_rows, "{label}");
        assert!(
            warm.http_requests < cold.http_requests,
            "{label}: {} GETs warm vs {} cold",
            warm.http_requests,
            cold.http_requests
        );
        assert!(warm.cache_hits > 0, "{label}");
        let resident = cache.entries() as u64;
        assert!(resident > 0, "{label}");
        assert_eq!(file.invalidate_cache(), resident, "{label}: every page");
        assert_eq!(cache.entries(), 0, "{label}");
    }
}

/// A wrapper cannot forget a capability: `HttpFile`, a box, `LatencyFile`
/// and `CachedFile` answer every optional `RawFile` call from the file they
/// wrap (`RawFile::inner`), with no hand-written forward to drop. Over a
/// PaiZone v2 image each reports the zone maps, synopses, cost hint and
/// partitions of the local `ZoneFile` of the same bytes, and keeps a sealed
/// file's refusals; over an `AppendableFile` appends and compactions land.
/// `AppendableFile` itself is not such a wrapper: it changes what the file
/// holds, so it reports no zone maps or synopses although its base has both.
#[test]
fn a_wrapper_cannot_forget_a_capability() {
    const ROWS: u64 = 4096;
    let rows = (0..ROWS).map(|i| vec![i as f64, (i % 7) as f64, (i * 10) as f64]);
    let image = encode_zone_rows_with(&Schema::synthetic(3), rows, 256).unwrap();
    let local = || ZoneFile::from_bytes(image.clone()).unwrap();
    let reference = local();
    let stats = reference
        .block_stats()
        .expect("a PaiZone file has zone maps");
    let synopses = reference.block_synopses().expect("a v2 image has synopses");
    let store = ObjectStore::serve().unwrap();
    store.put("caps.paizone", image.clone());
    let open = || HttpFile::open(store.addr(), "caps.paizone", HttpOptions::default()).unwrap();
    let cache = || Arc::new(BlockCache::new(CacheConfig::new(64 << 20, 0)));
    let boxed: Box<dyn RawFile> = Box::new(open());
    let wrapped: [(&str, Box<dyn RawFile>); 4] = [
        ("HttpFile", Box::new(open())),
        ("Box<dyn RawFile>", Box::new(boxed)),
        (
            "LatencyFile",
            Box::new(LatencyFile::new(
                Box::new(open()),
                Duration::ZERO,
                Duration::ZERO,
            )),
        ),
        (
            "CachedFile",
            Box::new(CachedFile::new(Box::new(open()), cache())),
        ),
    ];
    let domain = Rect::new(0.0, 2.0 * ROWS as f64, 0.0, 8.0);
    for (label, file) in &wrapped {
        let file: &dyn RawFile = &**file;
        let got = file
            .block_stats()
            .unwrap_or_else(|| panic!("{label}: zone maps"));
        assert_eq!(got.len(), stats.len(), "{label}");
        assert!(got.iter().zip(stats).all(|(a, b)| a == b), "{label}");
        let got = file
            .block_synopses()
            .unwrap_or_else(|| panic!("{label}: synopses"));
        assert_eq!(got.len(), synopses.len(), "{label}");
        assert!(got.iter().zip(synopses).all(|(a, b)| a == b), "{label}");
        assert_eq!(
            file.value_bytes_hint(),
            reference.value_bytes_hint(),
            "{label}"
        );
        assert_eq!(
            file.partitions(4).unwrap(),
            reference.partitions(4).unwrap(),
            "{label}"
        );
        assert!(
            matches!(
                file.append_rows(&[vec![0.0; 3]]),
                Err(PaiError::UnsupportedQuery(_))
            ),
            "{label}: a sealed file refuses appends"
        );
        assert_eq!(file.compact_once(&domain, 1).unwrap(), None, "{label}");
    }

    let appendable = || AppendableFile::with_base_rows(local(), ROWS).unwrap();
    let plain = appendable();
    assert!(
        plain.block_stats().is_none(),
        "appended rows have no base zone maps"
    );
    assert!(
        plain.block_synopses().is_none(),
        "appended rows have no base synopses"
    );
    let over_appendable: [(&str, Box<dyn RawFile>); 2] = [
        (
            "LatencyFile",
            Box::new(LatencyFile::new(
                Box::new(appendable()),
                Duration::ZERO,
                Duration::ZERO,
            )),
        ),
        (
            "CachedFile",
            Box::new(CachedFile::new(Box::new(appendable()), cache())),
        ),
    ];
    let batch: Vec<Vec<f64>> = (0..DELTA_BLOCK_ROWS as u64)
        .map(|i| vec![(ROWS + i) as f64, (i % 5) as f64, 1.0])
        .collect();
    for (label, file) in &over_appendable {
        let file: &dyn RawFile = &**file;
        let receipt = file.append_rows(&batch).unwrap();
        assert_eq!(receipt.start_row, ROWS, "{label}");
        assert_eq!(receipt.locators.len(), batch.len(), "{label}");
        let report = file
            .compact_once(&domain, 1)
            .unwrap()
            .unwrap_or_else(|| panic!("{label}: the sealed block reached the compactor"));
        assert_eq!(report.blocks_rewritten, 1, "{label}");
        assert!(file.block_stats().is_none(), "{label}");
    }
}
