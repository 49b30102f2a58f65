//! Property test of the page-granular cache path in `HttpBlob`: whatever
//! the span batch, the budgets, the worker count, the coalescing switch or
//! the admission mode, a cached read returns exactly the bytes a direct
//! slice of the object would, the memory budget holds after every call, a
//! warmed ample cache does zero HTTP work, and the request pattern does not
//! depend on how many workers issue it.

use std::sync::Arc;

use pai_common::IoCounters;
use pai_storage::cache::PAGE_BYTES;
use pai_storage::{BlockCache, CacheConfig, CacheMode, HttpBlob, HttpOptions, ObjectStore};
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
