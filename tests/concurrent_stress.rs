//! Concurrency stress for the optimistic plan/fetch/apply path.
//!
//! Several writers adapt one `SharedIndex` over *overlapping* windows —
//! maximizing plan conflicts (a tile split by one writer while another
//! holds a fetched plan for it) — while readers hammer metadata estimates.
//! Every answer must stay sound: the deterministic CI contains the ground
//! truth no matter how the schedules interleave, and the index invariants
//! hold afterwards. A final test races the same writer/reader mix through
//! one *shared block cache* with a deliberately tiny memory budget,
//! so admissions, LRU evictions, ghost promotions, and cache hits
//! interleave freely — truth containment proves no torn or misplaced
//! block ever reaches a query. Two server legs re-run the shared-cache
//! race *over the wire* through `PaiServer`'s session queues and worker
//! pool (every served answer truth-checked), and prove a client killed
//! mid-query costs the server nothing but a metered dropped reply. A
//! synopsis leg races zero-adaptation `estimate_synopsis` readers against
//! the same adapting writers: every estimate handed out mid-race must
//! still bound the ground truth. One leg pins the point of the lock
//! strategy: readers complete while a writer's fetches stall on a slow file.
//! The ingest leg also recounts every exact metadata claim from the file
//! after each batch (`check_exact_metadata`): the CIs' complement rule leans
//! on those sums.
//!
//! CI runs this suite in **release mode** as a dedicated step so
//! lock-ordering and optimistic-apply bugs surface under optimized timing,
//! not just the forgiving debug-build interleavings.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pai_common::{AttrId, PaiError};
use pai_core::ci::sum_slack;
use pai_core::SharedIndex;
use pai_index::{AttrMeta, TileId};
use pai_storage::ground_truth::window_truth;
use partial_adaptive_indexing::prelude::*;

fn build_shared(
    rows: u64,
    seed: u64,
    adapt_batch: usize,
    fetch_workers: usize,
) -> Arc<SharedIndex<MemFile>> {
    let spec = DatasetSpec {
        rows,
        columns: 4,
        seed,
        ..Default::default()
    };
    let file = spec.build_mem(CsvFormat::default()).unwrap();
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 6, ny: 6 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    };
    let (index, _) = build(&file, &init).unwrap();
    let config = EngineConfig {
        adapt_batch,
        fetch_workers,
        ..EngineConfig::paper_evaluation()
    };
    Arc::new(SharedIndex::new(index, file, config).unwrap())
}

/// Truth-containment with endpoint slack for fully-resolved (point) CIs,
/// whose float merge order may differ from the sequential scan's.
fn ci_sound(ci: Option<Interval>, truth: f64) -> bool {
    match ci {
        Some(ci) => {
            ci.contains(truth)
                || (truth - ci.lo()).abs() < 1e-9 * (1.0 + ci.lo().abs())
                || (truth - ci.hi()).abs() < 1e-9 * (1.0 + ci.hi().abs())
        }
        None => false,
    }
}

/// Recomputes every exact metadata claim of `index` from `file` — each
/// tile's value count, NULL count, min, max and sum, for leaves and inner
/// tiles alike — and errors on the first that does not hold. A stored sum
/// may lie off the recomputed one by no more than the rounding slack the
/// CI's complement rule allows: past it, an interval built on the stored
/// sum could miss the truth. Reads every indexed row once.
fn check_exact_metadata(index: &ValinorIndex, file: &dyn RawFile) -> pai_common::Result<()> {
    let tiles: Vec<TileId> = (0..index.tile_count() as u32).map(TileId).collect();
    let attrs: Vec<AttrId> = (0..index.schema().len())
        .filter(|&a| tiles.iter().any(|&t| index.tile(t).meta.has_exact(a)))
        .collect();
    if attrs.is_empty() {
        return Ok(());
    }
    let leaves: Vec<TileId> = tiles
        .iter()
        .copied()
        .filter(|&t| index.tile(t).is_leaf())
        .collect();
    let locators: Vec<_> = leaves
        .iter()
        .flat_map(|&t| index.tile(t).entries().iter().map(|e| e.locator))
        .collect();
    let rows = file.read_rows(&locators, &attrs)?;
    let mut recomputed: Vec<Option<Vec<Recount>>> = vec![None; tiles.len()];
    let mut next_row = 0;
    for &leaf in &leaves {
        let mut counts = vec![Recount::default(); attrs.len()];
        for _ in index.tile(leaf).entries() {
            for (c, &v) in counts.iter_mut().zip(rows.row(next_row)) {
                c.push(v);
            }
            next_row += 1;
        }
        recomputed[leaf.index()] = Some(counts);
    }
    for &t in &tiles {
        let counts = recount(index, t, &mut recomputed, attrs.len());
        for (c, &a) in counts.iter().zip(&attrs) {
            let Some(AttrMeta::Exact { stats, nulls }) = index.tile(t).meta.get(a) else {
                continue;
            };
            let n = stats.count();
            let sum_off = (stats.sum() - c.sum()).abs();
            let holds = (n, *nulls) == (c.values, c.nulls)
                && stats.min() == c.min()
                && stats.max() == c.max()
                && sum_off <= sum_slack(n, c.max_abs).unwrap_or(f64::INFINITY);
            if !holds {
                return Err(PaiError::internal(format!(
                    "tile {} attribute {a}: exact metadata claims {n} values, {nulls} \
                     NULLs, range {:?}..{:?}, sum {}; the file holds {} values, {} \
                     NULLs, range {:?}..{:?}, sum {}",
                    t.index(),
                    stats.min(),
                    stats.max(),
                    stats.sum(),
                    c.values,
                    c.nulls,
                    c.min(),
                    c.max(),
                    c.sum()
                )));
            }
        }
    }
    Ok(())
}

/// One attribute's values recounted from the file: a compensated
/// (Neumaier) sum, so that it stands in for the true sum.
#[derive(Debug, Clone, Copy, Default)]
struct Recount {
    values: u64,
    nulls: u64,
    sum: f64,
    compensation: f64,
    min: f64,
    max: f64,
    max_abs: f64,
}

impl Recount {
    fn push(&mut self, v: f64) {
        if v.is_nan() {
            self.nulls += 1;
            return;
        }
        (self.min, self.max) = match self.values {
            0 => (v, v),
            _ => (self.min.min(v), self.max.max(v)),
        };
        self.values += 1;
        self.max_abs = self.max_abs.max(v.abs());
        self.add(v);
    }

    fn add(&mut self, v: f64) {
        let t = self.sum + v;
        self.compensation += if self.sum.abs() >= v.abs() {
            (self.sum - t) + v
        } else {
            (v - t) + self.sum
        };
        self.sum = t;
    }

    fn merge(&mut self, other: &Recount) {
        if other.values > 0 {
            (self.min, self.max) = match self.values {
                0 => (other.min, other.max),
                _ => (self.min.min(other.min), self.max.max(other.max)),
            };
        }
        self.values += other.values;
        self.nulls += other.nulls;
        self.max_abs = self.max_abs.max(other.max_abs);
        self.add(other.sum);
        self.add(other.compensation);
    }

    fn sum(&self) -> f64 {
        self.sum + self.compensation
    }

    fn min(&self) -> Option<f64> {
        (self.values > 0).then_some(self.min)
    }

    fn max(&self) -> Option<f64> {
        (self.values > 0).then_some(self.max)
    }
}

/// Tile `t`'s recounts: a leaf's from its rows, an inner tile's merged
/// from its children's.
fn recount<'a>(
    index: &ValinorIndex,
    t: TileId,
    memo: &'a mut [Option<Vec<Recount>>],
    width: usize,
) -> &'a [Recount] {
    if memo[t.index()].is_none() {
        let mut counts = vec![Recount::default(); width];
        for &child in index.tile(t).children() {
            for (c, o) in counts.iter_mut().zip(recount(index, child, memo, width)) {
                c.merge(o);
            }
        }
        memo[t.index()] = Some(counts);
    }
    memo[t.index()].as_deref().expect("filled above")
}

/// The heart of the stress: N writers over overlapping windows + M readers,
/// all answers checked against precomputed ground truth.
fn stress(adapt_batch: usize, fetch_workers: usize, phi: f64, seed: u64) {
    let shared = build_shared(6000, seed, adapt_batch, fetch_workers);
    // Overlapping window ladder: every consecutive pair shares most of its
    // area, so writers constantly re-plan tiles their peers are splitting.
    let windows: Vec<Rect> = (0..6)
        .map(|i| {
            let off = i as f64 * 60.0;
            Rect::new(120.0 + off, 560.0 + off, 120.0 + off, 560.0 + off)
        })
        .collect();
    let truths: Vec<f64> = windows
        .iter()
        .map(|w| window_truth(shared.file(), w, &[2]).unwrap()[0].stats.sum())
        .collect();
    let aggs = [AggregateFunction::Sum(2)];
    let conflicts = AtomicU64::new(0);

    std::thread::scope(|s| {
        for writer in 0..4usize {
            let shared = Arc::clone(&shared);
            let (windows, truths, aggs) = (&windows, &truths, &aggs);
            let conflicts = &conflicts;
            s.spawn(move || {
                // Each writer walks the ladder from a different start, so
                // at any instant several writers work the same region.
                for step in 0..windows.len() * 2 {
                    let i = (writer + step) % windows.len();
                    let res = shared.evaluate(&windows[i], aggs, phi).unwrap();
                    assert!(res.met_constraint, "writer {writer} window {i}");
                    assert!(res.error_bound <= phi + 1e-12);
                    assert!(
                        ci_sound(res.cis[0], truths[i]),
                        "writer {writer} window {i}: CI {:?} lost truth {}",
                        res.cis[0],
                        truths[i]
                    );
                    conflicts.fetch_add(res.stats.plan_conflicts as u64, Ordering::Relaxed);
                }
            });
        }
        for _ in 0..4usize {
            let shared = Arc::clone(&shared);
            let (windows, aggs) = (&windows, &aggs);
            s.spawn(move || {
                for step in 0..60 {
                    let w = &windows[step % windows.len()];
                    let res = shared.estimate(w, aggs).unwrap();
                    // A metadata estimate's CI is sound at whatever
                    // adaptation state it observed.
                    assert!(res.error_bound >= 0.0);
                }
            });
        }
    });

    shared.with_index(|idx| idx.validate_invariants().unwrap());
    // After the dust settles, every window answers tightly from metadata.
    for (w, &t) in windows.iter().zip(&truths) {
        let res = shared.evaluate(w, &aggs, phi).unwrap();
        assert!(res.met_constraint);
        assert!(ci_sound(res.cis[0], t));
    }
    println!(
        "stress(batch={adapt_batch}, phi={phi}): {} plan conflicts absorbed",
        conflicts.load(Ordering::Relaxed)
    );
}

#[test]
fn writers_race_sequentially_batched() {
    stress(1, 1, 0.05, 17);
}

#[test]
fn writers_race_with_batched_pipeline() {
    stress(4, 1, 0.05, 23);
}

#[test]
fn writers_race_with_overlapped_fetch() {
    // Streamed fetch→apply: each writer's plans apply under per-plan write
    // locks while its own fetch workers still have reads in flight, so
    // optimistic re-checks race against both peers' splits and the
    // writer's own pipeline.
    stress(4, 8, 0.05, 37);
}

#[test]
fn writers_race_exact_answering() {
    // φ = 0: every contested tile must end fully resolved despite
    // conflicting plans; answers are exact.
    stress(3, 1, 0.0, 29);
}

#[test]
fn writers_race_over_one_shared_block_cache() {
    // One remote zone image, one shared cache that holds only a sliver of
    // the working set: 4 writers adapt a SharedIndex over a cached file
    // while 2 readers run pruned truth scans through their *own* cached
    // files over the same cache. Admissions, evictions and hits race
    // constantly; every answer is checked against a local-zone ground
    // truth, so a torn page or a span served under the wrong key would
    // surface as a wrong sum.
    let spec = DatasetSpec {
        rows: 12_000,
        columns: 4,
        seed: 41,
        ..Default::default()
    };
    let csv = spec.build_mem(CsvFormat::default()).unwrap();
    let image = convert_to_zone(&csv).unwrap();
    let zone = ZoneFile::from_bytes(image.clone()).unwrap();
    let store = ObjectStore::serve().unwrap();
    let mem_budget = (image.len() / 4) as u64;
    store.put("stress.paizone", image);
    let cache = Arc::new(BlockCache::new(CacheConfig::new(mem_budget, 0)));
    let open = || {
        CachedFile::new(
            Box::new(
                HttpFile::open(store.addr(), "stress.paizone", HttpOptions::default()).unwrap(),
            ),
            Arc::clone(&cache),
        )
    };

    let file = open();
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 6, ny: 6 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    };
    let (index, _) = build(&file, &init).unwrap();
    let config = EngineConfig {
        adapt_batch: 4,
        fetch_workers: 4,
        ..EngineConfig::paper_evaluation()
    };
    let shared = Arc::new(SharedIndex::new(index, file, config).unwrap());

    let windows: Vec<Rect> = (0..6)
        .map(|i| {
            let off = i as f64 * 60.0;
            Rect::new(120.0 + off, 560.0 + off, 120.0 + off, 560.0 + off)
        })
        .collect();
    let truths: Vec<f64> = windows
        .iter()
        .map(|w| window_truth(&zone, w, &[2]).unwrap()[0].stats.sum())
        .collect();
    let aggs = [AggregateFunction::Sum(2)];
    let reader_evictions = AtomicU64::new(0);

    std::thread::scope(|s| {
        for writer in 0..4usize {
            let shared = Arc::clone(&shared);
            let (windows, truths, aggs) = (&windows, &truths, &aggs);
            s.spawn(move || {
                for step in 0..windows.len() * 2 {
                    let i = (writer + step) % windows.len();
                    let res = shared.evaluate(&windows[i], aggs, 0.05).unwrap();
                    assert!(res.met_constraint, "writer {writer} window {i}");
                    assert!(
                        ci_sound(res.cis[0], truths[i]),
                        "writer {writer} window {i}: CI {:?} lost truth {} (cache corruption?)",
                        res.cis[0],
                        truths[i]
                    );
                }
            });
        }
        for reader in 0..2usize {
            let (open, reader_evictions) = (&open, &reader_evictions);
            let (windows, truths) = (&windows, &truths);
            s.spawn(move || {
                let f = open();
                for step in 0..windows.len() * 2 {
                    let i = (reader + step) % windows.len();
                    let t = window_truth(&f, &windows[i], &[2]).unwrap()[0].stats.sum();
                    assert_eq!(
                        t, truths[i],
                        "reader {reader} window {i}: torn or misplaced cached block"
                    );
                }
                reader_evictions.fetch_add(f.counters().cache_evictions(), Ordering::Relaxed);
            });
        }
    });

    shared.with_index(|idx| idx.validate_invariants().unwrap());
    let c = shared.file().counters();
    assert!(c.cache_hits() > 0, "the shared cache actually served spans");
    assert!(
        cache.mem_used() <= mem_budget,
        "memory budget violated: {} > {mem_budget}",
        cache.mem_used()
    );
    assert!(
        c.cache_evictions() + reader_evictions.load(Ordering::Relaxed) > 0,
        "the sliver-sized cache must have evicted pages mid-race"
    );
    // After the dust settles, answers are still sound through the cache.
    for (w, &t) in windows.iter().zip(&truths) {
        let res = shared.evaluate(w, &aggs, 0.05).unwrap();
        assert!(res.met_constraint);
        assert!(ci_sound(res.cis[0], t));
    }
}

#[test]
fn served_sessions_race_adaptation_over_one_shared_cache() {
    // The server-shaped variant of the shared-cache race: N client
    // sessions drive adaptation through `PaiServer`'s worker pool — over
    // the wire, through the session queues and admission control — while
    // the same tiny cache absorbs the churn. Every *served*
    // answer is checked against a local-zone ground truth, so a scheduler
    // bug (lost reply, crossed session, torn frame) or a cache bug
    // surfaces as a wrong or missing sum.
    let spec = DatasetSpec {
        rows: 12_000,
        columns: 4,
        seed: 43,
        ..Default::default()
    };
    let csv = spec.build_mem(CsvFormat::default()).unwrap();
    let image = convert_to_zone(&csv).unwrap();
    let zone = ZoneFile::from_bytes(image.clone()).unwrap();
    let store = ObjectStore::serve().unwrap();
    let mem_budget = (image.len() / 4) as u64;
    store.put("served.paizone", image);
    let cache = Arc::new(BlockCache::new(CacheConfig::new(mem_budget, 0)));
    let file = CachedFile::new(
        Box::new(HttpFile::open(store.addr(), "served.paizone", HttpOptions::default()).unwrap()),
        Arc::clone(&cache),
    );
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 6, ny: 6 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    };
    let (index, _) = build(&file, &init).unwrap();
    let config = EngineConfig {
        adapt_batch: 4,
        fetch_workers: 4,
        ..EngineConfig::paper_evaluation()
    };
    let shared = Arc::new(pai_core::SharedIndex::new(index, file, config).unwrap());
    let mut server = PaiServer::serve(
        shared,
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let windows: Vec<Rect> = (0..6)
        .map(|i| {
            let off = i as f64 * 60.0;
            Rect::new(120.0 + off, 560.0 + off, 120.0 + off, 560.0 + off)
        })
        .collect();
    let truths: Vec<f64> = windows
        .iter()
        .map(|w| window_truth(&zone, w, &[2]).unwrap()[0].stats.sum())
        .collect();
    let aggs = [AggregateFunction::Sum(2)];

    std::thread::scope(|s| {
        for client_id in 0..6usize {
            let (windows, truths, aggs) = (&windows, &truths, &aggs);
            s.spawn(move || {
                let session = format!("racer-{}", client_id % 3);
                let mut client = PaiClient::connect(addr, &session).unwrap();
                for step in 0..windows.len() * 2 {
                    let i = (client_id + step) % windows.len();
                    // Polite closed loop: admission control may push back
                    // under 6 racing sessions; retry until answered.
                    let answer = loop {
                        match client.query(&windows[i], aggs, 0.05).unwrap() {
                            ServedReply::Answer(a) => break a,
                            ServedReply::Busy => {
                                std::thread::sleep(std::time::Duration::from_micros(200))
                            }
                            ServedReply::ShuttingDown => panic!("premature drain"),
                        }
                    };
                    assert!(answer.met_constraint, "client {client_id} window {i}");
                    assert!(
                        ci_sound(answer.cis[0], truths[i]),
                        "client {client_id} window {i}: served CI {:?} lost truth {}",
                        answer.cis[0],
                        truths[i]
                    );
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.dropped_replies, 0, "every reply reached its client");
    assert_eq!(stats.errors, 0);
    assert!(stats.queries_served >= 6 * 12);
    server.shutdown();
    assert!(
        cache.mem_used() > 0,
        "the shared cache actually absorbed blocks"
    );
    assert!(
        cache.mem_used() <= mem_budget,
        "memory budget violated: {} > {mem_budget}",
        cache.mem_used()
    );
}

#[test]
fn killed_client_mid_query_leaves_the_server_healthy() {
    // A client that fires a query and vanishes before reading the reply
    // must cost the server nothing: the worker's send fails, is metered
    // as a dropped reply, and every other session keeps getting sound
    // answers.
    let shared = build_shared(4000, 47, 2, 2);
    let window = Rect::new(150.0, 550.0, 150.0, 550.0);
    let truth = window_truth(shared.file(), &window, &[2]).unwrap()[0]
        .stats
        .sum();
    let aggs = [AggregateFunction::Sum(2)];
    let mut server = PaiServer::serve(
        shared,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Raw connections: handshake, fire one query each, drop without
    // reading the answer (simulating a killed client process).
    use pai_server::protocol::{Request, Response, PROTOCOL_VERSION};
    use pai_storage::netio::{write_frame, ConnBuf};
    for k in 0..4u64 {
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            session: "doomed".into(),
        };
        write_frame(&mut stream, &hello.encode()).unwrap();
        let mut buf = ConnBuf::new();
        let frame = buf.read_frame(&mut stream).unwrap().unwrap();
        assert!(matches!(
            Response::decode(frame).unwrap(),
            Response::HelloOk { .. }
        ));
        let q = Request::Query {
            id: k,
            window,
            phi: 0.05,
            aggs: aggs.to_vec(),
        };
        write_frame(&mut stream, &q.encode()).unwrap();
        drop(stream); // killed mid-query: the reply has nowhere to go
    }

    // A surviving session still gets sound answers afterwards.
    let mut survivor = PaiClient::connect(server.addr(), "survivor").unwrap();
    for _ in 0..3 {
        let answer = loop {
            match survivor.query(&window, &aggs, 0.05).unwrap() {
                ServedReply::Answer(a) => break a,
                ServedReply::Busy => std::thread::sleep(std::time::Duration::from_micros(200)),
                ServedReply::ShuttingDown => panic!("premature drain"),
            }
        };
        assert!(answer.met_constraint);
        assert!(ci_sound(answer.cis[0], truth));
    }
    // The doomed queries were evaluated; their replies were dropped (a
    // racing TCP teardown may also surface as a queue-side error, but
    // nothing hangs and nothing is silently lost).
    let stats = server.stats();
    assert!(
        stats.dropped_replies + stats.errors > 0,
        "vanished clients must be visible in the meters"
    );
    server.shutdown();
}

/// Readers are never blocked by a writer's file I/O: while a writer's
/// fetches stall on a slow file, with no lock held, reader estimates keep
/// completing inside its `evaluate` span — in the middle half of it, away
/// from the edges where an estimate straddling a lock held across the whole
/// query could also land.
#[test]
fn readers_complete_inside_a_writers_evaluate() {
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    let spec = DatasetSpec {
        rows: 4000,
        columns: 4,
        seed: 59,
        ..Default::default()
    };
    let file = spec.build_mem(CsvFormat::default()).unwrap();
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 6, ny: 6 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    };
    let (index, _) = build(&file, &init).unwrap();
    let slow = LatencyFile::new(Box::new(file), Duration::from_millis(5), Duration::ZERO);
    let shared = SharedIndex::new(index, slow, EngineConfig::paper_evaluation()).unwrap();
    let window = Rect::new(120.0, 560.0, 120.0, 560.0);
    let aggs = [AggregateFunction::Mean(2)];
    let writing = AtomicBool::new(true);

    let ((t0, t1, res), completions) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let t0 = Instant::now();
            let res = shared.evaluate(&window, &aggs, 0.0).unwrap();
            let t1 = Instant::now();
            writing.store(false, Ordering::Release);
            (t0, t1, res)
        });
        let mut completions = Vec::new();
        while writing.load(Ordering::Acquire) {
            shared.estimate(&window, &aggs).unwrap();
            completions.push(Instant::now());
        }
        (writer.join().unwrap(), completions)
    });

    assert!(
        res.stats.io.read_calls >= 3,
        "the writer must fetch through the slow file: {} calls",
        res.stats.io.read_calls
    );
    let quarter = (t1 - t0) / 4;
    let inside = completions
        .iter()
        .filter(|&&c| c > t0 + quarter && c < t1 - quarter)
        .count();
    assert!(
        inside > 0,
        "none of {} reader estimates completed inside the writer's evaluate — \
         is a lock held across file I/O?",
        completions.len()
    );
}

/// The ingest-while-explore race: appending writers stream delta batches
/// into a `SharedIndex` over a *cached remote* base while a 1 ms background
/// compactor re-clusters sealed delta runs, adapting evaluators refine the
/// same index, synopsis readers probe the zero-adaptation path (which must
/// cleanly refuse to answer over a mutating file), and an independent truth
/// reader scans the base through its own handle on the same sliver-budget
/// cache.
///
/// After every batch an appender also recounts each tile's exact metadata
/// from the file (`check_exact_metadata`): the CIs lean on those sums.
///
/// Soundness against the *final* row set is made checkable mid-race by
/// construction: every appended row carries `0.0` in the summed column, so
/// the Sum ground truth of the final row set equals the truth at every
/// intermediate state — any Sum CI handed out at any interleaving must
/// contain it. Counts grow monotonically batch by batch, so every Count CI
/// must intersect `[initial, final]`. After the dust settles, exact
/// (φ = 0) answers must hit the final counts and the invariant sums on the
/// nose.
#[test]
fn ingest_while_explore_race_stays_sound_over_one_shared_cache() {
    use pai_core::{compact_now, spawn_compactor, CompactorConfig};
    use pai_storage::AppendableFile;

    let spec = DatasetSpec {
        rows: 12_000,
        columns: 4,
        seed: 53,
        ..Default::default()
    };
    let csv = spec.build_mem(CsvFormat::default()).unwrap();
    let image = convert_to_zone(&csv).unwrap();
    let zone = ZoneFile::from_bytes(image.clone()).unwrap();
    let store = ObjectStore::serve().unwrap();
    let mem_budget = (image.len() / 4) as u64;
    store.put("ingest-stress.paizone", image);
    let cache = Arc::new(BlockCache::new(CacheConfig::new(mem_budget, 0)));
    let open = || {
        CachedFile::new(
            Box::new(
                HttpFile::open(
                    store.addr(),
                    "ingest-stress.paizone",
                    HttpOptions::default(),
                )
                .unwrap(),
            ),
            Arc::clone(&cache),
        )
    };
    let file =
        AppendableFile::with_layout(open(), spec.rows, 256, SynopsisSpec::default()).unwrap();
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 6, ny: 6 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    };
    let (index, _) = build(&file, &init).unwrap();
    let config = EngineConfig {
        synopsis: true,
        adapt_batch: 4,
        fetch_workers: 4,
        ..EngineConfig::paper_evaluation()
    };
    let shared = Arc::new(SharedIndex::new(index, file, config).unwrap());
    let compactor = spawn_compactor(
        Arc::clone(&shared),
        CompactorConfig {
            min_run: 2,
            interval: std::time::Duration::from_millis(1),
        },
    );

    // The deterministic delta stream: 2 writers × 8 batches × 128 rows,
    // scattered on both axes, summed column pinned to 0.0 (see above).
    const WRITERS: usize = 2;
    const BATCHES: usize = 8;
    const BATCH_ROWS: usize = 128;
    let delta_batch = |writer: usize, batch: usize| -> Vec<Vec<f64>> {
        (0..BATCH_ROWS)
            .map(|i| {
                let k = (writer * BATCHES + batch) * BATCH_ROWS + i;
                let x = ((k * 37 + 11) % 1000) as f64 + 0.5;
                let y = ((k * 73 + 29) % 1000) as f64 + 0.5;
                vec![x, y, 0.0, 1.0 + k as f64]
            })
            .collect()
    };
    let total_appended = (WRITERS * BATCHES * BATCH_ROWS) as u64;

    let windows: Vec<Rect> = (0..6)
        .map(|i| {
            let off = i as f64 * 60.0;
            Rect::new(120.0 + off, 560.0 + off, 120.0 + off, 560.0 + off)
        })
        .collect();
    // Sum truth is append-invariant; counts are bracketed per window.
    let truths: Vec<(u64, u64, f64)> = windows
        .iter()
        .map(|w| {
            let t = &window_truth(&zone, w, &[2]).unwrap()[0];
            let appended: u64 = (0..WRITERS)
                .flat_map(|wr| (0..BATCHES).map(move |b| (wr, b)))
                .flat_map(|(wr, b)| delta_batch(wr, b))
                .filter(|row| w.contains_point(Point2::new(row[0], row[1])))
                .count() as u64;
            (t.selected, t.selected + appended, t.stats.sum())
        })
        .collect();
    let aggs = [AggregateFunction::Count, AggregateFunction::Sum(2)];
    let slack = |x: f64| 1e-9 * (1.0 + x.abs());
    let synopsis_probes = AtomicU64::new(0);

    std::thread::scope(|s| {
        for writer in 0..WRITERS {
            let shared = Arc::clone(&shared);
            s.spawn(move || {
                for batch in 0..BATCHES {
                    let rows = delta_batch(writer, batch);
                    let receipt = shared.ingest(&rows).unwrap();
                    assert_eq!(receipt.locators.len(), BATCH_ROWS, "appender {writer}");
                    // The sums the CIs' complement rule leans on still
                    // describe each tile's rows, ingested ones included.
                    shared
                        .with_index(|idx| check_exact_metadata(idx, shared.file()))
                        .unwrap_or_else(|e| panic!("appender {writer} batch {batch}: {e}"));
                }
            });
        }
        for evaluator in 0..3usize {
            let shared = Arc::clone(&shared);
            let (windows, truths, aggs) = (&windows, &truths, &aggs);
            s.spawn(move || {
                for step in 0..windows.len() * 2 {
                    let i = (evaluator + step) % windows.len();
                    let (lo, hi, sum) = truths[i];
                    let res = shared.evaluate(&windows[i], aggs, 0.05).unwrap();
                    assert!(res.met_constraint, "evaluator {evaluator} window {i}");
                    let count_ci = res.cis[0].expect("count CI");
                    assert!(
                        count_ci.hi() >= lo as f64 - slack(lo as f64)
                            && count_ci.lo() <= hi as f64 + slack(hi as f64),
                        "evaluator {evaluator} window {i}: count CI {count_ci:?} \
                         outside [{lo}, {hi}]"
                    );
                    assert!(
                        ci_sound(res.cis[1], sum),
                        "evaluator {evaluator} window {i}: sum CI {:?} lost the \
                         append-invariant truth {sum}",
                        res.cis[1]
                    );
                }
            });
        }
        // Synopsis readers: over a *mutating* file the synopsis path must
        // refuse to answer (`block_synopses` is `None` by contract — a
        // base-only synopsis answer would silently drop appended rows), and
        // the refusal must stay clean under full writer/compactor churn.
        for reader in 0..2usize {
            let shared = Arc::clone(&shared);
            let (windows, probed) = (&windows, &synopsis_probes);
            s.spawn(move || {
                for step in 0..windows.len() * 3 {
                    let i = (reader + step) % windows.len();
                    let res = shared
                        .estimate_synopsis(&windows[i], &[AggregateFunction::Count])
                        .unwrap();
                    assert!(
                        res.is_none(),
                        "synopsis reader {reader} window {i}: a synopsis-built \
                         answer over a mutating file would drop appended rows"
                    );
                    probed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Base-integrity reader: pruned truth scans of the *base* through an
        // independent handle on the same cache must keep seeing the original
        // rows exactly, while compactions invalidate and writers churn it.
        {
            let open = &open;
            let (windows, truths) = (&windows, &truths);
            s.spawn(move || {
                let f = open();
                for step in 0..windows.len() * 2 {
                    let i = step % windows.len();
                    let t = &window_truth(&f, &windows[i], &[2]).unwrap()[0];
                    assert_eq!(
                        (t.selected, t.stats.sum()),
                        (truths[i].0, truths[i].2),
                        "base reader window {i}: torn or misplaced cached block"
                    );
                }
            });
        }
    });

    let stats = compactor.stop();
    assert_eq!(stats.errors, 0, "compactor passes must never fail");
    // Leave the delta store fully compacted; whether the background thread
    // or this call did the last rewrite is timing, but *someone* compacted.
    compact_now(&shared, 1).unwrap();
    let io = shared.file().counters().snapshot();
    assert_eq!(io.rows_ingested, total_appended);
    assert!(
        io.compactions >= 1,
        "the delta store was never re-clustered"
    );
    shared.with_index(|idx| idx.validate_invariants().unwrap());
    shared
        .with_index(|idx| check_exact_metadata(idx, shared.file()))
        .unwrap();

    // Quiesced: exact answers must hit the final row set on the nose.
    for (w, &(_, final_count, sum)) in windows.iter().zip(&truths) {
        let res = shared.evaluate(w, &aggs, 0.0).unwrap();
        assert_eq!(res.values[0], AggregateValue::Count(final_count));
        let got = res.values[1].as_f64().unwrap();
        assert!(
            (got - sum).abs() <= slack(sum),
            "final sum {got} drifted from {sum}"
        );
    }
    // Counts, parent links and every exact claim up the hierarchy survived
    // the race and the quiesced enrichments.
    shared.with_index(|idx| idx.validate_invariants().unwrap());
    shared
        .with_index(|idx| check_exact_metadata(idx, shared.file()))
        .unwrap();
    assert!(
        shared.file().counters().cache_hits() > 0,
        "the shared cache actually served spans"
    );
    assert!(
        cache.mem_used() <= mem_budget,
        "memory budget violated: {} > {mem_budget}",
        cache.mem_used()
    );
    assert!(
        synopsis_probes.load(Ordering::Relaxed) > 0,
        "the synopsis readers actually probed mid-race"
    );
    println!(
        "ingest race: {} synopsis probes mid-race, {} compactor passes, {} compactions",
        synopsis_probes.load(Ordering::Relaxed),
        stats.passes,
        io.compactions
    );
}

/// Synopsis readers race writers adapting the same `SharedIndex`: every
/// zero-adaptation estimate handed out mid-race must still bound the
/// ground truth. The synopsis path folds block moments against a snapshot
/// of the *live* index's exact selected counts, so a stale or torn view of
/// a tile being split concurrently would surface as a CI that lost the
/// truth. Runs over the remote zone image through a sliver-sized shared
/// block cache, so the writers churn the cache at the same time.
#[test]
fn synopsis_readers_stay_sound_while_writers_adapt() {
    let spec = DatasetSpec {
        rows: 12_000,
        columns: 4,
        seed: 47,
        ..Default::default()
    };
    let csv = spec.build_mem(CsvFormat::default()).unwrap();
    let image = convert_to_zone(&csv).unwrap();
    let zone = ZoneFile::from_bytes(image.clone()).unwrap();
    let store = ObjectStore::serve().unwrap();
    let mem_budget = (image.len() / 4) as u64;
    store.put("synopsis-stress.paizone", image);
    let cache = Arc::new(BlockCache::new(CacheConfig::new(mem_budget, 0)));
    let file = CachedFile::new(
        Box::new(
            HttpFile::open(
                store.addr(),
                "synopsis-stress.paizone",
                HttpOptions::default(),
            )
            .unwrap(),
        ),
        Arc::clone(&cache),
    );
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 6, ny: 6 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    };
    let (index, _) = build(&file, &init).unwrap();
    let config = EngineConfig {
        synopsis: true,
        adapt_batch: 4,
        fetch_workers: 4,
        ..EngineConfig::paper_evaluation()
    };
    let shared = Arc::new(SharedIndex::new(index, file, config).unwrap());

    let windows: Vec<Rect> = (0..6)
        .map(|i| {
            let off = i as f64 * 60.0;
            Rect::new(120.0 + off, 560.0 + off, 120.0 + off, 560.0 + off)
        })
        .collect();
    let aggs = [AggregateFunction::Count, AggregateFunction::Sum(2)];
    let truths: Vec<(f64, f64)> = windows
        .iter()
        .map(|w| {
            let t = &window_truth(&zone, w, &[2]).unwrap()[0];
            (t.selected as f64, t.stats.sum())
        })
        .collect();

    let answered = AtomicU64::new(0);
    std::thread::scope(|s| {
        for writer in 0..4usize {
            let shared = Arc::clone(&shared);
            let (windows, truths, aggs) = (&windows, &truths, &aggs);
            s.spawn(move || {
                for step in 0..windows.len() * 2 {
                    let i = (writer + step) % windows.len();
                    let res = shared.evaluate(&windows[i], aggs, 0.05).unwrap();
                    assert!(res.met_constraint, "writer {writer} window {i}");
                    assert!(
                        ci_sound(res.cis[0], truths[i].0),
                        "writer {writer} window {i}: count CI {:?} lost {}",
                        res.cis[0],
                        truths[i].0
                    );
                    assert!(
                        ci_sound(res.cis[1], truths[i].1),
                        "writer {writer} window {i}: sum CI {:?} lost {}",
                        res.cis[1],
                        truths[i].1
                    );
                }
            });
        }
        for reader in 0..3usize {
            let shared = Arc::clone(&shared);
            let (windows, truths, aggs, answered) = (&windows, &truths, &aggs, &answered);
            s.spawn(move || {
                for step in 0..windows.len() * 3 {
                    let i = (reader + step) % windows.len();
                    // The explicit zero-adaptation reader entry: whatever
                    // index state it snapshots mid-race, a handed-out
                    // estimate must bound the truth.
                    if let Some(res) = shared.estimate_synopsis(&windows[i], aggs).unwrap() {
                        assert!(
                            ci_sound(res.cis[0], truths[i].0),
                            "reader {reader} window {i}: count CI {:?} lost {}",
                            res.cis[0],
                            truths[i].0
                        );
                        assert!(
                            ci_sound(res.cis[1], truths[i].1),
                            "reader {reader} window {i}: sum CI {:?} lost {}",
                            res.cis[1],
                            truths[i].1
                        );
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    assert!(
        answered.load(Ordering::Relaxed) > 0,
        "the synopsis path answered at least once mid-race"
    );
    assert!(
        shared.file().counters().synopsis_hits() > 0,
        "synopsis consultations must be metered"
    );
    shared.with_index(|idx| idx.validate_invariants().unwrap());
    // After the dust settles the adaptive path still meets its constraint.
    for (w, &(count, sum)) in windows.iter().zip(&truths) {
        let res = shared.evaluate(w, &aggs, 0.05).unwrap();
        assert!(res.met_constraint);
        assert!(ci_sound(res.cis[0], count) && ci_sound(res.cis[1], sum));
    }
}

/// `check_exact_metadata` itself: it holds on an adapted index with inner
/// tiles, passes an honest ingest and fails a stale sum.
#[test]
fn exact_metadata_recount_catches_a_stale_sum() {
    use pai_index::ObjectEntry;
    use pai_storage::AppendableFile;
    let spec = DatasetSpec {
        rows: 2000,
        columns: 4,
        seed: 8,
        ..Default::default()
    };
    let base = spec.build_mem(CsvFormat::default()).unwrap();
    let file = AppendableFile::with_layout(base, 2000, 64, SynopsisSpec::default()).unwrap();
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 4, ny: 4 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    };
    let (idx, _) = build(&file, &init).unwrap();
    let mut eng = ApproximateEngine::new(idx, &file, EngineConfig::paper_evaluation()).unwrap();
    let window = Rect::new(130.0, 610.0, 170.0, 720.0);
    eng.evaluate_exact(&window, &[AggregateFunction::Sum(2)])
        .unwrap();
    let mut idx = eng.into_index();
    assert!(idx.splits_performed() > 0, "inner tiles are checked too");
    check_exact_metadata(&idx, &file).unwrap();

    // An ingested row the index folds as the file holds it: still true.
    // One whose value the index folds 1.0 off what the file holds — a
    // stale sum under the right count, min and max — fails the check.
    let mid = idx.global_bounds(2).unwrap().midpoint();
    for (folded, holds) in [(mid, true), (mid + 1.0, false)] {
        let row = vec![500.0, 500.0, mid, mid];
        let locator = file
            .append_rows(std::slice::from_ref(&row))
            .unwrap()
            .locators[0];
        let entry = ObjectEntry::new(row[0], row[1], locator);
        idx.ingest_entry(entry, &[row[0], row[1], folded, mid])
            .unwrap();
        let checked = check_exact_metadata(&idx, &file);
        assert_eq!(checked.is_ok(), holds, "{checked:?}");
    }
}
