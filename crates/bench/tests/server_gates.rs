//! Multi-session server gates against a full remote stack — zone image on
//! an [`ObjectStore`] with 500 µs injected per request, HTTP ranged GETs,
//! one shared block cache, a `SharedIndex`, and a [`PaiServer`] on
//! top:
//!
//! * **bitwise** — a sequential client's served answers (values, CIs,
//!   error bounds, met-constraint flags) are *bit-identical* to an
//!   in-process library run of the same query sequence over an
//!   identically-constructed fresh stack (floats compared via
//!   `f64::to_bits`, so `-0.0` and ULP drift would fail);
//! * **scaling** — a closed-loop fleet of clients spread zipf-style over
//!   named map-exploration sessions finishes the same schedule at
//!   strictly higher QPS with `workers = 4` than with `workers = 1`
//!   (the injected GET latency, behind a cache of one part, is what the
//!   worker pool overlaps);
//! * **saturation** — hundreds of clients hammer two sessions behind a
//!   deliberately tiny queue: backpressure must answer (`Busy` frames
//!   observed, counted, and equal to the server's own meter), every
//!   client still completes every query (no hangs, no dropped
//!   connections, no dropped replies), and the client-observed p99 stays
//!   within [`P99_MULT`] × p50 (merged from per-client log-bucketed
//!   histograms — the merge is the point).
//!
//! The bitwise gate runs in debug builds too. The other two compare
//! wall-clock and run in release builds only:
//! `cargo test --release -p pai-bench --test server_gates --
//! --include-ignored --test-threads=1`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pai_bench::{cached_zone, small_setup, Fig2Setup};
use pai_common::geometry::Rect;
use pai_common::{AggregateFunction, AggregateValue, Interval, LatencyHistogram};
use pai_core::{ApproxResult, EngineConfig, SharedIndex};
use pai_index::init::build;
use pai_query::Workload;
use pai_server::{PaiClient, PaiServer, ServedAnswer, ServedReply, ServerConfig};
use pai_storage::{
    BlockCache, CacheConfig, CachedFile, FaultPlan, HttpFile, HttpOptions, ObjectStore,
};

/// Named sessions the closed loop's clients spread over (zipf-popular).
const SESSIONS: usize = 6;
/// Concurrent client connections in the scaling leg; the saturation leg
/// uses 8× this (at least 64).
const CLIENTS: usize = 24;
/// Queries each client issues before disconnecting.
const QUERIES_PER_CLIENT: usize = 8;
/// Per-session queue depth of the saturation leg (small on purpose so
/// backpressure fires).
const QUEUE_DEPTH: usize = 2;
/// Saturation gate: client-observed p99 must stay within this multiple of
/// p50. The histogram buckets are powers of two, so the bound tolerates
/// the 2× bucket over-estimate; an unbounded-queueing bug shows up as
/// 1000×+.
const P99_MULT: u64 = 128;

/// Injected per-request GET latency: the round-trip cost the worker pool
/// must overlap.
const GATE_LATENCY: Duration = Duration::from_micros(500);

const OBJECT: &str = "server-bench.paizone";
const PHI: f64 = 0.05;

fn aggs() -> Vec<AggregateFunction> {
    vec![AggregateFunction::Count, AggregateFunction::Mean(2)]
}

/// Serves the bench dataset's zone image on a dedicated store.
fn serve(setup: &Fig2Setup, latency: Duration) -> ObjectStore {
    let zone = cached_zone(&setup.spec);
    let bytes = std::fs::read(zone.path().expect("cached zone on disk")).expect("read image");
    let store = ObjectStore::serve_with(latency, FaultPlan::Off).expect("start object store");
    store.put(OBJECT, bytes);
    store
}

/// The gates' dataset and its store, serving with the injected latency.
fn gate_store() -> (Fig2Setup, ObjectStore) {
    let setup = small_setup(50_000);
    let store = serve(&setup, GATE_LATENCY);
    (setup, store)
}

/// The engine configuration every stack runs — pinned (not env-derived)
/// so the bitwise gate's two stacks are deterministic replicas.
fn engine_cfg(setup: &Fig2Setup) -> EngineConfig {
    EngineConfig {
        adapt_batch: 8,
        fetch_workers: 2,
        ..setup.engine.clone()
    }
}

/// Block cache of the bitwise and saturation gates: it holds the whole image.
const WARM_CACHE_BYTES: u64 = 64 << 20;

/// Block cache of the scaling gate: one 64 KiB part, so a query's reads go
/// to the wire and the closed loop waits on GETs, which is what the worker
/// pool overlaps. Behind the warm cache a leg issued about 8 GETs and the
/// gate compared CPU time on a 2-core box, where 4 workers lost to 1 in about
/// one run in ten.
const COLD_CACHE_BYTES: u64 = 64 << 10;

/// A fresh serving stack: HTTP file over `store`, one shared block cache of
/// `cache_bytes`, a crude initial index, and the `SharedIndex` every session
/// evaluates through. Constructed identically every call, so two stacks adapt
/// identically under the same query sequence.
fn fresh_stack(
    setup: &Fig2Setup,
    store: &ObjectStore,
    cache_bytes: u64,
) -> Arc<SharedIndex<CachedFile>> {
    let cache = Arc::new(BlockCache::new(CacheConfig::new(cache_bytes, 0)));
    let file = CachedFile::new(
        Box::new(HttpFile::open(store.addr(), OBJECT, HttpOptions::default()).expect("open http")),
        cache,
    );
    let (index, _) = build(&file, &setup.init).expect("init");
    Arc::new(SharedIndex::new(index, file, engine_cfg(setup)).expect("shared index"))
}

/// Session `s`'s exploration ladder, step `q`: a ~2 %-of-domain window in
/// the session's own region of the map, panned eastward per step — the
/// paper's analyst dragging a viewport.
fn session_window(domain: &Rect, sessions: usize, s: usize, q: usize) -> Rect {
    let f = s as f64 / sessions as f64;
    Workload::centered_window(domain, 0.02)
        .shifted(
            (f - 0.5) * 0.6 * domain.width() + q as f64 * 0.025 * domain.width(),
            (0.5 - f) * 0.6 * domain.height(),
        )
        .clamped_into(domain)
}

/// One client's closed-loop script: a named session and the windows it
/// visits, in order.
struct ClientPlan {
    session: String,
    windows: Vec<Rect>,
}

/// Builds the fleet: `clients` clients assigned to `sessions` named
/// sessions with zipf(s = 1.2) popularity (hot sessions get many
/// concurrent clients — the shared-cache case), each walking its
/// session's ladder from a client-specific offset.
fn make_plans(
    domain: &Rect,
    clients: usize,
    sessions: usize,
    queries: usize,
    seed: u64,
) -> Vec<ClientPlan> {
    let weights: Vec<f64> = (1..=sessions).map(|k| 1.0 / (k as f64).powf(1.2)).collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..clients)
        .map(|c| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let s = cdf.iter().position(|&p| u <= p).unwrap_or(sessions - 1);
            let windows = (0..queries)
                .map(|q| session_window(domain, sessions, s, (c + q) % queries))
                .collect();
            ClientPlan {
                session: format!("explorer-{s}"),
                windows,
            }
        })
        .collect()
}

/// What one closed-loop run observed, merged across every client.
struct LoopOutcome {
    hist: LatencyHistogram,
    answers: u64,
    busy: u64,
    wall: Duration,
}

impl LoopOutcome {
    fn qps(&self) -> f64 {
        self.answers as f64 / self.wall.as_secs_f64()
    }
}

/// Runs every client concurrently until each has an answer for every
/// window in its plan. `Busy` replies are counted and retried after a
/// short sleep (the polite closed loop); a query latency spans first
/// send → final answer, retries included, recorded into a per-client
/// histogram and merged at the end.
fn run_closed_loop(addr: SocketAddr, plans: &[ClientPlan]) -> LoopOutcome {
    let aggs = aggs();
    let t0 = Instant::now();
    let per_client: Vec<(LatencyHistogram, u64)> = std::thread::scope(|sc| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let aggs = &aggs;
                sc.spawn(move || {
                    let mut hist = LatencyHistogram::new();
                    let mut busy = 0u64;
                    let mut client =
                        PaiClient::connect(addr, &plan.session).expect("connect session");
                    for w in &plan.windows {
                        let q0 = Instant::now();
                        let mut attempts = 0u64;
                        loop {
                            match client.query(w, aggs, PHI).expect("query") {
                                ServedReply::Answer(a) => {
                                    assert!(a.met_constraint, "served answer missed φ");
                                    hist.record(q0.elapsed().as_micros() as u64);
                                    break;
                                }
                                ServedReply::Busy => {
                                    busy += 1;
                                    attempts += 1;
                                    assert!(
                                        attempts < 100_000,
                                        "backpressure never cleared: the loop is hung"
                                    );
                                    std::thread::sleep(Duration::from_micros(100));
                                }
                                ServedReply::ShuttingDown => {
                                    panic!("server drained mid-loop")
                                }
                            }
                        }
                    }
                    (hist, busy)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed();
    let mut merged = LatencyHistogram::new();
    let mut busy = 0u64;
    for (h, b) in &per_client {
        merged.merge(h);
        busy += b;
    }
    LoopOutcome {
        answers: merged.count(),
        hist: merged,
        busy,
        wall,
    }
}

fn bits(v: &AggregateValue) -> u64 {
    match v {
        AggregateValue::Count(c) => *c,
        AggregateValue::Float(f) => f.to_bits(),
        AggregateValue::Empty => u64::MAX,
    }
}

fn ci_bits(ci: &Option<Interval>) -> Option<(u64, u64)> {
    ci.as_ref().map(|i| (i.lo().to_bits(), i.hi().to_bits()))
}

/// A sequential served run is bit-identical to a library run of the same
/// query sequence over an identically-constructed fresh stack.
#[test]
fn served_matches_library_bitwise() {
    let (setup, store) = gate_store();
    let domain = setup.spec.domain;
    let windows: Vec<Rect> = (0..3)
        .flat_map(|s| (0..8).map(move |q| (s, q)))
        .map(|(s, q)| session_window(&domain, 3, s, q))
        .collect();
    let aggs = aggs();

    // Served run: one worker, one session, strictly sequential — the
    // server evaluates in exactly the order the library run will.
    let mut server = PaiServer::serve(
        fresh_stack(&setup, &store, WARM_CACHE_BYTES),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let t0 = Instant::now();
    let mut client = PaiClient::connect(server.addr(), "bitwise").expect("connect");
    let served: Vec<ServedAnswer> = windows
        .iter()
        .map(|w| match client.query(w, &aggs, PHI).expect("query") {
            ServedReply::Answer(a) => a,
            other => panic!("sequential client rejected: {other:?}"),
        })
        .collect();
    let wall = t0.elapsed();
    let stats = server.stats();
    server.shutdown();

    // Library run: a second stack built the same way answers the same
    // sequence in-process.
    let lib_engine = fresh_stack(&setup, &store, WARM_CACHE_BYTES);
    let lib: Vec<ApproxResult> = windows
        .iter()
        .map(|w| lib_engine.evaluate(w, &aggs, PHI).expect("evaluate"))
        .collect();

    for (i, (s, l)) in served.iter().zip(&lib).enumerate() {
        assert_eq!(s.values.len(), l.values.len(), "query {i}: value count");
        for (sv, lv) in s.values.iter().zip(&l.values) {
            assert_eq!(bits(sv), bits(lv), "query {i}: answer bits drifted");
        }
        for (sc, lc) in s.cis.iter().zip(&l.cis) {
            assert_eq!(ci_bits(sc), ci_bits(lc), "query {i}: CI bits drifted");
        }
        assert_eq!(
            s.error_bound.to_bits(),
            l.error_bound.to_bits(),
            "query {i}: error bound drifted"
        );
        assert_eq!(s.met_constraint, l.met_constraint, "query {i}: φ verdict");
    }
    assert_eq!(stats.queries_served, windows.len() as u64);
    assert_eq!(stats.busy_rejections, 0, "a polite client never sees Busy");
    assert_eq!(stats.dropped_replies, 0);
    assert_eq!(stats.errors, 0);
    println!(
        "server gate (bitwise): {} served answers bit-identical to the \
         library run ({:?})",
        windows.len(),
        wall
    );
}

/// The same zipf closed loop finishes at strictly higher QPS with four
/// workers than with one — the worker pool overlaps the injected GET
/// latency across sessions. Both legs run behind a cold cache
/// ([`COLD_CACHE_BYTES`]) so that latency is what a leg waits on.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: run with --release")]
fn parallel_workers_win() {
    let (setup, store) = gate_store();
    let plans = make_plans(
        &setup.spec.domain,
        CLIENTS,
        SESSIONS,
        QUERIES_PER_CLIENT,
        99,
    );
    let expected = (CLIENTS * QUERIES_PER_CLIENT) as u64;

    let mut outcomes = Vec::new();
    for workers in [1usize, 4] {
        let mut server = PaiServer::serve(
            fresh_stack(&setup, &store, COLD_CACHE_BYTES),
            ServerConfig {
                workers,
                queue_depth: 64,
                inflight_cap: 16,
                ..ServerConfig::default()
            },
        )
        .expect("serve");
        let o = run_closed_loop(server.addr(), &plans);
        let stats = server.stats();
        server.shutdown();
        assert_eq!(
            o.answers, expected,
            "workers={workers}: a query went unanswered"
        );
        assert_eq!(stats.queries_served, expected);
        assert_eq!(stats.dropped_replies, 0);
        assert_eq!(stats.errors, 0);
        outcomes.push(o);
    }
    let (one, four) = (&outcomes[0], &outcomes[1]);
    assert!(
        four.qps() > one.qps(),
        "4 workers must out-serve 1 under remote latency: {:.1} vs {:.1} QPS",
        four.qps(),
        one.qps()
    );
    println!(
        "server gate (scaling): workers=1 {:.1} QPS (p50 {} µs, p99 {} µs), \
         workers=4 {:.1} QPS (p50 {} µs, p99 {} µs) — {:.2}x",
        one.qps(),
        one.hist.p50_us(),
        one.hist.p99_us(),
        four.qps(),
        four.hist.p50_us(),
        four.hist.p99_us(),
        four.qps() / one.qps()
    );
}

/// Hundreds of clients against two sessions behind a tiny queue.
/// Backpressure must be explicit (`Busy` frames, metered identically on
/// both ends), nothing may hang or drop, and the merged client-observed
/// p99 stays within [`P99_MULT`] × p50.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock gate: run with --release")]
fn saturation_is_graceful() {
    let (setup, store) = gate_store();
    let domain = setup.spec.domain;
    let sessions = SESSIONS.min(2);
    let sat_clients = (CLIENTS * 8).max(64);
    let mut server = PaiServer::serve(
        fresh_stack(&setup, &store, WARM_CACHE_BYTES),
        ServerConfig {
            workers: 2,
            queue_depth: QUEUE_DEPTH,
            inflight_cap: 1,
            ..ServerConfig::default()
        },
    )
    .expect("serve");

    // Warm every window first (adaptation done), so the burst measures
    // queueing under saturation rather than first-touch fetch cost.
    let mut warmed = 0u64;
    {
        let mut warm = PaiClient::connect(server.addr(), "explorer-0").expect("connect");
        for s in 0..sessions {
            for q in 0..QUERIES_PER_CLIENT {
                let w = session_window(&domain, sessions, s, q);
                loop {
                    match warm.query(&w, &aggs(), PHI).expect("warm query") {
                        ServedReply::Answer(_) => {
                            warmed += 1;
                            break;
                        }
                        ServedReply::Busy => std::thread::sleep(Duration::from_micros(100)),
                        ServedReply::ShuttingDown => panic!("server drained during warmup"),
                    }
                }
            }
        }
    }

    let plans = make_plans(&domain, sat_clients, sessions, QUERIES_PER_CLIENT, 173);
    let expected = (sat_clients * QUERIES_PER_CLIENT) as u64;
    let o = run_closed_loop(server.addr(), &plans);
    let stats = server.stats();
    server.shutdown();

    assert_eq!(o.answers, expected, "a saturated client went unanswered");
    assert_eq!(stats.queries_served, expected + warmed);
    assert!(
        o.busy > 0,
        "{} clients behind a {}-deep queue must trip backpressure",
        sat_clients,
        QUEUE_DEPTH
    );
    assert_eq!(
        stats.busy_rejections, o.busy,
        "every Busy frame the clients saw is one the server metered"
    );
    assert_eq!(stats.dropped_replies, 0, "no reply fell on the floor");
    assert_eq!(stats.errors, 0);
    let (p50, p99) = (o.hist.p50_us().max(1), o.hist.p99_us());
    assert!(
        p99 <= P99_MULT * p50,
        "saturated tail blew the gate: p99 {} µs > {} × p50 {} µs",
        p99,
        P99_MULT,
        p50
    );
    println!(
        "server gate (saturation): {} clients / {} sessions / queue {} → \
         {:.1} QPS, {} busy rejections, p50 {} µs, p99 {} µs (bound {}x)",
        sat_clients,
        sessions,
        QUEUE_DEPTH,
        o.qps(),
        o.busy,
        p50,
        p99,
        P99_MULT
    );
}
