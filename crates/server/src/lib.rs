//! `pai-server`: multi-session socket serving for the partial adaptive
//! index.
//!
//! The paper's scenario is many analysts exploring one large file
//! concurrently; this crate turns the workspace's in-process
//! [`SharedIndex`](pai_core::SharedIndex) into exactly that — a
//! threaded TCP server where each analyst is a *named session* with a
//! bounded query queue, a worker pool feeds every query through the
//! optimistic plan/fetch/apply seam (so one session's adaptation
//! writes interleave with all other sessions' reads), and admission
//! control answers overload with an explicit `Busy` frame instead of
//! unbounded queueing.
//!
//! - [`PaiServer`] — acceptor + scheduler + worker pool ([`server`]).
//! - [`PaiClient`] — a small blocking client ([`client`]).
//! - [`protocol`] — the length-prefixed binary wire format (framing is
//!   shared with the object store via `pai_storage::netio`).
//!
//! Served answers are **bit-identical** to library answers: floats
//! travel as `f64::to_bits`, and the load harness
//! (`crates/bench/benches/server_bench.rs`) gates on equality against
//! an in-process run of the same workload. See `docs/SERVER.md` for
//! the protocol and lifecycle reference.

#![deny(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{IngestAck, IngestReply, PaiClient, ServedAnswer, ServedReply};
pub use server::{PaiServer, ServeEngine, ServerConfig, ServerStats};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pai_common::{AggregateFunction, Rect};
    use pai_core::{EngineConfig, SharedIndex};
    use pai_index::init::{build, GridSpec, InitConfig};
    use pai_index::MetadataPolicy;
    use pai_storage::{CsvFormat, DatasetSpec, MemFile};

    use super::*;

    fn shared_engine(rows: u64, seed: u64) -> (Arc<SharedIndex<MemFile>>, Rect) {
        let spec = DatasetSpec {
            rows,
            columns: 4,
            seed,
            ..Default::default()
        };
        let file = spec.build_mem(CsvFormat::default()).unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 5, ny: 5 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (index, _) = build(&file, &init).unwrap();
        let shared = SharedIndex::new(index, file, EngineConfig::paper_evaluation()).unwrap();
        let window = Rect::new(150.0, 550.0, 150.0, 550.0);
        (Arc::new(shared), window)
    }

    #[test]
    fn served_answers_match_library_answers_bitwise() {
        let (engine, window) = shared_engine(3000, 7);
        let server = PaiServer::serve(engine.clone(), ServerConfig::default()).unwrap();
        let aggs = [AggregateFunction::Count, AggregateFunction::Mean(2)];

        let mut client = PaiClient::connect(server.addr(), "bitwise").unwrap();
        let served = match client.query(&window, &aggs, 0.05).unwrap() {
            ServedReply::Answer(a) => a,
            other => panic!("expected an answer, got {other:?}"),
        };
        assert!(served.met_constraint);

        // The library run AFTER the served query sees the same (now
        // adapted) index state, so both answer from identical metadata.
        let lib = engine.evaluate(&window, &aggs, 0.05).unwrap();
        assert_eq!(served.values, lib.values);
        assert_eq!(served.cis, lib.cis);
    }

    #[test]
    fn sessions_are_shared_by_name_and_capped() {
        let (engine, _) = shared_engine(1500, 11);
        let server = PaiServer::serve(
            engine,
            ServerConfig {
                max_sessions: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let a = PaiClient::connect(server.addr(), "alpha").unwrap();
        let b = PaiClient::connect(server.addr(), "alpha").unwrap();
        // Two connections naming the same session share one id.
        assert_eq!(a.session_id(), b.session_id());
        let c = PaiClient::connect(server.addr(), "beta").unwrap();
        assert_ne!(a.session_id(), c.session_id());
        // The cap counts distinct names, so a third name is refused.
        assert!(PaiClient::connect(server.addr(), "gamma").is_err());
        assert_eq!(server.stats().sessions_opened, 2);
    }

    #[test]
    fn query_before_hello_is_a_protocol_error() {
        use pai_storage::netio::{write_frame, ConnBuf};
        use std::net::TcpStream;

        let (engine, window) = shared_engine(1500, 13);
        let server = PaiServer::serve(engine, ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let q = protocol::Request::Query {
            id: 5,
            window,
            phi: 0.05,
            aggs: vec![AggregateFunction::Count],
        };
        write_frame(&mut stream, &q.encode()).unwrap();
        let mut buf = ConnBuf::new();
        let frame = buf.read_frame(&mut stream).unwrap().unwrap();
        match protocol::Response::decode(frame).unwrap() {
            protocol::Response::Error { id, msg } => {
                assert_eq!(id, 5);
                assert!(msg.contains("Hello"), "{msg}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_refused() {
        use pai_storage::netio::{write_frame, ConnBuf};
        use std::net::TcpStream;

        let (engine, _) = shared_engine(1500, 19);
        let server = PaiServer::serve(engine, ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let hello = protocol::Request::Hello {
            version: protocol::PROTOCOL_VERSION + 1,
            session: "x".into(),
        };
        write_frame(&mut stream, &hello.encode()).unwrap();
        let mut buf = ConnBuf::new();
        let frame = buf.read_frame(&mut stream).unwrap().unwrap();
        assert!(matches!(
            protocol::Response::decode(frame).unwrap(),
            protocol::Response::Error { .. }
        ));
    }

    /// An engine whose evaluations announce themselves and then wait to be
    /// let go — how a test holds a worker without timing anything.
    struct Held {
        inner: Arc<SharedIndex<MemFile>>,
        entered: std::sync::mpsc::Sender<()>,
        /// Yields once per token sent, and for good once the sender is gone.
        release: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl ServeEngine for Held {
        fn evaluate(
            &self,
            window: &Rect,
            aggs: &[AggregateFunction],
            phi: f64,
        ) -> pai_common::Result<pai_core::ApproxResult> {
            self.entered.send(()).ok();
            self.release.lock().unwrap().recv().ok();
            self.inner.evaluate(window, aggs, phi)
        }
    }

    #[test]
    fn full_queue_yields_busy_and_recovers() {
        let (engine, window) = shared_engine(4000, 23);
        let (entered, worker_entered) = std::sync::mpsc::channel();
        let (let_go, release) = std::sync::mpsc::channel();
        // One worker, one in-flight, queue of one: with the worker held on
        // the first query and the second one queued, every further query of
        // the burst must see Busy.
        let server = PaiServer::serve(
            Arc::new(Held {
                inner: engine,
                entered,
                release: std::sync::Mutex::new(release),
            }),
            ServerConfig {
                workers: 1,
                queue_depth: 1,
                inflight_cap: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let aggs = [AggregateFunction::Sum(2)];

        // Fire queries from several raw connections on one session
        // without waiting for answers, so the queue genuinely fills.
        use pai_storage::netio::{write_frame, ConnBuf};
        use std::net::TcpStream;
        let mut conns = Vec::new();
        for i in 0..6 {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            let hello = protocol::Request::Hello {
                version: protocol::PROTOCOL_VERSION,
                session: "burst".into(),
            };
            write_frame(&mut stream, &hello.encode()).unwrap();
            let mut buf = ConnBuf::new();
            let frame = buf.read_frame(&mut stream).unwrap().unwrap();
            assert!(matches!(
                protocol::Response::decode(frame).unwrap(),
                protocol::Response::HelloOk { .. }
            ));
            let q = protocol::Request::Query {
                id: 1,
                window,
                phi: 0.02,
                aggs: aggs.to_vec(),
            };
            write_frame(&mut stream, &q.encode()).unwrap();
            if i == 0 {
                // The rest of the burst arrives while the worker is inside
                // this query.
                worker_entered.recv().unwrap();
            }
            conns.push((stream, buf));
        }
        // Every connection gets exactly one reply: Answer or Busy, no
        // hangs and no dropped connections. While the worker is held only
        // rejections can come back — one query in flight and one queued
        // leave four of them — and the admitted two follow once it is let go.
        let mut answers = 0u64;
        let mut busy = 0u64;
        let (reply, replies) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            for (mut stream, mut buf) in conns {
                let reply = reply.clone();
                s.spawn(move || {
                    let frame = buf.read_frame(&mut stream).unwrap().unwrap();
                    reply
                        .send(protocol::Response::decode(frame).unwrap())
                        .unwrap();
                });
            }
            let mut let_go = Some(let_go);
            for i in 0..6 {
                if i == 4 {
                    let_go.take();
                }
                // The wait only bounds a failure; nothing here is timed.
                let within = std::time::Duration::from_secs(60);
                match replies.recv_timeout(within).expect("a reply per query") {
                    protocol::Response::Answer { .. } if i >= 4 => answers += 1,
                    protocol::Response::Busy { .. } => busy += 1,
                    other => panic!("unexpected reply {i}: {other:?}"),
                }
            }
        });
        assert_eq!(answers + busy, 6);
        assert!(busy > 0, "a 1-deep queue must reject a 6-query burst");
        assert_eq!(server.stats().busy_rejections, busy);

        // Backpressure is transient: a polite client succeeds afterwards.
        let mut client = PaiClient::connect(server.addr(), "burst").unwrap();
        assert!(matches!(
            client.query(&window, &aggs, 0.05).unwrap(),
            ServedReply::Answer(_)
        ));
    }

    #[test]
    fn shutdown_drains_and_rejects_late_queries() {
        let (engine, window) = shared_engine(3000, 29);
        let mut server = PaiServer::serve(
            engine,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let aggs = [AggregateFunction::Mean(2)];
        let mut client = PaiClient::connect(server.addr(), "drain").unwrap();
        assert!(matches!(
            client.query(&window, &aggs, 0.05).unwrap(),
            ServedReply::Answer(_)
        ));
        server.shutdown();
        // Queries after shutdown are refused, not hung: either the
        // scheduler answers ShuttingDown or the connection is gone.
        match client.query(&window, &aggs, 0.05) {
            Ok(ServedReply::ShuttingDown) | Err(_) => {}
            other => panic!("expected shutdown rejection, got {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.queries_served, 1);
        assert!(stats.service_hist.count() >= 1);
        // Shutdown is idempotent.
        server.shutdown();
    }

    /// Reader threads blocked on peers that went quiet exit at shutdown and
    /// let go of the engine: a peer that sent only `Hello`, and one that
    /// sent nothing at all.
    #[test]
    fn shutdown_lets_go_of_the_engine_behind_silent_peers() {
        use pai_storage::netio::{write_frame, ConnBuf};
        use std::net::TcpStream;
        use std::time::{Duration, Instant};

        for hello in [true, false] {
            let (engine, _) = shared_engine(500, 41);
            let mut server = PaiServer::serve(engine.clone(), ServerConfig::default()).unwrap();
            let mut silent = TcpStream::connect(server.addr()).unwrap();
            if hello {
                let hello = protocol::Request::Hello {
                    version: protocol::PROTOCOL_VERSION,
                    session: "quiet".into(),
                };
                write_frame(&mut silent, &hello.encode()).unwrap();
                let mut buf = ConnBuf::new();
                let frame = buf.read_frame(&mut silent).unwrap().unwrap();
                assert!(matches!(
                    protocol::Response::decode(frame).unwrap(),
                    protocol::Response::HelloOk { .. }
                ));
            } else {
                // Connections are accepted in order: once a later one is
                // greeted, the silent one has its reader thread.
                PaiClient::connect(server.addr(), "later").unwrap();
            }
            server.shutdown();
            drop(server);
            let start = Instant::now();
            while Arc::strong_count(&engine) > 1 {
                assert!(
                    start.elapsed() < Duration::from_secs(2),
                    "hello {hello}: a reader thread still holds the engine"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            drop(silent);
        }
    }

    /// An engine whose every answer is an error of about a mebibyte — a
    /// reply that fills socket buffers in a few frames — once a gate the
    /// test holds lets it go.
    struct Loud {
        gate: std::sync::RwLock<()>,
    }

    impl ServeEngine for Loud {
        fn evaluate(
            &self,
            _: &Rect,
            _: &[AggregateFunction],
            _: f64,
        ) -> pai_common::Result<pai_core::ApproxResult> {
            drop(self.gate.read());
            Err(pai_common::PaiError::internal("x".repeat(1 << 20)))
        }
    }

    #[test]
    fn a_client_that_never_reads_cannot_pin_a_worker_or_the_drain() {
        use pai_storage::netio::{write_frame, MAX_FRAME_BYTES};
        use std::net::TcpStream;
        use std::time::{Duration, Instant};
        const { assert!(2 << 20 < MAX_FRAME_BYTES, "a reply is a legal frame") };
        let loud = Arc::new(Loud {
            gate: std::sync::RwLock::new(()),
        });
        // One query in flight and 62 queued: the 64th is refused, which is
        // how the test learns that the other 63 were admitted.
        let mut server = PaiServer::serve(
            loud.clone(),
            ServerConfig {
                workers: 1,
                queue_depth: 62,
                inflight_cap: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // Declared after the server, so a failing test lets the worker go
        // before the server's drop drains.
        let closed = loud.gate.write().unwrap();
        // Hello and 64 queries, and not one byte read back.
        let mut client = TcpStream::connect(server.addr()).unwrap();
        let hello = protocol::Request::Hello {
            version: protocol::PROTOCOL_VERSION,
            session: "mute".into(),
        };
        write_frame(&mut client, &hello.encode()).unwrap();
        for id in 0..64 {
            let q = protocol::Request::Query {
                id,
                window: Rect::new(0.0, 1.0, 0.0, 1.0),
                phi: 0.05,
                aggs: vec![AggregateFunction::Count],
            };
            write_frame(&mut client, &q.encode()).unwrap();
        }
        // 63 MiB of replies are owed to a client that reads none, against a
        // few of socket buffers. (The wait only bounds a failure.)
        let start = Instant::now();
        while server.stats().busy_rejections == 0 {
            assert!(start.elapsed() < Duration::from_secs(60), "no Busy");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (done, stats) = std::sync::mpsc::channel();
        let drain = std::thread::spawn(move || {
            server.shutdown();
            done.send(server.stats()).ok();
        });
        drop(closed);
        // One reply times out; once it has closed the connection every
        // later one fails at once. (A server that waits on the client for
        // good leaves `drain` detached: the failure is the missed deadline.)
        let deadline = server::REPLY_WRITE_TIMEOUT * 3;
        let stats = stats
            .recv_timeout(deadline)
            .expect("shutdown returns although the client never reads");
        drain.join().unwrap();
        assert!(stats.dropped_replies >= 1, "{stats:?}");
        assert_eq!(stats.queries_served, 0);
        drop(client);
    }

    #[test]
    fn ingest_frames_extend_the_served_session() {
        use pai_storage::AppendableFile;

        let spec = DatasetSpec {
            rows: 1000,
            columns: 4,
            seed: 37,
            ..Default::default()
        };
        let base = spec.build_mem(CsvFormat::default()).unwrap();
        let file = AppendableFile::with_base_rows(base, 1000).unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 5, ny: 5 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (index, _) = build(&file, &init).unwrap();
        let engine =
            Arc::new(SharedIndex::new(index, file, EngineConfig::paper_evaluation()).unwrap());
        let server = PaiServer::serve(engine, ServerConfig::default()).unwrap();

        let mut client = PaiClient::connect(server.addr(), "stream").unwrap();
        let d = spec.domain;
        let mid = |lo: f64, hi: f64, f: f64| lo + (hi - lo) * f;
        let batch: Vec<Vec<f64>> = (0..32)
            .map(|i| {
                let f = (i as f64 + 0.5) / 32.0;
                vec![
                    mid(d.x_min, d.x_max, f),
                    mid(d.y_min, d.y_max, 1.0 - f),
                    f,
                    -f,
                ]
            })
            .collect();
        let ack = match client.ingest(&batch).unwrap() {
            IngestReply::Applied(a) => a,
            other => panic!("expected a receipt, got {other:?}"),
        };
        assert_eq!(ack.start_row, 1000);
        assert_eq!(ack.rows, 32);

        // The same connection's follow-up query sees its own writes.
        let reply = client.query(&d, &[AggregateFunction::Count], 0.0).unwrap();
        let ServedReply::Answer(a) = reply else {
            panic!("expected an answer, got {reply:?}");
        };
        assert_eq!(a.values[0].as_f64().unwrap(), 1032.0);

        // A batch with an out-of-domain point is refused atomically and
        // the connection stays usable.
        let bad = vec![vec![d.x_max + 1e6, d.y_min, 0.0, 0.0]];
        assert!(client.ingest(&bad).is_err());
        assert!(matches!(
            client.query(&d, &[AggregateFunction::Count], 0.0),
            Ok(ServedReply::Answer(_))
        ));

        let stats = server.stats();
        assert_eq!(stats.ingests_applied, 1);
        assert_eq!(stats.rows_ingested, 32);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn ingest_against_a_sealed_backend_is_an_error_frame() {
        let (engine, window) = shared_engine(800, 41);
        let server = PaiServer::serve(engine, ServerConfig::default()).unwrap();
        let mut client = PaiClient::connect(server.addr(), "sealed").unwrap();
        let err = client.ingest(&[vec![200.0, 200.0, 1.0, 2.0]]).unwrap_err();
        assert!(err.to_string().contains("sealed"), "{err}");
        // The refusal is connection-survivable.
        assert!(matches!(
            client.query(&window, &[AggregateFunction::Count], 0.1),
            Ok(ServedReply::Answer(_))
        ));
        assert_eq!(server.stats().ingests_applied, 0);
    }

    #[test]
    fn config_validation_rejects_zeroes() {
        let (engine, _) = shared_engine(1000, 31);
        for bad in [
            ServerConfig {
                workers: 0,
                ..ServerConfig::default()
            },
            ServerConfig {
                queue_depth: 0,
                ..ServerConfig::default()
            },
            ServerConfig {
                inflight_cap: 0,
                ..ServerConfig::default()
            },
            ServerConfig {
                max_sessions: 0,
                ..ServerConfig::default()
            },
        ] {
            assert!(PaiServer::serve(engine.clone(), bad).is_err());
        }
    }
}
