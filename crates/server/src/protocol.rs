//! Wire protocol for the query server.
//!
//! Transport framing (u32-LE length prefix + payload, 16 MiB cap) is
//! shared with the object store via [`pai_storage::netio`]; this module
//! defines what goes *inside* a frame. Every payload is a tag byte
//! followed by tag-specific fields; integers are little-endian, floats
//! travel as `f64::to_bits` so an answer decodes to the bit-identical
//! value the engine produced (the load harness gates on this), and
//! strings are a u32 length followed by UTF-8 bytes.
//!
//! See `docs/SERVER.md` for the full message reference.

use pai_common::{AggregateFunction, AggregateValue, Interval, PaiError, Rect, Result};

/// Protocol revision carried in `Hello`/`HelloOk`. Bump on any
/// incompatible frame-layout change. Revision 2 added the
/// `Ingest`/`IngestOk` streaming frames.
pub const PROTOCOL_VERSION: u32 = 2;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens (or re-attaches to) the named exploration session. Must be
    /// the first message on a connection.
    Hello {
        /// Protocol revision the client speaks.
        version: u32,
        /// Session name; connections naming the same session share its
        /// queue and in-flight budget.
        session: String,
    },
    /// One approximate window query against the shared index.
    Query {
        /// Client-chosen correlation id, echoed on the reply.
        id: u64,
        /// The query window.
        window: Rect,
        /// Accuracy constraint φ.
        phi: f64,
        /// Requested aggregates.
        aggs: Vec<AggregateFunction>,
    },
    /// A batch of rows to append to the served file and index (streaming
    /// ingest). Rows travel row-major as `f64::to_bits`, all with the same
    /// arity; the engine validates arity and domain before applying, and a
    /// rejected batch changes nothing.
    Ingest {
        /// Client-chosen correlation id, echoed on the reply.
        id: u64,
        /// The rows, one `Vec<f64>` per row in append order.
        rows: Vec<Vec<f64>>,
    },
    /// Polite end-of-connection marker (closing the socket works too).
    Close,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session opened; the connection may now send queries.
    HelloOk {
        /// Protocol revision the server speaks.
        version: u32,
        /// Server-assigned id of the (possibly pre-existing) session.
        session_id: u64,
    },
    /// The answer to query `id`.
    Answer {
        /// Correlation id from the request.
        id: u64,
        /// Aggregate values, bit-identical to the library result.
        values: Vec<AggregateValue>,
        /// Confidence interval per aggregate (`None` for empty
        /// selections), bit-identical to the library result.
        cis: Vec<Option<Interval>>,
        /// Achieved upper error bound.
        error_bound: f64,
        /// Whether the φ constraint was met.
        met_constraint: bool,
        /// Server-side service time (dequeue → evaluated), µs.
        server_us: u64,
    },
    /// Backpressure: the session's queue was full; retry later.
    Busy {
        /// Correlation id from the request.
        id: u64,
    },
    /// The server is draining and no longer accepts queries.
    ShuttingDown {
        /// Correlation id from the request.
        id: u64,
    },
    /// Ingest batch `id` was appended and indexed.
    IngestOk {
        /// Correlation id from the request.
        id: u64,
        /// Global row id of the first appended row.
        start_row: u64,
        /// Rows appended by this batch.
        rows: u64,
        /// The file's generation tag after the append.
        generation: u64,
        /// Delta blocks alive after the append (compaction shrinks this).
        delta_blocks: u64,
        /// Server-side service time (received → applied), µs.
        server_us: u64,
    },
    /// The query (or the connection's protocol state) was invalid.
    Error {
        /// Correlation id from the request (0 for connection-level errors).
        id: u64,
        /// Human-readable cause.
        msg: String,
    },
}

// --- encoding helpers -------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked little-endian reader over one frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| PaiError::internal("truncated protocol frame"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PaiError::internal("non-UTF-8 string in protocol frame"))
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(PaiError::internal("trailing bytes in protocol frame"))
        }
    }
}

fn put_agg(out: &mut Vec<u8>, agg: &AggregateFunction) {
    let (tag, attr) = match *agg {
        AggregateFunction::Count => (0u8, 0usize),
        AggregateFunction::Sum(a) => (1, a),
        AggregateFunction::Mean(a) => (2, a),
        AggregateFunction::Min(a) => (3, a),
        AggregateFunction::Max(a) => (4, a),
        AggregateFunction::Variance(a) => (5, a),
        AggregateFunction::StdDev(a) => (6, a),
    };
    out.push(tag);
    put_u32(out, attr as u32);
}

fn get_agg(c: &mut Cursor<'_>) -> Result<AggregateFunction> {
    let tag = c.u8()?;
    let attr = c.u32()? as usize;
    Ok(match tag {
        0 => AggregateFunction::Count,
        1 => AggregateFunction::Sum(attr),
        2 => AggregateFunction::Mean(attr),
        3 => AggregateFunction::Min(attr),
        4 => AggregateFunction::Max(attr),
        5 => AggregateFunction::Variance(attr),
        6 => AggregateFunction::StdDev(attr),
        t => return Err(PaiError::internal(format!("unknown aggregate tag {t}"))),
    })
}

fn put_value(out: &mut Vec<u8>, v: &AggregateValue) {
    match *v {
        AggregateValue::Empty => out.push(0),
        AggregateValue::Count(c) => {
            out.push(1);
            put_u64(out, c);
        }
        AggregateValue::Float(f) => {
            out.push(2);
            put_f64(out, f);
        }
    }
}

fn get_value(c: &mut Cursor<'_>) -> Result<AggregateValue> {
    Ok(match c.u8()? {
        0 => AggregateValue::Empty,
        1 => AggregateValue::Count(c.u64()?),
        2 => AggregateValue::Float(c.f64()?),
        t => return Err(PaiError::internal(format!("unknown value tag {t}"))),
    })
}

impl Request {
    /// Serializes into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Hello { version, session } => {
                out.push(1);
                put_u32(&mut out, *version);
                put_str(&mut out, session);
            }
            Request::Query {
                id,
                window,
                phi,
                aggs,
            } => {
                out.push(2);
                put_u64(&mut out, *id);
                put_f64(&mut out, window.x_min);
                put_f64(&mut out, window.x_max);
                put_f64(&mut out, window.y_min);
                put_f64(&mut out, window.y_max);
                put_f64(&mut out, *phi);
                put_u32(&mut out, aggs.len() as u32);
                for a in aggs {
                    put_agg(&mut out, a);
                }
            }
            Request::Close => out.push(3),
            Request::Ingest { id, rows } => {
                out.push(4);
                put_u64(&mut out, *id);
                put_u32(&mut out, rows.len() as u32);
                let cols = rows.first().map_or(0, Vec::len);
                put_u32(&mut out, cols as u32);
                for row in rows {
                    debug_assert_eq!(row.len(), cols, "ingest frames are rectangular");
                    for &v in row {
                        put_f64(&mut out, v);
                    }
                }
            }
        }
        out
    }

    /// Parses one frame payload.
    pub fn decode(buf: &[u8]) -> Result<Request> {
        let mut c = Cursor::new(buf);
        let req = match c.u8()? {
            1 => Request::Hello {
                version: c.u32()?,
                session: c.str()?,
            },
            2 => {
                let id = c.u64()?;
                let (x_min, x_max) = (c.f64()?, c.f64()?);
                let (y_min, y_max) = (c.f64()?, c.f64()?);
                if !(x_min.is_finite()
                    && x_max.is_finite()
                    && y_min.is_finite()
                    && y_max.is_finite())
                    || x_min > x_max
                    || y_min > y_max
                {
                    return Err(PaiError::internal("malformed query window"));
                }
                let phi = c.f64()?;
                let n = c.u32()? as usize;
                if n > 1024 {
                    return Err(PaiError::internal("too many aggregates in query"));
                }
                let mut aggs = Vec::with_capacity(n);
                for _ in 0..n {
                    aggs.push(get_agg(&mut c)?);
                }
                Request::Query {
                    id,
                    window: Rect::new(x_min, x_max, y_min, y_max),
                    phi,
                    aggs,
                }
            }
            3 => Request::Close,
            4 => {
                let id = c.u64()?;
                let n_rows = c.u32()? as usize;
                let n_cols = c.u32()? as usize;
                // The frame cap (16 MiB) bounds the payload already; these
                // keep a hostile header from pre-allocating past it.
                if n_rows > 1 << 20 || n_cols > 4096 {
                    return Err(PaiError::internal("oversized ingest batch"));
                }
                // A row with no columns takes no bytes, so a 17-byte frame
                // could claim a million of them; and every value takes 8
                // bytes, so the header may claim no more than the frame
                // still carries.
                if n_rows > 0 && n_cols == 0 {
                    return Err(PaiError::internal("ingest rows without columns"));
                }
                if n_rows.saturating_mul(n_cols).saturating_mul(8) > c.remaining() {
                    return Err(PaiError::internal("truncated protocol frame"));
                }
                let mut rows = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    let mut row = Vec::with_capacity(n_cols);
                    for _ in 0..n_cols {
                        row.push(c.f64()?);
                    }
                    rows.push(row);
                }
                Request::Ingest { id, rows }
            }
            t => return Err(PaiError::internal(format!("unknown request tag {t}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serializes into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::HelloOk {
                version,
                session_id,
            } => {
                out.push(1);
                put_u32(&mut out, *version);
                put_u64(&mut out, *session_id);
            }
            Response::Answer {
                id,
                values,
                cis,
                error_bound,
                met_constraint,
                server_us,
            } => {
                out.push(2);
                put_u64(&mut out, *id);
                put_u32(&mut out, values.len() as u32);
                for v in values {
                    put_value(&mut out, v);
                }
                put_u32(&mut out, cis.len() as u32);
                for ci in cis {
                    match ci {
                        None => out.push(0),
                        Some(i) => {
                            out.push(1);
                            put_f64(&mut out, i.lo());
                            put_f64(&mut out, i.hi());
                        }
                    }
                }
                put_f64(&mut out, *error_bound);
                out.push(u8::from(*met_constraint));
                put_u64(&mut out, *server_us);
            }
            Response::Busy { id } => {
                out.push(3);
                put_u64(&mut out, *id);
            }
            Response::ShuttingDown { id } => {
                out.push(4);
                put_u64(&mut out, *id);
            }
            Response::Error { id, msg } => {
                out.push(5);
                put_u64(&mut out, *id);
                put_str(&mut out, msg);
            }
            Response::IngestOk {
                id,
                start_row,
                rows,
                generation,
                delta_blocks,
                server_us,
            } => {
                out.push(6);
                put_u64(&mut out, *id);
                put_u64(&mut out, *start_row);
                put_u64(&mut out, *rows);
                put_u64(&mut out, *generation);
                put_u64(&mut out, *delta_blocks);
                put_u64(&mut out, *server_us);
            }
        }
        out
    }

    /// Parses one frame payload.
    pub fn decode(buf: &[u8]) -> Result<Response> {
        let mut c = Cursor::new(buf);
        let resp = match c.u8()? {
            1 => Response::HelloOk {
                version: c.u32()?,
                session_id: c.u64()?,
            },
            2 => {
                let id = c.u64()?;
                let nv = c.u32()? as usize;
                if nv > 1024 {
                    return Err(PaiError::internal("too many values in answer"));
                }
                let mut values = Vec::with_capacity(nv);
                for _ in 0..nv {
                    values.push(get_value(&mut c)?);
                }
                let nc = c.u32()? as usize;
                if nc > 1024 {
                    return Err(PaiError::internal("too many intervals in answer"));
                }
                let mut cis = Vec::with_capacity(nc);
                for _ in 0..nc {
                    cis.push(match c.u8()? {
                        0 => None,
                        1 => {
                            let (lo, hi) = (c.f64()?, c.f64()?);
                            // `Interval::new` asserts: a NaN or inverted
                            // pair off the wire is the frame's fault.
                            if lo.is_nan() || hi.is_nan() || lo > hi {
                                return Err(PaiError::internal("malformed interval in answer"));
                            }
                            Some(Interval::new(lo, hi))
                        }
                        t => return Err(PaiError::internal(format!("unknown CI tag {t}"))),
                    });
                }
                Response::Answer {
                    id,
                    values,
                    cis,
                    error_bound: c.f64()?,
                    met_constraint: c.u8()? != 0,
                    server_us: c.u64()?,
                }
            }
            3 => Response::Busy { id: c.u64()? },
            4 => Response::ShuttingDown { id: c.u64()? },
            5 => Response::Error {
                id: c.u64()?,
                msg: c.str()?,
            },
            6 => Response::IngestOk {
                id: c.u64()?,
                start_row: c.u64()?,
                rows: c.u64()?,
                generation: c.u64()?,
                delta_blocks: c.u64()?,
                server_us: c.u64()?,
            },
            t => return Err(PaiError::internal(format!("unknown response tag {t}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello {
                version: PROTOCOL_VERSION,
                session: "analyst-7".into(),
            },
            Request::Query {
                id: 42,
                window: Rect::new(-1.5, 2.5, 0.0, 10.0),
                phi: 0.05,
                aggs: vec![
                    AggregateFunction::Count,
                    AggregateFunction::Mean(2),
                    AggregateFunction::StdDev(3),
                ],
            },
            Request::Ingest {
                id: 77,
                rows: vec![vec![1.0, 2.0, -0.0], vec![4.0, f64::NAN, 6.0]],
            },
            Request::Ingest {
                id: 78,
                rows: vec![],
            },
            Request::Close,
        ]
    }

    /// Deliberately awkward floats: negative zero, subnormal, ulp
    /// neighbours — to_bits framing must preserve all of them.
    fn sample_responses() -> Vec<Response> {
        vec![
            Response::HelloOk {
                version: PROTOCOL_VERSION,
                session_id: 9,
            },
            Response::Answer {
                id: 7,
                values: vec![
                    AggregateValue::Count(3),
                    AggregateValue::Float(-0.0),
                    AggregateValue::Float(f64::MIN_POSITIVE / 2.0),
                    AggregateValue::Empty,
                ],
                cis: vec![
                    Some(Interval::new(1.0, 1.0 + f64::EPSILON)),
                    None,
                    Some(Interval::new(-5.5, 9.25)),
                    None,
                ],
                error_bound: 0.012345678901234567,
                met_constraint: true,
                server_us: 12345,
            },
            Response::Busy { id: 1 },
            Response::ShuttingDown { id: 2 },
            Response::IngestOk {
                id: 3,
                start_row: 1_000_000,
                rows: 512,
                generation: 4,
                delta_blocks: 9,
                server_us: 777,
            },
            Response::Error {
                id: 0,
                msg: "bad window".into(),
            },
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for r in &sample_requests() {
            let back = Request::decode(&r.encode()).unwrap();
            // NaN != NaN, so compare ingest payloads bitwise.
            if let (Request::Ingest { rows: a, .. }, Request::Ingest { rows: b, .. }) = (r, &back) {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            } else {
                assert_eq!(&back, r);
            }
        }
    }

    #[test]
    fn responses_roundtrip_bit_exact() {
        for r in &sample_responses() {
            let back = Response::decode(&r.encode()).unwrap();
            assert_eq!(&back, r);
            if let (Response::Answer { values: a, .. }, Response::Answer { values: b, .. }) =
                (r, &back)
            {
                for (x, y) in a.iter().zip(b) {
                    if let (AggregateValue::Float(x), AggregateValue::Float(y)) = (x, y) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn malformed_frames_are_errors_not_panics() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99]).is_err());
        assert!(Response::decode(&[2, 1, 2, 3]).is_err());
        // Trailing garbage after a valid message is rejected.
        let mut ok = Request::Close.encode();
        ok.push(0);
        assert!(Request::decode(&ok).is_err());
        // A query with an inverted window is rejected at decode time.
        let mut bad = Request::Query {
            id: 1,
            window: Rect::new(0.0, 1.0, 0.0, 1.0),
            phi: 0.05,
            aggs: vec![],
        }
        .encode();
        // Swap x_min/x_max bytes (offsets 9..17 and 17..25).
        let (a, b) = (9usize, 17usize);
        for i in 0..8 {
            bad.swap(a + i, b + i);
        }
        // x_min=1.0 > x_max=0.0 now.
        assert!(Request::decode(&bad).is_err());
        // An ingest frame whose header claims more rows than the payload
        // carries is truncated, and an absurd header is rejected outright.
        let mut short = Request::Ingest {
            id: 1,
            rows: vec![vec![1.0, 2.0]],
        }
        .encode();
        short.truncate(short.len() - 8);
        assert!(Request::decode(&short).is_err());
        let mut huge = vec![4u8];
        huge.extend_from_slice(&1u64.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&huge).is_err());
        // A 17-byte header claiming 2^20 rows of no columns is refused, not
        // decoded into a million empty rows; so is one whose rows the
        // frame does not carry, before anything is allocated for them.
        for (n_rows, n_cols) in [(1u32 << 20, 0u32), (1 << 20, 4096), (2, 1)] {
            let mut hostile = vec![4u8];
            hostile.extend_from_slice(&1u64.to_le_bytes());
            hostile.extend_from_slice(&n_rows.to_le_bytes());
            hostile.extend_from_slice(&n_cols.to_le_bytes());
            hostile.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
            assert!(
                Request::decode(&hostile[..17]).is_err(),
                "{n_rows} x {n_cols}"
            );
            assert!(Request::decode(&hostile).is_err(), "{n_rows} x {n_cols}");
        }
        // An answer whose CI is inverted or has a NaN endpoint is refused,
        // not handed to `Interval::new` (which asserts).
        for (lo, hi) in [(1.0, 0.0), (f64::NAN, 1.0), (0.0, f64::NAN)] {
            let mut frame = Response::Answer {
                id: 1,
                values: vec![],
                cis: vec![Some(Interval::new(0.0, 0.0))],
                error_bound: 0.0,
                met_constraint: true,
                server_us: 0,
            }
            .encode();
            // Tag, id, value count, CI count, CI tag: the endpoints start at 18.
            frame[18..26].copy_from_slice(&lo.to_bits().to_le_bytes());
            frame[26..34].copy_from_slice(&hi.to_bits().to_le_bytes());
            let err = Response::decode(&frame).unwrap_err();
            assert!(err.to_string().contains("malformed interval"), "{err}");
        }
    }

    /// One hostile edit of an encoded frame, picked by `kind`: truncate at
    /// `at`, flip the byte there, overwrite the 8 bytes there with NaN, ±∞
    /// or `u32::MAX` (as a u64, so a u32 field there reads `u32::MAX` too),
    /// or append bytes.
    fn mutate(frame: &[u8], kind: u32, at: usize, byte: u8) -> Vec<u8> {
        let mut f = frame.to_vec();
        let at = at % f.len();
        let word = match kind {
            0 => {
                f.truncate(at);
                return f;
            }
            1 => {
                f[at] ^= byte.max(1);
                return f;
            }
            2 => f64::NAN.to_bits(),
            3 => f64::INFINITY.to_bits(),
            4 => f64::NEG_INFINITY.to_bits(),
            5 => u64::from(u32::MAX),
            _ => {
                f.extend(std::iter::repeat_n(byte, 1 + at % 16));
                return f;
            }
        };
        let end = (at + 8).min(f.len());
        f[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
        f
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// No mutation of a valid frame panics the decoder, and a mutated
        /// frame that still decodes re-encodes to a frame that decodes to
        /// the same message, bit for bit.
        #[test]
        fn prop_mutated_frames_decode_or_err_never_panic(
            kind in 0u32..7,
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            for req in sample_requests() {
                let frame = mutate(&req.encode(), kind, at, byte);
                if let Ok(m) = Request::decode(&frame) {
                    let again = Request::decode(&m.encode()).unwrap();
                    prop_assert_eq!(again.encode(), m.encode(), "{:?}", m);
                }
            }
            for resp in sample_responses() {
                let frame = mutate(&resp.encode(), kind, at, byte);
                if let Ok(m) = Response::decode(&frame) {
                    let again = Response::decode(&m.encode()).unwrap();
                    prop_assert_eq!(again.encode(), m.encode(), "{:?}", m);
                }
            }
        }
    }
}
