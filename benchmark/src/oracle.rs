//! The independent oracle: exact window aggregates computed from the
//! generated rows, never through the program.
//!
//! Rows are bucketed once into a uniform grid; a window's truth visits only
//! the cells it overlaps and applies the half-open containment rule per
//! row. Every timed answer is checked against it after its timestamp is
//! taken: the confidence interval must contain the truth, a claimed
//! `met_constraint` must come with `error_bound ≤ φ`, and a `φ = 0` answer
//! must equal the truth (up to summation-order round-off).

use partial_adaptive_indexing::prelude::{AggregateFunction, AggregateValue, Interval};

use crate::fixture::{Win, DOMAIN_MAX};

/// Attributes the workloads aggregate over; the oracle keeps only these.
pub const ATTRS: [usize; 3] = [2, 3, 4];
const GRID: usize = 128;
/// Relative slack for float round-off (sums are folded in another order).
const REL_TOL: f64 = 1e-9;

/// Exact aggregates of one window.
#[derive(Debug, Clone, PartialEq)]
pub struct Truth {
    pub count: u64,
    pub sum: [f64; 3],
    pub min: [f64; 3],
    pub max: [f64; 3],
}

impl Truth {
    pub const EMPTY: Truth = Truth {
        count: 0,
        sum: [0.0; 3],
        min: [f64::INFINITY; 3],
        max: [f64::NEG_INFINITY; 3],
    };

    #[inline]
    fn push(&mut self, vals: [f64; 3]) {
        self.count += 1;
        for (i, v) in vals.into_iter().enumerate() {
            self.sum[i] += v;
            self.min[i] = self.min[i].min(v);
            self.max[i] = self.max[i].max(v);
        }
    }

    /// The true value of `agg`, `None` over an empty selection.
    fn value(&self, agg: &AggregateFunction) -> Option<f64> {
        if let AggregateFunction::Count = agg {
            return Some(self.count as f64);
        }
        if self.count == 0 {
            return None;
        }
        let slot = |a: usize| {
            ATTRS
                .iter()
                .position(|&x| x == a)
                .expect("workloads only aggregate over oracle::ATTRS")
        };
        Some(match *agg {
            AggregateFunction::Sum(a) => self.sum[slot(a)],
            AggregateFunction::Mean(a) => self.sum[slot(a)] / self.count as f64,
            AggregateFunction::Min(a) => self.min[slot(a)],
            AggregateFunction::Max(a) => self.max[slot(a)],
            _ => panic!("aggregate {agg} is outside the benchmark's mix"),
        })
    }
}

/// Grid-bucketed copy of the axis pair and the [`ATTRS`] columns.
pub struct Oracle {
    /// `start[c]..start[c + 1]` are cell `c`'s rows in the arrays below.
    start: Vec<u32>,
    x: Vec<f64>,
    y: Vec<f64>,
    vals: Vec<[f64; 3]>,
}

fn cell_of(v: f64) -> usize {
    ((v / DOMAIN_MAX * GRID as f64) as usize).min(GRID - 1)
}

impl Oracle {
    /// One pass to count, one to place (a counting sort by cell).
    pub fn build<'a>(rows: impl Iterator<Item = &'a [f64]> + Clone) -> Oracle {
        let mut start = vec![0u32; GRID * GRID + 1];
        let mut n = 0usize;
        for r in rows.clone() {
            start[cell_of(r[1]) * GRID + cell_of(r[0]) + 1] += 1;
            n += 1;
        }
        for c in 0..GRID * GRID {
            start[c + 1] += start[c];
        }
        let mut cursor = start.clone();
        let (mut x, mut y) = (vec![0.0; n], vec![0.0; n]);
        let mut vals = vec![[0.0; 3]; n];
        for r in rows {
            let slot = &mut cursor[cell_of(r[1]) * GRID + cell_of(r[0])];
            let i = *slot as usize;
            *slot += 1;
            x[i] = r[0];
            y[i] = r[1];
            vals[i] = ATTRS.map(|a| r[a]);
        }
        Oracle { start, x, y, vals }
    }

    pub fn truth(&self, w: &Win) -> Truth {
        let mut t = Truth::EMPTY;
        let (cx0, cx1) = (cell_of(w.x0.max(0.0)), cell_of(w.x1.max(0.0)));
        let (cy0, cy1) = (cell_of(w.y0.max(0.0)), cell_of(w.y1.max(0.0)));
        for cy in cy0..=cy1 {
            let (a, b) = (
                self.start[cy * GRID + cx0] as usize,
                self.start[cy * GRID + cx1 + 1] as usize,
            );
            for i in a..b {
                if w.contains(self.x[i], self.y[i]) {
                    t.push(self.vals[i]);
                }
            }
        }
        t
    }
}

/// What the program answered, from either the library or the wire.
#[derive(Debug, Clone, Copy)]
pub struct Reply<'a> {
    pub values: &'a [AggregateValue],
    pub cis: &'a [Option<Interval>],
    pub error_bound: f64,
    pub met_constraint: bool,
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * (1.0 + a.abs().max(b.abs()))
}

/// Checks one reply against `truth`; `Err` says what failed.
pub fn check(
    aggs: &[AggregateFunction],
    phi: f64,
    reply: &Reply<'_>,
    truth: &Truth,
) -> Result<(), String> {
    if reply.values.len() != aggs.len() || reply.cis.len() != aggs.len() {
        return Err("reply arity differs from the query's".into());
    }
    if !reply.met_constraint {
        return Err(format!(
            "constraint not met (bound {} for phi {phi})",
            reply.error_bound
        ));
    }
    if reply.error_bound.is_nan() || reply.error_bound > phi + 1e-12 {
        return Err(format!(
            "met_constraint with bound {} > phi {phi}",
            reply.error_bound
        ));
    }
    for ((agg, value), ci) in aggs.iter().zip(reply.values).zip(reply.cis) {
        match (truth.value(agg), value.as_f64(), ci) {
            (None, None, _) => {}
            (Some(t), Some(v), Some(ci)) => {
                if !(ci.contains(t) || close(t, ci.lo()) || close(t, ci.hi())) {
                    return Err(format!("{agg}: truth {t} outside CI {ci}"));
                }
                let exact = phi == 0.0 || matches!(agg, AggregateFunction::Count);
                if exact && !close(v, t) {
                    return Err(format!("{agg}: exact answer {v} != truth {t}"));
                }
            }
            (t, v, _) => return Err(format!("{agg}: truth {t:?} but answer {v:?}")),
        }
    }
    Ok(())
}

/// `truths[k]` is `w`'s truth once the first `k` ingest batches are in, on
/// top of `base` (the window's truth over the sealed base file).
pub fn prefix_truths(base: &Truth, feed: &[Vec<Vec<f64>>], w: &Win) -> Vec<Truth> {
    let mut t = base.clone();
    let mut out = Vec::with_capacity(feed.len() + 1);
    out.push(t.clone());
    for batch in feed {
        for row in batch {
            if w.contains(row[0], row[1]) {
                t.push(ATTRS.map(|a| row[a]));
            }
        }
        out.push(t.clone());
    }
    out
}

/// The ingest rule: batches are atomic, so a reply racing the feed must be
/// right for *some* prefix between the batches acknowledged before the
/// query was sent (`acked`) and those sent before its reply arrived
/// (`sent`).
pub fn check_some_prefix(
    aggs: &[AggregateFunction],
    phi: f64,
    reply: &Reply<'_>,
    truths: &[Truth],
    acked: usize,
    sent: usize,
) -> Result<(), String> {
    let mut last = Err(format!("empty prefix range {acked}..={sent}"));
    for truth in truths.iter().take(sent + 1).skip(acked) {
        last = check(aggs, phi, reply, truth);
        if last.is_ok() {
            break;
        }
    }
    last.map_err(|e| format!("no prefix in {acked}..={sent} fits: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{generate, ingest_feed, COLUMNS};

    const AGGS: [AggregateFunction; 5] = [
        AggregateFunction::Count,
        AggregateFunction::Mean(2),
        AggregateFunction::Sum(3),
        AggregateFunction::Min(4),
        AggregateFunction::Max(4),
    ];

    fn naive<'a>(rows: impl Iterator<Item = &'a [f64]>, w: &Win) -> Truth {
        let mut t = Truth::EMPTY;
        for r in rows.filter(|r| w.contains(r[0], r[1])) {
            t.push(ATTRS.map(|a| r[a]));
        }
        t
    }

    fn exact_reply(t: &Truth) -> (Vec<AggregateValue>, Vec<Option<Interval>>) {
        AGGS.iter()
            .map(|a| match (a, t.value(a)) {
                (AggregateFunction::Count, Some(c)) => {
                    (AggregateValue::Count(c as u64), Some(Interval::point(c)))
                }
                (_, Some(v)) => (AggregateValue::Float(v), Some(Interval::point(v))),
                (_, None) => (AggregateValue::Empty, None),
            })
            .unzip()
    }

    #[test]
    fn grid_truth_matches_a_naive_scan_on_1000_rows() {
        let ds = generate(11, 1000);
        let oracle = Oracle::build(ds.iter());
        let windows = [
            Win::DOMAIN,
            Win::centered(500.0, 700.0, 141.4),
            Win::centered(3.0, 3.0, 20.0),
            Win::centered(995.0, 500.0, 60.0),
            Win {
                x0: 250.0,
                x1: 250.0 + 1000.0 / 128.0,
                y0: 0.0,
                y1: 1000.0,
            },
            Win::centered(100.0, 900.0, 0.001),
        ];
        for w in &windows {
            let (got, want) = (oracle.truth(w), naive(ds.iter(), w));
            assert_eq!(got.count, want.count, "{w:?}");
            assert_eq!((got.min, got.max), (want.min, want.max), "{w:?}");
            for i in 0..3 {
                assert!(close(got.sum[i], want.sum[i]), "{w:?}");
            }
        }
        assert_eq!(oracle.truth(&Win::DOMAIN).count, 1000);
        assert_eq!(oracle.truth(&windows[5]).value(&AGGS[1]), None);
    }

    #[test]
    fn containment_is_half_open() {
        let mut rows = [[50.0; COLUMNS]; 2];
        rows[0][0] = 10.0; // on the window's min edge: inside
        rows[1][0] = 20.0; // on the window's max edge: outside
        let ds = crate::fixture::Dataset::from_rows(&rows);
        let oracle = Oracle::build(ds.iter());
        let w = Win {
            x0: 10.0,
            x1: 20.0,
            y0: 0.0,
            y1: 100.0,
        };
        assert_eq!(oracle.truth(&w).count, 1);
    }

    #[test]
    fn check_accepts_sound_replies_and_names_each_failure() {
        let ds = generate(5, 1000);
        let w = Win::centered(500.0, 700.0, 200.0);
        let t = Oracle::build(ds.iter()).truth(&w);
        assert!(t.count > 10);
        let (values, cis) = exact_reply(&t);
        let good = Reply {
            values: &values,
            cis: &cis,
            error_bound: 0.0,
            met_constraint: true,
        };
        check(&AGGS, 0.0, &good, &t).unwrap();
        check(&AGGS, 0.05, &good, &t).unwrap();

        // A wide CI around a wrong estimate is fine at phi > 0 ...
        let mean = t.value(&AGGS[1]).unwrap();
        let mut loose_v = values.clone();
        let mut loose_ci = cis.clone();
        loose_v[1] = AggregateValue::Float(mean + 1.0);
        loose_ci[1] = Some(Interval::new(mean - 2.0, mean + 2.0));
        let loose = Reply {
            values: &loose_v,
            cis: &loose_ci,
            error_bound: 0.04,
            met_constraint: true,
        };
        check(&AGGS, 0.05, &loose, &t).unwrap();
        // ... but not at phi = 0, where the answer must be the truth,
        let e = check(
            &AGGS,
            0.0,
            &Reply {
                error_bound: 0.0,
                ..loose
            },
            &t,
        )
        .unwrap_err();
        assert!(e.contains("exact answer"), "{e}");
        // nor when the claimed bound exceeds phi,
        let e = check(&AGGS, 0.01, &loose, &t).unwrap_err();
        assert!(e.contains("> phi"), "{e}");
        // nor when the constraint is reported as missed.
        let missed = Reply {
            met_constraint: false,
            ..loose
        };
        assert!(check(&AGGS, 0.05, &missed, &t).is_err());

        // A CI that misses the truth fails whatever phi is.
        loose_ci[1] = Some(Interval::new(mean + 0.5, mean + 2.0));
        let miss = Reply {
            values: &loose_v,
            cis: &loose_ci,
            error_bound: 0.01,
            met_constraint: true,
        };
        let e = check(&AGGS, 0.05, &miss, &t).unwrap_err();
        assert!(e.contains("outside CI"), "{e}");

        // A wrong count is never acceptable; an empty answer to a
        // non-empty window neither.
        let mut bad = values.clone();
        bad[0] = AggregateValue::Count(t.count + 1);
        let bad_ci = {
            let mut c = cis.clone();
            c[0] = Some(Interval::new(0.0, 1e9));
            c
        };
        let wrong = Reply {
            values: &bad,
            cis: &bad_ci,
            error_bound: 0.0,
            met_constraint: true,
        };
        assert!(check(&AGGS, 0.05, &wrong, &t).is_err());
        bad[1] = AggregateValue::Empty;
        assert!(check(
            &AGGS,
            0.05,
            &Reply {
                values: &bad,
                ..good
            },
            &t
        )
        .is_err());
    }

    #[test]
    fn ingest_prefix_rule() {
        let ds = generate(5, 1000);
        let feed = ingest_feed(5, 4);
        let (cx, cy) = crate::fixture::INGEST_CENTER;
        let w = Win::centered(cx, cy, 150.0);
        let base = Oracle::build(ds.iter()).truth(&w);
        let truths = prefix_truths(&base, &feed, &w);
        assert_eq!(truths.len(), 5);
        assert_eq!(truths[0], base);
        for k in 1..=4 {
            assert!(
                truths[k].count > truths[k - 1].count,
                "every batch lands rows"
            );
            let all = ds
                .iter()
                .chain(feed[..k].iter().flatten().map(Vec::as_slice));
            assert_eq!(truths[k].count, naive(all, &w).count);
        }

        // A reply computed after batches 1–2 (exactly): acceptable while the
        // racing range covers prefix 2, not once 3 batches were acked
        // before the query was sent, nor when only 1 had been sent.
        let (values, cis) = exact_reply(&truths[2]);
        let reply = Reply {
            values: &values,
            cis: &cis,
            error_bound: 0.0,
            met_constraint: true,
        };
        check_some_prefix(&AGGS, 0.05, &reply, &truths, 2, 2).unwrap();
        check_some_prefix(&AGGS, 0.05, &reply, &truths, 0, 3).unwrap();
        check_some_prefix(&AGGS, 0.05, &reply, &truths, 1, 9).unwrap();
        assert!(check_some_prefix(&AGGS, 0.05, &reply, &truths, 3, 4).is_err());
        assert!(check_some_prefix(&AGGS, 0.05, &reply, &truths, 0, 1).is_err());
        assert!(check_some_prefix(&AGGS, 0.05, &reply, &truths, 3, 2).is_err());
    }
}
