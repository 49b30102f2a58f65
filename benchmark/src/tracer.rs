//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program, around the calls the
//! benchmark makes into each layer: name, start, end, the span that caused
//! it, and the request (query ordinal) they belong to. They stay in memory
//! and are written to `out/trace-<workload>.json` when the run ends. A
//! layer's self time is its span minus the part its children cover.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::with_origin(Instant::now())
    }

    /// A tracer on another tracer's clock, for a second load thread; merge
    /// it back with [`Tracer::absorb`].
    pub fn with_origin(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that encloses later ones; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.ns(Instant::now());
        self.push(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id.0 as usize].end_ns = self.ns(Instant::now());
    }

    /// Records a finished span from timestamps the caller already took —
    /// the timed loops read the clock once for the metric and the trace.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, parent, request, s, e)
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = SpanId(u32::try_from(self.spans.len()).expect("fewer than 2^32 spans"));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        id
    }

    /// Appends `other`'s spans (same origin), re-basing their parent ids.
    pub fn absorb(&mut self, other: Tracer) {
        assert_eq!(self.origin, other.origin, "tracers must share a clock");
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| SpanId(p.0 + base));
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self time (µs) of every span called `name`: its duration minus the
    /// union of its direct children's intervals clipped to it.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p.0 as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .filter(|(s, _)| s.name == name)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns - covered) as f64 / 1e3
            })
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p.0 as f64)),
                        ),
                        ("request", Json::Num(s.request as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let o = t.origin();
        let at = |us: u64| o + Duration::from_micros(us);
        let parent = t.record("query", None, 7, at(0), at(100));
        // Two overlapping children (10..40, 30..60) and one that sticks out
        // past the parent's end (90..120): union inside the parent is 60.
        t.record("core.evaluate", Some(parent), 7, at(10), at(40));
        t.record("probe.estimate", Some(parent), 7, at(30), at(60));
        t.record("probe.classify", Some(parent), 7, at(90), at(120));
        // A grandchild must not be subtracted from the grandparent twice.
        t.record("storage.read_rows", Some(SpanId(1)), 7, at(15), at(20));
        assert_eq!(t.durations_us("query"), vec![100.0]);
        assert_eq!(t.self_times_us("query"), vec![40.0]);
        assert_eq!(t.self_times_us("core.evaluate"), vec![25.0]);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn absorb_rebases_parents_and_json_lists_every_span() {
        let mut a = Tracer::new();
        let mut b = Tracer::with_origin(a.origin());
        let pa = a.open("pass", None, 0);
        a.close(pa);
        let pb = b.open("conn.b", None, 0);
        let now = Instant::now();
        b.record("server.rtt", Some(pb), 3, now, now);
        b.close(pb);
        a.absorb(b);
        let json = a.to_json();
        let spans = json.as_array().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].get("parent").unwrap().as_f64(), Some(1.0));
        assert_eq!(spans[2].get("request").unwrap().as_f64(), Some(3.0));
        assert_eq!(spans[2].get("name").unwrap().as_str(), Some("server.rtt"));
    }
}
