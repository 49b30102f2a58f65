//! 2D geometry: points, axis-aligned rectangles, and the tile/query overlap
//! classification at the heart of the VALINOR index.
//!
//! Tiles are half-open rectangles `[x_min, x_max) × [y_min, y_max)` so that a
//! grid of tiles partitions the plane without double-counting objects that
//! fall exactly on a boundary. Query windows use the same convention.

use std::fmt;

/// A point in the 2D exploration plane (the two axis attributes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point2 {
    /// Coordinate along the x-axis attribute.
    pub x: f64,
    /// Coordinate along the y-axis attribute.
    pub y: f64,
}

impl Point2 {
    /// A point at `(x, y)`.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }
}

/// Relationship of a tile to a query window.
///
/// This is the classification of §3 of the paper: disjoint tiles are skipped,
/// fully contained tiles answer from metadata, partially contained tiles are
/// the candidates for (partial) adaptation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overlap {
    /// No common area.
    Disjoint,
    /// The tile lies entirely inside the query window.
    FullyContained,
    /// The tile and the query window overlap but the tile is not contained.
    Partial,
}

/// An axis-aligned rectangle, half-open on both axes:
/// `[x_min, x_max) × [y_min, y_max)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Inclusive lower x bound.
    pub x_min: f64,
    /// Exclusive upper x bound.
    pub x_max: f64,
    /// Inclusive lower y bound.
    pub y_min: f64,
    /// Exclusive upper y bound.
    pub y_max: f64,
}

impl Rect {
    /// Creates a rectangle. Requires `x_min <= x_max && y_min <= y_max`.
    ///
    /// # Panics
    /// Panics in debug builds if the bounds are inverted or non-finite.
    #[inline]
    pub fn new(x_min: f64, x_max: f64, y_min: f64, y_max: f64) -> Self {
        debug_assert!(x_min.is_finite() && x_max.is_finite());
        debug_assert!(y_min.is_finite() && y_max.is_finite());
        debug_assert!(x_min <= x_max, "inverted x bounds: {x_min} > {x_max}");
        debug_assert!(y_min <= y_max, "inverted y bounds: {y_min} > {y_max}");
        Rect {
            x_min,
            x_max,
            y_min,
            y_max,
        }
    }

    /// Extent along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.x_max - self.x_min
    }

    /// Extent along y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.y_max - self.y_min
    }

    /// `width() * height()`.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// The rectangle's midpoint.
    #[inline]
    pub fn center(&self) -> Point2 {
        Point2::new(
            self.x_min + self.width() / 2.0,
            self.y_min + self.height() / 2.0,
        )
    }

    /// True when the rectangle has zero area (degenerate).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x_min >= self.x_max || self.y_min >= self.y_max
    }

    /// Point containment under the half-open convention.
    #[inline]
    pub fn contains_point(&self, p: Point2) -> bool {
        p.x >= self.x_min && p.x < self.x_max && p.y >= self.y_min && p.y < self.y_max
    }

    /// Point containment treating the rectangle as closed on all sides.
    ///
    /// Used for the outermost domain boundary so that objects with the maximal
    /// coordinate value still belong to the last tile row/column.
    #[inline]
    pub fn contains_point_closed(&self, p: Point2) -> bool {
        p.x >= self.x_min && p.x <= self.x_max && p.y >= self.y_min && p.y <= self.y_max
    }

    /// True when `other` lies entirely inside `self`.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.x_min >= self.x_min
            && other.x_max <= self.x_max
            && other.y_min >= self.y_min
            && other.y_max <= self.y_max
    }

    /// True when the two rectangles share positive area.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x_min < other.x_max
            && other.x_min < self.x_max
            && self.y_min < other.y_max
            && other.y_min < self.y_max
    }

    /// The common area of two rectangles, if any.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect::new(
            self.x_min.max(other.x_min),
            self.x_max.min(other.x_max),
            self.y_min.max(other.y_min),
            self.y_max.min(other.y_max),
        ))
    }

    /// Classifies `self` (a tile) against a query window.
    #[inline]
    pub fn classify_against(&self, query: &Rect) -> Overlap {
        if !self.intersects(query) {
            Overlap::Disjoint
        } else if query.contains_rect(self) {
            Overlap::FullyContained
        } else {
            Overlap::Partial
        }
    }

    /// Splits into an `rows × cols` grid of equally sized sub-rectangles,
    /// emitted row-major (bottom row first).
    ///
    /// This is the paper's 2×2 split generalized; the union of the produced
    /// rectangles is exactly `self` and they are pairwise disjoint under the
    /// half-open convention.
    pub fn split_grid(&self, rows: usize, cols: usize) -> Vec<Rect> {
        assert!(rows >= 1 && cols >= 1, "grid split needs at least 1×1");
        let mut out = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            // Compute boundaries by interpolation so the last edge is exactly
            // the parent's edge (no floating-point drift gaps).
            let y0 = self.edge(self.y_min, self.y_max, r, rows);
            let y1 = self.edge(self.y_min, self.y_max, r + 1, rows);
            for c in 0..cols {
                let x0 = self.edge(self.x_min, self.x_max, c, cols);
                let x1 = self.edge(self.x_min, self.x_max, c + 1, cols);
                out.push(Rect::new(x0, x1, y0, y1));
            }
        }
        out
    }

    #[inline]
    fn edge(&self, lo: f64, hi: f64, i: usize, n: usize) -> f64 {
        if i == 0 {
            lo
        } else if i == n {
            hi
        } else {
            lo + (hi - lo) * (i as f64) / (n as f64)
        }
    }

    /// Splits at the query-window edges that cross this rectangle, producing
    /// between 1 and 4 cuts per axis boundary (at most a 3×3 grid).
    ///
    /// This mirrors the splitting illustrated in Figure 1 of the paper, where
    /// tile edges end up aligned with the query boundary so future queries in
    /// the same area fully contain the new subtiles.
    pub fn split_at_query(&self, query: &Rect) -> Vec<Rect> {
        let mut xs = vec![self.x_min];
        for x in [query.x_min, query.x_max] {
            if x > self.x_min && x < self.x_max {
                xs.push(x);
            }
        }
        xs.push(self.x_max);
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite edges"));

        let mut ys = vec![self.y_min];
        for y in [query.y_min, query.y_max] {
            if y > self.y_min && y < self.y_max {
                ys.push(y);
            }
        }
        ys.push(self.y_max);
        ys.sort_by(|a, b| a.partial_cmp(b).expect("finite edges"));

        let mut out = Vec::with_capacity((xs.len() - 1) * (ys.len() - 1));
        for yw in ys.windows(2) {
            for xw in xs.windows(2) {
                out.push(Rect::new(xw[0], xw[1], yw[0], yw[1]));
            }
        }
        out
    }

    /// Translates the rectangle by `(dx, dy)`.
    pub fn shifted(&self, dx: f64, dy: f64) -> Rect {
        Rect::new(
            self.x_min + dx,
            self.x_max + dx,
            self.y_min + dy,
            self.y_max + dy,
        )
    }

    /// Scales the rectangle around its center by `factor` (zoom operation;
    /// factor < 1 zooms in, factor > 1 zooms out).
    pub fn scaled(&self, factor: f64) -> Rect {
        assert!(factor > 0.0, "scale factor must be positive");
        let c = self.center();
        let hw = self.width() / 2.0 * factor;
        let hh = self.height() / 2.0 * factor;
        Rect::new(c.x - hw, c.x + hw, c.y - hh, c.y + hh)
    }

    /// Clamps the rectangle to lie inside `domain`, preserving its size when
    /// possible (used to keep exploration paths inside the data domain).
    pub fn clamped_into(&self, domain: &Rect) -> Rect {
        let w = self.width().min(domain.width());
        let h = self.height().min(domain.height());
        // `domain.max - extent` can undershoot `domain.min` by rounding when
        // the window spans (almost) the whole domain; order defensively and
        // re-clip the far edge so the result stays inside bit-exactly.
        let x_hi = (domain.x_max - w).max(domain.x_min);
        let y_hi = (domain.y_max - h).max(domain.y_min);
        let x_min = self.x_min.clamp(domain.x_min, x_hi);
        let y_min = self.y_min.clamp(domain.y_min, y_hi);
        Rect::new(
            x_min,
            (x_min + w).min(domain.x_max),
            y_min,
            (y_min + h).min(domain.y_max),
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.3}, {:.3}) x [{:.3}, {:.3})",
            self.x_min, self.x_max, self.y_min, self.y_max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit() -> Rect {
        Rect::new(0.0, 1.0, 0.0, 1.0)
    }

    #[test]
    fn point_containment_half_open() {
        let r = unit();
        assert!(r.contains_point(Point2::new(0.0, 0.0)));
        assert!(r.contains_point(Point2::new(0.5, 0.999)));
        assert!(!r.contains_point(Point2::new(1.0, 0.5)));
        assert!(!r.contains_point(Point2::new(0.5, 1.0)));
        assert!(r.contains_point_closed(Point2::new(1.0, 1.0)));
    }

    #[test]
    fn rect_containment() {
        let outer = Rect::new(0.0, 10.0, 0.0, 10.0);
        let inner = Rect::new(2.0, 5.0, 2.0, 5.0);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer), "containment is reflexive");
    }

    #[test]
    fn intersection_basics() {
        let a = Rect::new(0.0, 2.0, 0.0, 2.0);
        let b = Rect::new(1.0, 3.0, 1.0, 3.0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Rect::new(1.0, 2.0, 1.0, 2.0));
        // Touching edges do not intersect under half-open semantics.
        let c = Rect::new(2.0, 4.0, 0.0, 2.0);
        assert!(!a.intersects(&c));
        assert!(a.intersection(&c).is_none());
    }

    #[test]
    fn classification_matches_paper_cases() {
        let query = Rect::new(5.0, 15.0, 5.0, 15.0);
        let disjoint = Rect::new(20.0, 30.0, 20.0, 30.0);
        let full = Rect::new(6.0, 10.0, 6.0, 10.0);
        let partial = Rect::new(0.0, 10.0, 0.0, 10.0);
        assert_eq!(disjoint.classify_against(&query), Overlap::Disjoint);
        assert_eq!(full.classify_against(&query), Overlap::FullyContained);
        assert_eq!(partial.classify_against(&query), Overlap::Partial);
    }

    #[test]
    fn grid_split_partitions_exactly() {
        let r = Rect::new(0.0, 30.0, 0.0, 30.0);
        let parts = r.split_grid(3, 3);
        assert_eq!(parts.len(), 9);
        let total: f64 = parts.iter().map(Rect::area).sum();
        assert!((total - r.area()).abs() < 1e-9);
        // Edges meet exactly: max of one cell equals min of the next.
        assert_eq!(parts[0].x_max, parts[1].x_min);
        assert_eq!(parts[0].y_max, parts[3].y_min);
        // Outer boundary preserved bit-exactly.
        assert_eq!(parts[8].x_max, 30.0);
        assert_eq!(parts[8].y_max, 30.0);
    }

    #[test]
    fn grid_split_disjoint_cells() {
        let r = Rect::new(-1.0, 1.0, -1.0, 1.0);
        let parts = r.split_grid(2, 2);
        for (i, a) in parts.iter().enumerate() {
            for b in parts.iter().skip(i + 1) {
                assert!(!a.intersects(b), "{a} intersects {b}");
            }
        }
    }

    #[test]
    fn query_aligned_split_cuts_at_edges() {
        let tile = Rect::new(0.0, 10.0, 0.0, 10.0);
        let query = Rect::new(5.0, 20.0, 5.0, 20.0);
        let parts = tile.split_at_query(&query);
        // Query cuts at x=5 and y=5 only (other edges outside tile) -> 2x2.
        assert_eq!(parts.len(), 4);
        let total: f64 = parts.iter().map(Rect::area).sum();
        assert!((total - tile.area()).abs() < 1e-9);
        assert!(parts.iter().any(|p| *p == Rect::new(5.0, 10.0, 5.0, 10.0)));
    }

    #[test]
    fn query_aligned_split_inside_query_is_identity() {
        let tile = Rect::new(0.0, 1.0, 0.0, 1.0);
        let query = Rect::new(-5.0, 5.0, -5.0, 5.0);
        let parts = tile.split_at_query(&query);
        assert_eq!(parts, vec![tile]);
    }

    #[test]
    fn query_aligned_split_both_edges_inside() {
        let tile = Rect::new(0.0, 30.0, 0.0, 30.0);
        let query = Rect::new(10.0, 20.0, 10.0, 20.0);
        let parts = tile.split_at_query(&query);
        assert_eq!(parts.len(), 9, "both x and y edges cut -> 3x3");
    }

    #[test]
    fn shift_scale_clamp() {
        let r = Rect::new(0.0, 2.0, 0.0, 2.0);
        assert_eq!(r.shifted(1.0, -1.0), Rect::new(1.0, 3.0, -1.0, 1.0));
        let z = r.scaled(0.5);
        assert!((z.width() - 1.0).abs() < 1e-12);
        assert_eq!(z.center().x, r.center().x);
        let domain = Rect::new(0.0, 10.0, 0.0, 10.0);
        let c = r.shifted(20.0, 20.0).clamped_into(&domain);
        assert!(domain.contains_rect(&c));
        assert!((c.width() - r.width()).abs() < 1e-12);
    }

    #[test]
    fn degenerate_rect_is_empty() {
        let r = Rect::new(1.0, 1.0, 0.0, 2.0);
        assert!(r.is_empty());
        assert!(!r.contains_point(Point2::new(1.0, 1.0)));
    }

    fn rect_strategy() -> impl Strategy<Value = Rect> {
        (-1e3f64..1e3, 1e-3f64..1e3, -1e3f64..1e3, 1e-3f64..1e3)
            .prop_map(|(x0, w, y0, h)| Rect::new(x0, x0 + w, y0, y0 + h))
    }

    proptest! {
        /// Every point is assigned to exactly one cell of a grid split
        /// (the property tile assignment depends on).
        #[test]
        fn prop_grid_split_assigns_points_uniquely(
            r in rect_strategy(),
            rows in 1usize..5,
            cols in 1usize..5,
            fx in 0.0f64..1.0,
            fy in 0.0f64..1.0,
        ) {
            let p = Point2::new(
                r.x_min + fx * r.width(),
                r.y_min + fy * r.height(),
            );
            let owners = r
                .split_grid(rows, cols)
                .iter()
                .filter(|c| c.contains_point(p))
                .count();
            prop_assert_eq!(owners, 1, "point {:?} owned by {} cells", p, owners);
        }

        /// Query-aligned splits exactly partition the tile's area.
        #[test]
        fn prop_query_split_partitions_area(r in rect_strategy(), q in rect_strategy()) {
            let parts = r.split_at_query(&q);
            let total: f64 = parts.iter().map(Rect::area).sum();
            prop_assert!((total - r.area()).abs() <= 1e-9 * r.area().max(1.0));
            for (i, a) in parts.iter().enumerate() {
                for b in parts.iter().skip(i + 1) {
                    prop_assert!(!a.intersects(b));
                }
            }
        }

        /// Clamping always lands inside the domain and preserves size when
        /// the window fits.
        #[test]
        fn prop_clamp_into_domain(
            r in rect_strategy(),
            domain in rect_strategy(),
        ) {
            let c = r.clamped_into(&domain);
            prop_assert!(domain.contains_rect(&c));
            if r.width() <= domain.width() && r.height() <= domain.height() {
                // Size is preserved up to one rounding step at the far edge.
                prop_assert!((c.width() - r.width()).abs() <= 1e-9 * r.width().max(1.0));
                prop_assert!((c.height() - r.height()).abs() <= 1e-9 * r.height().max(1.0));
            }
        }

        /// Intersection is symmetric and contained in both operands.
        #[test]
        fn prop_intersection_contained(a in rect_strategy(), b in rect_strategy()) {
            match (a.intersection(&b), b.intersection(&a)) {
                (Some(x), Some(y)) => {
                    prop_assert_eq!(x, y);
                    prop_assert!(a.contains_rect(&x));
                    prop_assert!(b.contains_rect(&x));
                }
                (None, None) => {}
                other => prop_assert!(false, "asymmetric intersection: {:?}", other),
            }
        }

        /// Classification is consistent with containment checks.
        #[test]
        fn prop_classification_consistent(t in rect_strategy(), q in rect_strategy()) {
            match t.classify_against(&q) {
                Overlap::Disjoint => prop_assert!(!t.intersects(&q)),
                Overlap::FullyContained => prop_assert!(q.contains_rect(&t)),
                Overlap::Partial => {
                    prop_assert!(t.intersects(&q));
                    prop_assert!(!q.contains_rect(&t));
                }
            }
        }
    }
}
