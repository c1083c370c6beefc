//! Distance-spectrum partitioning into categories (§3.1, §5.1).
//!
//! The spectrum is partitioned exponentially at `T, cT, c²T, …`: category 0
//! is `[0, T)`, category `i ≥ 1` is `[c^{i-1}·T, c^i·T)`, and the last
//! category is open-ended. Section 5.1 derives the optimum under grid and
//! uniform-dataset assumptions: `c = e` and `T = sqrt(SP / e)` where `SP` is
//! the maximum query spreading.

use dsi_graph::{Dist, INFINITY};

/// A (closed) interval of possible distances, `lo ≤ d ≤ hi`.
///
/// Category ranges use `hi = upper bound − 1` (bounds are exclusive in the
/// paper); the open-ended last category has `hi = INFINITY`. A fully refined
/// range is a single point (`lo == hi`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DistRange {
    pub lo: Dist,
    pub hi: Dist,
}

/// Outcome of comparing two distance ranges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RangeOrdering {
    Less,
    Greater,
    /// Both ranges are single equal points.
    Equal,
    /// The ranges overlap without being equal points — refine further.
    Ambiguous,
}

impl DistRange {
    pub fn new(lo: Dist, hi: Dist) -> Self {
        debug_assert!(lo <= hi);
        DistRange { lo, hi }
    }

    /// The degenerate range holding exactly `d`.
    pub fn exact(d: Dist) -> Self {
        DistRange { lo: d, hi: d }
    }

    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }

    pub fn contains(&self, d: Dist) -> bool {
        self.lo <= d && d <= self.hi
    }

    pub fn intersects(&self, other: &DistRange) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Whether `self` is fully inside `other`.
    pub fn within(&self, other: &DistRange) -> bool {
        other.lo <= self.lo && self.hi <= other.hi
    }

    /// "Partially intersects ∆" in the sense of §3.2.1: overlaps `other`
    /// without being fully contained in it. Approximate retrieval refines
    /// until this is false.
    pub fn partially_intersects(&self, other: &DistRange) -> bool {
        self.intersects(other) && !self.within(other)
    }

    /// Compare two ranges as distances.
    pub fn compare(&self, other: &DistRange) -> RangeOrdering {
        if self.hi < other.lo {
            RangeOrdering::Less
        } else if self.lo > other.hi {
            RangeOrdering::Greater
        } else if self.is_exact() && other.is_exact() {
            RangeOrdering::Equal
        } else {
            RangeOrdering::Ambiguous
        }
    }

    /// Shift both bounds by `delta` (saturating at `INFINITY`).
    pub fn offset(&self, delta: Dist) -> DistRange {
        DistRange {
            lo: self.lo.saturating_add(delta),
            hi: self.hi.saturating_add(delta),
        }
    }
}

/// An exponential partition of the distance spectrum.
#[derive(Clone, Debug)]
pub struct CategoryPartition {
    /// `upper[i]` — exclusive upper bound of category `i`, for all but the
    /// last category.
    upper: Vec<Dist>,
    c: f64,
    t: Dist,
}

impl CategoryPartition {
    /// Reassemble from stored parts (persistence support).
    ///
    /// # Panics
    /// If the bounds are not strictly increasing or empty.
    pub fn from_parts(c: f64, t: Dist, upper: Vec<Dist>) -> Self {
        assert!(!upper.is_empty());
        assert!(
            upper.windows(2).all(|w| w[0] < w[1]),
            "bounds must increase"
        );
        CategoryPartition { upper, c, t }
    }

    /// The exclusive upper bounds of all bounded categories.
    pub fn upper_bounds(&self) -> &[Dist] {
        &self.upper
    }
}

impl CategoryPartition {
    /// Exponential partition with first bound `t` and growth factor `c`,
    /// covering distances up to at least `max_dist` (the last *bounded*
    /// category's upper bound reaches `max_dist`; one further open-ended
    /// category catches everything beyond).
    ///
    /// # Panics
    /// If `c <= 1.0` or `t == 0`.
    pub fn exponential(c: f64, t: Dist, max_dist: Dist) -> Self {
        assert!(c > 1.0, "growth factor must exceed 1");
        assert!(t > 0, "first bound must be positive");
        let mut upper = vec![t];
        let mut bound = t as f64;
        while (*upper.last().unwrap() as u64) < max_dist as u64 {
            bound *= c;
            let next = bound.ceil().min((INFINITY - 1) as f64) as Dist;
            if next <= *upper.last().unwrap() {
                // Ceil rounding stalled (tiny c·t); force progress.
                upper.push(upper.last().unwrap() + 1);
            } else {
                upper.push(next);
            }
            if *upper.last().unwrap() == INFINITY - 1 {
                break;
            }
        }
        CategoryPartition { upper, c, t }
    }

    /// The paper's optimal parameters for maximum spreading `sp`:
    /// `c = e`, `T = sqrt(sp / e)` (§5.1).
    pub fn optimal(sp: Dist) -> Self {
        let c = std::f64::consts::E;
        let t = ((sp as f64 / c).sqrt().round() as Dist).max(1);
        Self::exponential(c, t, sp)
    }

    /// Number of categories `M` (bounded ones plus the open-ended last).
    pub fn num_categories(&self) -> usize {
        self.upper.len() + 1
    }

    /// Bits of a fixed-length category id, `ceil(log2 M)` (≥ 1).
    pub fn fixed_bits(&self) -> u32 {
        (usize::BITS - (self.num_categories() - 1).leading_zeros()).max(1)
    }

    /// Category of distance `d`.
    pub fn category_of(&self, d: Dist) -> u8 {
        let cat = self.upper.partition_point(|&u| u <= d);
        debug_assert!(cat < self.num_categories());
        cat as u8
    }

    /// Closed distance range of category `cat`.
    pub fn range_of(&self, cat: u8) -> DistRange {
        let cat = cat as usize;
        assert!(cat < self.num_categories());
        let lo = if cat == 0 { 0 } else { self.upper[cat - 1] };
        let hi = if cat == self.upper.len() {
            INFINITY
        } else {
            self.upper[cat] - 1
        };
        DistRange { lo, hi }
    }

    /// Inclusive lower bound of category `cat` (`s(n)[o].lb` in §4.1).
    pub fn lb(&self, cat: u8) -> Dist {
        self.range_of(cat).lo
    }

    /// Lower bound of the open-ended last category: the object-distance
    /// table stores exactly the pairs closer than this.
    pub fn last_lb(&self) -> Dist {
        self.lb((self.num_categories() - 1) as u8)
    }

    /// Inclusive upper bound of category `cat` (`s(n)[o].ub − 1`); the last
    /// category returns `INFINITY`.
    pub fn ub(&self, cat: u8) -> Dist {
        self.range_of(cat).hi
    }

    /// Growth factor `c`.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// First bound `T`.
    pub fn t(&self) -> Dist {
        self.t
    }

    /// The "summation" of two categories (Definition 5.1): the larger when
    /// they differ (the dominant distance), otherwise the category
    /// incremented by one (clamped to the last category). Used to compress
    /// and decompress signatures (§5.3).
    pub fn sum_categories(&self, a: u8, b: u8) -> u8 {
        if a != b {
            a.max(b)
        } else {
            (a + 1).min(self.num_categories() as u8 - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_category_example_of_section_3_1() {
        // §3.1's example: 0–100, 100–400, 400–900, beyond 900.
        // That's t=100 with bounds 100, 400, 900 — not a pure exponential,
        // but object categorization must behave the same way: a=75 → 0,
        // b=475 → 2.
        let p = CategoryPartition::exponential(3.0, 100, 900);
        assert_eq!(p.category_of(75), 0);
        assert_eq!(p.category_of(100), 1);
        assert_eq!(p.category_of(475), 2);
        assert_eq!(p.category_of(10_000), p.num_categories() as u8 - 1);
    }

    #[test]
    fn bounds_grow_exponentially() {
        let p = CategoryPartition::exponential(2.0, 10, 100);
        // Bounds: 10, 20, 40, 80, 160; categories: [0,10) [10,20) [20,40)
        // [40,80) [80,160) [160,inf).
        assert_eq!(p.num_categories(), 6);
        assert_eq!(p.range_of(0), DistRange::new(0, 9));
        assert_eq!(p.range_of(2), DistRange::new(20, 39));
        assert_eq!(p.range_of(5), DistRange::new(160, INFINITY));
    }

    #[test]
    fn category_of_respects_boundaries() {
        let p = CategoryPartition::exponential(2.0, 10, 100);
        assert_eq!(p.category_of(0), 0);
        assert_eq!(p.category_of(9), 0);
        assert_eq!(p.category_of(10), 1);
        assert_eq!(p.category_of(159), 4);
        assert_eq!(p.category_of(160), 5);
        assert_eq!(p.category_of(INFINITY - 1), 5);
    }

    #[test]
    fn range_of_round_trips_category_of() {
        let p = CategoryPartition::exponential(std::f64::consts::E, 7, 5000);
        for cat in 0..p.num_categories() as u8 {
            let r = p.range_of(cat);
            assert_eq!(p.category_of(r.lo), cat);
            if r.hi != INFINITY {
                assert_eq!(p.category_of(r.hi), cat);
            }
        }
    }

    #[test]
    fn optimal_parameters() {
        let p = CategoryPartition::optimal(1000);
        assert!((p.c() - std::f64::consts::E).abs() < 1e-12);
        // T = sqrt(1000/e) ≈ 19.2 → 19.
        assert_eq!(p.t(), 19);
    }

    #[test]
    fn fixed_bits() {
        let p = CategoryPartition::exponential(2.0, 10, 100); // 6 categories
        assert_eq!(p.fixed_bits(), 3);
        let p2 = CategoryPartition::exponential(10.0, 1000, 1000); // 2 cats
        assert_eq!(p2.fixed_bits(), 1);
    }

    #[test]
    fn sum_categories_definition_5_1() {
        let p = CategoryPartition::exponential(2.0, 10, 100); // 6 categories
        assert_eq!(p.sum_categories(1, 3), 3, "unequal → max");
        assert_eq!(p.sum_categories(3, 3), 4, "equal → +1");
        assert_eq!(p.sum_categories(5, 5), 5, "clamped at last");
    }

    #[test]
    fn dist_range_predicates() {
        let a = DistRange::new(5, 10);
        let delta = DistRange::new(8, 20);
        assert!(a.partially_intersects(&delta));
        assert!(!DistRange::new(9, 15).partially_intersects(&delta));
        assert!(!DistRange::new(25, 30).partially_intersects(&delta));
        assert!(DistRange::exact(7).is_exact());
        assert_eq!(a.offset(100), DistRange::new(105, 110));
        assert_eq!(
            DistRange::new(0, INFINITY).offset(5),
            DistRange::new(5, INFINITY)
        );
    }

    #[test]
    fn dist_range_compare() {
        use RangeOrdering::*;
        assert_eq!(DistRange::new(1, 3).compare(&DistRange::new(4, 9)), Less);
        assert_eq!(DistRange::new(5, 9).compare(&DistRange::new(1, 4)), Greater);
        assert_eq!(DistRange::exact(4).compare(&DistRange::exact(4)), Equal);
        assert_eq!(
            DistRange::new(1, 5).compare(&DistRange::new(5, 9)),
            Ambiguous
        );
        assert_eq!(
            DistRange::exact(5).compare(&DistRange::new(3, 8)),
            Ambiguous
        );
    }

    #[test]
    fn tiny_t_and_c_still_progress() {
        let p = CategoryPartition::exponential(1.01, 1, 50);
        // Bounds must strictly increase.
        let mut prev = 0;
        for cat in 0..p.num_categories() as u8 {
            let r = p.range_of(cat);
            assert!(r.lo >= prev);
            prev = r.lo + 1;
        }
        assert!(p.range_of((p.num_categories() - 2) as u8).hi >= 49);
    }
}
