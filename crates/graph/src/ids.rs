//! Strongly-typed identifiers and the network distance type.

use std::fmt;

/// Network distance. Edge weights in the paper are small integers (1–10 on
/// the synthetic network, unit weights on the analysis grid), so `u32` holds
/// any path length with a wide margin.
pub type Dist = u32;

/// Sentinel for "unreachable" / "no edge". Dijkstra and the update
/// propagation treat an edge whose weight is `INFINITY` as absent, which lets
/// edge removal/insertion keep adjacency-slot numbering stable (backtracking
/// links index adjacency slots, see `dsi-signature`).
pub const INFINITY: Dist = Dist::MAX;

/// A road junction (graph vertex).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Sentinel "no node" value used in parent arrays for unreachable nodes and
/// tree roots.
pub const NO_NODE: NodeId = NodeId(u32::MAX);

/// An object of the dataset (hospital, restaurant, …), always located on a
/// node in this reproduction, as in the paper (Section 1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl NodeId {
    /// The node's position in dense per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ObjectId {
    /// The object's position in dense per-object arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// The largest finite edge weight a network of `n` nodes admits.
///
/// The weight domain: every edge weight lies in `1..=max_weight(n)` or is
/// [`INFINITY`] (a removed edge). A shortest path has at most `n − 1`
/// edges and `2 · n · max_weight(n) < INFINITY`, so every path length —
/// and the sum of two, as a label merge or a two-hop bound adds them —
/// stays finite and below the sentinel. Weight 0 is outside: a zero-length
/// edge makes two nodes equidistant from everything, and the index's
/// backtracking links would cycle between them. At 16,000 nodes the bound
/// is 134,217.
pub const fn max_weight(n: usize) -> Dist {
    let n = if n == 0 { 1 } else { n as u64 };
    ((INFINITY as u64 - 1) / (2 * n)) as Dist
}

/// Whether `w` is an admissible weight for an edge of an `n`-node network:
/// in `1..=`[`max_weight`]`(n)`, or [`INFINITY`].
#[inline]
pub fn weight_in_domain(w: Dist, n: usize) -> bool {
    w == INFINITY || (1..=max_weight(n)).contains(&w)
}

/// Saturating distance addition that keeps [`INFINITY`] absorbing:
/// `inf + x = inf`.
#[inline]
pub fn dist_add(a: Dist, b: Dist) -> Dist {
    a.saturating_add(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinity_is_absorbing() {
        assert_eq!(dist_add(INFINITY, 5), INFINITY);
        assert_eq!(dist_add(5, INFINITY), INFINITY);
        assert_eq!(dist_add(INFINITY, INFINITY), INFINITY);
    }

    #[test]
    fn the_weight_domain_keeps_two_path_lengths_below_the_sentinel() {
        for n in [1usize, 2, 300, 16_000, 65_600, 1 << 20] {
            let m = max_weight(n) as u64;
            assert!(2 * n as u64 * m < INFINITY as u64, "n = {n}");
            assert!(
                2 * n as u64 * (m + 1) >= INFINITY as u64 - 1,
                "n = {n}: not the largest"
            );
            assert!(weight_in_domain(1, n) && weight_in_domain(max_weight(n), n));
            assert!(weight_in_domain(INFINITY, n));
            assert!(!weight_in_domain(0, n) && !weight_in_domain(max_weight(n) + 1, n));
        }
        assert_eq!(max_weight(16_000), 134_217);
        assert!(!weight_in_domain(INFINITY - 1, 16_000));
    }

    #[test]
    fn finite_addition() {
        assert_eq!(dist_add(3, 4), 7);
        assert_eq!(dist_add(0, 0), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", NodeId(3)), "n3");
        assert_eq!(format!("{}", ObjectId(7)), "o7");
        assert_eq!(format!("{:?}", NodeId(3)), "n3");
    }

    #[test]
    fn index_roundtrip() {
        assert_eq!(NodeId(42).index(), 42);
        assert_eq!(ObjectId(42).index(), 42);
    }
}
