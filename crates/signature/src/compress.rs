//! Signature compression (§5.3, Algorithm 7).
//!
//! Within one node's signature, many objects share the same backtracking
//! link, and a remote object `v`'s category can often be reconstructed by
//! "adding up" the category of the closest object `u` on the same link and
//! the category of the object↔object distance `d(u, v)` — the summation of
//! Definition 5.1 ([`CategoryPartition::sum_categories`]). Such entries
//! store a 1-bit flag instead of their category code; the backtracking link
//! is kept (it is what identifies `u` at decompression time).
//!
//! The *anchor* of a link is the object with the smallest category on that
//! link (ties broken by position in the signature sequence, §5.3). Anchors
//! are never compressed, so decompression can re-identify them from the
//! stored data alone: among uncompressed entries on a link, the anchor is
//! still the `(category, position)` minimum.

use dsi_graph::network::Slot;
use dsi_graph::ObjectId;

use crate::category::CategoryPartition;
use crate::index::ObjDistTable;

/// Which compression variant a signature index uses (§5.3 is ambiguous on
/// whether compressed entries keep their backtracking link; both readings
/// are implemented).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CompressionScheme {
    /// Anchor = the globally closest object (category, then position). A
    /// compressed entry stores **one bit total**: its link is inherited
    /// from the anchor (they must match for the flag to be set) and its
    /// category is the Definition 5.1 summation. This is the only reading
    /// consistent with Table 1's compressed sizes (~1 bit per compressed
    /// component, link included).
    #[default]
    GlobalAnchor,
    /// One anchor per distinct link value; compressed entries keep their
    /// link (so the anchor can be re-identified per link) and drop only the
    /// category code — the literal reading of Algorithm 7's "closest object
    /// such that `s[u].link = s[v].link`".
    PerLinkAnchor,
}

/// Per-link anchors: for each link value, the `(category, position)`-minimal
/// object among those whose `eligible` predicate holds.
fn anchors(
    cats: &[u8],
    links: &[Slot],
    eligible: impl Fn(usize) -> bool,
) -> std::collections::HashMap<Slot, usize> {
    let mut map: std::collections::HashMap<Slot, usize> = std::collections::HashMap::new();
    for v in 0..cats.len() {
        if !eligible(v) {
            continue;
        }
        match map.entry(links[v]) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(v);
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let u = *e.get();
                if (cats[v], v) < (cats[u], u) {
                    e.insert(v);
                }
            }
        }
    }
    map
}

/// The globally closest object: `(category, position)`-minimal among those
/// satisfying `eligible`.
fn global_anchor(cats: &[u8], eligible: impl Fn(usize) -> bool) -> Option<usize> {
    (0..cats.len())
        .filter(|&v| eligible(v))
        .min_by_key(|&v| (cats[v], v))
}

/// Algorithm 7: decide which entries of a node's signature to flag as
/// compressed. `cats`/`links` are the node's resolved categories and links
/// in object-id order.
pub fn compression_flags(
    scheme: CompressionScheme,
    partition: &CategoryPartition,
    obj_dist: &ObjDistTable,
    cats: &[u8],
    links: &[Slot],
) -> Vec<bool> {
    let sum_matches = |u: usize, v: usize| {
        let cat_uv = obj_dist.category(partition, ObjectId(u as u32), ObjectId(v as u32));
        partition.sum_categories(cats[u], cat_uv) == cats[v]
    };
    match scheme {
        CompressionScheme::PerLinkAnchor => {
            let anchor = anchors(cats, links, |_| true);
            (0..cats.len())
                .map(|v| {
                    let u = anchor[&links[v]];
                    u != v && sum_matches(u, v)
                })
                .collect()
        }
        CompressionScheme::GlobalAnchor => {
            let Some(u) = global_anchor(cats, |_| true) else {
                return Vec::new();
            };
            (0..cats.len())
                .map(|v| v != u && links[v] == links[u] && sum_matches(u, v))
                .collect()
        }
    }
}

/// The anchors a skip directory must carry so a compressed entry resolves
/// without replaying the signature prefix: the global anchor, or one per
/// distinct link that actually governs a flagged entry. Anchors are never
/// flagged themselves, so the minimum over uncompressed entries (what
/// [`resolve`] re-derives at decode time) equals the minimum over all
/// entries — the carried anchors are exactly the resolve-time ones.
pub(crate) fn entry_anchors(
    scheme: CompressionScheme,
    cats: &[u8],
    links: &[Slot],
    flags: &[bool],
) -> Vec<crate::skip::EntryAnchor> {
    if !flags.contains(&true) {
        return Vec::new();
    }
    let anchor_at = |u: usize| crate::skip::EntryAnchor {
        link: links[u],
        obj: u as u32,
        cat: cats[u],
    };
    match scheme {
        CompressionScheme::GlobalAnchor => {
            let u = global_anchor(cats, |v| !flags[v]).expect("flagged entry without anchor");
            vec![anchor_at(u)]
        }
        CompressionScheme::PerLinkAnchor => {
            let needed: std::collections::HashSet<Slot> = (0..flags.len())
                .filter(|&v| flags[v])
                .map(|v| links[v])
                .collect();
            let map = anchors(cats, links, |v| !flags[v]);
            let mut out: Vec<crate::skip::EntryAnchor> = needed
                .into_iter()
                .map(|l| anchor_at(*map.get(&l).expect("compressed link without anchor")))
                .collect();
            out.sort_unstable_by_key(|a| a.link);
            out
        }
    }
}

/// Decompression: rewrite flagged entries of `cats` (and, for the global
/// scheme, `links`) from the anchor and the object-distance table.
pub fn resolve(
    scheme: CompressionScheme,
    partition: &CategoryPartition,
    obj_dist: &ObjDistTable,
    cats: &mut [u8],
    links: &mut [Slot],
    compressed: &[bool],
) {
    if !compressed.contains(&true) {
        return;
    }
    let expand = |u: usize, v: usize, cats: &[u8]| {
        let cat_uv = obj_dist.category(partition, ObjectId(u as u32), ObjectId(v as u32));
        partition.sum_categories(cats[u], cat_uv)
    };
    match scheme {
        CompressionScheme::PerLinkAnchor => {
            let anchor = anchors(cats, links, |v| !compressed[v]);
            for v in 0..cats.len() {
                if compressed[v] {
                    let u = *anchor
                        .get(&links[v])
                        .expect("compressed entry without an uncompressed anchor");
                    cats[v] = expand(u, v, cats);
                }
            }
        }
        CompressionScheme::GlobalAnchor => {
            let u = global_anchor(cats, |v| !compressed[v])
                .expect("compressed entry without an uncompressed anchor");
            for v in 0..cats.len() {
                if compressed[v] {
                    cats[v] = expand(u, v, cats);
                    links[v] = links[u];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition() -> CategoryPartition {
        CategoryPartition::exponential(2.0, 10, 100) // 6 categories
    }

    fn table(pairs: &[(u32, u32, u32)], n: usize) -> ObjDistTable {
        let mut t = ObjDistTable::with_rows(n);
        for &(a, b, d) in pairs {
            t.set(ObjectId(a), ObjectId(b), Some(d));
        }
        t
    }

    #[test]
    fn anchor_is_category_then_position_minimum() {
        let cats = vec![3, 1, 1, 2];
        let links = vec![0, 0, 0, 1];
        let a = anchors(&cats, &links, |_| true);
        assert_eq!(a[&0], 1, "first of the two category-1 objects");
        assert_eq!(a[&1], 3);
        assert_eq!(global_anchor(&cats, |_| true), Some(1));
    }

    #[test]
    fn flags_require_exact_summation() {
        let p = partition();
        // Objects 0 (anchor, cat 1) and 1 (cat 3) share link 0.
        // d(0,1) = 45 → category 3; sum(1, 3) = max = 3 = cat(1) → flag.
        let t = table(&[(0, 1, 45)], 2);
        for scheme in [
            CompressionScheme::PerLinkAnchor,
            CompressionScheme::GlobalAnchor,
        ] {
            let flags = compression_flags(scheme, &p, &t, &[1, 3], &[0, 0]);
            assert_eq!(flags, vec![false, true], "{scheme:?}");
        }
    }

    #[test]
    fn no_flag_when_summation_mismatches() {
        let p = partition();
        // d(0,1) = 5 → cat 0; sum(1, 0) = 1 ≠ 3.
        let t = table(&[(0, 1, 5)], 2);
        for scheme in [
            CompressionScheme::PerLinkAnchor,
            CompressionScheme::GlobalAnchor,
        ] {
            let flags = compression_flags(scheme, &p, &t, &[1, 3], &[0, 0]);
            assert_eq!(flags, vec![false, false], "{scheme:?}");
        }
    }

    #[test]
    fn equal_categories_use_increment_rule() {
        let p = partition();
        // anchor cat 2, other cat 3, d(anchor,other) → cat 2: sum = 2+1 = 3.
        let t = table(&[(0, 1, 25)], 2);
        let flags = compression_flags(CompressionScheme::PerLinkAnchor, &p, &t, &[2, 3], &[0, 0]);
        assert_eq!(flags, vec![false, true]);
    }

    #[test]
    fn missing_pair_means_last_category() {
        let p = partition(); // 6 categories; last = 5
                             // No stored distance → cat(u,v) = 5; sum(1,5) = 5.
        let t = table(&[], 2);
        let flags = compression_flags(CompressionScheme::GlobalAnchor, &p, &t, &[1, 5], &[0, 0]);
        assert_eq!(flags, vec![false, true]);
    }

    #[test]
    fn per_link_scheme_compresses_across_links_independently() {
        let p = partition();
        // Object 2 shares link 1 with anchor 1 (not the global anchor 0).
        let t = table(&[(1, 2, 45)], 3);
        let flags = compression_flags(
            CompressionScheme::PerLinkAnchor,
            &p,
            &t,
            &[0, 1, 3],
            &[0, 1, 1],
        );
        assert_eq!(flags, vec![false, false, true]);
        // The global scheme cannot: object 2's link differs from the global
        // anchor's.
        let flags = compression_flags(
            CompressionScheme::GlobalAnchor,
            &p,
            &t,
            &[0, 1, 3],
            &[0, 1, 1],
        );
        assert_eq!(flags, vec![false, false, false]);
    }

    #[test]
    fn resolve_round_trips_flags_per_link() {
        let p = partition();
        let t = table(&[(0, 1, 45), (0, 2, 25), (1, 2, 30)], 3);
        let cats = vec![1u8, 3, 2];
        let links = vec![0u8, 0, 0];
        let flags = compression_flags(CompressionScheme::PerLinkAnchor, &p, &t, &cats, &links);
        let mut stored = cats.clone();
        for (v, &f) in flags.iter().enumerate() {
            if f {
                stored[v] = 0; // flagged codes are not stored
            }
        }
        let mut stored_links = links.clone();
        resolve(
            CompressionScheme::PerLinkAnchor,
            &p,
            &t,
            &mut stored,
            &mut stored_links,
            &flags,
        );
        assert_eq!(stored, cats);
        assert_eq!(stored_links, links);
    }

    #[test]
    fn resolve_round_trips_flags_global() {
        let p = partition();
        let t = table(&[(0, 1, 45), (0, 2, 25), (1, 2, 30)], 3);
        let cats = vec![1u8, 3, 2];
        let links = vec![4u8, 4, 4];
        let flags = compression_flags(CompressionScheme::GlobalAnchor, &p, &t, &cats, &links);
        assert!(flags.iter().any(|&f| f), "something must compress");
        let mut stored = cats.clone();
        let mut stored_links = links.clone();
        for (v, &f) in flags.iter().enumerate() {
            if f {
                stored[v] = 0; // neither code...
                stored_links[v] = 0; // ...nor link is stored
            }
        }
        resolve(
            CompressionScheme::GlobalAnchor,
            &p,
            &t,
            &mut stored,
            &mut stored_links,
            &flags,
        );
        assert_eq!(stored, cats);
        assert_eq!(stored_links, links, "links recovered from the anchor");
    }

    #[test]
    fn entry_anchors_cover_all_flagged_entries() {
        let p = partition();
        let t = table(&[(0, 1, 45), (0, 2, 25), (1, 2, 30)], 3);
        let cats = vec![1u8, 3, 2];
        for (scheme, links) in [
            (CompressionScheme::PerLinkAnchor, vec![0u8, 0, 0]),
            (CompressionScheme::GlobalAnchor, vec![4u8, 4, 4]),
        ] {
            let flags = compression_flags(scheme, &p, &t, &cats, &links);
            assert!(flags.iter().any(|&f| f), "{scheme:?}: something must flag");
            let anchors = entry_anchors(scheme, &cats, &links, &flags);
            for v in 0..cats.len() {
                if flags[v] {
                    let a = anchors
                        .iter()
                        .find(|a| a.link == links[v])
                        .expect("anchor for flagged link");
                    assert!(!flags[a.obj as usize], "anchor must be uncompressed");
                    assert_eq!(a.cat, cats[a.obj as usize]);
                }
            }
        }
        // No flags → no anchor carriage.
        let none = entry_anchors(
            CompressionScheme::GlobalAnchor,
            &cats,
            &[0, 1, 2],
            &[false; 3],
        );
        assert!(none.is_empty());
    }

    #[test]
    fn anchors_never_flagged() {
        let p = partition();
        let t = table(&[(0, 1, 10), (0, 2, 10), (1, 2, 10)], 3);
        for scheme in [
            CompressionScheme::PerLinkAnchor,
            CompressionScheme::GlobalAnchor,
        ] {
            for cats in [[0u8, 0, 0], [2, 2, 2], [5, 5, 5]] {
                let flags = compression_flags(scheme, &p, &t, &cats, &[1, 1, 1]);
                assert!(!flags[0], "anchor (first minimal) must stay raw");
            }
        }
    }
}
