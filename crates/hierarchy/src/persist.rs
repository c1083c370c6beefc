//! Binary persistence for the contraction hierarchy.
//!
//! Same container discipline as the signature index's format v3
//! (`dsi-signature::persist`): a plaintext `[MAGIC][version]` preamble,
//! then the payload chopped into CRC-32-checksummed frames
//! ([`dsi_storage::FrameWriter`]). Truncation surfaces as an I/O error,
//! any bit flip as a checksum mismatch, and structural damage that
//! happens to keep its checksum (or a snapshot for the wrong network) is
//! caught by validation — ranks must form a permutation and every stored
//! arc must point strictly upward. A damaged snapshot is *detected*,
//! never served as a plausible-but-wrong oracle.
//!
//! Only ranks and upward arcs are stored; the rank order and the downward
//! CSR are re-derived at load, so a loaded hierarchy is structurally
//! identical to the one saved. The contraction record is not stored: a
//! loaded hierarchy answers like the saved one, and
//! [`ContractionHierarchy::repaired`] re-contracts it whole.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use dsi_graph::io::{get_u32, get_u64, put_u32, put_u64, LoadError};
use dsi_graph::{NodeId, NO_NODE};
use dsi_storage::{FrameReader, FrameWriter};

use crate::build::{ContractionHierarchy, UpArc};
use crate::labels::HubLabels;

const MAGIC: &[u8; 4] = b"DSCH";
const VERSION: u32 = 1;

/// Ceiling on any single up-front reservation while decoding (see the
/// signature persistence module for rationale: a corrupt length field must
/// not become a giant allocation).
const MAX_RESERVE: usize = 1 << 16;

/// Write a hierarchy snapshot.
pub fn write_hierarchy<W: Write>(ch: &ContractionHierarchy, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(MAGIC)?;
    put_u32(&mut w, VERSION)?;

    let mut w = FrameWriter::new(w);
    put_u64(&mut w, ch.seed)?;
    put_u32(&mut w, ch.n as u32)?;
    put_u32(&mut w, ch.num_shortcuts)?;
    for &r in &ch.rank {
        put_u32(&mut w, r)?;
    }
    for &i in &ch.up_index {
        put_u32(&mut w, i)?;
    }
    for a in &ch.up_arcs {
        put_u32(&mut w, a.to.0)?;
        put_u32(&mut w, a.weight)?;
        put_u32(&mut w, a.middle.0)?;
    }
    w.finish()?.flush()
}

/// Read a hierarchy snapshot. Every failure mode of a damaged file comes
/// back as a [`LoadError`]; this never panics on malformed input.
pub fn read_hierarchy<R: Read>(r: R) -> Result<ContractionHierarchy, LoadError> {
    let mut r = BufReader::new(r);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(LoadError::Format("not a hierarchy snapshot".into()));
    }
    let v = get_u32(&mut r)?;
    if v != VERSION {
        return Err(LoadError::Format(format!(
            "snapshot version {v}, expected {VERSION}"
        )));
    }

    let mut r = FrameReader::new(r);
    let seed = get_u64(&mut r)?;
    let n = get_u32(&mut r)? as usize;
    let num_shortcuts = get_u32(&mut r)?;

    let mut rank = Vec::with_capacity(n.min(MAX_RESERVE));
    let mut order = vec![NO_NODE; n];
    for v in 0..n {
        let rv = get_u32(&mut r)? as usize;
        if rv >= n || order[rv] != NO_NODE {
            return Err(LoadError::Format(format!(
                "ranks are not a permutation of 0..{n}"
            )));
        }
        order[rv] = NodeId(v as u32);
        rank.push(rv as u32);
    }

    let mut up_index = Vec::with_capacity((n + 1).min(MAX_RESERVE));
    for i in 0..=n {
        let off = get_u32(&mut r)?;
        if i == 0 && off != 0 {
            return Err(LoadError::Format("arc index does not start at 0".into()));
        }
        if let Some(&prev) = up_index.last() {
            if off < prev {
                return Err(LoadError::Format("arc index not monotone".into()));
            }
        }
        up_index.push(off);
    }
    let num_arcs = *up_index.last().expect("non-empty index") as usize;

    let mut up_lists: Vec<Vec<UpArc>> = vec![Vec::new(); n];
    for v in 0..n {
        let from = NodeId(v as u32);
        for _ in up_index[v]..up_index[v + 1] {
            let to = get_u32(&mut r)?;
            let weight = get_u32(&mut r)?;
            let middle = get_u32(&mut r)?;
            if to as usize >= n || rank[to as usize] <= rank[v] {
                return Err(LoadError::Format(format!(
                    "arc {from}→n{to} does not point upward"
                )));
            }
            if middle != NO_NODE.0 && middle as usize >= n {
                return Err(LoadError::Format(format!("bad middle node {middle}")));
            }
            up_lists[v].push(UpArc {
                to: NodeId(to),
                weight,
                middle: NodeId(middle),
            });
        }
    }
    if num_shortcuts as usize > num_arcs {
        return Err(LoadError::Format("more shortcuts than arcs".into()));
    }

    Ok(ContractionHierarchy::from_up_lists(
        n,
        seed,
        rank,
        order,
        up_lists,
        num_shortcuts,
        None,
    ))
}

/// [`write_hierarchy`] to a file path.
pub fn save_hierarchy(ch: &ContractionHierarchy, path: impl AsRef<Path>) -> io::Result<()> {
    write_hierarchy(ch, File::create(path)?)
}

/// [`read_hierarchy`] from a file path.
pub fn load_hierarchy(path: impl AsRef<Path>) -> Result<ContractionHierarchy, LoadError> {
    read_hierarchy(File::open(path)?)
}

// ---------------------------------------------------------------------------
// Hub-label snapshots: same container discipline, own magic. Stored next to
// the hierarchy they were extracted from (the seed ties the two together so
// a label file cannot be paired with a foreign hierarchy undetected).

const LABEL_MAGIC: &[u8; 4] = b"DSHL";
const LABEL_VERSION: u32 = 1;

/// Write a hub-label snapshot.
pub fn write_labels<W: Write>(hl: &HubLabels, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(LABEL_MAGIC)?;
    put_u32(&mut w, LABEL_VERSION)?;

    let mut w = FrameWriter::new(w);
    put_u64(&mut w, hl.seed)?;
    put_u32(&mut w, hl.n as u32)?;
    for &i in &hl.index {
        put_u32(&mut w, i)?;
    }
    for (&h, &d) in hl.hubs.iter().zip(&hl.dists) {
        put_u32(&mut w, h.0)?;
        put_u32(&mut w, d)?;
    }
    w.finish()?.flush()
}

/// Read a hub-label snapshot. Structural validation mirrors the hierarchy
/// loader: the CSR index must be monotone from 0 and every label's hubs
/// strictly ascending in-range with a zero-distance self entry — damage is
/// detected, never served.
pub fn read_labels<R: Read>(r: R) -> Result<HubLabels, LoadError> {
    let mut r = BufReader::new(r);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != LABEL_MAGIC {
        return Err(LoadError::Format("not a hub-label snapshot".into()));
    }
    let v = get_u32(&mut r)?;
    if v != LABEL_VERSION {
        return Err(LoadError::Format(format!(
            "label snapshot version {v}, expected {LABEL_VERSION}"
        )));
    }

    let mut r = FrameReader::new(r);
    let seed = get_u64(&mut r)?;
    let n = get_u32(&mut r)? as usize;
    let mut index = Vec::with_capacity((n + 1).min(MAX_RESERVE));
    for i in 0..=n {
        let off = get_u32(&mut r)?;
        if i == 0 && off != 0 {
            return Err(LoadError::Format("label index does not start at 0".into()));
        }
        if let Some(&prev) = index.last() {
            if off < prev {
                return Err(LoadError::Format("label index not monotone".into()));
            }
        }
        index.push(off);
    }
    let num_entries = *index.last().expect("non-empty index") as usize;
    let mut hubs = Vec::with_capacity(num_entries.min(MAX_RESERVE));
    let mut dists = Vec::with_capacity(num_entries.min(MAX_RESERVE));
    for v in 0..n {
        let mut self_entry = false;
        for e in index[v]..index[v + 1] {
            let h = get_u32(&mut r)?;
            let d = get_u32(&mut r)?;
            if h as usize >= n {
                return Err(LoadError::Format(format!("hub n{h} out of range")));
            }
            if e > index[v] && hubs.last().is_some_and(|&p: &NodeId| p.0 >= h) {
                return Err(LoadError::Format(format!("hubs of n{v} not ascending")));
            }
            if h as usize == v {
                if d != 0 {
                    return Err(LoadError::Format(format!("self entry of n{v} not 0")));
                }
                self_entry = true;
            }
            hubs.push(NodeId(h));
            dists.push(d);
        }
        if !self_entry {
            return Err(LoadError::Format(format!("n{v} missing its self entry")));
        }
    }

    Ok(HubLabels {
        n,
        seed,
        index,
        hubs,
        dists,
    })
}

/// [`write_labels`] to a file path.
pub fn save_labels(hl: &HubLabels, path: impl AsRef<Path>) -> io::Result<()> {
    write_labels(hl, File::create(path)?)
}

/// [`read_labels`] from a file path.
pub fn load_labels(path: impl AsRef<Path>) -> Result<HubLabels, LoadError> {
    read_labels(File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ChConfig;
    use crate::{ChWorkspace, PhastWorkspace};
    use dsi_graph::generate::grid;
    use dsi_graph::sssp;

    fn roundtrip(ch: &ContractionHierarchy) -> Vec<u8> {
        let mut buf = Vec::new();
        write_hierarchy(ch, &mut buf).expect("write");
        buf
    }

    #[test]
    fn snapshot_roundtrips_identically() {
        let g = grid(7, 7);
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let buf = roundtrip(&ch);
        let back = read_hierarchy(&buf[..]).expect("read");
        assert_eq!(back.seed(), ch.seed());
        assert_eq!(back.rank, ch.rank);
        assert_eq!(back.order, ch.order);
        assert_eq!(back.up_index, ch.up_index);
        assert_eq!(back.up_arcs, ch.up_arcs);
        assert_eq!(back.sweep_index, ch.sweep_index);
        assert_eq!(back.sweep_arcs, ch.sweep_arcs);
        assert_eq!(back.up_step_bound, ch.up_step_bound);
        // And it still answers: spot-check p2p + PHAST against Dijkstra.
        let mut ws = ChWorkspace::new();
        let tree = sssp(&g, NodeId(0));
        assert_eq!(back.p2p(NodeId(0), NodeId(48), &mut ws), tree.dist[48]);
        let mut ph = PhastWorkspace::new();
        back.sssp_phast(NodeId(0), &mut ph);
        assert_eq!(ph.dists(), &tree.dist[..]);
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let g = grid(4, 4);
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let buf = roundtrip(&ch);
        // Flip one bit in every byte position past the preamble; each
        // corrupted snapshot must be rejected, never silently loaded.
        for pos in (8..buf.len()).step_by(7) {
            let mut bad = buf.clone();
            bad[pos] ^= 0x10;
            assert!(
                read_hierarchy(&bad[..]).is_err(),
                "bit flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn truncation_and_bad_preamble_are_rejected() {
        let g = grid(4, 4);
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let buf = roundtrip(&ch);
        for cut in [0, 3, 9, buf.len() / 2, buf.len() - 1] {
            assert!(read_hierarchy(&buf[..cut]).is_err(), "truncated at {cut}");
        }
        let mut wrong_magic = buf.clone();
        wrong_magic[0] = b'X';
        assert!(read_hierarchy(&wrong_magic[..]).is_err());
    }

    fn label_roundtrip(hl: &HubLabels) -> Vec<u8> {
        let mut buf = Vec::new();
        write_labels(hl, &mut buf).expect("write");
        buf
    }

    #[test]
    fn label_snapshot_roundtrips_identically() {
        let g = grid(7, 7);
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let hl = HubLabels::build(&ch);
        let back = read_labels(&label_roundtrip(&hl)[..]).expect("read");
        assert_eq!(back, hl);
        assert_eq!(back.seed(), ch.seed());
        // And it still answers.
        let tree = sssp(&g, NodeId(0));
        assert_eq!(back.p2p(NodeId(0), NodeId(48)), tree.dist[48]);
    }

    #[test]
    fn label_bit_flips_and_truncation_are_detected() {
        let g = grid(4, 4);
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let hl = HubLabels::build(&ch);
        let buf = label_roundtrip(&hl);
        for pos in (8..buf.len()).step_by(7) {
            let mut bad = buf.clone();
            bad[pos] ^= 0x10;
            assert!(
                read_labels(&bad[..]).is_err(),
                "bit flip at byte {pos} went undetected"
            );
        }
        for cut in [0, 3, 9, buf.len() / 2, buf.len() - 1] {
            assert!(read_labels(&buf[..cut]).is_err(), "truncated at {cut}");
        }
        let mut wrong_magic = buf.clone();
        wrong_magic[0] = b'X';
        assert!(read_labels(&wrong_magic[..]).is_err());
    }
}
