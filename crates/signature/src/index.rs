//! The distance-signature index: construction (§5.2), storage schema (§3.1),
//! and size accounting (Table 1).

use dsi_graph::network::Slot;
use dsi_graph::{
    sssp, sssp_into, Dist, NodeId, ObjectId, ObjectSet, RoadNetwork, SsspWorkspace, INFINITY,
};
use dsi_hierarchy::{ChConfig, ContractionHierarchy, PhastWorkspace};
use dsi_storage::{ccam_order, PagedStore};

use crate::bits::{BitBox, BitReader, BitWriter};
use crate::category::CategoryPartition;
use crate::compress;
use crate::encode::ReverseZeroPadding;
use crate::skip::{bits_for, SkipDirectory};

/// Construction parameters.
#[derive(Clone, Debug)]
pub struct SignatureConfig {
    /// Exponential growth factor `c` of the category partition. The paper's
    /// analysis (§5.1) gives `c = e` as optimal on grids with uniform data.
    pub c: f64,
    /// Upper bound `T` of the first category; `None` derives the analytical
    /// optimum `sqrt(SP / c)` from the spreading.
    pub t: Option<Dist>,
    /// Maximum query spreading `SP` (the largest distance queries care
    /// about); `None` estimates it as the network's eccentricity from the
    /// first object.
    pub spreading: Option<Dist>,
    /// Apply the §5.3 compression pass (the 1-bit flag scheme).
    pub compress: bool,
    /// Which compression variant to use (see
    /// [`CompressionScheme`](crate::compress::CompressionScheme)).
    pub scheme: crate::compress::CompressionScheme,
    /// Buffer-pool capacity (in pages) that [`SignatureIndex::session`]
    /// gives query sessions.
    pub pool_pages: usize,
    /// Build shortest-path trees on multiple threads.
    pub parallel: bool,
    /// Skip-directory stride `K`: every `K`-th entry's bit offset is
    /// recorded so [`SignatureIndex::decode_entry`] replays at most `K`
    /// entries. Smaller strides decode less per lookup but grow the
    /// directory; `K = 16` keeps the overhead well under 10 % of
    /// `disk_bytes` on the paper's datasets. Clamped to ≥ 1.
    pub skip_stride: usize,
}

impl SignatureConfig {
    /// The category partition a build over `net` uses: exponential with
    /// growth `c`, first bound `t` (default `sqrt(SP / c)`) and spreading
    /// `SP` (default: the eccentricity of the first object's host).
    pub fn partition_for(&self, net: &RoadNetwork, objects: &ObjectSet) -> CategoryPartition {
        let sp = self.spreading.unwrap_or_else(|| {
            let t = sssp(net, objects.node_of(ObjectId(0)));
            let m = t.dist.iter().copied().filter(|&x| x != INFINITY).max();
            m.expect("empty network").max(1)
        });
        let t = self
            .t
            .unwrap_or_else(|| ((sp as f64 / self.c).sqrt().round() as Dist).max(1));
        CategoryPartition::exponential(self.c, t, sp)
    }

    /// This configuration with the partition pinned to `p` (an exponential
    /// partition, as every build makes): a build over a re-weighted network
    /// then categorises exactly like the index `p` came from, where the
    /// defaults would re-estimate the spreading from the new weights.
    pub fn pinned_to(&self, p: &CategoryPartition) -> SignatureConfig {
        SignatureConfig {
            c: p.c(),
            t: Some(p.t()),
            spreading: p.upper_bounds().last().copied(),
            ..self.clone()
        }
    }
}

/// Whether a build of `d` objects on `n` nodes computes its per-object
/// distance vectors (§5.2's "one Dijkstra per object" step) by PHAST sweeps
/// over a contraction hierarchy rather than flat Dijkstra. The distances are
/// identical; the hierarchy replaces one priority-queue Dijkstra per object
/// with one tiny upward search plus a linear rank sweep. It is used when the
/// caller supplies one ([`SignatureIndex::build_with_hierarchy`]), or when
/// the build is big enough (`|D| ≥ 64` objects on `n ≥ 1024` nodes) that
/// constructing a throwaway hierarchy amortizes over the per-object sweeps.
fn use_hierarchy(n: usize, d: usize, have_ch: bool) -> bool {
    have_ch || (d >= 64 && n >= 1024)
}

impl Default for SignatureConfig {
    fn default() -> Self {
        SignatureConfig {
            c: std::f64::consts::E,
            t: None,
            spreading: None,
            compress: true,
            scheme: crate::compress::CompressionScheme::default(),
            pool_pages: 64,
            parallel: true,
            skip_stride: 16,
        }
    }
}

/// Index-size accounting for Table 1 and Figure 6.4.
#[derive(Clone, Debug, Default)]
pub struct SizeReport {
    pub num_nodes: usize,
    pub num_objects: usize,
    /// Fixed-length encoding: `(⌈log M⌉ + ⌈log R⌉) · |D|` bits per node.
    pub raw_bits: u64,
    /// After reverse-zero-padding encoding (links unchanged).
    pub encoded_bits: u64,
    /// After encoding and compression (what the index actually stores).
    pub compressed_bits: u64,
    /// Entries whose category id was replaced by the 1-bit flag.
    pub compressed_entries: u64,
    /// In-memory object↔object distance table footprint in bytes.
    pub obj_table_bytes: u64,
    /// Skip-directory bits (offsets + anchor carriage) under the global
    /// field widths — the entry-decode random-access overhead.
    pub directory_bits: u64,
    /// Global number of signature entries per category.
    pub category_counts: Vec<u64>,
}

impl SizeReport {
    /// `encoded / raw` (the paper's "Ratio" row ≈ 0.74).
    pub fn encoding_ratio(&self) -> f64 {
        self.encoded_bits as f64 / self.raw_bits as f64
    }

    /// `compressed / encoded` (the paper's second "Ratio" row ≈ 0.8).
    pub fn compression_ratio(&self) -> f64 {
        self.compressed_bits as f64 / self.encoded_bits as f64
    }

    /// Fraction of entries stored as a bare compression flag.
    pub fn compressed_fraction(&self) -> f64 {
        self.compressed_entries as f64 / (self.num_nodes as u64 * self.num_objects as u64) as f64
    }
}

/// A node's signature in decoded form: resolved categories and backtracking
/// links for every object, in object-id order (the "sequence" of §3.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodedSignature {
    /// Resolved category per object (compressed entries already expanded).
    pub cats: Vec<u8>,
    /// Backtracking link per object: adjacency slot of the next hop.
    pub links: Vec<Slot>,
    /// Which entries were stored compressed (for diagnostics/ablation).
    pub compressed: Vec<bool>,
}

/// In-memory table of object↔object network distances (§3.2.2). Distances
/// falling in the last (open-ended) category are not stored — such objects
/// "are never used as the observer for one another".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObjDistTable {
    pub(crate) rows: Vec<Vec<(u32, Dist)>>,
}

impl ObjDistTable {
    /// An empty table for `num_objects` objects.
    pub fn with_rows(num_objects: usize) -> Self {
        ObjDistTable {
            rows: vec![Vec::new(); num_objects],
        }
    }

    /// Set or remove (`None`) the symmetric pair.
    pub fn set(&mut self, a: ObjectId, b: ObjectId, d: Option<Dist>) {
        for (x, y) in [(a, b), (b, a)] {
            let row = &mut self.rows[x.index()];
            match (row.binary_search_by_key(&y.0, |&(o, _)| o), d) {
                (Ok(i), Some(nd)) => row[i].1 = nd,
                (Ok(i), None) => {
                    row.remove(i);
                }
                (Err(i), Some(nd)) => row.insert(i, (y.0, nd)),
                (Err(_), None) => {}
            }
        }
    }

    /// Exact distance between two objects, if stored.
    pub fn get(&self, a: ObjectId, b: ObjectId) -> Option<Dist> {
        if a == b {
            return Some(0);
        }
        self.rows[a.index()]
            .binary_search_by_key(&b.0, |&(o, _)| o)
            .ok()
            .map(|i| self.rows[a.index()][i].1)
    }

    /// Category of `d(a, b)` under `partition`; absent pairs are by
    /// construction in the last category.
    pub fn category(&self, partition: &CategoryPartition, a: ObjectId, b: ObjectId) -> u8 {
        match self.get(a, b) {
            Some(d) => partition.category_of(d),
            None => (partition.num_categories() - 1) as u8,
        }
    }

    /// Footprint in bytes (8 bytes per stored pair direction).
    pub fn bytes(&self) -> u64 {
        self.rows.iter().map(|r| r.len() as u64 * 8).sum()
    }
}

/// The distance-signature index (§3.1): one encoded, compressed signature
/// blob per node, paged together with the node's adjacency list in CCAM
/// order, plus the in-memory object-distance table.
#[derive(Clone, Debug)]
pub struct SignatureIndex {
    pub(crate) partition: CategoryPartition,
    pub(crate) code: ReverseZeroPadding,
    pub(crate) link_bits: u32,
    pub(crate) hosts: Vec<NodeId>,
    pub(crate) object_at: Vec<u32>,
    pub(crate) blobs: Vec<BitBox>,
    /// One skip directory per node, stride [`Self::skip_stride`].
    pub(crate) dirs: Vec<SkipDirectory>,
    pub(crate) skip_stride: usize,
    pub(crate) obj_dist: ObjDistTable,
    pub(crate) store: PagedStore,
    pub(crate) compress: bool,
    pub(crate) scheme: crate::compress::CompressionScheme,
    pub(crate) pool_pages: usize,
    /// Bumped by every maintenance mutation ([`reencode_node`],
    /// [`set_obj_dist`]); parked session states record the generation they
    /// cached decodes under, and `Session::resume` clears a cache whose
    /// generation lags. A `SessionState` belongs to one index's lineage —
    /// resuming it against a *different* index is undefined regardless of
    /// generations.
    ///
    /// [`reencode_node`]: Self::reencode_node
    /// [`set_obj_dist`]: Self::set_obj_dist
    pub(crate) generation: u64,
    pub report: SizeReport,
}

/// One object's construction output: its category/link columns and its
/// object-distance row.
struct Column {
    cats: Vec<u8>,
    links: Vec<Slot>,
    obj_row: Vec<(u32, Dist)>,
}

impl SignatureIndex {
    /// Build the index: one SSSP per object fills the per-node signatures
    /// (§5.2 — "all the distances computed are necessary"), then each
    /// node's signature is encoded and compressed. A build of ≥ 64 objects
    /// on ≥ 1024 nodes runs the SSSPs as PHAST sweeps over a contraction
    /// hierarchy it builds for the purpose; a smaller one runs flat
    /// Dijkstra.
    ///
    /// # Panics
    /// If the network is disconnected (signatures require every
    /// node-object distance to exist) or the dataset is empty.
    pub fn build(net: &RoadNetwork, objects: &ObjectSet, config: &SignatureConfig) -> Self {
        Self::build_inner(net, objects, config, None, None, &[]).0
    }

    /// [`build`](Self::build) with a prebuilt contraction hierarchy over
    /// `net`: the per-object SSSPs run as PHAST sweeps on `ch`
    /// (preprocessing amortized across builds), whatever the build's size.
    pub fn build_with_hierarchy(
        net: &RoadNetwork,
        objects: &ObjectSet,
        config: &SignatureConfig,
        ch: &ContractionHierarchy,
    ) -> Self {
        assert_eq!(
            ch.num_nodes(),
            net.num_nodes(),
            "hierarchy was built for a different network"
        );
        Self::build_inner(net, objects, config, Some(ch), None, &[]).0
    }

    /// Serial build that reuses a caller-owned workspace and can capture
    /// full distance vectors for selected objects.
    ///
    /// This is the per-region entry point for partitioned construction
    /// (`dsi-partition`): each build worker owns one
    /// [`SignatureBuildWorkspace`] for its entire run — regions reuse it
    /// instead of reallocating per build — and the partitioner reads each
    /// boundary pseudo-object's exact distance vector off the same SSSP
    /// that filled the signatures rather than re-running it. Captured rows
    /// come back in `capture` order, each `net.num_nodes()` entries long.
    /// `config.parallel` is ignored: the caller owns the parallelism. The
    /// distance substrate follows [`build`](Self::build)'s size rule.
    pub fn build_serial(
        net: &RoadNetwork,
        objects: &ObjectSet,
        config: &SignatureConfig,
        ws: &mut SignatureBuildWorkspace,
        capture: &[ObjectId],
    ) -> (Self, Vec<Vec<Dist>>) {
        Self::build_inner(net, objects, config, None, Some(&mut ws.inner), capture)
    }

    fn build_inner(
        net: &RoadNetwork,
        objects: &ObjectSet,
        config: &SignatureConfig,
        ch: Option<&ContractionHierarchy>,
        ext_ws: Option<&mut BuildWs>,
        capture: &[ObjectId],
    ) -> (Self, Vec<Vec<Dist>>) {
        assert!(!objects.is_empty(), "dataset must be non-empty");
        let n = net.num_nodes();
        let d = objects.len();

        let partition = config.partition_for(net, objects);
        let code = ReverseZeroPadding::new(partition.num_categories());
        let last_lb = partition.last_lb();
        let link_bits = link_bits_for(net.max_degree());

        // Per-object shortest-path trees → category/link columns.
        let built_ch;
        let distance = if use_hierarchy(n, d, ch.is_some()) {
            Some(match ch {
                Some(ch) => ch,
                None => {
                    built_ch = ContractionHierarchy::build(net, &ChConfig::default());
                    &built_ch
                }
            })
        } else {
            None
        };
        let (columns, captured) = build_columns(
            net,
            objects,
            &partition,
            last_lb,
            config.parallel && ext_ws.is_none(),
            distance,
            ext_ws,
            capture,
        );

        let mut obj_dist = ObjDistTable::with_rows(d);
        for (o, col) in columns.iter().enumerate() {
            obj_dist.rows[o] = col.obj_row.clone();
        }

        // Encode + compress per node, recording skip-directory state.
        let stride = config.skip_stride.max(1);
        let mut blobs = Vec::with_capacity(n);
        let mut dirs = Vec::with_capacity(n);
        let mut report = SizeReport {
            num_nodes: n,
            num_objects: d,
            category_counts: vec![0; partition.num_categories()],
            ..Default::default()
        };
        let mut cats_row = vec![0u8; d];
        let mut links_row = vec![0 as Slot; d];
        for ni in 0..n {
            for o in 0..d {
                cats_row[o] = columns[o].cats[ni];
                links_row[o] = columns[o].links[ni];
                report.category_counts[cats_row[o] as usize] += 1;
            }
            let flags = if config.compress {
                compress::compression_flags(
                    config.scheme,
                    &partition,
                    &obj_dist,
                    &cats_row,
                    &links_row,
                )
            } else {
                vec![false; d]
            };
            let (blob, enc_bits, offsets) = encode_node(
                &code,
                link_bits,
                &cats_row,
                &links_row,
                &flags,
                config.compress,
                config.scheme,
                stride,
            );
            report.raw_bits += (partition.fixed_bits() as u64 + link_bits as u64) * d as u64;
            report.encoded_bits += enc_bits;
            report.compressed_bits += blob.len() as u64;
            report.compressed_entries += flags.iter().filter(|&&f| f).count() as u64;
            blobs.push(blob);
            dirs.push(SkipDirectory::from_parts(
                offsets,
                compress::entry_anchors(config.scheme, &cats_row, &links_row, &flags),
            ));
        }
        report.obj_table_bytes = obj_dist.bytes();
        let (off_b, obj_b, cat_b) = dir_widths(&blobs, d, partition.num_categories());
        report.directory_bits = dirs
            .iter()
            .map(|dir| dir.modeled_bits(off_b, obj_b, cat_b, link_bits))
            .sum();

        // Storage schema: signature merged with the adjacency list (§3.1),
        // records in CCAM order. The skip directory is charged to the same
        // record: entry decode must not get its random access for free.
        let sizes: Vec<usize> = (0..n)
            .map(|i| {
                net.adjacency_record_bytes(NodeId(i as u32))
                    + blobs[i].byte_len()
                    + dirs[i].modeled_bytes(off_b, obj_b, cat_b, link_bits)
            })
            .collect();
        let store = PagedStore::new(&ccam_order(net), &sizes, 0);

        let object_at = (0..n)
            .map(|i| {
                objects
                    .object_at(NodeId(i as u32))
                    .map_or(u32::MAX, |o| o.0)
            })
            .collect();

        let index = SignatureIndex {
            partition,
            code,
            link_bits,
            hosts: objects.host_nodes().to_vec(),
            object_at,
            blobs,
            dirs,
            skip_stride: stride,
            obj_dist,
            store,
            compress: config.compress,
            scheme: config.scheme,
            pool_pages: config.pool_pages,
            generation: 0,
            report,
        };
        (index, captured)
    }

    /// The category partition in force.
    pub fn partition(&self) -> &CategoryPartition {
        &self.partition
    }

    /// Number of objects `D`.
    pub fn num_objects(&self) -> usize {
        self.hosts.len()
    }

    /// Number of indexed nodes.
    pub fn num_nodes(&self) -> usize {
        self.blobs.len()
    }

    /// Host node of object `o`.
    pub fn host(&self, o: ObjectId) -> NodeId {
        self.hosts[o.index()]
    }

    /// Object hosted on `n`, if any.
    pub fn object_at(&self, n: NodeId) -> Option<ObjectId> {
        match self.object_at[n.index()] {
            u32::MAX => None,
            i => Some(ObjectId(i)),
        }
    }

    /// Iterate over all object ids.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        (0..self.num_objects() as u32).map(ObjectId)
    }

    /// The object-distance side table.
    pub fn obj_dist(&self) -> &ObjDistTable {
        &self.obj_dist
    }

    /// Move the backing store to a new first page id (see
    /// [`PagedStore::rebase`]). Partitioned builds construct each region's
    /// index independently at base 0, then rebase the stores onto disjoint
    /// global page ranges. Call before any session is created: page ids
    /// already charged to a pool are not remapped.
    pub fn rebase_store(&mut self, base: dsi_storage::PageId) {
        self.store.rebase(base);
    }

    /// The paged store holding the merged adjacency+signature records.
    pub fn store(&self) -> &PagedStore {
        &self.store
    }

    /// Materialise this index's on-disk image into `image`, whose length
    /// must cover the store's page span in bytes (for a rebased store,
    /// `image` is the whole shared page space and this index's records
    /// land at their global byte offsets — partitioned builds call this
    /// once per region into one image).
    ///
    /// Each record is §3.1's merged node record, in CCAM order: the
    /// adjacency list (2-byte degree, then 4-byte target id + 4-byte
    /// weight per slot, little-endian — exactly
    /// [`RoadNetwork::adjacency_record_bytes`]'s accounting), followed by
    /// the signature blob's bytes; the skip directory's modeled bytes are
    /// zero-filled. Decoding still runs off the in-memory structures — the
    /// file realises the physical *cost* (the exact bytes a `pread` must
    /// move and CRC-check per page), not a second decode path.
    pub fn fill_page_image(&self, net: &RoadNetwork, image: &mut [u8]) {
        for i in 0..self.num_nodes() {
            let n = NodeId(i as u32);
            let range = self.store.byte_range_of(i);
            let rec = &mut image[range.start as usize..range.end as usize];
            let deg = net.degree(n) as u16;
            rec[0..2].copy_from_slice(&deg.to_le_bytes());
            let mut off = 2;
            for (_, target, w) in net.neighbors(n) {
                rec[off..off + 4].copy_from_slice(&target.0.to_le_bytes());
                rec[off + 4..off + 8].copy_from_slice(&w.to_le_bytes());
                off += 8;
            }
            let blob = &self.blobs[i];
            // Maintenance can re-encode a blob past the record length the
            // layout fixed at build time; the image realises the *modeled*
            // record, so the overflow is clipped (decode never reads the
            // image — it only carries the physical read/checksum cost).
            let bytes = blob.byte_len().min(rec.len() - off);
            let mut bi = 0;
            'words: for word in blob.words() {
                for b in word.to_le_bytes() {
                    if bi == bytes {
                        break 'words;
                    }
                    rec[off + bi] = b;
                    bi += 1;
                }
            }
        }
    }

    /// Bytes of the page image [`fill_page_image`](Self::fill_page_image)
    /// needs for a store based at page 0 (single-index case).
    pub fn page_image_bytes(&self) -> usize {
        self.store.end_page() as usize * dsi_storage::PAGE_SIZE
    }

    /// Total on-disk size in bytes (pages × 4 KiB).
    pub fn disk_bytes(&self) -> u64 {
        self.store.disk_bytes()
    }

    /// Bits of each backtracking link (`⌈log R⌉`).
    pub fn link_bits(&self) -> u32 {
        self.link_bits
    }

    /// The compression scheme in force.
    pub fn scheme(&self) -> crate::compress::CompressionScheme {
        self.scheme
    }

    /// Decode node `n`'s signature (CPU only — I/O accounting is the
    /// [`Session`](crate::ops::Session)'s job).
    pub fn decode_node(&self, n: NodeId) -> DecodedSignature {
        let d = self.num_objects();
        let mut r = self.blobs[n.index()].reader();
        let mut cats = vec![0u8; d];
        let mut links = vec![0 as Slot; d];
        let mut compressed = vec![false; d];
        let keep_link = self.scheme == crate::compress::CompressionScheme::PerLinkAnchor;
        for o in 0..d {
            let flag = self.compress && r.read_bit();
            compressed[o] = flag;
            if !flag {
                cats[o] = self.code.decode(&mut r);
            }
            if !flag || keep_link {
                links[o] = r.read_bits(self.link_bits) as Slot;
            }
        }
        debug_assert_eq!(r.remaining(), 0);
        compress::resolve(
            self.scheme,
            &self.partition,
            &self.obj_dist,
            &mut cats,
            &mut links,
            &compressed,
        );
        DecodedSignature {
            cats,
            links,
            compressed,
        }
    }

    /// Rewrite node `n`'s signature from resolved categories and links
    /// (re-encoding and re-compressing). Used by the §5.4 maintenance path;
    /// returns the new blob's byte length.
    pub fn reencode_node(&mut self, n: NodeId, cats: &[u8], links: &[Slot]) -> usize {
        assert_eq!(cats.len(), self.num_objects());
        let flags = if self.compress {
            compress::compression_flags(self.scheme, &self.partition, &self.obj_dist, cats, links)
        } else {
            vec![false; cats.len()]
        };
        let (blob, _, offsets) = encode_node(
            &self.code,
            self.link_bits,
            cats,
            links,
            &flags,
            self.compress,
            self.scheme,
            self.skip_stride,
        );
        let bytes = blob.byte_len();
        self.blobs[n.index()] = blob;
        self.dirs[n.index()] = SkipDirectory::from_parts(
            offsets,
            compress::entry_anchors(self.scheme, cats, links, &flags),
        );
        self.generation += 1;
        bytes
    }

    /// Record an object↔object distance change (update path). `None`
    /// removes the pair (it moved into the last category).
    pub fn set_obj_dist(&mut self, a: ObjectId, b: ObjectId, d: Option<Dist>) {
        self.obj_dist.set(a, b, d);
        self.generation += 1;
    }

    /// Maintenance generation: incremented by every mutation. Parked
    /// [`SessionState`](crate::ops::SessionState)s use it to detect (and
    /// self-heal from) stale decode caches on resume.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Skip-directory stride `K` in force.
    pub fn skip_stride(&self) -> usize {
        self.skip_stride
    }

    /// Node `n`'s skip directory (diagnostics / persistence support).
    pub fn skip_dir(&self, n: NodeId) -> &SkipDirectory {
        &self.dirs[n.index()]
    }

    /// Decode the single entry `(n, o)` — `(category, backtracking link)`,
    /// identical to position `o` of [`decode_node`](Self::decode_node) —
    /// replaying only the ≤K-entry run containing `o`. Compressed entries
    /// resolve through the directory's carried anchors instead of a
    /// whole-signature scan.
    pub fn decode_entry(&self, n: NodeId, o: ObjectId) -> (u8, Slot) {
        let t = o.index();
        assert!(t < self.num_objects(), "object out of range");
        let k = self.skip_stride;
        let dir = &self.dirs[n.index()];
        let mut r = self.blobs[n.index()].reader_at(dir.run_start(t / k));
        let mut entry = (false, 0u8, 0 as Slot);
        for _ in (t / k) * k..=t {
            entry = self.decode_raw_entry(&mut r);
        }
        self.resolve_entry(dir, o, entry)
    }

    /// Decode several entries of `n`'s signature, each equal to the
    /// corresponding position of [`decode_node`](Self::decode_node).
    /// Targets are decoded in object order with one forward pass per
    /// visited run, so clustered requests share decode work.
    pub fn decode_entries(&self, n: NodeId, objs: &[ObjectId]) -> Vec<(u8, Slot)> {
        let d = self.num_objects();
        let k = self.skip_stride;
        let dir = &self.dirs[n.index()];
        let blob = &self.blobs[n.index()];
        let mut order: Vec<usize> = (0..objs.len()).collect();
        order.sort_unstable_by_key(|&i| objs[i].index());
        let mut out = vec![(0u8, 0 as Slot); objs.len()];
        let mut r = blob.reader();
        let mut e = 0usize; // entry index the reader would decode next
        let mut last: Option<(usize, (u8, Slot))> = None;
        for &i in &order {
            let t = objs[i].index();
            assert!(t < d, "object out of range");
            if let Some((lt, v)) = last {
                if lt == t {
                    out[i] = v;
                    continue;
                }
            }
            let run_first = (t / k) * k;
            if t < e || run_first > e {
                // Seek only when the cursor is past the target or a whole
                // run boundary lets us skip ahead; otherwise keep decoding
                // forward within the current run.
                r = blob.reader_at(dir.run_start(t / k));
                e = run_first;
            }
            let mut entry = (false, 0u8, 0 as Slot);
            while e <= t {
                entry = self.decode_raw_entry(&mut r);
                e += 1;
            }
            let v = self.resolve_entry(dir, objs[i], entry);
            out[i] = v;
            last = Some((t, v));
        }
        out
    }

    /// One step of the §5.2/§5.3 stream grammar:
    /// `(flag, stored category, stored link)`.
    #[inline]
    fn decode_raw_entry(&self, r: &mut BitReader<'_>) -> (bool, u8, Slot) {
        let keep_link = self.scheme == crate::compress::CompressionScheme::PerLinkAnchor;
        let flag = self.compress && r.read_bit();
        let mut cat = 0u8;
        let mut link = 0 as Slot;
        if !flag {
            cat = self.code.decode(r);
        }
        if !flag || keep_link {
            link = r.read_bits(self.link_bits) as Slot;
        }
        (flag, cat, link)
    }

    /// Resolve a raw entry for object `o` against the carried anchors — the
    /// point-lookup counterpart of [`compress::resolve`]: the category is
    /// the Definition 5.1 sum of the anchor's category and the
    /// anchor↔object category; the link is inherited from the anchor under
    /// the global scheme and stored verbatim under the per-link scheme.
    fn resolve_entry(
        &self,
        dir: &SkipDirectory,
        o: ObjectId,
        (flag, cat, link): (bool, u8, Slot),
    ) -> (u8, Slot) {
        if !flag {
            return (cat, link);
        }
        let a = match self.scheme {
            crate::compress::CompressionScheme::GlobalAnchor => dir.anchors().first(),
            crate::compress::CompressionScheme::PerLinkAnchor => dir.anchor_for(link),
        }
        .expect("compressed entry without a carried anchor");
        let cat_uv = self.obj_dist.category(&self.partition, ObjectId(a.obj), o);
        let cat = self.partition.sum_categories(a.cat, cat_uv);
        let link = match self.scheme {
            crate::compress::CompressionScheme::GlobalAnchor => a.link,
            crate::compress::CompressionScheme::PerLinkAnchor => link,
        };
        (cat, link)
    }

    /// Open a query session over this index. The session owns a buffer pool
    /// sized by the build configuration and charges every signature access
    /// through it.
    pub fn session<'a>(&'a self, net: &'a RoadNetwork) -> crate::ops::Session<'a> {
        crate::ops::Session::new(self, net, self.pool_pages)
    }
}

/// `⌈log2 R⌉` bits, at least 1.
fn link_bits_for(max_degree: u32) -> u32 {
    (u32::BITS - max_degree.saturating_sub(1).leading_zeros()).max(1)
}

/// Encode one node's signature. When `flag_mode` is on (§5.3 compression),
/// every entry carries a 1-bit flag and flagged entries omit their category
/// code. Returns the blob, the size (in bits) the node would occupy with
/// encoding but *without* compression (for Table 1), and the skip-directory
/// offsets: the bit position of entry `j · stride` for every `j ≥ 1`.
#[allow(clippy::too_many_arguments)]
fn encode_node(
    code: &ReverseZeroPadding,
    link_bits: u32,
    cats: &[u8],
    links: &[Slot],
    flags: &[bool],
    flag_mode: bool,
    scheme: crate::compress::CompressionScheme,
    stride: usize,
) -> (BitBox, u64, Vec<u32>) {
    let keep_link = scheme == crate::compress::CompressionScheme::PerLinkAnchor;
    let mut w = BitWriter::new();
    let mut encoded_only_bits = 0u64;
    let mut offsets = Vec::with_capacity(cats.len() / stride);
    for o in 0..cats.len() {
        if o > 0 && o % stride == 0 {
            offsets.push(w.len() as u32);
        }
        encoded_only_bits += code.code_len(cats[o]) as u64 + link_bits as u64;
        if flag_mode {
            w.push_bit(flags[o]);
        }
        if !flags[o] {
            code.encode(cats[o], &mut w);
        }
        if !flags[o] || keep_link || !flag_mode {
            w.push_bits(links[o] as u64, link_bits);
        }
    }
    (w.finish(), encoded_only_bits, offsets)
}

/// Global skip-directory field widths: `(offset_bits, obj_bits, cat_bits)`.
/// Offsets must address any bit of the largest blob; anchors carry an object
/// id and a category. Derived identically at build time and on persistence
/// load so the size accounting round-trips.
pub(crate) fn dir_widths(blobs: &[BitBox], num_objects: usize, num_cats: usize) -> (u32, u32, u32) {
    let max_bits = blobs.iter().map(|b| b.len() as u64).max().unwrap_or(0);
    (
        bits_for(max_bits),
        bits_for(num_objects.saturating_sub(1) as u64),
        bits_for(num_cats.saturating_sub(1) as u64),
    )
}

/// Per-worker construction state: one workspace per substrate, each
/// allocated once per thread regardless of how many objects it builds.
#[derive(Default)]
struct BuildWs {
    flat: SsspWorkspace,
    phast: PhastWorkspace,
}

/// Caller-owned construction workspace for [`SignatureIndex::build_serial`]:
/// the epoch-stamped flat-SSSP workspace plus the PHAST sweep buffer, reused
/// across every region a partitioned-build worker constructs.
#[derive(Default)]
pub struct SignatureBuildWorkspace {
    inner: BuildWs,
}

/// The adjacency slot of a neighbor on a shortest path toward the distance
/// source: the **first** slot `u` with `d(u) + w(u,v) = d(v)`. Shortest
/// paths are not unique and queries only need descent, but the choice must
/// be *canonical* (a pure function of the distance labels, not of Dijkstra
/// tie-breaking): incremental maintenance patches only entries the
/// spanning-forest delta names, which is sound exactly because the index
/// links and the (canonicalized) forest parents start out identical —
/// whatever substrate produced the distances. See
/// `dsi_graph::spanning::canonicalize_parents`, the same rule.
fn descent_slot(net: &RoadNetwork, dist_of: impl Fn(NodeId) -> Dist, v: NodeId, dv: Dist) -> Slot {
    if dv == 0 {
        // The source itself: its link is never followed; record the default.
        return 0;
    }
    for (slot, u, w) in net.neighbors(v) {
        let du = dist_of(u);
        if w != INFINITY && du != INFINITY && du + w == dv {
            return slot;
        }
    }
    panic!("no descending neighbor at {v} — distances inconsistent");
}

/// Build per-object category/link columns, optionally in parallel. With a
/// hierarchy, each object's SSSP is a PHAST sweep instead of flat
/// Dijkstra — identical distances, links recovered by descent scan.
#[allow(clippy::too_many_arguments)]
fn build_columns(
    net: &RoadNetwork,
    objects: &ObjectSet,
    partition: &CategoryPartition,
    last_lb: Dist,
    parallel: bool,
    hierarchy: Option<&ContractionHierarchy>,
    ext_ws: Option<&mut BuildWs>,
    capture: &[ObjectId],
) -> (Vec<Column>, Vec<Vec<Dist>>) {
    let d = objects.len();
    let mut want = vec![false; d];
    for o in capture {
        want[o.index()] = true;
    }
    let obj_row_from = |o: usize, dist_of: &dyn Fn(NodeId) -> Dist| -> Vec<(u32, Dist)> {
        let mut row: Vec<(u32, Dist)> = objects
            .iter()
            .filter(|&(b, _)| b.index() != o)
            .filter_map(|(b, host_b)| {
                let dist = dist_of(host_b);
                (dist < last_lb).then_some((b.0, dist))
            })
            .collect();
        row.sort_unstable_by_key(|&(b, _)| b);
        row
    };
    let run = |o: usize, ws: &mut BuildWs| -> (Column, Option<Vec<Dist>>) {
        let host = objects.node_of(ObjectId(o as u32));
        let n = net.num_nodes();
        let mut cats = vec![0u8; n];
        let mut links = vec![0 as Slot; n];
        let obj_row;
        let full;
        match hierarchy {
            None => {
                sssp_into(net, host, &mut ws.flat);
                for v in 0..n {
                    let node = NodeId(v as u32);
                    let dist = ws.flat.dist(node);
                    assert!(
                        dist != INFINITY,
                        "network must be connected to build signatures"
                    );
                    cats[v] = partition.category_of(dist);
                    links[v] = descent_slot(net, |u| ws.flat.dist(u), node, dist);
                }
                obj_row = obj_row_from(o, &|v| ws.flat.dist(v));
                full = want[o].then(|| (0..n).map(|v| ws.flat.dist(NodeId(v as u32))).collect());
            }
            Some(ch) => {
                ch.sssp_phast(host, &mut ws.phast);
                let dists = ws.phast.dists();
                for v in 0..n {
                    let node = NodeId(v as u32);
                    let dist = dists[v];
                    assert!(
                        dist != INFINITY,
                        "network must be connected to build signatures"
                    );
                    cats[v] = partition.category_of(dist);
                    links[v] = descent_slot(net, |u| dists[u.index()], node, dist);
                }
                obj_row = obj_row_from(o, &|v| dists[v.index()]);
                full = want[o].then(|| dists[..n].to_vec());
            }
        }
        (
            Column {
                cats,
                links,
                obj_row,
            },
            full,
        )
    };

    let threads = if parallel {
        std::thread::available_parallelism().map_or(1, |p| p.get().min(8))
    } else {
        1
    };
    if ext_ws.is_some() || threads <= 1 || d < 4 {
        let mut own = BuildWs::default();
        let ws = ext_ws.unwrap_or(&mut own);
        let mut cols = Vec::with_capacity(d);
        let mut rows_by_obj: Vec<Option<Vec<Dist>>> = (0..d).map(|_| None).collect();
        for (o, row_slot) in rows_by_obj.iter_mut().enumerate() {
            let (col, full) = run(o, ws);
            cols.push(col);
            *row_slot = full;
        }
        let captured = capture
            .iter()
            .map(|o| rows_by_obj[o.index()].take().expect("captured row built"))
            .collect();
        return (cols, captured);
    }
    assert!(capture.is_empty(), "capture requires the serial build path");
    let mut out: Vec<Option<Column>> = (0..d).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Column)>();
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let run = &run;
            s.spawn(move || {
                let mut ws = BuildWs::default();
                loop {
                    let o = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if o >= d {
                        break;
                    }
                    tx.send((o, run(o, &mut ws).0)).expect("collector alive");
                }
            });
        }
        drop(tx);
        for (o, col) in rx {
            out[o] = Some(col);
        }
    });
    let cols = out
        .into_iter()
        .map(|c| c.expect("all columns built"))
        .collect();
    (cols, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_graph::generate::grid;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (RoadNetwork, ObjectSet, SignatureIndex) {
        let net = grid(12, 12);
        let mut rng = StdRng::seed_from_u64(21);
        let objects = ObjectSet::uniform(&net, 0.06, &mut rng);
        let idx = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
        (net, objects, idx)
    }

    #[test]
    fn decoded_categories_match_true_distances() {
        let (net, objects, idx) = fixture();
        let trees: Vec<_> = objects.iter().map(|(_, h)| sssp(&net, h)).collect();
        for n in net.nodes() {
            let sig = idx.decode_node(n);
            for (o, _) in objects.iter() {
                let true_d = trees[o.index()].dist[n.index()];
                assert_eq!(
                    sig.cats[o.index()],
                    idx.partition().category_of(true_d),
                    "node {n} object {o}"
                );
            }
        }
    }

    #[test]
    fn links_point_along_shortest_paths() {
        let (net, objects, idx) = fixture();
        let trees: Vec<_> = objects.iter().map(|(_, h)| sssp(&net, h)).collect();
        for n in net.nodes() {
            let sig = idx.decode_node(n);
            for (o, host) in objects.iter() {
                if n == host {
                    continue;
                }
                let (next, w) = net.neighbor_at(n, sig.links[o.index()]);
                let dn = trees[o.index()].dist[n.index()];
                let dnext = trees[o.index()].dist[next.index()];
                assert_eq!(dnext + w, dn, "link at {n} for {o} must descend");
            }
        }
    }

    #[test]
    fn uncompressed_build_has_no_flags() {
        let net = grid(8, 8);
        let mut rng = StdRng::seed_from_u64(3);
        let objects = ObjectSet::uniform(&net, 0.1, &mut rng);
        let cfg = SignatureConfig {
            compress: false,
            ..Default::default()
        };
        let idx = SignatureIndex::build(&net, &objects, &cfg);
        assert_eq!(idx.report.compressed_entries, 0);
        for n in net.nodes() {
            assert!(idx.decode_node(n).compressed.iter().all(|&f| !f));
        }
    }

    #[test]
    fn compression_reduces_size_and_round_trips() {
        let net = grid(14, 14);
        let mut rng = StdRng::seed_from_u64(5);
        let objects = ObjectSet::uniform(&net, 0.08, &mut rng);
        let on = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
        let off = SignatureIndex::build(
            &net,
            &objects,
            &SignatureConfig {
                compress: false,
                ..Default::default()
            },
        );
        // Decoded content identical.
        for n in net.nodes() {
            let a = on.decode_node(n);
            let b = off.decode_node(n);
            assert_eq!(a.cats, b.cats, "node {n}");
            assert_eq!(a.links, b.links, "node {n}");
        }
        assert!(on.report.compressed_entries > 0, "something must compress");
    }

    #[test]
    fn both_compression_schemes_decode_identically() {
        let net = grid(14, 14);
        let mut rng = StdRng::seed_from_u64(77);
        let objects = ObjectSet::uniform(&net, 0.08, &mut rng);
        let build = |scheme| {
            SignatureIndex::build(
                &net,
                &objects,
                &SignatureConfig {
                    scheme,
                    ..Default::default()
                },
            )
        };
        let global = build(crate::compress::CompressionScheme::GlobalAnchor);
        let per_link = build(crate::compress::CompressionScheme::PerLinkAnchor);
        for n in net.nodes() {
            let a = global.decode_node(n);
            let b = per_link.decode_node(n);
            assert_eq!(a.cats, b.cats, "node {n}");
            assert_eq!(a.links, b.links, "node {n}");
        }
        // The global scheme drops links of flagged entries, so whenever it
        // flags at least as many entries it must not be larger.
        if global.report.compressed_entries >= per_link.report.compressed_entries {
            assert!(global.report.compressed_bits <= per_link.report.compressed_bits);
        }
    }

    #[test]
    fn size_report_orderings() {
        let (_, _, idx) = fixture();
        let r = &idx.report;
        // Encoding helps when far categories dominate (the paper's regime);
        // on a tiny dense fixture unary codes can exceed fixed ids, so only
        // structural invariants are asserted here — repro_table1 exercises
        // the realistic regime.
        assert!(r.raw_bits > 0 && r.encoded_bits > 0 && r.compressed_bits > 0);
        // Compression saves whole codes and pays one flag bit per entry.
        assert!(r.compressed_bits <= r.encoded_bits + (r.num_nodes * r.num_objects) as u64);
        assert_eq!(
            r.category_counts.iter().sum::<u64>(),
            (r.num_nodes * r.num_objects) as u64
        );
    }

    #[test]
    fn encoding_wins_when_far_categories_dominate() {
        // A long path network with one object at the end: almost every node
        // is far from it, so reverse-zero-padding codes approach 1 bit and
        // must beat the fixed-length ids.
        let mut b = dsi_graph::NetworkBuilder::new();
        let n = 400;
        let ids: Vec<NodeId> = (0..n)
            .map(|i| b.add_node(dsi_graph::Point::new(i as f64, 0.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 3);
        }
        let net = b.build();
        let objects = ObjectSet::from_nodes(&net, vec![ids[0], ids[1]]);
        // Explicit partition whose open-ended last category holds most of
        // the line (the regime Theorem 5.1 assumes).
        let cfg = SignatureConfig {
            c: 2.0,
            t: Some(2),
            spreading: Some(300),
            ..Default::default()
        };
        let idx = SignatureIndex::build(&net, &objects, &cfg);
        let r = &idx.report;
        assert!(
            r.encoded_bits < r.raw_bits,
            "encoded {} vs raw {}",
            r.encoded_bits,
            r.raw_bits
        );
    }

    #[test]
    fn spreading_and_t_defaults() {
        let (_, _, idx) = fixture();
        // Grid 12x12 diameter = 22; T = sqrt(22/e) ≈ 2.8 → 3.
        assert_eq!(idx.partition().t(), 3);
    }

    #[test]
    fn parallel_and_serial_builds_agree() {
        let net = grid(10, 10);
        let mut rng = StdRng::seed_from_u64(7);
        let objects = ObjectSet::uniform(&net, 0.1, &mut rng);
        let par = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
        let ser = SignatureIndex::build(
            &net,
            &objects,
            &SignatureConfig {
                parallel: false,
                ..Default::default()
            },
        );
        for n in net.nodes() {
            assert_eq!(par.decode_node(n), ser.decode_node(n));
        }
        assert_eq!(par.report.compressed_bits, ser.report.compressed_bits);
    }

    #[test]
    fn hierarchy_build_matches_flat_build() {
        let net = grid(11, 11);
        let mut rng = StdRng::seed_from_u64(31);
        let objects = ObjectSet::uniform(&net, 0.08, &mut rng);
        // 121 nodes: `build` stays flat.
        assert!(!use_hierarchy(net.num_nodes(), objects.len(), false));
        let cfg = SignatureConfig::default();
        let flat = SignatureIndex::build(&net, &objects, &cfg);
        let ch = ContractionHierarchy::build(&net, &ChConfig::default());
        let hier = SignatureIndex::build_with_hierarchy(&net, &objects, &cfg, &ch);
        let trees: Vec<_> = objects.iter().map(|(_, h)| sssp(&net, h)).collect();
        for n in net.nodes() {
            let a = flat.decode_node(n);
            let b = hier.decode_node(n);
            // Categories are a pure function of exact distances: equal.
            assert_eq!(a.cats, b.cats, "node {n}");
            // Links are canonical (first descending slot) regardless of the
            // distance substrate: bit-identical, and they must descend.
            assert_eq!(a.links, b.links, "node {n}");
            for (o, host) in objects.iter() {
                if n == host {
                    continue;
                }
                let (next, w) = net.neighbor_at(n, b.links[o.index()]);
                let dn = trees[o.index()].dist[n.index()];
                let dnext = trees[o.index()].dist[next.index()];
                assert_eq!(dnext + w, dn, "CH-derived link at {n} for {o}");
            }
        }
        // Same object-distance side table, bit for bit.
        for a in objects.objects() {
            for b in objects.objects() {
                assert_eq!(flat.obj_dist().get(a, b), hier.obj_dist().get(a, b));
            }
        }
    }

    #[test]
    fn the_hierarchy_is_used_when_supplied_or_when_it_amortizes() {
        assert!(!use_hierarchy(300, 20, false), "small builds stay flat");
        assert!(use_hierarchy(300, 20, true), "prebuilt CH is always used");
        assert!(use_hierarchy(2000, 64, false), "big builds self-amortize");
        assert!(!use_hierarchy(2000, 63, false));
        assert!(!use_hierarchy(1023, 64, false));
    }

    #[test]
    fn prebuilt_hierarchy_build_agrees_with_internal_one() {
        // 1,089 nodes and ≥ 64 objects: `build` makes its own hierarchy.
        let net = grid(33, 33);
        let mut rng = StdRng::seed_from_u64(47);
        let objects = ObjectSet::uniform(&net, 0.07, &mut rng);
        assert!(use_hierarchy(net.num_nodes(), objects.len(), false));
        let ch = ContractionHierarchy::build(&net, &ChConfig::default());
        let cfg = SignatureConfig::default();
        let supplied = SignatureIndex::build_with_hierarchy(&net, &objects, &cfg, &ch);
        let internal = SignatureIndex::build(&net, &objects, &cfg);
        for n in net.nodes() {
            assert_eq!(supplied.decode_node(n), internal.decode_node(n));
        }
    }

    #[test]
    fn obj_dist_table_symmetric_and_correct() {
        let (net, objects, idx) = fixture();
        for (a, ha) in objects.iter() {
            let tree = sssp(&net, ha);
            for (b, hb) in objects.iter() {
                let true_d = tree.dist[hb.index()];
                match idx.obj_dist().get(a, b) {
                    Some(d) => assert_eq!(d, true_d),
                    None => {
                        assert!(
                            a != b
                                && idx.partition().category_of(true_d) as usize
                                    == idx.partition().num_categories() - 1,
                            "only last-category pairs may be dropped"
                        );
                    }
                }
                assert_eq!(idx.obj_dist().get(a, b), idx.obj_dist().get(b, a));
            }
        }
    }

    #[test]
    fn link_bits_formula() {
        assert_eq!(link_bits_for(1), 1);
        assert_eq!(link_bits_for(2), 1);
        assert_eq!(link_bits_for(3), 2);
        assert_eq!(link_bits_for(4), 2);
        assert_eq!(link_bits_for(5), 3);
        assert_eq!(link_bits_for(8), 3);
        assert_eq!(link_bits_for(9), 4);
    }

    #[test]
    fn disk_size_is_positive_and_paged() {
        let (_, _, idx) = fixture();
        assert!(idx.disk_bytes() > 0);
        assert_eq!(idx.disk_bytes() % 4096, 0);
    }

    #[test]
    fn entry_decode_matches_full_decode_across_strides() {
        let net = grid(10, 10);
        let mut rng = StdRng::seed_from_u64(9);
        let objects = ObjectSet::uniform(&net, 0.1, &mut rng);
        for stride in [1usize, 4, 16, 1024] {
            let idx = SignatureIndex::build(
                &net,
                &objects,
                &SignatureConfig {
                    skip_stride: stride,
                    ..Default::default()
                },
            );
            assert_eq!(idx.skip_stride(), stride);
            let objs: Vec<ObjectId> = idx.objects().collect();
            for n in net.nodes() {
                let full = idx.decode_node(n);
                let batch = idx.decode_entries(n, &objs);
                for o in idx.objects() {
                    let want = (full.cats[o.index()], full.links[o.index()]);
                    assert_eq!(idx.decode_entry(n, o), want, "node {n} object {o}");
                    assert_eq!(batch[o.index()], want, "node {n} object {o}");
                }
            }
        }
    }

    #[test]
    fn decode_entries_handles_unsorted_and_duplicate_targets() {
        let (net, _, idx) = fixture();
        let d = idx.num_objects() as u32;
        let req: Vec<ObjectId> = [d - 1, 0, 2, 2, 1, d - 1]
            .iter()
            .map(|&o| ObjectId(o))
            .collect();
        for n in net.nodes().take(20) {
            let full = idx.decode_node(n);
            let got = idx.decode_entries(n, &req);
            for (i, &o) in req.iter().enumerate() {
                assert_eq!(got[i], (full.cats[o.index()], full.links[o.index()]));
            }
        }
    }

    #[test]
    fn directory_overhead_is_modest_and_charged_to_disk() {
        let net = grid(12, 12);
        let mut rng = StdRng::seed_from_u64(21);
        let objects = ObjectSet::uniform(&net, 0.06, &mut rng);
        let dense = SignatureIndex::build(
            &net,
            &objects,
            &SignatureConfig {
                skip_stride: 1,
                ..Default::default()
            },
        );
        // Stride 1 records an offset for every entry past the first, so the
        // directory must be non-empty and reflected in the size report.
        assert!(dense.report.directory_bits > 0);
        let default = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
        assert!(default.report.directory_bits <= dense.report.directory_bits);
        // The acceptance bar is against total disk footprint: at the default
        // stride the directory must stay below 10% of `disk_bytes`.
        let dir_fraction = default.report.directory_bits as f64 / 8.0 / default.disk_bytes() as f64;
        assert!(
            dir_fraction < 0.10,
            "default-stride directory is {dir_fraction} of disk bytes"
        );
    }

    #[test]
    fn a_pinned_config_rebuilds_the_same_partition_on_new_weights() {
        let (mut net, objects, idx) = fixture();
        for u in net.nodes().step_by(2).collect::<Vec<_>>() {
            let (_, v, w) = net.neighbors(u).next().unwrap();
            net.set_edge_weight(u, v, w + 60);
        }
        let cfg = SignatureConfig::default();
        let drifted = cfg.partition_for(&net, &objects);
        assert_ne!(drifted.upper_bounds(), idx.partition().upper_bounds());
        let pinned = cfg.pinned_to(idx.partition()).partition_for(&net, &objects);
        assert_eq!(pinned.upper_bounds(), idx.partition().upper_bounds());
        assert_eq!(
            (pinned.c(), pinned.t()),
            (idx.partition().c(), idx.partition().t())
        );
    }
}
