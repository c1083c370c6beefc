//! Integration tests for the persistence formats and the continuous-kNN
//! query across the full stack, through the public prelude.

use std::path::PathBuf;
use std::sync::OnceLock;

use distance_signature::graph::generate::grid;
use distance_signature::graph::io as gio;
use distance_signature::prelude::*;
use distance_signature::service::journal::{
    decode_records, encode_record, read_checkpoint, write_checkpoint, RECORD_LEN,
};
use distance_signature::service::{EdgeUpdate, JournalRecord, UpdateJournal};
use distance_signature::signature::persist;
use distance_signature::storage::{crc32, PageFile, StorageError, PAGE_SIZE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fixture(seed: u64) -> (RoadNetwork, ObjectSet, SignatureIndex) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = random_planar(
        &PlanarConfig {
            num_nodes: 300,
            ..Default::default()
        },
        &mut rng,
    );
    let objects = ObjectSet::uniform(&net, 0.04, &mut rng);
    let idx = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
    (net, objects, idx)
}

#[test]
fn full_stack_round_trip_through_files() {
    let (net, objects, idx) = fixture(3001);
    let dir = std::env::temp_dir().join(format!("dsi_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let net_path = dir.join("net.bin");
    let obj_path = dir.join("obj.bin");
    let idx_path = dir.join("idx.dssi");

    gio::save_network(&net, &net_path).unwrap();
    gio::write_objects(&objects, std::fs::File::create(&obj_path).unwrap()).unwrap();
    persist::save_index(&idx, &idx_path).unwrap();

    let net2 = gio::load_network(&net_path).unwrap();
    let objects2 = gio::read_objects(std::fs::File::open(&obj_path).unwrap(), &net2).unwrap();
    let idx2 = persist::load_index(&idx_path, &net2).unwrap();

    assert_eq!(objects.host_nodes(), objects2.host_nodes());
    let mut s1 = idx.session(&net);
    let mut s2 = idx2.session(&net2);
    for q in net.nodes().step_by(23) {
        assert_eq!(
            knn(&mut s1, q, 4, KnnType::Type1),
            knn(&mut s2, q, 4, KnnType::Type1),
            "kNN after reload at {q}"
        );
        assert_eq!(range_query(&mut s1, q, 70), range_query(&mut s2, q, 70));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cnn_agrees_with_per_node_knn_distances() {
    let (net, objects, idx) = fixture(3003);
    let mut sess = idx.session(&net);
    // Build a shortest path between two far nodes as the CNN route.
    let tree = distance_signature::graph::sssp(&net, NodeId(0));
    let far = net
        .nodes()
        .max_by_key(|v| {
            let d = tree.dist[v.index()];
            if d == distance_signature::graph::INFINITY {
                0
            } else {
                d
            }
        })
        .unwrap();
    let path = tree.path_to(far).unwrap();
    let k = 3;
    let segs = continuous_knn(&mut sess, &path, k);
    // Every node's kNN distance multiset matches a direct kNN query.
    let mut covered = 0;
    for seg in &segs {
        for (i, &node) in path.iter().enumerate().take(seg.end + 1).skip(seg.start) {
            covered += 1;
            let direct = knn(&mut sess, node, k, KnnType::Type1);
            let t = distance_signature::graph::sssp(&net, node);
            let mut seg_d: Vec<Dist> = seg
                .result
                .iter()
                .map(|&o| t.dist[objects.node_of(o).index()])
                .collect();
            seg_d.sort_unstable();
            let direct_d: Vec<Dist> = direct.iter().map(|r| r.dist.unwrap()).collect();
            assert_eq!(seg_d, direct_d, "path index {i}");
        }
    }
    assert_eq!(covered, path.len());
}

#[test]
fn knn_with_paths_matches_type1() {
    let (net, _, idx) = fixture(3005);
    let mut sess = idx.session(&net);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..10 {
        let q = NodeId(rng.gen_range(0..net.num_nodes() as u32));
        let plain = knn(&mut sess, q, 4, KnnType::Type1);
        let with_paths = knn_with_paths(&mut sess, q, 4);
        assert_eq!(plain.len(), with_paths.len());
        for (a, b) in plain.iter().zip(&with_paths) {
            assert_eq!(a.object, b.object);
            assert_eq!(a.dist.unwrap(), b.dist);
            let len: Dist = b
                .path
                .windows(2)
                .map(|w| net.edge_weight(w[0], w[1]).unwrap())
                .sum();
            assert_eq!(len, b.dist);
        }
    }
}

#[test]
fn prelude_surface_compiles_and_works() {
    let (net, objects, idx) = fixture(3007);
    let mut sess = idx.session(&net);
    let q = NodeId(1);
    let _ = count_within(&mut sess, q, 30);
    let _ = aggregate_within(&mut sess, q, 30);
    let _ = self_epsilon_join(&mut sess, 25);
    let _ = epsilon_join(&mut sess, &objects, 25);
    let _: Vec<CnnSegment> = continuous_knn(&mut sess, &[q], 2);
}

/// The journal header as the format spells it: `DSIJ`, then version 2.
const JOURNAL_HEADER: &[u8; 8] = b"DSIJ\x02\x00\x00\x00";
/// Version 1 (updates only), which still decodes.
const JOURNAL_HEADER_V1: &[u8; 8] = b"DSIJ\x01\x00\x00\x00";

/// A journal shaped like real maintenance — `n` updates, then one
/// publish's intent and done markers — written by `UpdateJournal` and read
/// back: its records and its bytes, which must be the header followed by
/// one `encode_record` per record.
fn journal_image(n: usize, tag: &str) -> (Vec<JournalRecord>, Vec<u8>) {
    let updates: Vec<EdgeUpdate> = (0..n)
        .map(|i| {
            (
                NodeId(i as u32),
                NodeId((i * 7 + 1) as u32),
                (i * 13 + 5) as Dist,
            )
        })
        .collect();
    let path =
        std::env::temp_dir().join(format!("dsi_journal_fuzz_{}_{tag}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let (mut journal, existing) = UpdateJournal::open(&path).expect("create journal");
        assert!(existing.is_empty());
        journal.append(&updates).expect("append updates");
        journal
            .append_control(JournalRecord::PublishIntent(1))
            .expect("append intent");
        journal
            .append_control(JournalRecord::PublishDone(1))
            .expect("append done");
    }
    let bytes = std::fs::read(&path).expect("read journal back");
    std::fs::remove_file(&path).ok();

    let mut records: Vec<JournalRecord> = updates.into_iter().map(JournalRecord::Update).collect();
    records.extend([
        JournalRecord::PublishIntent(1),
        JournalRecord::PublishDone(1),
    ]);
    let mut expect = JOURNAL_HEADER.to_vec();
    for (seq, &r) in records.iter().enumerate() {
        expect.extend_from_slice(&encode_record(seq as u64, r));
    }
    assert_eq!(bytes, expect, "header, then one encoded record per append");
    (records, bytes)
}

// The journal's robustness contract: a reader takes the longest valid
// prefix. A cut keeps exactly the whole records before it; a flipped bit
// keeps exactly the records before the damaged one, and a flip in the
// header loses them all — unless it turns version 2 into version 1.
#[test]
fn journal_truncation_at_every_boundary_keeps_the_floor_prefix() {
    let (records, bytes) = journal_image(6, "cut");
    for cut in 0..=bytes.len() {
        let got = decode_records(&bytes[..cut]);
        let expect = cut.saturating_sub(JOURNAL_HEADER.len()) / RECORD_LEN;
        assert_eq!(got.len(), expect, "cut at byte {cut}");
        assert_eq!(got, records[..expect], "cut at byte {cut}");
    }
}

#[test]
fn journal_bit_flip_cuts_the_journal_at_the_damaged_record() {
    let (records, bytes) = journal_image(4, "flip");
    // Every single-bit flip, plus the one two-bit flip that turns version
    // 2 into version 1 (bits 0 and 1 of byte 4): no single flip can.
    let flips = (0..bytes.len())
        .flat_map(|byte| (0..8).map(move |bit| (byte, 1u8 << bit)))
        .chain([(4, 0b11)]);
    for (byte, mask) in flips {
        let mut bad = bytes.clone();
        bad[byte] ^= mask;
        let got = decode_records(&bad);
        if byte < JOURNAL_HEADER.len() {
            // A valid v1 header still decodes every record; any other
            // header damage kills the journal.
            if bad[..JOURNAL_HEADER.len()] == JOURNAL_HEADER_V1[..] {
                assert_eq!(got, records, "v1 header flip at {byte}:{mask:#04x}");
            } else {
                assert!(got.is_empty(), "header flip at {byte}:{mask:#04x}");
            }
        } else {
            let damaged = (byte - JOURNAL_HEADER.len()) / RECORD_LEN;
            assert_eq!(got, records[..damaged], "flip at {byte}:{mask:#04x}");
        }
    }
}

/// One checkpoint, written once: a 12×12 grid with four objects, as the
/// service writes it (journal length, network, objects, signature index).
fn checkpoint_bytes() -> &'static [u8] {
    static FIX: OnceLock<Vec<u8>> = OnceLock::new();
    FIX.get_or_init(|| {
        let net = grid(12, 12);
        let objects =
            ObjectSet::from_nodes(&net, vec![NodeId(3), NodeId(40), NodeId(77), NodeId(130)]);
        let index = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
        let path = scratch_path("fixture");
        write_checkpoint(&path, 7, &net, &objects, &index).expect("write fixture");
        let bytes = std::fs::read(&path).expect("read fixture back");
        assert!(
            read_checkpoint(&path).is_ok(),
            "pristine checkpoint must parse"
        );
        std::fs::remove_file(&path).ok();
        bytes
    })
}

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dsi_ckpt_fuzz_{}_{tag}.dsic", std::process::id()))
}

/// Whether `bytes`, stored as a checkpoint file, parse as one.
fn parses_as_checkpoint(bytes: &[u8], tag: &str) -> bool {
    let path = scratch_path(tag);
    std::fs::write(&path, bytes).expect("write damaged checkpoint");
    let parsed = read_checkpoint(&path).is_ok();
    std::fs::remove_file(&path).ok();
    parsed
}

// The checkpoint's robustness contract, fuzzed like the signature format
// it embeds: any truncation and any single-bit flip is an error — never a
// panic, never a checkpoint recovery would trust.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn truncated_checkpoints_are_rejected(cut_frac in 0.0f64..1.0) {
        let bytes = checkpoint_bytes();
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        prop_assert!(
            !parses_as_checkpoint(&bytes[..cut], "cut"),
            "checkpoint truncated to {cut}/{} bytes parsed as valid",
            bytes.len()
        );
    }

    #[test]
    fn bit_flipped_checkpoints_are_rejected(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let bytes = checkpoint_bytes();
        let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
        let mut bad = bytes.to_vec();
        bad[pos] ^= 1 << bit;
        prop_assert!(
            !parses_as_checkpoint(&bad, "flip"),
            "bit {bit} of byte {pos}/{} flipped, checkpoint still parsed",
            bytes.len()
        );
    }
}

/// The one-table, one-byte-per-step CRC-32 loop `crc32` replaced, with
/// its own table: the reference the slicing-by-16 kernel must equal bit
/// for bit. A wrong entry in any of the kernel's sixteen tables changes
/// some output this reference does not.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, entry) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *entry = c;
    }
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[test]
fn crc32_equals_the_bytewise_reference_at_every_short_length() {
    assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    let fox = b"The quick brown fox jumps over the lazy dog";
    assert_eq!(crc32_bytewise(fox), 0x414F_A339);
    assert_eq!(crc32(fox), 0x414F_A339);
    let bytes: Vec<u8> = (0..64u32).map(|i| (i * 167 + 13) as u8).collect();
    for len in 0..=64 {
        assert_eq!(
            crc32(&bytes[..len]),
            crc32_bytewise(&bytes[..len]),
            "length {len}"
        );
    }
}

// The kernel against the reference on page-sized and unaligned input:
// lengths 0..=3 pages, slices starting at any offset below 16.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn crc32_equals_the_bytewise_reference_on_any_slice(
        len in 0usize..=3 * PAGE_SIZE,
        start in 0usize..16,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let buf: Vec<u8> = (0..start + len).map(|_| rng.gen::<u32>() as u8).collect();
        let slice = &buf[start..];
        prop_assert_eq!(crc32(slice), crc32_bytewise(slice), "len {} start {}", len, start);
    }
}

/// Pages in the page-file fixture: one header page plus these.
const FIXTURE_PAGES: usize = 4;

/// A page file's bytes as `PageFile::create` writes them, and its image.
fn page_file_bytes() -> &'static (Vec<u8>, Vec<u8>) {
    static FIX: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(35);
        let image: Vec<u8> = (0..FIXTURE_PAGES * PAGE_SIZE)
            .map(|_| rng.gen::<u32>() as u8)
            .collect();
        let path = PageFile::scratch_path("fixture");
        PageFile::create(&path, &image).expect("write fixture");
        let bytes = std::fs::read(&path).expect("read fixture back");
        std::fs::remove_file(&path).ok();
        assert_eq!(bytes.len(), (FIXTURE_PAGES + 1) * PAGE_SIZE);
        (bytes, image)
    })
}

/// Store `bytes` as a page file, open it in the given mode and read every
/// page the header claims: per page, the read error or whether the bytes
/// equal `image`'s page. The file is removed afterwards.
fn read_back(
    bytes: &[u8],
    use_mmap: bool,
    image: &[u8],
) -> std::io::Result<Vec<Result<bool, StorageError>>> {
    let path = PageFile::scratch_path("fuzz");
    std::fs::write(&path, bytes).expect("write page file");
    let pages = PageFile::open(&path, use_mmap).map(|pf| {
        assert_eq!(pf.is_mapped(), use_mmap);
        let mut page = [0u8; PAGE_SIZE];
        (0..pf.num_pages())
            .map(|p| {
                let original = image.chunks(PAGE_SIZE).nth(p as usize);
                pf.read_page(p, &mut page)
                    .map(|()| original == Some(&page[..]))
            })
            .collect()
    });
    std::fs::remove_file(&path).ok();
    pages
}

#[test]
fn truncated_or_extended_page_files_are_rejected_at_open() {
    let (bytes, image) = page_file_bytes();
    let mut cuts: Vec<usize> = (0..=FIXTURE_PAGES).map(|p| p * PAGE_SIZE).collect();
    cuts.extend([16, 17, PAGE_SIZE + 1, bytes.len() - 1]);
    let mut longer = bytes.clone();
    longer.extend_from_slice(&[0u8; PAGE_SIZE]);
    // mmap first: were a cut file to open, reading past the cut would be
    // a SIGBUS there, so the check must come before any mapping.
    for use_mmap in [true, false] {
        for &cut in &cuts {
            let pages = read_back(&bytes[..cut], use_mmap, image);
            assert!(
                pages.is_err(),
                "file cut to {cut}/{} bytes opened (mmap {use_mmap}): {pages:?}",
                bytes.len()
            );
        }
        assert_eq!(
            read_back(&longer, use_mmap, image).err().map(|e| e.kind()),
            Some(std::io::ErrorKind::InvalidData),
            "file with a page appended opened (mmap {use_mmap})"
        );
        let pages = read_back(bytes, use_mmap, image).expect("pristine page file opens");
        assert_eq!(pages, vec![Ok(true); FIXTURE_PAGES], "mmap {use_mmap}");
    }
}

// `PageFile`'s robustness contract: a single-bit flip anywhere never
// serves wrong bytes as `Ok` and never panics, in pread and mmap modes.
// A flip in the fixed header or its padding fails `open`; a flip in page
// `p`'s CRC entry or data makes exactly `read_page(p)` report
// `Corrupted { page: p }` while every other page reads back intact.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn bit_flipped_page_files_never_serve_wrong_bytes(
        region in 0usize..4,
        frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (bytes, image) = page_file_bytes();
        let table_end = 16 + FIXTURE_PAGES * 4;
        // Regions: magic + page count + reserved word, the CRC table, the
        // header padding, the page data.
        let (lo, hi) = [
            (0, 16),
            (16, table_end),
            (table_end, PAGE_SIZE),
            (PAGE_SIZE, bytes.len()),
        ][region];
        let pos = (lo + ((hi - lo) as f64 * frac) as usize).min(hi - 1);
        let damaged_page = match region {
            1 => Some((pos - 16) / 4),
            3 => Some((pos - PAGE_SIZE) / PAGE_SIZE),
            _ => None,
        };
        let mut bad = bytes.clone();
        bad[pos] ^= 1 << bit;
        for use_mmap in [false, true] {
            let pages = read_back(&bad, use_mmap, image);
            let Some(damaged) = damaged_page else {
                prop_assert!(
                    pages.is_err(),
                    "header bit {} of byte {} flipped, page file still opened (mmap {})",
                    bit, pos, use_mmap
                );
                continue;
            };
            let mut expected = vec![Ok(true); FIXTURE_PAGES];
            expected[damaged] = Err(StorageError::Corrupted { page: damaged as u32 });
            prop_assert_eq!(
                pages.ok(),
                Some(expected),
                "bit {} of byte {} flipped (mmap {})",
                bit, pos, use_mmap
            );
        }
    }
}
