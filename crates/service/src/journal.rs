//! Crash-safe maintenance: a checksummed write-ahead journal of typed
//! records (edge updates + publish-protocol markers) plus atomic full-state
//! checkpoints.
//!
//! # Journal
//!
//! The journal is an append-only file: an 8-byte header (`DSIJ` + version)
//! followed by fixed-size 16-byte records — `[w0 u32][w1 u32][w2 u32]
//! [crc u32]`, all little-endian. Two record kinds share the layout:
//!
//! * **update** — `w0` is the edge's first node (never [`CONTROL_TAG`]),
//!   `w1` the second, `w2` the new absolute weight;
//! * **control** — `w0` is [`CONTROL_TAG`] (`u32::MAX`, never a valid node
//!   id), `w1` the marker kind ([`PublishIntent`](JournalRecord::PublishIntent)
//!   or [`PublishDone`](JournalRecord::PublishDone)), `w2` the epoch being
//!   published. The pair brackets the checkpoint rename inside the
//!   double-buffered publish protocol (see the engine docs): recovery can
//!   tell a completed publish (`intent … done`) from one the crash tore in
//!   half (`intent` with no matching `done`) and still lands on exactly one
//!   epoch either way, because the *updates* in the journal — not the
//!   markers — define the recovered state.
//!
//! The CRC-32 covers the record's *sequence number* as well as its payload,
//! so a record is only valid at the position it was written: stale bytes
//! left over from an earlier file generation, swapped records, and torn
//! tails all fail verification. Readers take the longest valid prefix and
//! ignore the rest ([`decode_records`]), which makes a crash mid-append
//! harmless — the torn record was never acknowledged.
//!
//! Updates carry *absolute* weights (`update_edge` semantics), so replaying
//! a prefix that was already applied is idempotent: recovery never needs to
//! know how far maintenance got before the crash.
//!
//! # Checkpoint
//!
//! A checkpoint snapshots the entire service state — network, object set,
//! signature index — together with the journal record count it reflects, so
//! recovery can skip replaying history the snapshot already contains. The
//! file is a plaintext `DSIC` preamble followed by a CRC-framed stream
//! ([`dsi_storage::FrameWriter`]) of length-prefixed blobs. It is written
//! to a temporary file, synced, renamed into place, and the directory is
//! synced: a crash mid-write leaves either the old checkpoint or none, never
//! a half-written one that parses. A checkpoint that fails to parse (torn,
//! flipped, or claiming more history than the journal holds) is simply
//! ignored — the journal is the source of truth for history length.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use dsi_graph::io::{
    get_u64, put_u64, read_network, read_objects, write_network, write_objects, LoadError,
};
use dsi_graph::{Dist, NodeId, ObjectSet, RoadNetwork};
use dsi_signature::persist::{read_index, write_index};
use dsi_signature::SignatureIndex;
use dsi_storage::{crc32, FrameReader, FrameWriter};

/// One edge-weight update: `(a, b, new_weight)`, absolute semantics.
pub type EdgeUpdate = (NodeId, NodeId, Dist);

/// Journal record size on disk: three `u32` payload words plus the CRC.
pub const RECORD_LEN: usize = 16;

/// First payload word marking a control record. `u32::MAX` is never a valid
/// node id (networks are indexed contiguously from 0), so update and
/// control records cannot be confused.
pub const CONTROL_TAG: u32 = u32::MAX;

/// Journal file header: magic + format version, little-endian. Version 2
/// added control records; version-1 files (updates only) still decode.
const JOURNAL_HEADER: [u8; 8] = *b"DSIJ\x02\x00\x00\x00";
const JOURNAL_HEADER_V1: [u8; 8] = *b"DSIJ\x01\x00\x00\x00";

const KIND_PUBLISH_INTENT: u32 = 1;
const KIND_PUBLISH_DONE: u32 = 2;

const CHECKPOINT_MAGIC: &[u8; 4] = b"DSIC";
const CHECKPOINT_VERSION: u32 = 1;

/// Base network snapshot inside a maintenance-log directory.
pub const BASE_NET_FILE: &str = "base.net";
/// Base object-set snapshot inside a maintenance-log directory.
pub const BASE_OBJ_FILE: &str = "base.obj";
/// The write-ahead journal inside a maintenance-log directory.
pub const JOURNAL_FILE: &str = "journal.wal";
/// The full-state checkpoint inside a maintenance-log directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.dsi";

/// One decoded journal record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// An acknowledged edge-weight update.
    Update(EdgeUpdate),
    /// The double-buffered publish protocol is about to rename a checkpoint
    /// for this epoch into place.
    PublishIntent(u32),
    /// The checkpoint rename for this epoch completed; the epoch is the
    /// durable restart point.
    PublishDone(u32),
}

/// Encode the `seq`-th journal record. The CRC binds the payload to its
/// position, so records only verify where they were written.
pub fn encode_record(seq: u64, rec: JournalRecord) -> [u8; RECORD_LEN] {
    let (w0, w1, w2) = match rec {
        JournalRecord::Update((a, b, w)) => {
            assert_ne!(a.0, CONTROL_TAG, "node id collides with the control tag");
            (a.0, b.0, w)
        }
        JournalRecord::PublishIntent(epoch) => (CONTROL_TAG, KIND_PUBLISH_INTENT, epoch),
        JournalRecord::PublishDone(epoch) => (CONTROL_TAG, KIND_PUBLISH_DONE, epoch),
    };
    let mut out = [0u8; RECORD_LEN];
    out[0..4].copy_from_slice(&w0.to_le_bytes());
    out[4..8].copy_from_slice(&w1.to_le_bytes());
    out[8..12].copy_from_slice(&w2.to_le_bytes());
    let mut covered = [0u8; 20];
    covered[..8].copy_from_slice(&seq.to_le_bytes());
    covered[8..].copy_from_slice(&out[..12]);
    out[12..16].copy_from_slice(&crc32(&covered).to_le_bytes());
    out
}

/// Whether `bytes` opens with a journal header this build reads (the
/// current one or v1, whose records decode the same).
fn header_ok(bytes: &[u8]) -> bool {
    let h = bytes.get(..JOURNAL_HEADER.len());
    h.is_some_and(|h| h == JOURNAL_HEADER.as_slice() || h == JOURNAL_HEADER_V1.as_slice())
}

/// Decode the longest valid prefix of a journal image: header, then records
/// until the first missing, torn, corrupt, or malformed one. Never fails —
/// a damaged journal simply yields the records that verifiably survived.
pub fn decode_records(bytes: &[u8]) -> Vec<JournalRecord> {
    if !header_ok(bytes) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut off = JOURNAL_HEADER.len();
    while off + RECORD_LEN <= bytes.len() {
        let raw = &bytes[off..off + RECORD_LEN];
        let word = |i: usize| u32::from_le_bytes(raw[i..i + 4].try_into().expect("4 bytes"));
        let rec = if word(0) == CONTROL_TAG {
            match word(4) {
                KIND_PUBLISH_INTENT => JournalRecord::PublishIntent(word(8)),
                KIND_PUBLISH_DONE => JournalRecord::PublishDone(word(8)),
                _ => break, // unknown control kind: treat as damage
            }
        } else {
            JournalRecord::Update((NodeId(word(0)), NodeId(word(4)), word(8)))
        };
        if encode_record(out.len() as u64, rec) != *raw {
            break;
        }
        out.push(rec);
        off += RECORD_LEN;
    }
    out
}

/// The append handle over a journal file. Opening repairs a torn tail
/// (truncates past the last valid record) and returns the surviving
/// records; appends are synced before they are acknowledged.
pub struct UpdateJournal {
    file: File,
    seq: u64,
}

impl UpdateJournal {
    /// Open (or create) the journal at `path`, returning the handle plus
    /// every record that survives verification. Bytes past the valid
    /// prefix — a torn append, flipped bits — are truncated away so the
    /// file is clean for further appends.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Self, Vec<JournalRecord>)> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let records = decode_records(&bytes);
        let header_ok = header_ok(&bytes);
        if !header_ok {
            // New, empty, torn-header, or foreign file: restart it. A new
            // file's directory entry is made durable below.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&JOURNAL_HEADER)?;
        } else {
            let valid = (JOURNAL_HEADER.len() + records.len() * RECORD_LEN) as u64;
            if valid < bytes.len() as u64 {
                file.set_len(valid)?;
            }
            file.seek(SeekFrom::Start(valid))?;
        }
        file.sync_all()?;
        if !header_ok {
            sync_parent_dir(path)?;
        }
        Ok((
            UpdateJournal {
                file,
                seq: records.len() as u64,
            },
            records,
        ))
    }

    /// Append `updates` as one synced write. Nothing is acknowledged until
    /// the records are durable, so maintenance may patch the index
    /// afterwards knowing a crash can always be replayed.
    pub fn append(&mut self, updates: &[EdgeUpdate]) -> io::Result<()> {
        if updates.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::with_capacity(updates.len() * RECORD_LEN);
        for (k, &u) in updates.iter().enumerate() {
            buf.extend_from_slice(&encode_record(
                self.seq + k as u64,
                JournalRecord::Update(u),
            ));
        }
        self.file.write_all(&buf)?;
        self.file.sync_data()?;
        self.seq += updates.len() as u64;
        Ok(())
    }

    /// Append one publish-protocol marker as a synced write.
    pub fn append_control(&mut self, rec: JournalRecord) -> io::Result<()> {
        debug_assert!(
            !matches!(rec, JournalRecord::Update(_)),
            "updates go through append()"
        );
        self.file.write_all(&encode_record(self.seq, rec))?;
        self.file.sync_data()?;
        self.seq += 1;
        Ok(())
    }

    /// Records in the journal (updates and control markers).
    pub fn len(&self) -> u64 {
        self.seq
    }

    /// Whether no record has ever been journaled.
    pub fn is_empty(&self) -> bool {
        self.seq == 0
    }
}

/// A parsed checkpoint: full service state as of `journal_len` records.
pub struct Checkpoint {
    /// Journal records (updates *and* control markers) already reflected in
    /// this snapshot.
    pub journal_len: u64,
    pub net: RoadNetwork,
    pub objects: ObjectSet,
    pub index: SignatureIndex,
}

/// Replace `path` atomically: `write` fills `<path>.tmp`, which is synced
/// and renamed over `path`, and then the directory is synced so that the
/// rename itself survives a power loss. A crash at any point leaves either
/// the old file or the new one under `path`; a failed write removes the
/// temp file.
pub(crate) fn write_atomically(
    path: &Path,
    write: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let filled = File::create(&tmp).and_then(|mut f| {
        write(&mut f)?;
        f.sync_all()
    });
    if let Err(e) = filled {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// Sync the directory holding `path`, which makes a file created or
/// renamed there durable.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Write a checkpoint atomically (see [`write_atomically`]).
pub fn write_checkpoint(
    path: impl AsRef<Path>,
    journal_len: u64,
    net: &RoadNetwork,
    objects: &ObjectSet,
    index: &SignatureIndex,
) -> io::Result<()> {
    write_atomically(path.as_ref(), |f| {
        f.write_all(CHECKPOINT_MAGIC)?;
        f.write_all(&CHECKPOINT_VERSION.to_le_bytes())?;
        let mut w = FrameWriter::new(f);
        put_u64(&mut w, journal_len)?;
        let blob = |w: &mut FrameWriter<&mut File>, bytes: &[u8]| -> io::Result<()> {
            put_u64(w, bytes.len() as u64)?;
            w.write_all(bytes)
        };
        let mut net_bytes = Vec::new();
        write_network(net, &mut net_bytes)?;
        blob(&mut w, &net_bytes)?;
        let mut obj_bytes = Vec::new();
        write_objects(objects, &mut obj_bytes)?;
        blob(&mut w, &obj_bytes)?;
        let mut idx_bytes = Vec::new();
        write_index(index, &mut idx_bytes)?;
        blob(&mut w, &idx_bytes)?;
        w.finish()?;
        Ok(())
    })
}

/// Parse a checkpoint file. Any damage — truncation, bit flips, a foreign
/// file — surfaces as an error; recovery treats that as "no checkpoint".
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<Checkpoint, LoadError> {
    let mut f = File::open(path)?;
    let mut preamble = [0u8; 8];
    f.read_exact(&mut preamble)?;
    if &preamble[..4] != CHECKPOINT_MAGIC {
        return Err(LoadError::Format("not a service checkpoint".into()));
    }
    let v = u32::from_le_bytes(preamble[4..].try_into().expect("4 bytes"));
    if v != CHECKPOINT_VERSION {
        return Err(LoadError::Format(format!(
            "unsupported checkpoint version {v}"
        )));
    }
    let mut r = FrameReader::new(f);
    let journal_len = get_u64(&mut r)?;
    let net_bytes = read_blob(&mut r)?;
    let net = read_network(&net_bytes[..])?;
    let obj_bytes = read_blob(&mut r)?;
    let objects = read_objects(&obj_bytes[..], &net)?;
    let idx_bytes = read_blob(&mut r)?;
    let index = read_index(&idx_bytes[..], &net)?;
    Ok(Checkpoint {
        journal_len,
        net,
        objects,
        index,
    })
}

/// Read one length-prefixed blob from the frame stream. The length word is
/// CRC-verified (it lives inside a frame), but the reservation is still
/// capped and the byte count re-checked so a truncated stream cannot turn
/// into a giant allocation or a short blob passed on as complete.
fn read_blob<R: Read>(r: &mut FrameReader<R>) -> Result<Vec<u8>, LoadError> {
    let len = get_u64(r)?;
    let mut buf = Vec::with_capacity((len as usize).min(1 << 20));
    let got = r.take(len).read_to_end(&mut buf)?;
    if got as u64 != len {
        return Err(LoadError::Format("truncated checkpoint blob".into()));
    }
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_updates(n: usize) -> Vec<EdgeUpdate> {
        (0..n)
            .map(|i| {
                (
                    NodeId(i as u32),
                    NodeId((i * 7 + 1) as u32),
                    (i * 13 + 5) as Dist,
                )
            })
            .collect()
    }

    /// A history shaped like real maintenance: updates bracketed by
    /// publish markers.
    fn sample_records(n: usize) -> Vec<JournalRecord> {
        let mut recs: Vec<JournalRecord> = sample_updates(n)
            .into_iter()
            .map(JournalRecord::Update)
            .collect();
        recs.push(JournalRecord::PublishIntent(1));
        recs.push(JournalRecord::PublishDone(1));
        recs
    }

    fn journal_image(records: &[JournalRecord]) -> Vec<u8> {
        let mut bytes = JOURNAL_HEADER.to_vec();
        for (seq, &r) in records.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(seq as u64, r));
        }
        bytes
    }

    #[test]
    fn journal_round_trip() {
        let records = sample_records(9);
        assert_eq!(decode_records(&journal_image(&records)), records);
        assert!(decode_records(&[]).is_empty());
        assert!(decode_records(b"garbage!").is_empty());
    }

    #[test]
    fn v1_journals_still_decode() {
        let updates = sample_updates(4);
        let mut bytes = JOURNAL_HEADER_V1.to_vec();
        for (seq, &u) in updates.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(seq as u64, JournalRecord::Update(u)));
        }
        let want: Vec<_> = updates.iter().map(|&u| JournalRecord::Update(u)).collect();
        assert_eq!(decode_records(&bytes), want);
    }

    #[test]
    fn swapped_records_do_not_verify() {
        let records = sample_records(3);
        let mut bytes = journal_image(&records);
        let (h, r) = (JOURNAL_HEADER.len(), RECORD_LEN);
        let (first, second): (Vec<u8>, Vec<u8>) =
            (bytes[h..h + r].to_vec(), bytes[h + r..h + 2 * r].to_vec());
        bytes[h..h + r].copy_from_slice(&second);
        bytes[h + r..h + 2 * r].copy_from_slice(&first);
        // The position-bound CRC rejects record 1 sitting at position 0.
        assert!(decode_records(&bytes).is_empty());
    }

    #[test]
    fn open_repairs_a_torn_tail_and_appends_continue() {
        let dir = std::env::temp_dir().join("dsi_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.wal");
        let _ = std::fs::remove_file(&path);

        let updates = sample_updates(5);
        {
            let (mut j, existing) = UpdateJournal::open(&path).unwrap();
            assert!(existing.is_empty());
            j.append(&updates).unwrap();
            j.append_control(JournalRecord::PublishIntent(1)).unwrap();
            j.append_control(JournalRecord::PublishDone(1)).unwrap();
            assert_eq!(j.len(), 7);
        }
        // Tear the publish-done record in half.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - RECORD_LEN / 2]).unwrap();

        let (mut j, survived) = UpdateJournal::open(&path).unwrap();
        assert_eq!(j.len(), 6);
        assert_eq!(survived[5], JournalRecord::PublishIntent(1));
        // The torn bytes were truncated; a new append lands at seq 6 and
        // verifies on the next open.
        j.append(&sample_updates(1)).unwrap();
        drop(j);
        let (_, after) = UpdateJournal::open(&path).unwrap();
        assert_eq!(after.len(), 7);
        assert_eq!(
            after[..5],
            updates
                .iter()
                .map(|&u| JournalRecord::Update(u))
                .collect::<Vec<_>>()[..]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_atomically_replaces_the_file_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("dsi_atomic_write_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        std::fs::write(&path, b"old contents, longer than the new").unwrap();

        let names = || -> Vec<_> {
            std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect()
        };
        write_atomically(&path, |f| f.write_all(b"new")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert_eq!(names(), ["state.bin"], "a temp file was left behind");

        // A failed write leaves the old file in place, and no temp file.
        let err = write_atomically(&path, |f| {
            f.write_all(b"partial")?;
            Err(io::Error::other("disk full"))
        });
        assert!(err.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert_eq!(names(), ["state.bin"], "a failed write left its temp file");
        std::fs::remove_dir_all(&dir).ok();
    }
}
