//! The segmented append-only delta log.
//!
//! A log directory holds numbered segment files
//! `wal-<seq>-<firstlsn>.seg`, each a 24-byte header (magic, sequence
//! number, first LSN) followed by checksummed frames:
//!
//! ```text
//! [len: u32 LE][crc32c(payload): u32 LE][payload: len bytes]
//! ```
//!
//! Frame payloads are log records — either a symbol-table increment or
//! one `(lsn, relation, delta)` update (see [`WalRecord`]). LSNs are
//! the engine's own `updates_applied` counter: exactly one update
//! record per applied delta, so "replay the tail after LSN `c`" is
//! well-defined without any separate sequencing. Flat deltas are
//! stored schema-elided (see [`encode_update_record`]): the replayer
//! reconstructs the schema from the relation index, so the hot path
//! checksums roughly half the bytes a self-describing record would.
//!
//! Appends are group-committed through an in-memory buffer written to
//! the OS at a byte threshold (and on checkpoint/drop). The buffer is
//! **retained until the bytes are fsynced**, not merely written: after
//! a failed write or failed fsync every byte past the synced prefix is
//! suspect (a failed `fsync` may drop dirty pages), and the retained
//! buffer lets the log truncate back to the synced prefix and rewrite
//! — on a retry, or into a fresh segment on
//! [`DeltaLog::roll_over`] (the heal path). Rotation fsyncs, so the
//! retained window is bounded by `segment_bytes`. Both the payload
//! scratch buffer and the group-commit buffer are reused, so the
//! append path performs no per-update allocations once warm.
//!
//! All file operations go through the [`crate::vfs::Vfs`] seam; see
//! `docs/fault-injection.md` for the failure model.
//!
//! Torn-write policy (see `docs/wal-format.md`): an invalid frame —
//! short header, length overrunning the file, CRC mismatch — ends
//! replay at that offset. In the *final* segment that is a torn write:
//! the file is truncated to the valid prefix and recovery proceeds. In
//! an earlier segment it is hard corruption — unless the *next*
//! segment continues seamlessly from the valid prefix (no LSN gap),
//! which is exactly the overlap a heal rollover leaves behind.

use crate::crc::crc32;
use crate::vfs::{write_all_at, StdVfs, Vfs, VfsFile};
use crate::{DurabilityError, Result};
use fivm_core::{Codec, Delta, Schema, Semiring};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic prefix of every segment file (the trailing byte is the format
/// version).
pub const SEGMENT_MAGIC: &[u8; 8] = b"FIVMWAL1";
/// Segment header: magic + seq (u64) + first LSN (u64).
pub const SEGMENT_HEADER_LEN: u64 = 24;
/// Frame header: payload length + CRC-32.
pub const FRAME_HEADER_LEN: u64 = 8;

/// Record kind tags (first payload byte).
const REC_SYMBOLS: u8 = 1;
const REC_UPDATE: u8 = 2;

/// Little-endian u32 at `off`, or `None` when the slice is too short.
/// Recovery code reads untrusted bytes, so field reads are fallible
/// rather than `try_into().unwrap()` on a sub-slice.
pub(crate) fn le_u32(bytes: &[u8], off: usize) -> Option<u32> {
    let b = bytes.get(off..off + 4)?;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Little-endian u64 at `off`, or `None` when the slice is too short.
pub(crate) fn le_u64(bytes: &[u8], off: usize) -> Option<u64> {
    let b = bytes.get(off..off + 8)?;
    Some(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

/// One decoded log record.
#[derive(Debug)]
pub enum WalRecord<R> {
    /// Symbol-table increment: strings interned as ids
    /// `first_id..first_id + syms.len()`, in order.
    Symbols { first_id: u32, syms: Vec<String> },
    /// One applied update.
    Update {
        lsn: u64,
        rel: usize,
        delta: Delta<R>,
    },
}

/// A segment file discovered on disk.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    pub path: PathBuf,
    pub seq: u64,
    pub first_lsn: u64,
}

/// Encode a symbols record into `out` (cleared first).
pub fn encode_symbols_record(out: &mut Vec<u8>, first_id: u32, syms: &[&str]) {
    out.clear();
    out.push(REC_SYMBOLS);
    out.extend_from_slice(&first_id.to_le_bytes());
    out.extend_from_slice(&(syms.len() as u32).to_le_bytes());
    for s in syms {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
}

/// Update-record delta layouts (byte after the relation index).
const DELTA_FLAT_ELIDED: u8 = 0;
const DELTA_SELF_DESCRIBING: u8 = 1;

/// Encode an update record into `out` (cleared first).
///
/// Flat deltas are written **schema-elided**: the replayer knows every
/// relation's schema from the query, so the record carries only the
/// tuple values and payloads — no schema, no per-tuple arity. This
/// halves the bytes encoded and checksummed per single-tuple update,
/// which is what keeps logging inside its overhead budget. Factored
/// deltas (multiple factor schemas, not derivable from the relation)
/// fall back to the self-describing [`Delta`] codec.
pub fn encode_update_record<R: Semiring + Codec>(
    out: &mut Vec<u8>,
    lsn: u64,
    rel: usize,
    delta: &Delta<R>,
) {
    out.clear();
    let mut hdr = [0u8; 14];
    hdr[0] = REC_UPDATE;
    hdr[1..9].copy_from_slice(&lsn.to_le_bytes());
    hdr[9..13].copy_from_slice(&(rel as u32).to_le_bytes());
    match delta {
        Delta::Flat(r) => {
            hdr[13] = DELTA_FLAT_ELIDED;
            out.extend_from_slice(&hdr);
            fivm_core::codec::put_count(out, r.len());
            for (t, p) in r.iter() {
                for v in t.values() {
                    v.encode(out);
                }
                p.encode(out);
            }
        }
        factored => {
            hdr[13] = DELTA_SELF_DESCRIBING;
            out.extend_from_slice(&hdr);
            factored.encode(out);
        }
    }
}

/// Decode one record payload. `schemas` maps relation index → schema
/// (from the recovering engine's query) for schema-elided flat deltas.
pub fn decode_record<R: Semiring + Codec>(
    mut payload: &[u8],
    schemas: &[Schema],
) -> Result<WalRecord<R>> {
    let input = &mut payload;
    match fivm_core::codec::take_u8(input)? {
        REC_SYMBOLS => {
            let first_id = fivm_core::codec::take_u32(input)?;
            let n = fivm_core::codec::take_count(input, "symbol count", 4)?;
            let mut syms = Vec::with_capacity(n);
            for _ in 0..n {
                syms.push(String::decode(input)?);
            }
            Ok(WalRecord::Symbols { first_id, syms })
        }
        REC_UPDATE => {
            let lsn = fivm_core::codec::take_u64(input)?;
            let rel = fivm_core::codec::take_u32(input)? as usize;
            let delta = match fivm_core::codec::take_u8(input)? {
                DELTA_FLAT_ELIDED => {
                    let Some(schema) = schemas.get(rel) else {
                        return Err(DurabilityError::Codec(fivm_core::CodecError::Invalid {
                            what: "update record (relation index out of range)",
                        }));
                    };
                    let arity = schema.len();
                    // Minimum pair: `arity` 5-byte values + 1 payload byte.
                    let n = fivm_core::codec::take_count(input, "flat delta size", arity * 5 + 1)?;
                    let mut pairs = Vec::with_capacity(n);
                    for _ in 0..n {
                        let mut vals = Vec::with_capacity(arity);
                        for _ in 0..arity {
                            vals.push(fivm_core::Value::decode(input)?);
                        }
                        pairs.push((fivm_core::Tuple::new(vals), R::decode(input)?));
                    }
                    Delta::Flat(fivm_core::Relation::from_pairs(schema.clone(), pairs))
                }
                DELTA_SELF_DESCRIBING => Delta::decode(input)?,
                tag => {
                    return Err(DurabilityError::Codec(fivm_core::CodecError::BadTag {
                        what: "update record delta layout",
                        tag,
                    }))
                }
            };
            Ok(WalRecord::Update { lsn, rel, delta })
        }
        tag => Err(DurabilityError::Codec(fivm_core::CodecError::BadTag {
            what: "log record",
            tag,
        })),
    }
}

/// List the segment files of `dir`, sorted by sequence number.
pub fn list_segments(dir: &Path) -> Result<Vec<SegmentInfo>> {
    list_segments_in(&StdVfs, dir)
}

/// [`list_segments`] through an explicit [`Vfs`].
pub fn list_segments_in(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<SegmentInfo>> {
    let mut out = Vec::new();
    for path in vfs.read_dir(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
        else {
            continue;
        };
        let Some((seq_s, lsn_s)) = stem.split_once('-') else {
            continue;
        };
        if let (Ok(seq), Ok(first_lsn)) = (seq_s.parse(), lsn_s.parse()) {
            out.push(SegmentInfo {
                path,
                seq,
                first_lsn,
            });
        }
    }
    out.sort_by_key(|s| s.seq);
    Ok(out)
}

fn segment_path(dir: &Path, seq: u64, first_lsn: u64) -> PathBuf {
    dir.join(format!("wal-{seq:06}-{first_lsn:012}.seg"))
}

/// Byte spans `(offset, total_len)` of every valid frame in a segment,
/// in file order. The fault-injection harness uses this to find the
/// final record's boundaries; `total_len` includes the frame header.
pub fn frame_spans(path: &Path) -> Result<Vec<(u64, u64)>> {
    let bytes = StdVfs.read(path)?;
    let mut spans = Vec::new();
    let mut off = SEGMENT_HEADER_LEN as usize;
    while let Some(consumed) = valid_frame_at(&bytes, off) {
        spans.push((off as u64, consumed as u64));
        off += consumed;
    }
    Ok(spans)
}

/// If a complete, checksum-valid frame starts at `off`, return its
/// total length (header + payload); otherwise `None`.
fn valid_frame_at(bytes: &[u8], off: usize) -> Option<usize> {
    let rest = bytes.get(off..)?;
    if rest.len() < FRAME_HEADER_LEN as usize {
        return None;
    }
    let len = le_u32(rest, 0)? as usize;
    let crc = le_u32(rest, 4)?;
    let payload = rest.get(8..8 + len)?;
    if len == 0 || crc32(payload) != crc {
        return None;
    }
    Some(8 + len)
}

/// Read and decode one segment. Returns the decoded records plus, when
/// the segment ends in an invalid frame, the byte offset of the valid
/// prefix (`Some(valid_len)`); the header itself is validated against
/// `info`'s name-derived seq/LSN.
pub fn read_segment<R: Semiring + Codec>(
    info: &SegmentInfo,
    schemas: &[Schema],
) -> Result<(Vec<WalRecord<R>>, Option<u64>)> {
    read_segment_in(&StdVfs, info, schemas)
}

/// [`read_segment`] through an explicit [`Vfs`].
pub fn read_segment_in<R: Semiring + Codec>(
    vfs: &dyn Vfs,
    info: &SegmentInfo,
    schemas: &[Schema],
) -> Result<(Vec<WalRecord<R>>, Option<u64>)> {
    let bytes = vfs.read(&info.path)?;
    if bytes.len() < SEGMENT_HEADER_LEN as usize
        || &bytes[0..8] != SEGMENT_MAGIC
        || le_u64(&bytes, 8) != Some(info.seq)
        || le_u64(&bytes, 16) != Some(info.first_lsn)
    {
        return Err(DurabilityError::Corrupt {
            file: info.path.clone(),
            detail: "bad segment header".into(),
        });
    }
    let mut records = Vec::new();
    let mut off = SEGMENT_HEADER_LEN as usize;
    while off < bytes.len() {
        match valid_frame_at(&bytes, off) {
            Some(consumed) => {
                let payload = &bytes[off + 8..off + consumed];
                // A frame that checksums but does not decode is hard
                // corruption, not a torn write — CRC-valid garbage
                // means the writer itself misbehaved.
                records.push(decode_record(payload, schemas)?);
                off += consumed;
            }
            None => return Ok((records, Some(off as u64))),
        }
    }
    Ok((records, None))
}

/// Buffer-position marker for [`DeltaLog::rollback_to`]: the frame
/// boundary the log rewinds to when an append fails mid-update.
#[derive(Debug, Clone, Copy)]
pub struct LogMark {
    buf_len: usize,
    last_appended_lsn: u64,
}

/// What a heal rollover did (see [`DeltaLog::roll_over`]).
#[derive(Debug, Clone, Copy)]
pub struct RollOver {
    /// Sequence number of the fresh segment.
    pub new_seq: u64,
    /// Retained-buffer bytes re-persisted into it.
    pub carried_bytes: u64,
    /// Whether the old segment's suspect tail was truncated away (a
    /// failure here is tolerable: replay skips the overlap).
    pub old_tail_truncated: bool,
}

/// The append half of the log: owns the current segment file and the
/// group-commit buffer.
pub struct DeltaLog {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    /// Path of the current segment (tail truncation and heal target).
    path: PathBuf,
    file: Box<dyn VfsFile>,
    seq: u64,
    /// File offset where `buf[0]` lands: segment header plus every
    /// frame byte already confirmed fsynced in this segment.
    buf_base: u64,
    /// Whether any fsync has completed on this segment — before the
    /// first, not even the header is durable.
    synced_once: bool,
    /// Frames appended since the last successful fsync. Retained (not
    /// cleared at flush) so a failed write or fsync can truncate back
    /// to the synced prefix and rewrite, losing nothing.
    buf: Vec<u8>,
    /// Prefix of `buf` confirmed written at `file[buf_base..]`.
    flushed: usize,
    /// A failed or short write (or failed fsync) left bytes past
    /// `buf_base + flushed` in unknown state; the next flush truncates
    /// the file back before writing.
    dirty_tail: bool,
    flush_bytes: usize,
    segment_bytes: u64,
    policy: crate::SyncPolicy,
    /// Updates acknowledged since the last `fsync` (the amortized
    /// batching window of [`crate::SyncPolicy::Batched`]).
    unsynced_updates: u64,
    /// When the last `fsync` completed (the `max_delay` clock).
    last_sync: std::time::Instant,
    /// Bytes reached the OS (flushed) without an `fsync` since.
    flushed_since_sync: bool,
    /// Highest update LSN appended to this log.
    last_appended_lsn: u64,
    /// Highest update LSN inside the fsynced prefix — the first LSN of
    /// a heal rollover's fresh segment is `synced_lsn + 1`.
    synced_lsn: u64,
}

impl DeltaLog {
    /// Open a fresh segment `seq` starting at `first_lsn` and return a
    /// log appending to it.
    pub fn create(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        seq: u64,
        first_lsn: u64,
        segment_bytes: u64,
        flush_bytes: usize,
        policy: crate::SyncPolicy,
    ) -> Result<Self> {
        let (path, file) = new_segment(vfs.as_ref(), dir, seq, first_lsn)?;
        Ok(DeltaLog {
            vfs,
            dir: dir.to_path_buf(),
            path,
            file,
            seq,
            buf_base: SEGMENT_HEADER_LEN,
            // The just-written segment header has not been fsynced.
            synced_once: false,
            buf: Vec::with_capacity(flush_bytes + 4096),
            flushed: 0,
            dirty_tail: false,
            flush_bytes,
            segment_bytes,
            policy,
            unsynced_updates: 0,
            last_sync: std::time::Instant::now(),
            flushed_since_sync: true,
            last_appended_lsn: first_lsn.saturating_sub(1),
            synced_lsn: first_lsn.saturating_sub(1),
        })
    }

    /// Rotate to a new segment if the current one is over budget. Must
    /// be called at an update boundary, *before* the symbol/update
    /// records of LSN `next_lsn` are appended, so the new segment's
    /// first-LSN label is exact.
    pub fn maybe_rotate(&mut self, next_lsn: u64) -> Result<()> {
        if self.buf_base + (self.buf.len() as u64) < self.segment_bytes {
            return Ok(());
        }
        self.sync()?;
        let (path, file) = new_segment(self.vfs.as_ref(), &self.dir, self.seq + 1, next_lsn)?;
        self.seq += 1;
        self.path = path;
        self.file = file;
        self.buf_base = SEGMENT_HEADER_LEN;
        self.synced_once = false;
        self.flushed_since_sync = true;
        Ok(())
    }

    /// Frame `payload` and append it (buffered; flushed to the OS at
    /// the group-commit threshold — syncing is the separate, per-update
    /// [`DeltaLog::note_update`]/[`DeltaLog::sync`] decision).
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        let mut hdr = [0u8; FRAME_HEADER_LEN as usize];
        hdr[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        hdr[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        self.buf.extend_from_slice(&hdr);
        self.buf.extend_from_slice(payload);
        if self.buf.len() - self.flushed >= self.flush_bytes {
            self.flush()?;
        }
        Ok(())
    }

    /// [`DeltaLog::append`] for an update record, recording its LSN
    /// (the heal rollover and rollback bookkeeping need it). The
    /// buffer extension itself cannot fail — only the threshold flush
    /// can — so the record's frames are in the buffer even on `Err`,
    /// and the LSN advances either way (rollback rewinds it).
    pub fn append_update(&mut self, payload: &[u8], lsn: u64) -> Result<()> {
        let r = self.append(payload);
        self.last_appended_lsn = lsn;
        r
    }

    /// Current frame-boundary position, for [`DeltaLog::rollback_to`].
    pub fn mark(&self) -> LogMark {
        LogMark {
            buf_len: self.buf.len(),
            last_appended_lsn: self.last_appended_lsn,
        }
    }

    /// Rewind the retained buffer (and, if a flush already pushed part
    /// of the rolled-back frames, the file) to `mark` — the post-error
    /// contract of the logging path: after a failed append the log
    /// holds exactly the frames it held before, so a retry cannot emit
    /// a torn or duplicated record. Never fails: if the file cannot be
    /// truncated right now, the tail is marked dirty and cut by the
    /// next flush.
    pub fn rollback_to(&mut self, mark: LogMark) {
        if self.buf.len() <= mark.buf_len {
            // Nothing appended past the mark (or a rotation reset the
            // buffer; the mark belongs to the previous segment and
            // everything under it was already synced).
            return;
        }
        self.buf.truncate(mark.buf_len);
        self.last_appended_lsn = mark.last_appended_lsn;
        if self.flushed > mark.buf_len {
            self.flushed = mark.buf_len;
            if self
                .vfs
                .set_len(&self.path, self.buf_base + self.flushed as u64)
                .is_err()
            {
                self.dirty_tail = true;
            }
        }
    }

    /// Record an update acknowledgement and report whether the sync
    /// policy wants an fsync now. The caller runs [`DeltaLog::sync`]
    /// (with its retry policy) when this returns `true`.
    pub fn note_update(&mut self) -> bool {
        self.unsynced_updates += 1;
        match self.policy {
            crate::SyncPolicy::OnCheckpoint => false,
            // Sync as soon as a threshold flush has put bytes at the
            // OS: the flush boundary is the durability boundary.
            crate::SyncPolicy::EveryFlush => self.flushed_since_sync,
            crate::SyncPolicy::Batched {
                max_updates,
                max_delay,
            } => {
                self.unsynced_updates >= max_updates.max(1) || self.last_sync.elapsed() >= max_delay
            }
        }
    }

    /// Write the unflushed part of the retained buffer through to the
    /// OS. After a previous failure the file is first truncated back to
    /// the last known-good boundary, so a half-landed write can never
    /// leave torn bytes under a later frame.
    pub fn flush(&mut self) -> Result<()> {
        if self.dirty_tail {
            self.vfs
                .set_len(&self.path, self.buf_base + self.flushed as u64)?;
            self.dirty_tail = false;
        }
        while self.flushed < self.buf.len() {
            let off = self.buf_base + self.flushed as u64;
            match self.file.write_at(off, &self.buf[self.flushed..]) {
                Ok(0) => {
                    self.dirty_tail = true;
                    return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into());
                }
                Ok(n) => {
                    self.flushed += n;
                    self.flushed_since_sync = true;
                }
                Err(e) => {
                    // The failed call may have landed bytes anyway.
                    self.dirty_tail = true;
                    return Err(e.into());
                }
            }
        }
        Ok(())
    }

    /// Flush and fsync the current segment. On success the whole
    /// retained buffer becomes part of the durable prefix and is
    /// released. On an fsync failure the kernel may already have
    /// dropped the dirty pages *and* the error, so everything past the
    /// synced prefix is treated as lost: the next flush truncates back
    /// and rewrites it from the retained buffer.
    pub fn sync(&mut self) -> Result<()> {
        self.flush()?;
        if let Err(e) = self.file.sync_data() {
            self.dirty_tail = true;
            self.flushed = 0;
            return Err(e.into());
        }
        self.buf_base += self.buf.len() as u64;
        self.buf.clear();
        self.flushed = 0;
        self.synced_once = true;
        self.synced_lsn = self.last_appended_lsn;
        self.unsynced_updates = 0;
        self.last_sync = std::time::Instant::now();
        self.flushed_since_sync = false;
        Ok(())
    }

    /// Roll the log over to a fresh segment, re-persisting the whole
    /// retained buffer — the heal path after a persistent failure on
    /// the current segment (see `DurableEngine::try_heal`).
    ///
    /// The old segment's suspect tail (anything past its synced
    /// prefix) is truncated best-effort; the fresh segment is named
    /// past every segment on disk, starts at `synced_lsn + 1`, and is
    /// fully written and fsynced before the log commits to it — on any
    /// failure the old state stands and the caller stays degraded. A
    /// fresh segment left behind by a failed rollover is deleted
    /// best-effort; replay tolerates a survivor (duplicate LSNs are
    /// skipped, see `docs/wal-format.md`).
    pub fn roll_over(&mut self) -> Result<RollOver> {
        // Cut the unknown tail off the current segment and pin the
        // truncation. Both best-effort: the retained buffer re-carries
        // those bytes regardless, and replay handles the overlap.
        let old_tail_truncated = self.vfs.set_len(&self.path, self.buf_base).is_ok();
        let _ = self.file.sync_data();

        let max_seq = list_segments_in(self.vfs.as_ref(), &self.dir)?
            .last()
            .map_or(self.seq, |s| s.seq.max(self.seq));
        let new_seq = max_seq + 1;
        let first_lsn = self.synced_lsn + 1;
        let (path, mut file) = new_segment(self.vfs.as_ref(), &self.dir, new_seq, first_lsn)?;
        let written = (|| -> Result<()> {
            write_all_at(file.as_mut(), SEGMENT_HEADER_LEN, &self.buf)?;
            file.sync_data()?;
            Ok(())
        })();
        if let Err(e) = written {
            let _ = self.vfs.remove_file(&path);
            return Err(e);
        }
        let carried_bytes = self.buf.len() as u64;
        self.path = path;
        self.file = file;
        self.seq = new_seq;
        self.buf_base = SEGMENT_HEADER_LEN + carried_bytes;
        self.synced_once = true;
        self.synced_lsn = self.last_appended_lsn;
        self.buf.clear();
        self.flushed = 0;
        self.dirty_tail = false;
        self.unsynced_updates = 0;
        self.last_sync = std::time::Instant::now();
        self.flushed_since_sync = false;
        Ok(RollOver {
            new_seq,
            carried_bytes,
            old_tail_truncated,
        })
    }

    /// `(current segment seq, durable byte length of that segment)` —
    /// the crash-simulation cut point for fault-injection tests: a
    /// power loss may keep anything past the durable length, or lose
    /// it.
    pub fn durable_span(&self) -> (u64, u64) {
        (self.seq, if self.synced_once { self.buf_base } else { 0 })
    }

    /// Delete every segment whose records are all covered by a
    /// checkpoint at `cutoff_lsn` — i.e. whose *successor* segment
    /// starts at or before `cutoff_lsn + 1`. The current segment is
    /// never deleted.
    pub fn truncate_covered(&mut self, cutoff_lsn: u64) -> Result<usize> {
        let segments = list_segments_in(self.vfs.as_ref(), &self.dir)?;
        let mut removed = 0;
        for pair in segments.windows(2) {
            if pair[0].seq < self.seq && pair[1].first_lsn <= cutoff_lsn + 1 {
                self.vfs.remove_file(&pair[0].path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

impl Drop for DeltaLog {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

fn new_segment(
    vfs: &dyn Vfs,
    dir: &Path,
    seq: u64,
    first_lsn: u64,
) -> Result<(PathBuf, Box<dyn VfsFile>)> {
    let path = segment_path(dir, seq, first_lsn);
    let mut hdr = [0u8; SEGMENT_HEADER_LEN as usize];
    hdr[..8].copy_from_slice(SEGMENT_MAGIC);
    hdr[8..16].copy_from_slice(&seq.to_le_bytes());
    hdr[16..24].copy_from_slice(&first_lsn.to_le_bytes());
    let opened = (|| -> Result<Box<dyn VfsFile>> {
        let mut file = vfs.create_new(&path)?;
        write_all_at(file.as_mut(), 0, &hdr)?;
        Ok(file)
    })();
    match opened {
        Ok(file) => Ok((path, file)),
        Err(e) => {
            // A half-created segment must not survive: a later
            // recovery walking it mid-range would refuse.
            let _ = vfs.remove_file(&path);
            Err(e)
        }
    }
}
