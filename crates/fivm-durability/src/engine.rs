//! [`DurableEngine`]: an [`IvmEngine`] whose applied deltas are
//! write-ahead logged and whose materialized views are periodically
//! checkpointed, recoverable after a crash to exactly the prefix of
//! updates that reached disk.
//!
//! The logical clock is the engine's own `updates_applied` counter
//! (one LSN per applied delta). Recovery = newest valid checkpoint +
//! replay of the log tail; because delta propagation is deterministic
//! (bit-identical across worker counts for exact rings — the PR 3
//! parallel-determinism guarantee), the recovered views are
//! byte-identical to an uninterrupted engine that applied the same
//! prefix.
//!
//! # Storage-failure policy
//!
//! Every file operation goes through the [`crate::vfs::Vfs`] seam, and
//! the engine classifies failures (see
//! [`DurabilityError::is_transient`]) and responds:
//!
//! * **transient faults on the logging path** (EIO/ENOSPC/short write/
//!   failed fsync) are retried up to [`DurabilityConfig::max_retries`]
//!   times with exponential backoff, each attempt from a clean rolled-
//!   back frame boundary;
//! * **persistent WAL failure** transitions the engine into degraded
//!   read-only mode ([`EngineMode::Degraded`]): writes are rejected
//!   with [`DurabilityError::Degraded`] carrying the exact
//!   `durable_lsn` watermark, while readers keep pinning the last
//!   published epoch and subscribers keep draining;
//! * **checkpoint-file failures** (view files, manifest, GC) never
//!   degrade: the WAL is intact and the previous checkpoint stands, so
//!   the attempt is deferred and retried later;
//! * [`DurableEngine::try_heal`] rolls the WAL over to a fresh segment,
//!   re-persisting the retained group-commit buffer — no acked update
//!   is lost — and returns the engine to active mode.
//!
//! The full state machine is documented in `docs/fault-injection.md`.

use crate::checkpoint::{self, Manifest};
use crate::vfs::{StdVfs, Vfs};
use crate::wal::{self, DeltaLog, SegmentInfo, WalRecord};
use crate::{DurabilityConfig, DurabilityError, Result};
use fivm_core::{Codec, Delta, FxHashMap, Relation, Ring};
use fivm_engine::snapshot::{EngineSnapshot, ServingStats, SnapshotPublisher, SnapshotReader};
use fivm_engine::subscribe::{Subscriber, SubscriptionHub};
use fivm_engine::IvmEngine;
use fivm_query::{NodeId, RelIndex};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What recovery found and did. The fault-injection harness compares
/// the recovered engine against a reference that applied exactly
/// `1..=last_lsn`.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// No checkpoint was used (fresh directory, or replay from LSN 0).
    pub cold_start: bool,
    /// Sequence number of the checkpoint restored from.
    pub checkpoint_seq: Option<u64>,
    /// LSN the restored checkpoint covered (0 if none).
    pub checkpoint_lsn: u64,
    /// Last update reflected in the recovered engine.
    pub last_lsn: u64,
    /// Updates replayed from the log tail.
    pub replayed_updates: u64,
    /// Torn-tail bytes discarded from the final segment.
    pub truncated_bytes: u64,
    /// Newest-first manifests that failed validation and were skipped.
    pub manifests_skipped: usize,
    /// Mid-log segments skipped because the next segment re-carried
    /// their records (overlap left by an interrupted heal rollover).
    pub segments_skipped: usize,
}

/// Whether the engine accepts writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Normal operation: writes logged and applied.
    Active,
    /// Persistent WAL failure: writes rejected, reads still served
    /// from the last published epoch. See [`DurableEngine::try_heal`].
    Degraded,
}

/// What a successful [`DurableEngine::try_heal`] did.
#[derive(Debug, Clone, Default)]
pub struct HealReport {
    /// `false` when the engine was already active (no-op heal).
    pub healed: bool,
    /// Sequence number of the fresh WAL segment.
    pub new_segment_seq: u64,
    /// Retained group-commit bytes re-persisted into it (the acked-
    /// but-undurable window that would otherwise have been lost).
    pub carried_bytes: u64,
    /// Whether the failed segment's suspect tail was truncated.
    pub old_tail_truncated: bool,
    /// Whether the post-heal checkpoint committed.
    pub checkpointed: bool,
    /// Why it didn't (heal still succeeded; the WAL is whole again).
    pub checkpoint_error: Option<String>,
}

/// Counters for the storage-failure machinery.
#[derive(Debug, Clone, Default)]
pub struct DurabilityStats {
    /// Transient-fault retries performed on the logging path.
    pub io_retries: u64,
    /// Successful heals (degraded → active transitions).
    pub heals: u64,
    /// Auto-checkpoints deferred because the file phase failed.
    pub deferred_checkpoints: u64,
    /// Rendering of the most recent checkpoint-phase failure.
    pub last_checkpoint_error: Option<String>,
}

struct DegradedState {
    cause: DurabilityError,
}

/// A write-ahead-logged, checkpointed IVM engine.
pub struct DurableEngine<R: Ring> {
    engine: IvmEngine<R>,
    dir: PathBuf,
    cfg: DurabilityConfig,
    vfs: Arc<dyn Vfs>,
    log: DeltaLog,
    /// Reused scratch for record encoding — the append path allocates
    /// nothing once this and the log's group-commit buffer are warm.
    payload_buf: Vec<u8>,
    /// Symbol-table prefix already durable (in the log or a snapshot).
    symbols_logged: usize,
    last_lsn: u64,
    /// Everything at or below this LSN survives a crash (fsynced log
    /// prefix or checkpoint) — the exact acknowledgement watermark of
    /// the configured [`crate::SyncPolicy`].
    durable_lsn: u64,
    last_ckpt_lsn: u64,
    next_ckpt_seq: u64,
    next_file_seq: u64,
    /// Per-node view-store version at the last checkpoint — unchanged
    /// versions let the next checkpoint skip re-snapshotting the view.
    view_versions: FxHashMap<usize, u64>,
    /// Per-node snapshot file currently on disk.
    view_files: FxHashMap<usize, u64>,
    /// Set on persistent WAL failure; cleared by a successful heal.
    degraded: Option<DegradedState>,
    /// Next LSN at which a deferred auto-checkpoint is reattempted.
    ckpt_retry_at: u64,
    stats: DurabilityStats,
    /// Serving layer: epoch publisher + subscription hub. Constructed
    /// *after* recovery completes, publishing the recovered state as
    /// epoch 0 — readers always pin a fully recovered, consistent
    /// image, never a mid-replay one.
    publisher: SnapshotPublisher<R>,
    hub: SubscriptionHub<R>,
}

impl<R: Ring + Codec> DurableEngine<R> {
    /// Start durability for `engine` in an empty (or nonexistent)
    /// directory: writes an initial checkpoint of the engine's current
    /// state (so a pre-`load`ed engine is captured too) and opens the
    /// first log segment.
    pub fn create(
        dir: impl AsRef<Path>,
        engine: IvmEngine<R>,
        cfg: DurabilityConfig,
    ) -> Result<Self> {
        Self::create_with_vfs(dir, engine, cfg, Arc::new(StdVfs))
    }

    /// [`DurableEngine::create`] through an explicit [`Vfs`].
    pub fn create_with_vfs(
        dir: impl AsRef<Path>,
        engine: IvmEngine<R>,
        cfg: DurabilityConfig,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self> {
        let dir = dir.as_ref();
        vfs.create_dir_all(dir)?;
        if !checkpoint::list_manifests_in(vfs.as_ref(), dir)?.is_empty()
            || !wal::list_segments_in(vfs.as_ref(), dir)?.is_empty()
        {
            return Err(DurabilityError::Mismatch(format!(
                "{} already holds durability state; use open() to recover",
                dir.display()
            )));
        }
        let last_lsn = engine.updates_applied();
        let log = DeltaLog::create(
            vfs.clone(),
            dir,
            0,
            last_lsn + 1,
            cfg.segment_bytes,
            cfg.flush_bytes,
            cfg.sync,
        )?;
        let publisher = SnapshotPublisher::new(&engine);
        let mut this = DurableEngine {
            engine,
            dir: dir.to_path_buf(),
            cfg,
            vfs,
            log,
            payload_buf: Vec::with_capacity(4096),
            symbols_logged: 0,
            last_lsn,
            durable_lsn: 0,
            last_ckpt_lsn: 0,
            next_ckpt_seq: 0,
            next_file_seq: 0,
            view_versions: FxHashMap::default(),
            view_files: FxHashMap::default(),
            degraded: None,
            ckpt_retry_at: 0,
            stats: DurabilityStats::default(),
            publisher,
            hub: SubscriptionHub::new(),
        };
        this.checkpoint()?;
        Ok(this)
    }

    /// Open a durability directory: recover from the newest valid
    /// checkpoint plus the log tail (truncating a torn final record),
    /// or behave like [`DurableEngine::create`] on an empty directory.
    /// `engine` must be freshly built for the same query (it is the
    /// recovery target); pre-applied updates would desync the LSN
    /// clock and are rejected.
    pub fn open(
        dir: impl AsRef<Path>,
        engine: IvmEngine<R>,
        cfg: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport)> {
        Self::open_with_vfs(dir, engine, cfg, Arc::new(StdVfs))
    }

    /// [`DurableEngine::open`] through an explicit [`Vfs`].
    pub fn open_with_vfs(
        dir: impl AsRef<Path>,
        engine: IvmEngine<R>,
        cfg: DurabilityConfig,
        vfs: Arc<dyn Vfs>,
    ) -> Result<(Self, RecoveryReport)> {
        let dir = dir.as_ref();
        vfs.create_dir_all(dir)?;
        let manifests = checkpoint::list_manifests_in(vfs.as_ref(), dir)?;
        let segments = wal::list_segments_in(vfs.as_ref(), dir)?;
        if manifests.is_empty() && segments.is_empty() {
            let this = Self::create_with_vfs(dir, engine, cfg, vfs)?;
            let report = RecoveryReport {
                cold_start: true,
                last_lsn: this.last_lsn,
                ..Default::default()
            };
            return Ok((this, report));
        }
        if engine.updates_applied() != 0 {
            return Err(DurabilityError::Mismatch(
                "recovery target engine has already applied updates".into(),
            ));
        }
        Self::recover(dir, engine, cfg, vfs, manifests, segments)
    }

    fn recover(
        dir: &Path,
        mut engine: IvmEngine<R>,
        cfg: DurabilityConfig,
        vfs: Arc<dyn Vfs>,
        manifests: Vec<checkpoint::ManifestInfo>,
        mut segments: Vec<SegmentInfo>,
    ) -> Result<(Self, RecoveryReport)> {
        let mut report = RecoveryReport::default();
        let fingerprint = engine.query().fingerprint();

        // Newest valid checkpoint: manifest must checksum, match the
        // engine's query, and have every referenced view file intact.
        type LoadedViews<R> = Vec<(usize, Relation<R>)>;
        let mut chosen: Option<(Manifest, LoadedViews<R>)> = None;
        for info in manifests.iter().rev() {
            let m = match checkpoint::read_manifest_in(vfs.as_ref(), &info.path) {
                Ok(m) => m,
                Err(_) => {
                    report.manifests_skipped += 1;
                    continue;
                }
            };
            if m.query_fingerprint != fingerprint {
                return Err(DurabilityError::Mismatch(format!(
                    "checkpoint {} was cut from a different query (fingerprint {:#x}, engine {:#x})",
                    info.seq, m.query_fingerprint, fingerprint
                )));
            }
            let mut snapshots = Vec::with_capacity(m.views.len());
            let mut ok = true;
            for &(node, file_seq) in &m.views {
                match checkpoint::read_view_file_in::<R>(vfs.as_ref(), dir, node, file_seq) {
                    Ok(rel) => snapshots.push((node, rel)),
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                chosen = Some((m, snapshots));
                break;
            }
            report.manifests_skipped += 1;
        }

        let (ckpt_lsn, view_files) = match &chosen {
            Some((m, snapshots)) => {
                report.checkpoint_seq = Some(m.seq);
                report.checkpoint_lsn = m.lsn;
                restore_symbols(&engine, &m.symbols)?;
                engine.restore_views(snapshots, m.lsn);
                (m.lsn, m.views.iter().copied().collect::<FxHashMap<_, _>>())
            }
            None => {
                // No usable checkpoint. A full replay is only sound if
                // the log still reaches back to the beginning.
                report.cold_start = true;
                if let Some(first) = segments.first() {
                    if first.first_lsn > 1 {
                        return Err(DurabilityError::Corrupt {
                            file: first.path.clone(),
                            detail: format!(
                                "no valid checkpoint and the log starts at LSN {} — \
                                 earlier segments were truncated",
                                first.first_lsn
                            ),
                        });
                    }
                }
                (0, FxHashMap::default())
            }
        };
        drop(chosen);

        // Replay the tail. Start at the last segment that begins at or
        // before the checkpoint boundary; older segments are fully
        // covered by the restored snapshot.
        let mut last_lsn = ckpt_lsn;
        let start = match segments.iter().rposition(|s| s.first_lsn <= ckpt_lsn + 1) {
            Some(i) => i,
            None if segments.is_empty() => 0,
            None => {
                return Err(DurabilityError::Corrupt {
                    file: segments[0].path.clone(),
                    detail: format!(
                        "log does not reach back to checkpoint LSN {ckpt_lsn} \
                         (oldest surviving segment starts at {})",
                        segments[0].first_lsn
                    ),
                });
            }
        };
        let schemas: Vec<fivm_core::Schema> = engine
            .query()
            .relations
            .iter()
            .map(|r| r.schema.clone())
            .collect();
        for (i, info) in segments.iter().enumerate().skip(start) {
            let is_last = i + 1 == segments.len();
            // Whether skipping the rest of this segment leaves no LSN
            // gap: the next segment re-carries the records (the
            // overlap an interrupted heal rollover leaves behind).
            let next_continues = |last: u64| !is_last && segments[i + 1].first_lsn <= last + 1;
            let (records, torn_at) = match wal::read_segment_in::<R>(vfs.as_ref(), info, &schemas) {
                Ok(r) => r,
                // A final segment too short or garbled to even carry
                // its header is a torn segment creation: drop it.
                Err(DurabilityError::Corrupt { .. }) if is_last => {
                    report.truncated_bytes += vfs.file_len(&info.path)?;
                    vfs.remove_file(&info.path)?;
                    segments.pop();
                    break;
                }
                // A garbled mid-log segment whose successor continues
                // seamlessly carries nothing replay needs: skip it.
                Err(DurabilityError::Corrupt { .. }) if next_continues(last_lsn) => {
                    report.segments_skipped += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            for rec in records {
                match rec {
                    WalRecord::Symbols { first_id, syms } => {
                        replay_symbols(&engine, first_id, &syms)?;
                    }
                    WalRecord::Update { lsn, rel, delta } => {
                        // `lsn <= last_lsn` covers both the checkpoint
                        // prefix and duplicate records in a heal-
                        // rollover overlap — replay is idempotent
                        // because the log is deterministic.
                        if lsn <= last_lsn {
                            continue;
                        }
                        if lsn != last_lsn + 1 {
                            return Err(DurabilityError::Corrupt {
                                file: info.path.clone(),
                                detail: format!(
                                    "LSN gap in replay: expected {}, found {lsn}",
                                    last_lsn + 1
                                ),
                            });
                        }
                        engine.apply(rel, &delta);
                        last_lsn = lsn;
                        report.replayed_updates += 1;
                    }
                }
            }
            if let Some(valid_len) = torn_at {
                if is_last {
                    let total = vfs.file_len(&info.path)?;
                    report.truncated_bytes += total - valid_len;
                    vfs.set_len(&info.path, valid_len)?;
                } else if next_continues(last_lsn) {
                    // The suspect tail of a healed-over segment: its
                    // records (if it held any) are re-carried by the
                    // next segment.
                    report.segments_skipped += 1;
                } else {
                    return Err(DurabilityError::Corrupt {
                        file: info.path.clone(),
                        detail: format!("invalid record at byte {valid_len} mid-log"),
                    });
                }
            }
        }
        report.last_lsn = last_lsn;
        debug_assert_eq!(engine.updates_applied(), last_lsn);

        // Continue appending into a fresh segment after the tail.
        let next_seq = segments.last().map_or(0, |s| s.seq + 1);
        let log = DeltaLog::create(
            vfs.clone(),
            dir,
            next_seq,
            last_lsn + 1,
            cfg.segment_bytes,
            cfg.flush_bytes,
            cfg.sync,
        )?;
        let next_ckpt_seq = manifests.last().map_or(0, |m| m.seq + 1);
        let next_file_seq = max_view_file_seq(vfs.as_ref(), dir)?.map_or(0, |s| s + 1);
        let symbols_logged = engine.query().catalog.symbols().len();
        let view_versions = engine
            .materialized_nodes()
            .into_iter()
            .filter_map(|n| engine.view_version(n).map(|v| (n, v)))
            .collect();
        // Recovery lands in a published epoch: readers pinning right
        // after `open` observe exactly the recovered prefix.
        let publisher = SnapshotPublisher::new(&engine);
        let mut this = DurableEngine {
            engine,
            dir: dir.to_path_buf(),
            cfg,
            vfs,
            log,
            payload_buf: Vec::with_capacity(4096),
            symbols_logged,
            last_lsn,
            // Everything recovered came off disk, so the full prefix is
            // durable again the moment `open` returns.
            durable_lsn: last_lsn,
            last_ckpt_lsn: ckpt_lsn,
            next_ckpt_seq,
            next_file_seq,
            view_versions,
            view_files,
            degraded: None,
            ckpt_retry_at: 0,
            stats: DurabilityStats::default(),
            publisher,
            hub: SubscriptionHub::new(),
        };
        if this.view_files.is_empty() {
            // Cold replay had no checkpoint to carry forward — cut one
            // now so the directory always holds a restorable snapshot.
            this.view_versions.clear();
            this.checkpoint()?;
        }
        Ok((this, report))
    }

    /// Log `delta`, then apply it to the engine. The record (and any
    /// newly interned symbols) is buffered; when it becomes *durable*
    /// (fsynced) is governed by [`crate::SyncPolicy`] — see
    /// [`Self::durable_lsn`] for the current watermark.
    ///
    /// # Post-error contract
    ///
    /// Transient storage faults are retried ([`DurabilityConfig::
    /// max_retries`]), each attempt from a rolled-back frame boundary.
    /// If logging ultimately fails, **nothing happened**: the delta was
    /// not applied, the log holds no partial record, and the engine is
    /// degraded — the returned [`DurabilityError::Degraded`] carries
    /// the exact watermark. A failure *after* the delta was applied
    /// (the sync-policy fsync at the acknowledgement boundary) returns
    /// `Ok` — the update is acked and retained in memory + buffer —
    /// but degrades the engine, so the *next* write is rejected and
    /// `durable_lsn` stops advancing until [`Self::try_heal`].
    pub fn apply(&mut self, rel: RelIndex, delta: &Delta<R>) -> Result<()> {
        self.ensure_active()?;
        let lsn = self.last_lsn + 1;
        let mut attempt = 0u32;
        loop {
            match self.try_log(lsn, rel, delta) {
                Ok(()) => break,
                Err(e) if e.is_transient() && attempt < self.cfg.max_retries => {
                    attempt += 1;
                    self.stats.io_retries += 1;
                    self.backoff(attempt);
                }
                Err(e) => return Err(self.enter_degraded(e)),
            }
        }
        self.engine.apply(rel, delta);
        self.last_lsn = lsn;
        debug_assert_eq!(self.engine.updates_applied(), lsn);
        // Acknowledgement boundary: the sync policy decides whether
        // this update's durability is sealed now.
        if self.log.note_update() {
            match self.sync_with_retry() {
                Ok(()) => self.durable_lsn = lsn,
                Err(e) => {
                    // The update is applied and acked; it lives in the
                    // retained buffer until a heal re-persists it.
                    self.enter_degraded(e);
                    return Ok(());
                }
            }
        }
        if self.cfg.checkpoint_every > 0
            && lsn - self.last_ckpt_lsn >= self.cfg.checkpoint_every
            && lsn >= self.ckpt_retry_at
        {
            match self.checkpoint_inner() {
                Ok(_) => {}
                // The WAL died inside the checkpoint: the engine is
                // degraded but this update is applied and acked.
                Err(_) if self.degraded.is_some() => {}
                Err(e) => {
                    // Checkpoint-file failure with an intact WAL:
                    // defer, don't fail an applied update. Retry after
                    // a fraction of the checkpoint interval.
                    self.stats.deferred_checkpoints += 1;
                    self.stats.last_checkpoint_error = Some(e.to_string());
                    self.ckpt_retry_at = lsn + (self.cfg.checkpoint_every / 4).max(1);
                }
            }
        }
        Ok(())
    }

    /// One logging attempt for update `lsn`, rolled back to the
    /// pre-attempt frame boundary on failure so the next attempt (or
    /// the rejection) leaves no torn or duplicated record.
    fn try_log(&mut self, lsn: u64, rel: RelIndex, delta: &Delta<R>) -> Result<()> {
        self.log.maybe_rotate(lsn)?;
        let mark = self.log.mark();
        let symbols_mark = self.symbols_logged;
        let r = (|| -> Result<()> {
            self.log_new_symbols()?;
            wal::encode_update_record(&mut self.payload_buf, lsn, rel, delta);
            self.log.append_update(&self.payload_buf, lsn)
        })();
        if r.is_err() {
            self.log.rollback_to(mark);
            self.symbols_logged = symbols_mark;
        }
        r
    }

    /// `log.sync()` with the transient-retry policy.
    fn sync_with_retry(&mut self) -> Result<()> {
        let mut attempt = 0u32;
        loop {
            match self.log.sync() {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt < self.cfg.max_retries => {
                    attempt += 1;
                    self.stats.io_retries += 1;
                    self.backoff(attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn backoff(&self, attempt: u32) {
        if self.cfg.retry_backoff.is_zero() {
            return;
        }
        let delay = self
            .cfg
            .retry_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
            .min(std::time::Duration::from_millis(100));
        std::thread::sleep(delay);
    }

    /// Cut a checkpoint: snapshot views dirtied since the last one,
    /// commit a manifest covering all of them, garbage-collect old
    /// checkpoints and truncate fully-covered log segments. Returns
    /// the checkpoint LSN.
    ///
    /// A WAL-sync failure inside the checkpoint degrades the engine
    /// (it is a log failure); a failure writing checkpoint files
    /// leaves the engine active — the WAL is intact and the previous
    /// checkpoint remains authoritative.
    pub fn checkpoint(&mut self) -> Result<u64> {
        self.ensure_active()?;
        self.checkpoint_inner()
    }

    fn checkpoint_inner(&mut self) -> Result<u64> {
        // WAL half first: any symbols not yet in the log go in, then
        // the log is fsynced — every retained checkpoint + surviving
        // tail must be self-sufficient even if this manifest is later
        // lost. Persistent failure here is a WAL failure.
        let mut attempt = 0u32;
        loop {
            match self.sync_wal() {
                Ok(()) => break,
                Err(e) if e.is_transient() && attempt < self.cfg.max_retries => {
                    attempt += 1;
                    self.stats.io_retries += 1;
                    self.backoff(attempt);
                }
                Err(e) => return Err(self.enter_degraded(e)),
            }
        }
        self.durable_lsn = self.last_lsn;
        // File half: view snapshots, manifest, GC. Failures leave the
        // engine active (callers defer/retry).
        for node in self.engine.materialized_nodes() {
            // A node without a stored view has nothing to snapshot.
            let Some(ver) = self.engine.view_version(node) else {
                continue;
            };
            if self.view_versions.get(&node) == Some(&ver) && self.view_files.contains_key(&node) {
                continue;
            }
            let Some(view) = self.engine.view_store(node) else {
                continue;
            };
            let file_seq = self.next_file_seq;
            self.next_file_seq += 1;
            checkpoint::write_view_file_in(self.vfs.as_ref(), &self.dir, node, file_seq, view)?;
            self.view_files.insert(node, file_seq);
            self.view_versions.insert(node, ver);
        }
        let symbols = self.symbol_snapshot()?;
        let mut views: Vec<(usize, u64)> = self.view_files.iter().map(|(&n, &f)| (n, f)).collect();
        views.sort_unstable();
        let manifest = Manifest {
            seq: self.next_ckpt_seq,
            lsn: self.last_lsn,
            query_fingerprint: self.engine.query().fingerprint(),
            symbols,
            views,
        };
        checkpoint::write_manifest_in(self.vfs.as_ref(), &self.dir, &manifest)?;
        self.next_ckpt_seq += 1;
        self.last_ckpt_lsn = self.last_lsn;
        self.ckpt_retry_at = 0;
        if let Some(cutoff) =
            checkpoint::gc_in(self.vfs.as_ref(), &self.dir, self.cfg.retained_checkpoints)?
        {
            self.log.truncate_covered(cutoff)?;
        }
        Ok(self.last_lsn)
    }

    /// Append any unlogged symbols and fsync the log, rolled back on
    /// failure so a retry re-appends from a clean boundary.
    fn sync_wal(&mut self) -> Result<()> {
        let mark = self.log.mark();
        let symbols_mark = self.symbols_logged;
        let r = (|| -> Result<()> {
            self.log_new_symbols()?;
            self.log.sync()
        })();
        if r.is_err() {
            self.log.rollback_to(mark);
            self.symbols_logged = symbols_mark;
        }
        r
    }

    /// Flush the group-commit buffer and fsync the current segment.
    /// Afterwards every applied update is durable.
    pub fn sync_all(&mut self) -> Result<()> {
        self.ensure_active()?;
        match self.sync_with_retry() {
            Ok(()) => {
                self.durable_lsn = self.last_lsn;
                Ok(())
            }
            Err(e) => Err(self.enter_degraded(e)),
        }
    }

    /// Current mode: [`EngineMode::Degraded`] after a persistent WAL
    /// failure, until a successful [`Self::try_heal`].
    pub fn mode(&self) -> EngineMode {
        if self.degraded.is_some() {
            EngineMode::Degraded
        } else {
            EngineMode::Active
        }
    }

    /// Whether the engine is in degraded read-only mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// The storage error that drove the engine read-only, if degraded.
    pub fn degraded_cause(&self) -> Option<&DurabilityError> {
        self.degraded.as_ref().map(|s| &s.cause)
    }

    /// Storage-failure counters.
    pub fn stats(&self) -> DurabilityStats {
        self.stats.clone()
    }

    /// Attempt to leave degraded mode: roll the WAL over to a fresh
    /// segment (named past everything on disk), re-persisting the
    /// retained group-commit buffer so **no acked update is lost**,
    /// fsync it, and resume logging. On success the engine is active
    /// again with `durable_lsn == last_lsn`, and a checkpoint is
    /// attempted opportunistically (its failure is reported in the
    /// [`HealReport`] but does not un-heal — the WAL is whole).
    ///
    /// On failure the engine stays degraded and `try_heal` can simply
    /// be called again (each attempt allocates a fresh segment name;
    /// leftovers from failed attempts are deleted best-effort and
    /// tolerated by replay). Calling on an active engine is a no-op.
    pub fn try_heal(&mut self) -> Result<HealReport> {
        if self.degraded.is_none() {
            return Ok(HealReport::default());
        }
        let roll = self.log.roll_over()?;
        // Every acked update is back on fsynced disk.
        self.durable_lsn = self.last_lsn;
        self.degraded = None;
        self.stats.heals += 1;
        let mut report = HealReport {
            healed: true,
            new_segment_seq: roll.new_seq,
            carried_bytes: roll.carried_bytes,
            old_tail_truncated: roll.old_tail_truncated,
            checkpointed: false,
            checkpoint_error: None,
        };
        match self.checkpoint_inner() {
            Ok(_) => report.checkpointed = true,
            Err(e) => {
                if self.degraded.is_some() {
                    // The fresh segment failed its first sync: the
                    // heal did not hold.
                    return Err(self.degraded_error());
                }
                report.checkpoint_error = Some(e.to_string());
            }
        }
        Ok(report)
    }

    /// The wrapped engine. Mutating access is deliberately absent:
    /// updates applied behind the log's back would be lost on recovery.
    pub fn engine(&self) -> &IvmEngine<R> {
        &self.engine
    }

    /// LSN of the last applied update.
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn
    }

    /// LSN covered by the most recent checkpoint.
    pub fn last_checkpoint_lsn(&self) -> u64 {
        self.last_ckpt_lsn
    }

    /// Highest LSN guaranteed to survive a crash right now: the prefix
    /// `1..=durable_lsn` is in fsynced log segments or a committed
    /// checkpoint. Updates in `durable_lsn+1..=last_lsn` are applied
    /// and acknowledged but could be lost to power failure, per the
    /// configured [`crate::SyncPolicy`].
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn
    }

    /// `(segment seq, synced byte length)` of the current WAL segment —
    /// the exact on-disk extent an fsync has pinned. Crash harnesses
    /// truncate the segment to this length to simulate losing the
    /// OS-buffered tail.
    pub fn wal_durable_span(&self) -> (u64, u64) {
        self.log.durable_span()
    }

    /// A handle for concurrent lock-free reads of published snapshots
    /// (works in degraded mode — readers keep pinning the last
    /// published epoch). See [`fivm_engine::snapshot`] for the epoch
    /// protocol.
    pub fn reader(&self) -> SnapshotReader<R> {
        self.publisher.reader()
    }

    /// Subscribe to per-epoch output deltas of materialized view
    /// `node`. Returns `None` if the node is not materialized. Deltas
    /// are delivered on [`Self::publish`].
    pub fn subscribe(&mut self, node: NodeId) -> Option<Subscriber<R>> {
        if !self.engine.set_change_capture(node, true) {
            return None;
        }
        Some(self.hub.subscribe(node))
    }

    /// [`Self::subscribe`] with a per-subscriber queue bound: once more
    /// than `bound` deltas are queued, the oldest are dropped and
    /// replaced by a `Lagged` marker (see
    /// [`fivm_engine::subscribe::SubMessage`]).
    pub fn subscribe_bounded(&mut self, node: NodeId, bound: usize) -> Option<Subscriber<R>> {
        if !self.engine.set_change_capture(node, true) {
            return None;
        }
        Some(self.hub.subscribe_bounded(node, bound))
    }

    /// Publish the engine's current state as a new epoch (visible to
    /// all [`Self::reader`] handles) and deliver accumulated view
    /// deltas to subscribers. Works in degraded mode: applied-but-
    /// undurable updates stay servable while writes are rejected.
    pub fn publish(&mut self) -> Arc<EngineSnapshot<R>> {
        let snap = self.publisher.publish(&self.engine);
        self.hub.deliver(snap.epoch(), snap.lsn(), &mut self.engine);
        snap
    }

    /// Live-epoch / pin-age observability of the serving layer.
    pub fn serving_stats(&self) -> ServingStats {
        self.publisher.stats()
    }

    fn ensure_active(&self) -> Result<()> {
        if self.degraded.is_some() {
            Err(self.degraded_error())
        } else {
            Ok(())
        }
    }

    fn degraded_error(&self) -> DurabilityError {
        DurabilityError::Degraded {
            cause: self
                .degraded
                .as_ref()
                .map_or_else(String::new, |s| s.cause.to_string()),
            durable_lsn: self.durable_lsn,
            last_lsn: self.last_lsn,
        }
    }

    /// Record the cause, flip to degraded (first cause wins), and
    /// build the typed rejection error.
    fn enter_degraded(&mut self, cause: DurabilityError) -> DurabilityError {
        if self.degraded.is_none() {
            self.degraded = Some(DegradedState { cause });
        }
        self.degraded_error()
    }

    /// Log any symbols interned since the last record. No-op (and
    /// allocation-free) when the table hasn't grown.
    fn log_new_symbols(&mut self) -> Result<()> {
        let table = self.engine.query().catalog.symbols();
        let len = table.len();
        if len == self.symbols_logged {
            return Ok(());
        }
        let first_id = self.symbols_logged as u32;
        let syms: Vec<&str> = (self.symbols_logged..len)
            .map(|id| {
                table.resolve(id as u32).ok_or_else(|| {
                    DurabilityError::Mismatch(format!("symbol id {id} missing from a dense table"))
                })
            })
            .collect::<Result<_>>()?;
        wal::encode_symbols_record(&mut self.payload_buf, first_id, &syms);
        drop(syms);
        self.log.append(&self.payload_buf)?;
        self.symbols_logged = len;
        Ok(())
    }

    fn symbol_snapshot(&self) -> Result<Vec<String>> {
        let table = self.engine.query().catalog.symbols();
        (0..table.len())
            .map(|id| {
                table.resolve(id as u32).map(str::to_string).ok_or_else(|| {
                    DurabilityError::Mismatch(format!("symbol id {id} missing from a dense table"))
                })
            })
            .collect()
    }
}

/// Re-intern a full symbol-table snapshot into the engine's catalog,
/// verifying that ids come out identical (dense tables reproduce ids
/// by interning in id order).
fn restore_symbols<R: Ring>(engine: &IvmEngine<R>, symbols: &[String]) -> Result<()> {
    let table = engine.query().catalog.symbols();
    for (id, s) in symbols.iter().enumerate() {
        replay_symbol(table, id as u32, s)?;
    }
    Ok(())
}

/// Replay one symbols log record (idempotent against the snapshot).
fn replay_symbols<R: Ring>(engine: &IvmEngine<R>, first_id: u32, syms: &[String]) -> Result<()> {
    let table = engine.query().catalog.symbols();
    for (i, s) in syms.iter().enumerate() {
        replay_symbol(table, first_id + i as u32, s)?;
    }
    Ok(())
}

fn replay_symbol(table: &fivm_core::SymbolTable, expect: u32, s: &str) -> Result<()> {
    let len = table.len() as u32;
    if expect < len {
        if table.resolve(expect) != Some(s) {
            return Err(DurabilityError::Mismatch(format!(
                "symbol id {expect} is {:?} in the engine but {s:?} on disk",
                table.resolve(expect)
            )));
        }
        return Ok(());
    }
    if expect > len {
        return Err(DurabilityError::Mismatch(format!(
            "symbol record skips ids {len}..{expect} — log tail is incomplete"
        )));
    }
    let got = table.intern(s);
    debug_assert_eq!(got, expect);
    Ok(())
}

/// Highest `view-<node>-<seq>.vw` sequence present in `dir` (including
/// strays from aborted checkpoints — their names must not be reused).
fn max_view_file_seq(vfs: &dyn Vfs, dir: &Path) -> Result<Option<u64>> {
    let mut max = None;
    for path in vfs.read_dir(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name
            .strip_prefix("view-")
            .and_then(|s| s.strip_suffix(".vw"))
        else {
            continue;
        };
        if let Some((_, seq_s)) = stem.rsplit_once('-') {
            if let Ok(seq) = seq_s.parse::<u64>() {
                max = Some(max.map_or(seq, |m: u64| m.max(seq)));
            }
        }
    }
    Ok(max)
}
