//! Incremental checkpoints: per-view snapshot files plus a manifest.
//!
//! A checkpoint `s` consists of:
//!
//! * view files `view-<node>-<fileseq>.vw`, one per materialized view
//!   — but only views *dirtied since the previous checkpoint* get new
//!   files; clean views are carried forward by referencing the file
//!   the previous manifest already pointed at (view files are
//!   immutable once written — a fresh `fileseq` is allocated for every
//!   write, never reused);
//! * a manifest `ckpt-<s>.man` naming the checkpoint LSN, the query
//!   fingerprint, a full symbol-table snapshot, and the
//!   `(node, fileseq)` pair for **every** materialized view.
//!
//! Commit protocol: view files are written and fsynced first, then the
//! manifest is written to a temp name, fsynced, and renamed into
//! place. A crash (or injected fault — every operation here goes
//! through the [`crate::vfs::Vfs`] seam) mid-checkpoint therefore
//! leaves either no new manifest (stray view files are
//! garbage-collected later) or a complete one. Recovery validates a
//! manifest by checksum *and* by opening every view file it
//! references, falling back to the previous manifest on any failure.

use crate::crc::crc32;
use crate::vfs::{write_all_at, StdVfs, Vfs};
use crate::wal::{self, FRAME_HEADER_LEN};
use crate::{DurabilityError, Result};
use fivm_core::codec::put_count;
use fivm_core::{Codec, Relation, Ring, Semiring};
use fivm_engine::ViewStore;
use std::path::{Path, PathBuf};

/// Magic prefix of manifest files.
pub const MANIFEST_MAGIC: &[u8; 8] = b"FIVMCKP1";
/// Magic prefix of view snapshot files.
pub const VIEW_MAGIC: &[u8; 8] = b"FIVMVIW1";

/// A decoded checkpoint manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub seq: u64,
    /// All updates with LSN ≤ this are reflected in the view files.
    pub lsn: u64,
    /// [`fivm_query::QueryDef::fingerprint`] of the engine that cut it.
    pub query_fingerprint: u64,
    /// Full symbol table at `lsn`, in intern-id order.
    pub symbols: Vec<String>,
    /// `(node id, view file seq)` for every materialized view.
    pub views: Vec<(usize, u64)>,
}

/// A manifest file discovered on disk (not yet validated).
#[derive(Debug, Clone)]
pub struct ManifestInfo {
    pub path: PathBuf,
    pub seq: u64,
}

/// List manifests of `dir`, sorted by sequence number (oldest first).
pub fn list_manifests(dir: &Path) -> Result<Vec<ManifestInfo>> {
    list_manifests_in(&StdVfs, dir)
}

/// [`list_manifests`] through an explicit [`Vfs`].
pub fn list_manifests_in(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<ManifestInfo>> {
    let mut out = Vec::new();
    for path in vfs.read_dir(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".man"))
        else {
            continue;
        };
        if let Ok(seq) = stem.parse() {
            out.push(ManifestInfo { path, seq });
        }
    }
    out.sort_by_key(|m| m.seq);
    Ok(out)
}

pub fn manifest_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("ckpt-{seq:06}.man"))
}

pub fn view_file_path(dir: &Path, node: usize, file_seq: u64) -> PathBuf {
    dir.join(format!("view-{node:04}-{file_seq:06}.vw"))
}

/// Read a magic-prefixed single-frame file, validating the checksum.
fn read_framed(vfs: &dyn Vfs, path: &Path, magic: &[u8; 8]) -> Result<Vec<u8>> {
    let bytes = vfs.read(path)?;
    let corrupt = |detail: &str| DurabilityError::Corrupt {
        file: path.to_path_buf(),
        detail: detail.into(),
    };
    if bytes.len() < 8 + FRAME_HEADER_LEN as usize || &bytes[0..8] != magic {
        return Err(corrupt("bad magic or truncated header"));
    }
    let len = wal::le_u32(&bytes, 8).ok_or_else(|| corrupt("truncated frame header"))? as usize;
    let crc = wal::le_u32(&bytes, 12).ok_or_else(|| corrupt("truncated frame header"))?;
    let payload = bytes
        .get(16..16 + len)
        .ok_or_else(|| corrupt("payload shorter than frame length"))?;
    if crc32(payload) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(payload.to_vec())
}

/// Write a magic-prefixed single-frame file at `path` and fsync it.
/// `payload` appends the frame's payload behind a reserved header,
/// whose length and checksum are patched in afterwards, so the payload
/// is encoded once, in place.
fn write_framed(
    vfs: &dyn Vfs,
    path: &Path,
    magic: &[u8; 8],
    payload: impl FnOnce(&mut Vec<u8>),
) -> Result<()> {
    let mut file = vfs.create(path)?;
    let header = magic.len() + FRAME_HEADER_LEN as usize;
    let mut bytes = vec![0; header];
    bytes[..magic.len()].copy_from_slice(magic);
    payload(&mut bytes);
    let len = (bytes.len() - header) as u32;
    let crc = crc32(&bytes[header..]);
    bytes[8..12].copy_from_slice(&len.to_le_bytes());
    bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    write_all_at(file.as_mut(), 0, &bytes)?;
    file.sync_all()?;
    Ok(())
}

/// Read and validate a manifest file.
pub fn read_manifest(path: &Path) -> Result<Manifest> {
    read_manifest_in(&StdVfs, path)
}

/// [`read_manifest`] through an explicit [`Vfs`].
pub fn read_manifest_in(vfs: &dyn Vfs, path: &Path) -> Result<Manifest> {
    let payload = read_framed(vfs, path, MANIFEST_MAGIC)?;
    let input = &mut payload.as_slice();
    let seq = fivm_core::codec::take_u64(input)?;
    let lsn = fivm_core::codec::take_u64(input)?;
    let query_fingerprint = fivm_core::codec::take_u64(input)?;
    let n_syms = fivm_core::codec::take_count(input, "manifest symbols", 4)?;
    let mut symbols = Vec::with_capacity(n_syms);
    for _ in 0..n_syms {
        symbols.push(String::decode(input)?);
    }
    let n_views = fivm_core::codec::take_count(input, "manifest views", 12)?;
    let mut views = Vec::with_capacity(n_views);
    for _ in 0..n_views {
        let node = fivm_core::codec::take_u32(input)? as usize;
        let file_seq = fivm_core::codec::take_u64(input)?;
        views.push((node, file_seq));
    }
    Ok(Manifest {
        seq,
        lsn,
        query_fingerprint,
        symbols,
        views,
    })
}

/// Write a manifest via the temp-then-rename commit protocol.
pub fn write_manifest(dir: &Path, m: &Manifest) -> Result<()> {
    write_manifest_in(&StdVfs, dir, m)
}

/// [`write_manifest`] through an explicit [`Vfs`].
pub fn write_manifest_in(vfs: &dyn Vfs, dir: &Path, m: &Manifest) -> Result<()> {
    let tmp = dir.join(format!("ckpt-{:06}.tmp", m.seq));
    write_framed(vfs, &tmp, MANIFEST_MAGIC, |payload| {
        payload.extend_from_slice(&m.seq.to_le_bytes());
        payload.extend_from_slice(&m.lsn.to_le_bytes());
        payload.extend_from_slice(&m.query_fingerprint.to_le_bytes());
        payload.extend_from_slice(&(m.symbols.len() as u32).to_le_bytes());
        for s in &m.symbols {
            s.encode(payload);
        }
        payload.extend_from_slice(&(m.views.len() as u32).to_le_bytes());
        for &(node, file_seq) in &m.views {
            payload.extend_from_slice(&(node as u32).to_le_bytes());
            payload.extend_from_slice(&file_seq.to_le_bytes());
        }
    })?;
    vfs.rename(&tmp, &manifest_path(dir, m.seq))?;
    Ok(())
}

/// Write one view snapshot file (fsynced).
pub fn write_view_file<R: Ring + Codec>(
    dir: &Path,
    node: usize,
    file_seq: u64,
    view: &ViewStore<R>,
) -> Result<()> {
    write_view_file_in(&StdVfs, dir, node, file_seq, view)
}

/// [`write_view_file`] through an explicit [`Vfs`]. The store's
/// entries are encoded in arena order straight into the frame: the
/// bytes of [`Relation::encode`] over [`ViewStore::to_relation`],
/// without building that relation.
pub fn write_view_file_in<R: Ring + Codec>(
    vfs: &dyn Vfs,
    dir: &Path,
    node: usize,
    file_seq: u64,
    view: &ViewStore<R>,
) -> Result<()> {
    let path = view_file_path(dir, node, file_seq);
    write_framed(vfs, &path, VIEW_MAGIC, |out| {
        out.extend_from_slice(&(node as u32).to_le_bytes());
        view.schema().encode(out);
        put_count(out, view.len());
        for (t, p) in view.iter() {
            t.encode(out);
            p.encode(out);
        }
    })
}

/// Read and validate one view snapshot file.
pub fn read_view_file<R: Semiring + Codec>(
    dir: &Path,
    node: usize,
    file_seq: u64,
) -> Result<Relation<R>> {
    read_view_file_in(&StdVfs, dir, node, file_seq)
}

/// [`read_view_file`] through an explicit [`Vfs`].
pub fn read_view_file_in<R: Semiring + Codec>(
    vfs: &dyn Vfs,
    dir: &Path,
    node: usize,
    file_seq: u64,
) -> Result<Relation<R>> {
    let path = view_file_path(dir, node, file_seq);
    let payload = read_framed(vfs, &path, VIEW_MAGIC)?;
    let input = &mut payload.as_slice();
    let stored_node = fivm_core::codec::take_u32(input)? as usize;
    if stored_node != node {
        return Err(DurabilityError::Corrupt {
            file: path,
            detail: format!("view file claims node {stored_node}, expected {node}"),
        });
    }
    Ok(Relation::decode(input)?)
}

/// Garbage-collect checkpoints: keep the newest `retained` manifests
/// that are actually *restorable* (manifest checksums and every view
/// file it references exists), delete everything older or unrestorable,
/// plus any view file no kept manifest references (including stray
/// files from checkpoints that never committed). Returns the LSN of
/// the **oldest kept** manifest — the safe WAL truncation cutoff: even
/// if the newest checkpoint is later lost, recovery can still start
/// from the oldest kept one plus the surviving log tail.
///
/// Unrestorable manifests do not count toward `retained` and never
/// anchor the cutoff: a corrupt retained manifest would otherwise hold
/// the truncation watermark at an LSN recovery can't actually reach
/// (or, worse, let the WAL be truncated past the newest manifest that
/// *does* restore).
pub fn gc(dir: &Path, retained: usize) -> Result<Option<u64>> {
    gc_in(&StdVfs, dir, retained)
}

/// [`gc`] through an explicit [`Vfs`].
pub fn gc_in(vfs: &dyn Vfs, dir: &Path, retained: usize) -> Result<Option<u64>> {
    let manifests = list_manifests_in(vfs, dir)?;
    if manifests.is_empty() {
        return Ok(None);
    }
    // Walk newest → oldest, keeping up to `retained` restorable
    // manifests; everything else (older, corrupt, or missing a view
    // file) is deleted.
    let retained = retained.max(1);
    let mut kept: Vec<(&ManifestInfo, Manifest)> = Vec::with_capacity(retained);
    let mut doomed: Vec<&ManifestInfo> = Vec::new();
    for info in manifests.iter().rev() {
        if kept.len() >= retained {
            doomed.push(info);
            continue;
        }
        let restorable = read_manifest_in(vfs, &info.path).ok().filter(|m| {
            m.views
                .iter()
                .all(|&(node, file_seq)| vfs.is_file(&view_file_path(dir, node, file_seq)))
        });
        match restorable {
            Some(m) => kept.push((info, m)),
            None => doomed.push(info),
        }
    }
    let mut referenced: Vec<PathBuf> = Vec::new();
    for (_, m) in &kept {
        for &(node, file_seq) in &m.views {
            referenced.push(view_file_path(dir, node, file_seq));
        }
    }
    for info in doomed {
        vfs.remove_file(&info.path)?;
    }
    for path in vfs.read_dir(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let is_view = name.starts_with("view-") && name.ends_with(".vw");
        let is_stale_tmp = name.starts_with("ckpt-") && name.ends_with(".tmp");
        if (is_view && !referenced.contains(&path)) || is_stale_tmp {
            vfs.remove_file(&path)?;
        }
    }
    // `kept` is newest-first; the cutoff is the oldest kept manifest.
    Ok(kept.last().map(|(_, m)| m.lsn))
}
