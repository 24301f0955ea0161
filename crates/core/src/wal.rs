//! Crash-recoverable scheduler state: a write-ahead journal with
//! periodic snapshots and bounded replay.
//!
//! Every mutation a [`SchedulerSession`](crate::SchedulerSession)
//! funnels through its wrappers is recorded as one logical operation
//! carrying the exact primitive *effects* it applied to the
//! [`CapacityState`] — node reservations, flow reservations, their
//! releases, quarantines, and reconciliation resyncs. Replay applies
//! the effects in journal order to a fresh (or snapshotted) state, so
//! a recovered session's books are bit-identical to the books the
//! live session held at the moment of its last durable append.
//!
//! # On-disk format
//!
//! The journal (`wal.log`) starts with a 24-byte header:
//!
//! ```text
//! magic "OSTROWAL" (8) | version u32 LE | host_count u32 LE | base_seq u64 LE
//! ```
//!
//! followed by length-prefixed, CRC-checksummed records:
//!
//! ```text
//! len u32 LE | crc32(payload) u32 LE | payload
//! payload = seq u64 LE | op u8 | effect_count u32 LE | effects...
//! ```
//!
//! Sequence numbers are contiguous from `base_seq + 1`. A torn tail —
//! a record cut short or failing its checksum — is tolerated: replay
//! stops at the last good record, [`Recovery::truncated_tail`] is set,
//! and [`Wal::open`] truncates the file there before appending. Any
//! corruption *behind* a valid checksum (bad opcode, out-of-range
//! host, sequence gap) is not a torn write and surfaces as a typed
//! [`WalError`] instead.
//!
//! # Snapshots and compaction
//!
//! Every [`WalOptions::snapshot_every`] appends (or on an explicit
//! [`SchedulerSession::checkpoint`](crate::SchedulerSession::checkpoint)),
//! the full `CapacityState` plus the quarantine set is serialized to
//! `snapshot.json` (written to a temp file, fsynced, then renamed,
//! with the directory fsynced so the rename is durable), after which
//! the journal is truncated to a fresh header whose `base_seq` is the
//! snapshot's sequence number. Replay time is therefore bounded by the
//! snapshot cadence, not the session's age.
//!
//! A crash *between* the rename and the truncation leaves a snapshot
//! at sequence `N` over a journal still based at `M < N`. Recovery
//! tolerates that window: journal records at or below the snapshot's
//! sequence are validated for contiguity and decodability but not
//! re-applied (they are already folded into the snapshot), and
//! [`Wal::open`] completes the interrupted compaction by re-truncating
//! the journal behind the snapshot. Only a journal based *ahead* of
//! the snapshot — history the snapshot never covered is gone — is a
//! hard [`WalError::Corrupt`].
//!
//! # Fsync policy
//!
//! [`SyncPolicy::OnSnapshot`] (the default) flushes every append to
//! the OS and fsyncs only at snapshots and on explicit
//! [`Wal::sync`]; [`SyncPolicy::Always`] fsyncs every append.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use ostro_datacenter::{CapacityError, CapacityState, HostId, Infrastructure};
use ostro_model::{ApplicationTopology, Bandwidth, Resources};

use crate::placement::Placement;

/// Journal file name inside a WAL directory.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside a WAL directory.
pub const SNAPSHOT_FILE: &str = "snapshot.json";
const SNAPSHOT_TMP: &str = "snapshot.json.tmp";

const MAGIC: &[u8; 8] = b"OSTROWAL";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 24;
/// Upper bound on a single record's payload; anything larger in the
/// length prefix is treated as tail corruption rather than allocated.
const MAX_PAYLOAD: u32 = 1 << 26;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — hand-rolled so the journal has no
// dependency beyond std.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 (IEEE) of `data` — the checksum guarding every record payload.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failures of the durability layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum WalError {
    /// An I/O operation on a journal or snapshot file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The journal is corrupt beyond a torn tail: a bad header, an
    /// undecodable checksummed payload, or a sequence gap.
    Corrupt {
        /// The journal file.
        path: PathBuf,
        /// Byte offset of the corruption.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
    /// The snapshot file exists but cannot be parsed or is internally
    /// inconsistent.
    Snapshot {
        /// The snapshot file.
        path: PathBuf,
        /// What was wrong.
        reason: String,
    },
    /// The journal or snapshot was written for a different
    /// infrastructure (host counts disagree).
    HostCountMismatch {
        /// Hosts in the infrastructure being recovered onto.
        expected: usize,
        /// Hosts the durable state was written for.
        found: usize,
    },
    /// A checksummed record failed to apply during replay — the
    /// journal does not describe a reachable state of this
    /// infrastructure.
    Replay {
        /// Sequence number of the failing record.
        seq: u64,
        /// The capacity-level failure.
        source: CapacityError,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { path, source } => {
                write!(f, "wal i/o error on {}: {source}", path.display())
            }
            WalError::Corrupt { path, offset, reason } => {
                write!(f, "corrupt journal {} at byte {offset}: {reason}", path.display())
            }
            WalError::Snapshot { path, reason } => {
                write!(f, "corrupt snapshot {}: {reason}", path.display())
            }
            WalError::HostCountMismatch { expected, found } => write!(
                f,
                "durable state covers {found} hosts but the infrastructure has {expected}"
            ),
            WalError::Replay { seq, source } => {
                write!(f, "replay failed at record {seq}: {source}")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io { source, .. } => Some(source),
            WalError::Replay { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path, source: io::Error) -> WalError {
    WalError::Io { path: path.to_path_buf(), source }
}

/// Fsyncs a directory so renames and file creations inside it are
/// durable — without this a machine crash can surface the journal
/// truncation while the snapshot rename it depends on is lost.
fn sync_dir(dir: &Path) -> Result<(), WalError> {
    let handle = File::open(dir).map_err(|e| io_err(dir, e))?;
    handle.sync_all().map_err(|e| io_err(dir, e))
}

// ---------------------------------------------------------------------------
// Operations and effects
// ---------------------------------------------------------------------------

/// The logical session operation a journal record belongs to.
///
/// Provenance only — replay is driven entirely by the record's
/// [`Effect`] list, so every op kind replays the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalOp {
    /// [`SchedulerSession::commit`](crate::SchedulerSession::commit).
    Commit,
    /// [`SchedulerSession::release`](crate::SchedulerSession::release).
    Release,
    /// [`SchedulerSession::release_partial`](crate::SchedulerSession::release_partial).
    ReleasePartial,
    /// The net reservations of a successful
    /// [`SchedulerSession::deploy`](crate::SchedulerSession::deploy).
    Deploy,
    /// Reserved for a composite evacuation record. Evacuations journal
    /// as their constituent `ReleasePartial` + `Quarantine` records,
    /// so this op is never emitted by the session itself.
    Evacuate,
    /// [`SchedulerSession::quarantine_host`](crate::SchedulerSession::quarantine_host).
    Quarantine,
    /// A raw [`SchedulerSession::reserve_node`](crate::SchedulerSession::reserve_node).
    ReserveNode,
    /// A raw [`SchedulerSession::release_node`](crate::SchedulerSession::release_node).
    ReleaseNode,
    /// An anti-entropy correction journaled by
    /// [`SchedulerSession::reconcile`](crate::SchedulerSession::reconcile).
    Reconcile,
    /// One atomic tenant migration journaled by
    /// [`SchedulerSession::migrate`](crate::SchedulerSession::migrate):
    /// the release of the old placement followed by the commit of the
    /// new one in a single record, so a crash can never observe a
    /// half-moved tenant.
    Migrate,
}

impl WalOp {
    fn as_u8(self) -> u8 {
        match self {
            WalOp::Commit => 0,
            WalOp::Release => 1,
            WalOp::ReleasePartial => 2,
            WalOp::Deploy => 3,
            WalOp::Evacuate => 4,
            WalOp::Quarantine => 5,
            WalOp::ReserveNode => 6,
            WalOp::ReleaseNode => 7,
            WalOp::Reconcile => 8,
            WalOp::Migrate => 9,
        }
    }

    fn from_u8(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => WalOp::Commit,
            1 => WalOp::Release,
            2 => WalOp::ReleasePartial,
            3 => WalOp::Deploy,
            4 => WalOp::Evacuate,
            5 => WalOp::Quarantine,
            6 => WalOp::ReserveNode,
            7 => WalOp::ReleaseNode,
            8 => WalOp::Reconcile,
            9 => WalOp::Migrate,
            _ => return None,
        })
    }
}

/// One primitive state mutation, the unit of replay. A journal record
/// is a sequence of effects applied atomically-in-order; replaying the
/// whole journal reproduces the live state bit-for-bit because these
/// are exactly the mutations [`CapacityState`] exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// `state.reserve_node(host, resources)`.
    ReserveNode {
        /// Target host.
        host: HostId,
        /// Node footprint.
        resources: Resources,
    },
    /// `state.release_node(infra, host, resources)`.
    ReleaseNode {
        /// Target host.
        host: HostId,
        /// Node footprint.
        resources: Resources,
    },
    /// `state.reserve_flow(infra, a, b, mbps)` along the `a`→`b` route.
    ReserveFlow {
        /// One endpoint host.
        a: HostId,
        /// The other endpoint host.
        b: HostId,
        /// Link demand in Mbps.
        mbps: u64,
    },
    /// `state.release_flow(infra, a, b, mbps)`.
    ReleaseFlow {
        /// One endpoint host.
        a: HostId,
        /// The other endpoint host.
        b: HostId,
        /// Link demand in Mbps.
        mbps: u64,
    },
    /// `state.quarantine_host(host)` — also marks the host in the
    /// recovered quarantine set.
    Quarantine {
        /// The host frozen out of future placements.
        host: HostId,
    },
    /// `state.resync_host(infra, host, used, instances)` — an
    /// anti-entropy correction forcing the books to ground truth.
    Resync {
        /// The corrected host.
        host: HostId,
        /// Ground-truth used footprint.
        used: Resources,
        /// Ground-truth instance count.
        instances: u32,
    },
}

const MAX_EFFECT_LEN: usize = 25;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn encode_effect(buf: &mut Vec<u8>, effect: &Effect) {
    match *effect {
        Effect::ReserveNode { host, resources } | Effect::ReleaseNode { host, resources } => {
            buf.push(if matches!(effect, Effect::ReserveNode { .. }) { 0 } else { 1 });
            put_u32(buf, host.index() as u32);
            put_u32(buf, resources.vcpus);
            put_u64(buf, resources.memory_mb);
            put_u64(buf, resources.disk_gb);
        }
        Effect::ReserveFlow { a, b, mbps } | Effect::ReleaseFlow { a, b, mbps } => {
            buf.push(if matches!(effect, Effect::ReserveFlow { .. }) { 2 } else { 3 });
            put_u32(buf, a.index() as u32);
            put_u32(buf, b.index() as u32);
            put_u64(buf, mbps);
        }
        Effect::Quarantine { host } => {
            buf.push(4);
            put_u32(buf, host.index() as u32);
        }
        Effect::Resync { host, used, instances } => {
            buf.push(5);
            put_u32(buf, host.index() as u32);
            put_u32(buf, used.vcpus);
            put_u64(buf, used.memory_mb);
            put_u64(buf, used.disk_gb);
            put_u32(buf, instances);
        }
    }
}

/// Sequential little-endian reader over a record payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let bytes = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(bytes);
        Some(u32::from_le_bytes(arr))
    }

    fn u64(&mut self) -> Option<u64> {
        let bytes = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Some(u64::from_le_bytes(arr))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn decode_host(cur: &mut Cursor<'_>, host_count: usize) -> Option<HostId> {
    let idx = cur.u32()?;
    if (idx as usize) < host_count {
        Some(HostId::from_index(idx))
    } else {
        None
    }
}

fn decode_effect(cur: &mut Cursor<'_>, host_count: usize) -> Option<Effect> {
    let tag = cur.u8()?;
    Some(match tag {
        0 | 1 => {
            let host = decode_host(cur, host_count)?;
            let resources = Resources::new(cur.u32()?, cur.u64()?, cur.u64()?);
            if tag == 0 {
                Effect::ReserveNode { host, resources }
            } else {
                Effect::ReleaseNode { host, resources }
            }
        }
        2 | 3 => {
            let a = decode_host(cur, host_count)?;
            let b = decode_host(cur, host_count)?;
            let mbps = cur.u64()?;
            if tag == 2 {
                Effect::ReserveFlow { a, b, mbps }
            } else {
                Effect::ReleaseFlow { a, b, mbps }
            }
        }
        4 => Effect::Quarantine { host: decode_host(cur, host_count)? },
        5 => {
            let host = decode_host(cur, host_count)?;
            let used = Resources::new(cur.u32()?, cur.u64()?, cur.u64()?);
            let instances = cur.u32()?;
            Effect::Resync { host, used, instances }
        }
        _ => return None,
    })
}

fn encode_record(seq: u64, op: WalOp, effects: &[Effect]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(13 + effects.len() * MAX_EFFECT_LEN);
    put_u64(&mut payload, seq);
    payload.push(op.as_u8());
    put_u32(&mut payload, effects.len() as u32);
    for effect in effects {
        encode_effect(&mut payload, effect);
    }
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

fn encode_header(host_count: usize, base_seq: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&(host_count as u32).to_le_bytes());
    h[16..24].copy_from_slice(&base_seq.to_le_bytes());
    h
}

// ---------------------------------------------------------------------------
// Effect builders mirroring the scheduler's mutation order
// ---------------------------------------------------------------------------

/// The effects [`Scheduler::commit`](crate::Scheduler::commit) applies:
/// every node reserved in topology order, then every link's flow.
#[must_use]
pub fn commit_effects(topology: &ApplicationTopology, placement: &Placement) -> Vec<Effect> {
    let mut effects = Vec::with_capacity(topology.node_count() + topology.links().len());
    for node in topology.nodes() {
        effects.push(Effect::ReserveNode {
            host: placement.host_of(node.id()),
            resources: node.requirements(),
        });
    }
    for link in topology.links() {
        let (a, b) = link.endpoints();
        effects.push(Effect::ReserveFlow {
            a: placement.host_of(a),
            b: placement.host_of(b),
            mbps: link.bandwidth().as_mbps(),
        });
    }
    effects
}

/// The effects of [`Scheduler::release`](crate::Scheduler::release):
/// the exact inverse of [`commit_effects`], in the same order.
#[must_use]
pub fn release_effects(topology: &ApplicationTopology, placement: &Placement) -> Vec<Effect> {
    commit_effects(topology, placement).iter().map(Effect::inverse).collect()
}

/// The effects of
/// [`Scheduler::release_partial`](crate::Scheduler::release_partial):
/// every assigned node released, then every fully assigned link.
#[must_use]
pub fn release_partial_effects(
    topology: &ApplicationTopology,
    assignment: &[Option<HostId>],
) -> Vec<Effect> {
    deploy_effects(topology, assignment).iter().map(Effect::inverse).collect()
}

/// The net effects of a successful deployment of a (possibly partial)
/// `assignment`: every placed node reserved, then every link whose
/// endpoints both landed.
#[must_use]
pub fn deploy_effects(
    topology: &ApplicationTopology,
    assignment: &[Option<HostId>],
) -> Vec<Effect> {
    let mut effects = Vec::new();
    for node in topology.nodes() {
        if let Some(host) = assignment[node.id().index()] {
            effects.push(Effect::ReserveNode { host, resources: node.requirements() });
        }
    }
    for link in topology.links() {
        let (a, b) = link.endpoints();
        if let (Some(ha), Some(hb)) = (assignment[a.index()], assignment[b.index()]) {
            effects.push(Effect::ReserveFlow { a: ha, b: hb, mbps: link.bandwidth().as_mbps() });
        }
    }
    effects
}

impl Effect {
    /// The effect undoing this one (quarantine and resync are their
    /// own "inverse" — they are idempotent forcings, not deltas).
    #[must_use]
    pub fn inverse(&self) -> Effect {
        match *self {
            Effect::ReserveNode { host, resources } => Effect::ReleaseNode { host, resources },
            Effect::ReleaseNode { host, resources } => Effect::ReserveNode { host, resources },
            Effect::ReserveFlow { a, b, mbps } => Effect::ReleaseFlow { a, b, mbps },
            Effect::ReleaseFlow { a, b, mbps } => Effect::ReserveFlow { a, b, mbps },
            other => other,
        }
    }
}

// ---------------------------------------------------------------------------
// Options, snapshots, recovery
// ---------------------------------------------------------------------------

/// When appends reach the disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncPolicy {
    /// Flush every append to the OS; fsync only at snapshots and on
    /// explicit [`Wal::sync`]. The default — a kernel survives a
    /// process crash, and a machine crash costs at most one snapshot
    /// interval.
    #[default]
    OnSnapshot,
    /// Fsync every append — maximum durability, one fsync per record.
    Always,
}

/// Tuning for a [`Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalOptions {
    /// Appends between automatic snapshots (journal compactions);
    /// `0` disables automatic snapshots entirely.
    pub snapshot_every: u64,
    /// The fsync policy.
    pub sync: SyncPolicy,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions { snapshot_every: 256, sync: SyncPolicy::OnSnapshot }
    }
}

/// The serialized snapshot document (`snapshot.json`).
#[derive(Serialize, Deserialize)]
struct SnapshotDoc {
    seq: u64,
    host_count: usize,
    state: CapacityState,
    quarantined: Vec<u32>,
}

/// Everything recovered from a WAL directory: the reconstructed books,
/// the quarantine set, and how the recovery went.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// The capacity books at the last durable record.
    pub state: CapacityState,
    /// Hosts quarantined at the last durable record, ascending.
    pub quarantined: Vec<HostId>,
    /// Sequence number of the last applied record (0 if none ever).
    pub seq: u64,
    /// Sequence number the snapshot covered, if one existed.
    pub snapshot_seq: Option<u64>,
    /// Journal records replayed on top of the snapshot (or scratch).
    pub records_replayed: u64,
    /// Journal records skipped because the snapshot already covered
    /// them — non-zero only when a crash interrupted a compaction
    /// between the snapshot rename and the journal truncation.
    pub records_skipped: u64,
    /// Whether a torn tail was detected (and, via [`Wal::open`],
    /// truncated at the last good record).
    pub truncated_tail: bool,
}

struct TailScan {
    /// Byte length of the journal's valid prefix (0 when the file is
    /// missing, empty, or its header itself is torn).
    good_len: u64,
    /// The journal's `base_seq` is older than the snapshot's sequence:
    /// a compaction was interrupted between the snapshot rename and
    /// the journal truncation. [`Wal::open`] finishes the job.
    stale_prefix: bool,
}

/// Reconstructs scheduler state from `dir` without touching the files
/// (a read-only [`Wal::open`]). Missing files recover to a fresh,
/// fully idle state.
///
/// # Errors
///
/// [`WalError`] on I/O failure, a corrupt header or snapshot, an
/// infrastructure mismatch, or a checksummed record that fails to
/// apply. A torn tail is *not* an error — see
/// [`Recovery::truncated_tail`].
pub fn recover(dir: &Path, infra: &Infrastructure) -> Result<Recovery, WalError> {
    recover_impl(dir, infra).map(|(recovery, _)| recovery)
}

fn recover_impl(dir: &Path, infra: &Infrastructure) -> Result<(Recovery, TailScan), WalError> {
    let host_count = infra.host_count();
    let snap_path = dir.join(SNAPSHOT_FILE);
    let wal_path = dir.join(WAL_FILE);

    // 1. Snapshot, if any.
    let snapshot = match fs::read(&snap_path) {
        Ok(bytes) => {
            let text = String::from_utf8(bytes).map_err(|e| WalError::Snapshot {
                path: snap_path.clone(),
                reason: e.to_string(),
            })?;
            let doc: SnapshotDoc = serde_json::from_str(&text).map_err(|e| WalError::Snapshot {
                path: snap_path.clone(),
                reason: e.to_string(),
            })?;
            if doc.host_count != host_count || doc.state.host_count() != host_count {
                return Err(WalError::HostCountMismatch {
                    expected: host_count,
                    found: doc.host_count,
                });
            }
            if doc.quarantined.iter().any(|&h| h as usize >= host_count) {
                return Err(WalError::Snapshot {
                    path: snap_path.clone(),
                    reason: "quarantined host out of range".to_string(),
                });
            }
            Some(doc)
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => return Err(io_err(&snap_path, e)),
    };

    let snapshot_seq = snapshot.as_ref().map(|doc| doc.seq);
    let mut quarantined = vec![false; host_count];
    let mut state = match snapshot {
        Some(doc) => {
            for h in doc.quarantined {
                quarantined[h as usize] = true;
            }
            doc.state
        }
        None => CapacityState::new(infra),
    };
    let mut seq = snapshot_seq.unwrap_or(0);

    // 2. Journal, if any.
    let bytes = match fs::read(&wal_path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let recovery = Recovery {
                state,
                quarantined: collect_quarantined(&quarantined),
                seq,
                snapshot_seq,
                records_replayed: 0,
                records_skipped: 0,
                truncated_tail: false,
            };
            return Ok((recovery, TailScan { good_len: 0, stale_prefix: false }));
        }
        Err(e) => return Err(io_err(&wal_path, e)),
    };

    if bytes.len() < HEADER_LEN {
        // An empty or torn header: nothing after it can have been
        // durably appended (the header is the first write after every
        // truncation), so recovering to the snapshot alone is safe.
        let recovery = Recovery {
            state,
            quarantined: collect_quarantined(&quarantined),
            seq,
            snapshot_seq,
            records_replayed: 0,
            records_skipped: 0,
            truncated_tail: !bytes.is_empty(),
        };
        return Ok((recovery, TailScan { good_len: 0, stale_prefix: false }));
    }

    if &bytes[..8] != MAGIC {
        return Err(WalError::Corrupt {
            path: wal_path,
            offset: 0,
            reason: "bad magic".to_string(),
        });
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != VERSION {
        return Err(WalError::Corrupt {
            path: wal_path,
            offset: 8,
            reason: format!("unsupported version {version}"),
        });
    }
    let header_hosts = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
    if header_hosts != host_count {
        return Err(WalError::HostCountMismatch { expected: host_count, found: header_hosts });
    }
    let base_seq = u64::from_le_bytes([
        bytes[16], bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22], bytes[23],
    ]);
    if base_seq > seq {
        // The journal continues from a sequence the snapshot never
        // reached: history between them is gone. (The snapshot rename
        // is made durable with a directory fsync *before* the journal
        // is truncated, so this cannot be an interrupted compaction.)
        return Err(WalError::Corrupt {
            path: wal_path,
            offset: 16,
            reason: format!("journal base sequence {base_seq} is ahead of snapshot ({seq})"),
        });
    }
    // base_seq < seq is the compaction crash window: the snapshot was
    // renamed into place but the journal was not yet truncated behind
    // it. Records at or below the snapshot's sequence are already
    // folded in and replay skips them.
    let stale_prefix = base_seq < seq;

    // 3. Replay records until the end or the first torn byte.
    let mut pos = HEADER_LEN;
    let mut good_len = HEADER_LEN as u64;
    let mut journal_seq = base_seq;
    let mut records_replayed = 0u64;
    let mut records_skipped = 0u64;
    let mut torn = false;
    while pos < bytes.len() {
        let Some(frame) = bytes.get(pos..pos + 8) else {
            torn = true;
            break;
        };
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
        let crc = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
        if len > MAX_PAYLOAD {
            torn = true;
            break;
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len as usize) else {
            torn = true;
            break;
        };
        if crc32(payload) != crc {
            torn = true;
            break;
        }
        // From here on the payload is checksummed: failures are real
        // corruption (or a foreign journal), not torn writes.
        let record_seq = apply_payload(
            payload,
            &wal_path,
            pos as u64,
            journal_seq,
            seq,
            infra,
            &mut state,
            &mut quarantined,
        )?;
        journal_seq = record_seq;
        if record_seq > seq {
            seq = record_seq;
            records_replayed += 1;
        } else {
            records_skipped += 1;
        }
        pos += 8 + len as usize;
        good_len = pos as u64;
    }

    let recovery = Recovery {
        state,
        quarantined: collect_quarantined(&quarantined),
        seq,
        snapshot_seq,
        records_replayed,
        records_skipped,
        truncated_tail: torn,
    };
    Ok((recovery, TailScan { good_len, stale_prefix }))
}

/// Decodes and applies one checksummed payload, returning its sequence
/// number (which must be `prev_seq + 1`). Records at or below
/// `applied_seq` — a stale prefix left by an interrupted compaction —
/// are fully validated but their effects are not re-applied: the
/// snapshot already holds them.
#[allow(clippy::too_many_arguments)]
fn apply_payload(
    payload: &[u8],
    wal_path: &Path,
    offset: u64,
    prev_seq: u64,
    applied_seq: u64,
    infra: &Infrastructure,
    state: &mut CapacityState,
    quarantined: &mut [bool],
) -> Result<u64, WalError> {
    let corrupt = |reason: &str| WalError::Corrupt {
        path: wal_path.to_path_buf(),
        offset,
        reason: reason.to_string(),
    };
    let mut cur = Cursor::new(payload);
    let record_seq = cur.u64().ok_or_else(|| corrupt("payload too short"))?;
    if record_seq != prev_seq + 1 {
        return Err(corrupt(&format!("sequence gap: {prev_seq} then {record_seq}")));
    }
    let op_tag = cur.u8().ok_or_else(|| corrupt("payload too short"))?;
    WalOp::from_u8(op_tag).ok_or_else(|| corrupt(&format!("unknown op {op_tag}")))?;
    let count = cur.u32().ok_or_else(|| corrupt("payload too short"))?;
    for _ in 0..count {
        let effect = decode_effect(&mut cur, infra.host_count())
            .ok_or_else(|| corrupt("undecodable effect"))?;
        if record_seq > applied_seq {
            apply_effect(state, quarantined, infra, effect, record_seq)?;
        }
    }
    if !cur.done() {
        return Err(corrupt("trailing bytes in payload"));
    }
    Ok(record_seq)
}

fn apply_effect(
    state: &mut CapacityState,
    quarantined: &mut [bool],
    infra: &Infrastructure,
    effect: Effect,
    seq: u64,
) -> Result<(), WalError> {
    let result = match effect {
        Effect::ReserveNode { host, resources } => state.reserve_node(host, resources),
        Effect::ReleaseNode { host, resources } => {
            let out = state.release_node(infra, host, resources);
            refreeze(state, quarantined, host);
            out
        }
        Effect::ReserveFlow { a, b, mbps } => {
            state.reserve_flow(infra, a, b, Bandwidth::from_mbps(mbps))
        }
        Effect::ReleaseFlow { a, b, mbps } => {
            let out = state.release_flow(infra, a, b, Bandwidth::from_mbps(mbps));
            refreeze(state, quarantined, a);
            refreeze(state, quarantined, b);
            out
        }
        Effect::Quarantine { host } => {
            state.quarantine_host(host);
            quarantined[host.index()] = true;
            Ok(())
        }
        Effect::Resync { host, used, instances } => {
            let out = state.resync_host(infra, host, used, instances);
            refreeze(state, quarantined, host);
            out
        }
    };
    result.map_err(|source| WalError::Replay { seq, source })
}

/// Re-zeroes a quarantined host's availability after a release-like
/// effect. `CapacityState` stores no quarantine flag, so a release on a
/// quarantined host would otherwise resurrect the capacity the
/// quarantine froze; the live session applies the same re-freeze, so
/// replay stays bit-identical.
fn refreeze(state: &mut CapacityState, quarantined: &[bool], host: HostId) {
    if quarantined[host.index()] {
        state.quarantine_host(host);
    }
}

fn collect_quarantined(flags: &[bool]) -> Vec<HostId> {
    flags
        .iter()
        .enumerate()
        .filter(|&(_, &q)| q)
        .map(|(i, _)| HostId::from_index(i as u32))
        .collect()
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// The journal I/O operation a fault hook is consulted for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WalIoOp {
    /// A record append (consulted before any bytes are written).
    Append,
    /// An explicit flush + fsync via [`Wal::sync`].
    Sync,
    /// A snapshot + compaction via [`Wal::snapshot`].
    Snapshot,
}

/// The fault a hook can inject into a journal operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WalFault {
    /// Fail the operation with an I/O error of this kind (`ENOSPC`,
    /// `EIO`, …) without touching the journal bytes.
    Error(io::ErrorKind),
    /// Write only a prefix of the record before failing — the torn
    /// tail a crash mid-write leaves, which recovery's last-good-record
    /// scan tolerates and [`Wal::rewind`](Wal) truncates away. Only
    /// meaningful for [`WalIoOp::Append`]; elsewhere it degrades to a
    /// plain error.
    Torn,
}

/// An injectable fault hook: consulted with the operation and the
/// sequence number it concerns, it returns `Some(fault)` to make that
/// operation fail. A hook that sleeps before returning `None` models a
/// slow disk. Install one with [`Wal::set_fault_hook`]; production
/// journals have none and pay only an `Option` check.
#[derive(Clone)]
pub struct WalFaultHook(Arc<dyn Fn(WalIoOp, u64) -> Option<WalFault> + Send + Sync>);

impl WalFaultHook {
    /// Wraps a fault-drawing closure.
    pub fn new(f: impl Fn(WalIoOp, u64) -> Option<WalFault> + Send + Sync + 'static) -> Self {
        WalFaultHook(Arc::new(f))
    }

    fn draw(&self, op: WalIoOp, seq: u64) -> Option<WalFault> {
        (self.0)(op, seq)
    }
}

impl fmt::Debug for WalFaultHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("WalFaultHook(..)")
    }
}

fn injected(kind: io::ErrorKind, what: &str) -> io::Error {
    io::Error::new(kind, format!("injected {what} fault"))
}

// ---------------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------------

/// An open write-ahead journal. Obtain one with [`Wal::open`]; feed it
/// to [`SchedulerSession::attach_wal`](crate::SchedulerSession::attach_wal)
/// to make every session mutation durable.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    dir: PathBuf,
    writer: io::BufWriter<File>,
    host_count: usize,
    seq: u64,
    snapshot_seq: Option<u64>,
    since_snapshot: u64,
    snapshots_taken: u64,
    journal_bytes: u64,
    options: WalOptions,
    fault: Option<WalFaultHook>,
}

/// A journal position captured before a group commit: enough to
/// [`Wal::rewind`](Wal) the journal to exactly this point if the
/// commit cannot be made durable.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WalMark {
    seq: u64,
    bytes: u64,
    since_snapshot: u64,
    generation: u64,
}

impl Wal {
    /// Opens (or creates) the journal in `dir`, first recovering
    /// whatever durable state it holds. A torn tail is truncated at
    /// the last good record; the returned [`Recovery`] reports it.
    ///
    /// # Errors
    ///
    /// As [`recover`], plus I/O failures preparing the journal for
    /// appending.
    pub fn open(
        dir: &Path,
        infra: &Infrastructure,
        options: WalOptions,
    ) -> Result<(Self, Recovery), WalError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let (recovery, scan) = recover_impl(dir, infra)?;
        let path = dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        let actual_len = file.metadata().map_err(|e| io_err(&path, e))?.len();
        if scan.good_len == 0 {
            // Missing, empty, or torn-header journal: start it fresh
            // on top of whatever the snapshot provided.
            file.set_len(0).map_err(|e| io_err(&path, e))?;
            file.seek(SeekFrom::Start(0)).map_err(|e| io_err(&path, e))?;
            file.write_all(&encode_header(infra.host_count(), recovery.seq))
                .map_err(|e| io_err(&path, e))?;
            file.sync_data().map_err(|e| io_err(&path, e))?;
            sync_dir(dir)?;
        } else if scan.good_len < actual_len {
            file.set_len(scan.good_len).map_err(|e| io_err(&path, e))?;
            file.sync_data().map_err(|e| io_err(&path, e))?;
        }
        let journal_bytes = file.seek(SeekFrom::End(0)).map_err(|e| io_err(&path, e))?;
        let mut wal = Wal {
            path,
            dir: dir.to_path_buf(),
            writer: io::BufWriter::new(file),
            host_count: infra.host_count(),
            seq: recovery.seq,
            snapshot_seq: recovery.snapshot_seq,
            since_snapshot: if scan.good_len == 0 { 0 } else { recovery.records_replayed },
            snapshots_taken: 0,
            journal_bytes,
            options,
            fault: None,
        };
        if scan.stale_prefix {
            // A previous compaction crashed between the snapshot rename
            // and the journal truncation. The recovered state *is* the
            // snapshot plus any post-snapshot tail, so re-snapshotting
            // it finishes the job: snapshot.json is rewritten at
            // `recovery.seq` and the stale journal prefix is truncated
            // behind it.
            wal.snapshot(&recovery.state, &recovery.quarantined)?;
            wal.snapshots_taken = 0;
        }
        Ok((wal, recovery))
    }

    /// Removes any journal and snapshot files in `dir` — the start of
    /// a deliberately fresh run over a previously used directory.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on anything but the files already missing.
    pub fn reset(dir: &Path) -> Result<(), WalError> {
        for name in [WAL_FILE, SNAPSHOT_FILE, SNAPSHOT_TMP] {
            let path = dir.join(name);
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err(&path, e)),
            }
        }
        Ok(())
    }

    /// Appends one record, returning its sequence number.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the record could not be made durable per
    /// the configured [`SyncPolicy`].
    pub fn append(&mut self, op: WalOp, effects: &[Effect]) -> Result<u64, WalError> {
        let seq = self.seq + 1;
        let record = encode_record(seq, op, effects);
        if let Some(fault) = self.fault.as_ref().and_then(|h| h.draw(WalIoOp::Append, seq)) {
            match fault {
                WalFault::Error(kind) => return Err(io_err(&self.path, injected(kind, "append"))),
                WalFault::Torn => {
                    // Leave exactly what a crash mid-write leaves: a
                    // prefix of the record on disk. Recovery truncates
                    // it; so does `rewind`.
                    let half = record.len() / 2;
                    let _ = self.writer.write_all(&record[..half]);
                    let _ = self.writer.flush();
                    self.journal_bytes += half as u64;
                    return Err(io_err(
                        &self.path,
                        injected(io::ErrorKind::WriteZero, "torn append"),
                    ));
                }
            }
        }
        self.writer.write_all(&record).map_err(|e| io_err(&self.path, e))?;
        self.writer.flush().map_err(|e| io_err(&self.path, e))?;
        if self.options.sync == SyncPolicy::Always {
            self.writer.get_ref().sync_data().map_err(|e| io_err(&self.path, e))?;
        }
        self.seq = seq;
        self.since_snapshot += 1;
        self.journal_bytes += record.len() as u64;
        Ok(seq)
    }

    /// Installs (or clears) the fault-injection hook consulted before
    /// every append, sync, and snapshot.
    pub fn set_fault_hook(&mut self, hook: Option<WalFaultHook>) {
        self.fault = hook;
    }

    /// Captures the journal's current position for a later [`rewind`].
    ///
    /// [`rewind`]: Wal::rewind
    pub(crate) fn mark(&self) -> WalMark {
        WalMark {
            seq: self.seq,
            bytes: self.journal_bytes,
            since_snapshot: self.since_snapshot,
            generation: self.snapshots_taken,
        }
    }

    /// Whether [`rewind`](Self::rewind) to `mark` is possible — false
    /// once a snapshot compaction has run since the mark was taken.
    pub(crate) fn can_rewind(&self, mark: &WalMark) -> bool {
        mark.generation == self.snapshots_taken
    }

    /// Truncates the journal back to `mark`, erasing every record (and
    /// any torn residue) appended since. Used by the service to undo a
    /// group commit whose fsync failed under a rejecting durability
    /// policy, so the on-disk journal never claims commits that were
    /// never acknowledged.
    ///
    /// # Errors
    ///
    /// [`WalError::Snapshot`] if a snapshot compaction has run since
    /// the mark was taken (the marked bytes no longer exist);
    /// [`WalError::Io`] if the truncation itself fails.
    pub(crate) fn rewind(&mut self, mark: &WalMark) -> Result<(), WalError> {
        if mark.generation != self.snapshots_taken {
            return Err(WalError::Snapshot {
                path: self.path.clone(),
                reason: "cannot rewind across a snapshot compaction".into(),
            });
        }
        // A failed flush can strand half-written bytes inside the
        // BufWriter; replace the writer wholesale so that residue can
        // never reach disk after the truncation.
        let _ = self.writer.flush();
        if !self.writer.buffer().is_empty() {
            let file = self.writer.get_ref().try_clone().map_err(|e| io_err(&self.path, e))?;
            self.writer = io::BufWriter::new(file);
        }
        let file = self.writer.get_mut();
        file.set_len(mark.bytes).map_err(|e| io_err(&self.path, e))?;
        file.seek(SeekFrom::Start(mark.bytes)).map_err(|e| io_err(&self.path, e))?;
        file.sync_data().map_err(|e| io_err(&self.path, e))?;
        self.seq = mark.seq;
        self.since_snapshot = mark.since_snapshot;
        self.journal_bytes = mark.bytes;
        Ok(())
    }

    /// Whether the automatic snapshot cadence is due.
    #[must_use]
    pub fn should_snapshot(&self) -> bool {
        self.options.snapshot_every > 0 && self.since_snapshot >= self.options.snapshot_every
    }

    /// Snapshots `state` + `quarantined` and compacts the journal
    /// behind it: the snapshot is written to a temp file, fsynced,
    /// renamed into place and made durable with a directory fsync,
    /// then the journal is truncated to a fresh header based at the
    /// snapshot's sequence number. A crash anywhere in that sequence
    /// recovers cleanly (see the module docs on the compaction crash
    /// window).
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] / [`WalError::Snapshot`] on serialization or
    /// disk failure; [`WalError::HostCountMismatch`] if `state` does
    /// not belong to the journal's infrastructure.
    pub fn snapshot(
        &mut self,
        state: &CapacityState,
        quarantined: &[HostId],
    ) -> Result<(), WalError> {
        if state.host_count() != self.host_count {
            return Err(WalError::HostCountMismatch {
                expected: self.host_count,
                found: state.host_count(),
            });
        }
        if let Some(fault) = self.fault.as_ref().and_then(|h| h.draw(WalIoOp::Snapshot, self.seq)) {
            let kind = match fault {
                WalFault::Error(kind) => kind,
                WalFault::Torn => io::ErrorKind::WriteZero,
            };
            return Err(io_err(&self.path, injected(kind, "snapshot")));
        }
        // Make the journal durable first: the snapshot must never be
        // *ahead* of the journal it replaces.
        self.writer.flush().map_err(|e| io_err(&self.path, e))?;
        self.writer.get_ref().sync_data().map_err(|e| io_err(&self.path, e))?;

        let mut hosts: Vec<u32> = quarantined.iter().map(|h| h.index() as u32).collect();
        hosts.sort_unstable();
        let doc = SnapshotDoc {
            seq: self.seq,
            host_count: self.host_count,
            state: state.clone(),
            quarantined: hosts,
        };
        let snap_path = self.dir.join(SNAPSHOT_FILE);
        let tmp_path = self.dir.join(SNAPSHOT_TMP);
        let text = serde_json::to_string(&doc)
            .map_err(|e| WalError::Snapshot { path: snap_path.clone(), reason: e.to_string() })?;
        let bytes = text.into_bytes();
        {
            let mut tmp = File::create(&tmp_path).map_err(|e| io_err(&tmp_path, e))?;
            tmp.write_all(&bytes).map_err(|e| io_err(&tmp_path, e))?;
            tmp.sync_data().map_err(|e| io_err(&tmp_path, e))?;
        }
        fs::rename(&tmp_path, &snap_path).map_err(|e| io_err(&snap_path, e))?;
        // Make the rename durable *before* touching the journal: the
        // truncation must never reach disk ahead of the snapshot it
        // depends on. (A crash after the rename but before the
        // truncation is tolerated by recovery — see the module docs.)
        sync_dir(&self.dir)?;

        // Compact: everything up to `seq` now lives in the snapshot.
        let file = self.writer.get_mut();
        file.set_len(0).map_err(|e| io_err(&self.path, e))?;
        file.seek(SeekFrom::Start(0)).map_err(|e| io_err(&self.path, e))?;
        file.write_all(&encode_header(self.host_count, self.seq))
            .map_err(|e| io_err(&self.path, e))?;
        file.sync_data().map_err(|e| io_err(&self.path, e))?;
        sync_dir(&self.dir)?;
        self.snapshot_seq = Some(self.seq);
        self.since_snapshot = 0;
        self.snapshots_taken += 1;
        self.journal_bytes = HEADER_LEN as u64;
        Ok(())
    }

    /// Flushes and fsyncs the journal.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on disk failure.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.writer.flush().map_err(|e| io_err(&self.path, e))?;
        if let Some(fault) = self.fault.as_ref().and_then(|h| h.draw(WalIoOp::Sync, self.seq)) {
            let kind = match fault {
                WalFault::Error(kind) => kind,
                WalFault::Torn => io::ErrorKind::WriteZero,
            };
            return Err(io_err(&self.path, injected(kind, "fsync")));
        }
        self.writer.get_ref().sync_data().map_err(|e| io_err(&self.path, e))
    }

    /// Sequence number of the last appended record.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Sequence number the current snapshot covers, if any.
    #[must_use]
    pub fn snapshot_seq(&self) -> Option<u64> {
        self.snapshot_seq
    }

    /// Records appended since the last snapshot (or open).
    #[must_use]
    pub fn since_snapshot(&self) -> u64 {
        self.since_snapshot
    }

    /// Snapshots taken by this handle.
    #[must_use]
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken
    }

    /// The directory this journal lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ostro_datacenter::InfrastructureBuilder;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn infra(hosts_per_rack: usize) -> Infrastructure {
        InfrastructureBuilder::flat(
            "dc",
            2,
            hosts_per_rack,
            Resources::new(8, 16_384, 500),
            Bandwidth::from_gbps(10),
            Bandwidth::from_gbps(100),
        )
        .build()
        .unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ostro-wal-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn h(i: u32) -> HostId {
        HostId::from_index(i)
    }

    #[test]
    fn crc32_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fresh_directory_recovers_to_idle_state() {
        let infra = infra(2);
        let dir = temp_dir("fresh");
        let recovery = recover(&dir, &infra).unwrap();
        assert_eq!(recovery.state, CapacityState::new(&infra));
        assert_eq!(recovery.seq, 0);
        assert!(recovery.quarantined.is_empty());
        assert!(!recovery.truncated_tail);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_and_recover_round_trips_every_effect_kind() {
        let infra = infra(4);
        let dir = temp_dir("round-trip");
        let res = Resources::new(2, 4_096, 100);
        let effects: Vec<Vec<Effect>> = vec![
            vec![
                Effect::ReserveNode { host: h(0), resources: res },
                Effect::ReserveNode { host: h(1), resources: res },
                Effect::ReserveFlow { a: h(0), b: h(1), mbps: 250 },
            ],
            vec![
                Effect::ReleaseFlow { a: h(0), b: h(1), mbps: 250 },
                Effect::ReleaseNode { host: h(1), resources: res },
            ],
            vec![Effect::Quarantine { host: h(3) }],
            vec![Effect::Resync { host: h(2), used: Resources::new(1, 1_024, 10), instances: 1 }],
        ];
        let mut live = CapacityState::new(&infra);
        let mut q = vec![false; infra.host_count()];
        {
            let (mut wal, recovery) = Wal::open(&dir, &infra, WalOptions::default()).unwrap();
            assert_eq!(recovery.seq, 0);
            for (i, batch) in effects.iter().enumerate() {
                let seq = wal.append(WalOp::Commit, batch).unwrap();
                assert_eq!(seq, i as u64 + 1);
                for &e in batch {
                    apply_effect(&mut live, &mut q, &infra, e, seq).unwrap();
                }
            }
        }
        let recovery = recover(&dir, &infra).unwrap();
        assert_eq!(recovery.state, live, "replayed books must equal the live books");
        assert_eq!(recovery.seq, 4);
        assert_eq!(recovery.records_replayed, 4);
        assert_eq!(recovery.quarantined, vec![h(3)]);
        assert!(!recovery.truncated_tail);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The satellite regression: a corrupt tail recovers to the last
    /// good record instead of erroring out the whole replay — for both
    /// a truncated final record and a bit-flipped one — and `Wal::open`
    /// truncates the tail so the journal is appendable again.
    #[test]
    fn corrupt_tail_recovers_to_last_good_record() {
        let infra = infra(2);
        let res = Resources::new(1, 1_024, 10);
        for (tag, mutilate) in [
            ("cut", (|bytes: &mut Vec<u8>| bytes.truncate(bytes.len() - 3)) as fn(&mut Vec<u8>)),
            ("flip", |bytes: &mut Vec<u8>| {
                let last = bytes.len() - 1;
                bytes[last] ^= 0x40;
            }),
        ] {
            let dir = temp_dir(&format!("torn-{tag}"));
            let mut good_state = CapacityState::new(&infra);
            good_state.reserve_node(h(0), res).unwrap();
            good_state.reserve_node(h(1), res).unwrap();
            {
                let (mut wal, _) = Wal::open(&dir, &infra, WalOptions::default()).unwrap();
                for host in [h(0), h(1), h(2)] {
                    wal.append(WalOp::ReserveNode, &[Effect::ReserveNode { host, resources: res }])
                        .unwrap();
                }
            }
            let path = dir.join(WAL_FILE);
            let mut bytes = fs::read(&path).unwrap();
            mutilate(&mut bytes);
            fs::write(&path, &bytes).unwrap();

            let recovery = recover(&dir, &infra).unwrap();
            assert!(recovery.truncated_tail, "{tag}: tail must be flagged");
            assert_eq!(recovery.records_replayed, 2, "{tag}");
            assert_eq!(recovery.seq, 2, "{tag}");
            assert_eq!(recovery.state, good_state, "{tag}");

            // Reopening truncates the tail and restores appendability.
            let (mut wal, reopened) = Wal::open(&dir, &infra, WalOptions::default()).unwrap();
            assert!(reopened.truncated_tail, "{tag}");
            assert_eq!(wal.seq(), 2, "{tag}");
            wal.append(WalOp::ReserveNode, &[Effect::ReserveNode { host: h(3), resources: res }])
                .unwrap();
            drop(wal);
            let healed = recover(&dir, &infra).unwrap();
            assert!(!healed.truncated_tail, "{tag}: truncation must heal the journal");
            assert_eq!(healed.seq, 3, "{tag}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn fault_hook_fails_the_operation_and_clears_cleanly() {
        let infra = infra(2);
        let dir = temp_dir("fault-hook");
        let res = Resources::new(1, 1_024, 10);
        let (mut wal, _) = Wal::open(&dir, &infra, WalOptions::default()).unwrap();
        wal.set_fault_hook(Some(WalFaultHook::new(|op, _seq| match op {
            WalIoOp::Append => Some(WalFault::Error(io::ErrorKind::StorageFull)),
            _ => None,
        })));
        let err = wal
            .append(WalOp::ReserveNode, &[Effect::ReserveNode { host: h(0), resources: res }])
            .unwrap_err();
        assert!(matches!(err, WalError::Io { .. }), "got {err:?}");
        assert_eq!(wal.seq(), 0, "a failed append must not advance the sequence");
        // The failed append left no bytes behind: the journal still
        // accepts and recovers records once the fault clears.
        wal.set_fault_hook(None);
        wal.append(WalOp::ReserveNode, &[Effect::ReserveNode { host: h(0), resources: res }])
            .unwrap();
        drop(wal);
        let recovery = recover(&dir, &infra).unwrap();
        assert_eq!(recovery.seq, 1);
        assert!(!recovery.truncated_tail);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewind_erases_everything_after_the_mark() {
        let infra = infra(2);
        let dir = temp_dir("rewind");
        let res = Resources::new(1, 1_024, 10);
        let (mut wal, _) = Wal::open(&dir, &infra, WalOptions::default()).unwrap();
        wal.append(WalOp::ReserveNode, &[Effect::ReserveNode { host: h(0), resources: res }])
            .unwrap();
        let mark = wal.mark();
        assert_eq!(mark.seq, 1);
        wal.append(WalOp::ReserveNode, &[Effect::ReserveNode { host: h(1), resources: res }])
            .unwrap();
        wal.append(WalOp::ReserveNode, &[Effect::ReserveNode { host: h(2), resources: res }])
            .unwrap();
        wal.rewind(&mark).unwrap();
        assert_eq!(wal.seq(), 1);
        // The erased sequence numbers are reusable — the journal is
        // exactly as it was at the mark.
        let seq = wal
            .append(WalOp::ReserveNode, &[Effect::ReserveNode { host: h(3), resources: res }])
            .unwrap();
        assert_eq!(seq, 2);
        drop(wal);
        let recovery = recover(&dir, &infra).unwrap();
        assert_eq!(recovery.seq, 2);
        assert_eq!(recovery.records_replayed, 2);
        let mut expected = CapacityState::new(&infra);
        expected.reserve_node(h(0), res).unwrap();
        expected.reserve_node(h(3), res).unwrap();
        assert_eq!(recovery.state, expected, "rewound records must not replay");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewind_truncates_torn_residue() {
        let infra = infra(2);
        let dir = temp_dir("rewind-torn");
        let res = Resources::new(1, 1_024, 10);
        let (mut wal, _) = Wal::open(&dir, &infra, WalOptions::default()).unwrap();
        wal.append(WalOp::ReserveNode, &[Effect::ReserveNode { host: h(0), resources: res }])
            .unwrap();
        let mark = wal.mark();
        wal.set_fault_hook(Some(WalFaultHook::new(|op, _| {
            (op == WalIoOp::Append).then_some(WalFault::Torn)
        })));
        let err = wal
            .append(WalOp::ReserveNode, &[Effect::ReserveNode { host: h(1), resources: res }])
            .unwrap_err();
        assert!(matches!(err, WalError::Io { .. }), "got {err:?}");
        wal.set_fault_hook(None);
        wal.rewind(&mark).unwrap();
        drop(wal);
        let recovery = recover(&dir, &infra).unwrap();
        assert_eq!(recovery.seq, 1);
        assert!(!recovery.truncated_tail, "rewind must have erased the torn bytes");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewind_refuses_to_cross_a_snapshot_compaction() {
        let infra = infra(2);
        let dir = temp_dir("rewind-snap");
        let res = Resources::new(1, 1_024, 10);
        let (mut wal, _) = Wal::open(&dir, &infra, WalOptions::default()).unwrap();
        let mark = wal.mark();
        let mut state = CapacityState::new(&infra);
        state.reserve_node(h(0), res).unwrap();
        wal.append(WalOp::ReserveNode, &[Effect::ReserveNode { host: h(0), resources: res }])
            .unwrap();
        wal.snapshot(&state, &[]).unwrap();
        let err = wal.rewind(&mark).unwrap_err();
        assert!(matches!(err, WalError::Snapshot { .. }), "got {err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_header_and_wrong_infrastructure_surface_typed_errors() {
        let infra = infra(2);
        let dir = temp_dir("badheader");
        {
            let (mut wal, _) = Wal::open(&dir, &infra, WalOptions::default()).unwrap();
            wal.append(WalOp::Quarantine, &[Effect::Quarantine { host: h(0) }]).unwrap();
        }
        let path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(recover(&dir, &infra), Err(WalError::Corrupt { .. })));

        bytes[0] = b'O';
        fs::write(&path, &bytes).unwrap();
        let bigger = self::infra(4);
        assert!(matches!(
            recover(&dir, &bigger),
            Err(WalError::HostCountMismatch { expected: 8, found: 4 })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_compacts_the_journal_and_preserves_recovery() {
        let infra = infra(4);
        let dir = temp_dir("compact");
        let res = Resources::new(1, 512, 5);
        let mut live = CapacityState::new(&infra);
        let mut q = vec![false; infra.host_count()];
        {
            let (mut wal, _) =
                Wal::open(&dir, &infra, WalOptions { snapshot_every: 4, ..WalOptions::default() })
                    .unwrap();
            for i in 0..10u32 {
                let host = h(i % infra.host_count() as u32);
                let effect = Effect::ReserveNode { host, resources: res };
                let seq = wal.append(WalOp::ReserveNode, &[effect]).unwrap();
                apply_effect(&mut live, &mut q, &infra, effect, seq).unwrap();
                if wal.should_snapshot() {
                    let quarantined = collect_quarantined(&q);
                    wal.snapshot(&live, &quarantined).unwrap();
                }
            }
            assert_eq!(wal.snapshots_taken(), 2);
            assert_eq!(wal.snapshot_seq(), Some(8));
            assert_eq!(wal.since_snapshot(), 2);
        }
        let journal_len = fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        let two_records = 2 * (8 + 13 + MAX_EFFECT_LEN) as u64;
        assert!(
            journal_len <= HEADER_LEN as u64 + two_records,
            "journal must hold only post-snapshot records, got {journal_len} bytes"
        );
        let recovery = recover(&dir, &infra).unwrap();
        assert_eq!(recovery.state, live);
        assert_eq!(recovery.seq, 10);
        assert_eq!(recovery.snapshot_seq, Some(8));
        assert_eq!(recovery.records_replayed, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The compaction crash window: a kill between the snapshot rename
    /// and the journal truncation leaves `snapshot.seq` ahead of the
    /// journal's `base_seq`. Recovery must skip the already-folded
    /// prefix instead of refusing the whole directory, and `Wal::open`
    /// must finish the interrupted compaction.
    #[test]
    fn crash_between_snapshot_rename_and_truncation_recovers() {
        let infra = infra(4);
        let dir = temp_dir("snapcrash");
        let res = Resources::new(1, 512, 5);
        let mut live = CapacityState::new(&infra);
        let mut q = vec![false; infra.host_count()];
        {
            let (mut wal, _) =
                Wal::open(&dir, &infra, WalOptions { snapshot_every: 0, ..WalOptions::default() })
                    .unwrap();
            for i in 0..6u32 {
                let host = h(i % infra.host_count() as u32);
                let effect = Effect::ReserveNode { host, resources: res };
                let seq = wal.append(WalOp::ReserveNode, &[effect]).unwrap();
                apply_effect(&mut live, &mut q, &infra, effect, seq).unwrap();
            }
        }
        // Simulate the crash: capture the pre-compaction journal, take
        // the snapshot (which truncates the journal), then put the
        // stale journal back as if the truncation never reached disk.
        let pre_compaction = fs::read(dir.join(WAL_FILE)).unwrap();
        {
            let (mut wal, _) = Wal::open(&dir, &infra, WalOptions::default()).unwrap();
            wal.snapshot(&live, &collect_quarantined(&q)).unwrap();
        }
        fs::write(dir.join(WAL_FILE), &pre_compaction).unwrap();

        let recovery = recover(&dir, &infra).unwrap();
        assert_eq!(recovery.state, live, "stale prefix must not double-apply");
        assert_eq!(recovery.seq, 6);
        assert_eq!(recovery.snapshot_seq, Some(6));
        assert_eq!(recovery.records_replayed, 0);
        assert_eq!(recovery.records_skipped, 6);
        assert!(!recovery.truncated_tail);

        // Reopening completes the compaction and stays appendable.
        let (mut wal, reopened) = Wal::open(&dir, &infra, WalOptions::default()).unwrap();
        assert_eq!(reopened.records_skipped, 6);
        assert_eq!(wal.seq(), 6);
        let effect = Effect::ReserveNode { host: h(0), resources: res };
        let seq = wal.append(WalOp::ReserveNode, &[effect]).unwrap();
        assert_eq!(seq, 7);
        apply_effect(&mut live, &mut q, &infra, effect, seq).unwrap();
        drop(wal);
        let healed = recover(&dir, &infra).unwrap();
        assert_eq!(healed.state, live);
        assert_eq!(healed.seq, 7);
        assert_eq!(healed.records_skipped, 0, "open must truncate the stale prefix");
        assert_eq!(healed.records_replayed, 1);
        assert_eq!(healed.snapshot_seq, Some(6));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A torn tail *behind* the stale prefix (the crash that
    /// interrupted compaction also tore the last pre-snapshot record)
    /// still recovers: the snapshot covers everything the tail lost.
    #[test]
    fn stale_prefix_with_torn_tail_recovers_to_snapshot() {
        let infra = infra(2);
        let dir = temp_dir("snapcrash-torn");
        let res = Resources::new(1, 512, 5);
        let mut live = CapacityState::new(&infra);
        let mut q = vec![false; infra.host_count()];
        {
            let (mut wal, _) =
                Wal::open(&dir, &infra, WalOptions { snapshot_every: 0, ..WalOptions::default() })
                    .unwrap();
            for i in 0..4u32 {
                let effect = Effect::ReserveNode { host: h(i), resources: res };
                let seq = wal.append(WalOp::ReserveNode, &[effect]).unwrap();
                apply_effect(&mut live, &mut q, &infra, effect, seq).unwrap();
            }
        }
        let mut pre_compaction = fs::read(dir.join(WAL_FILE)).unwrap();
        pre_compaction.truncate(pre_compaction.len() - 3);
        {
            let (mut wal, _) = Wal::open(&dir, &infra, WalOptions::default()).unwrap();
            wal.snapshot(&live, &collect_quarantined(&q)).unwrap();
        }
        fs::write(dir.join(WAL_FILE), &pre_compaction).unwrap();

        let recovery = recover(&dir, &infra).unwrap();
        assert_eq!(recovery.state, live, "snapshot must cover the torn prefix");
        assert_eq!(recovery.seq, 4);
        assert_eq!(recovery.records_skipped, 3);
        assert!(recovery.truncated_tail);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The converse window is unrecoverable by construction — a journal
    /// based *ahead* of the durable snapshot means history is gone —
    /// and must surface as a typed corruption, not a silent reset.
    #[test]
    fn journal_ahead_of_snapshot_is_a_hard_error() {
        let infra = infra(2);
        let dir = temp_dir("ahead");
        let res = Resources::new(1, 512, 5);
        {
            let (mut wal, _) = Wal::open(&dir, &infra, WalOptions::default()).unwrap();
            for i in 0..3u32 {
                wal.append(
                    WalOp::ReserveNode,
                    &[Effect::ReserveNode { host: h(i), resources: res }],
                )
                .unwrap();
            }
            let mut live = CapacityState::new(&infra);
            let mut q = vec![false; infra.host_count()];
            for i in 0..3u32 {
                apply_effect(
                    &mut live,
                    &mut q,
                    &infra,
                    Effect::ReserveNode { host: h(i), resources: res },
                    u64::from(i) + 1,
                )
                .unwrap();
            }
            wal.snapshot(&live, &[]).unwrap();
        }
        fs::remove_file(dir.join(SNAPSHOT_FILE)).unwrap();
        assert!(matches!(recover(&dir, &infra), Err(WalError::Corrupt { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The satellite property test at the journal level: for a seeded
    /// random mutation sequence, `snapshot + replay(suffix)` ≡
    /// `replay(full journal)` ≡ the live books, including the
    /// quarantine set, across several seeds and cadences.
    #[test]
    fn snapshot_plus_suffix_equals_full_replay_equals_live() {
        let infra = infra(4);
        let hosts = infra.host_count() as u32;
        for seed in 0u64..4 {
            let dir_snap = temp_dir(&format!("prop-snap-{seed}"));
            let dir_full = temp_dir(&format!("prop-full-{seed}"));
            let mut rng = SmallRng::seed_from_u64(0xD00D_1E55 ^ seed);
            let mut live = CapacityState::new(&infra);
            let mut q = vec![false; infra.host_count()];
            let (mut wal_snap, _) = Wal::open(
                &dir_snap,
                &infra,
                WalOptions { snapshot_every: 1 + seed, ..WalOptions::default() },
            )
            .unwrap();
            let (mut wal_full, _) = Wal::open(
                &dir_full,
                &infra,
                WalOptions { snapshot_every: 0, ..WalOptions::default() },
            )
            .unwrap();
            // Shadow multiset of live reservations so releases are
            // always legal.
            let mut reserved: Vec<(HostId, Resources)> = Vec::new();
            for _ in 0..60 {
                let host = h(rng.gen_range(0..hosts));
                let effect = match rng.gen_range(0u32..10) {
                    0..=5 => {
                        let res =
                            Resources::new(rng.gen_range(1..3), 512 * rng.gen_range(1..4), 10);
                        if live.available(host).vcpus < res.vcpus || q[host.index()] {
                            continue;
                        }
                        reserved.push((host, res));
                        Effect::ReserveNode { host, resources: res }
                    }
                    6..=7 if !reserved.is_empty() => {
                        let idx = rng.gen_range(0..reserved.len());
                        let (host, res) = reserved.swap_remove(idx);
                        Effect::ReleaseNode { host, resources: res }
                    }
                    8 => {
                        // Quarantining a host with live reservations
                        // would make later releases of them illegal in
                        // this simple generator; quarantine idle hosts.
                        if reserved.iter().any(|&(rh, _)| rh == host) {
                            continue;
                        }
                        Effect::Quarantine { host }
                    }
                    _ => {
                        if q[host.index()] {
                            continue;
                        }
                        let used = Resources::new(1, 1_024, 5);
                        reserved.retain(|&(rh, _)| rh != host);
                        reserved.push((host, used));
                        Effect::Resync { host, used, instances: 1 }
                    }
                };
                let seq = wal_snap.append(WalOp::Commit, &[effect]).unwrap();
                wal_full.append(WalOp::Commit, &[effect]).unwrap();
                apply_effect(&mut live, &mut q, &infra, effect, seq).unwrap();
                if wal_snap.should_snapshot() {
                    wal_snap.snapshot(&live, &collect_quarantined(&q)).unwrap();
                }
            }
            assert!(wal_snap.snapshots_taken() > 0, "seed {seed}: cadence never fired");
            drop(wal_snap);
            drop(wal_full);
            let via_snapshot = recover(&dir_snap, &infra).unwrap();
            let via_full = recover(&dir_full, &infra).unwrap();
            assert_eq!(via_snapshot.state, live, "seed {seed}: snapshot+suffix vs live");
            assert_eq!(via_full.state, live, "seed {seed}: full replay vs live");
            assert_eq!(via_snapshot.quarantined, via_full.quarantined, "seed {seed}");
            assert_eq!(via_snapshot.quarantined, collect_quarantined(&q), "seed {seed}");
            assert_eq!(via_snapshot.seq, via_full.seq, "seed {seed}");
            let _ = fs::remove_dir_all(&dir_snap);
            let _ = fs::remove_dir_all(&dir_full);
        }
    }

    #[test]
    fn reset_clears_the_directory() {
        let infra = infra(2);
        let dir = temp_dir("reset");
        {
            let (mut wal, _) = Wal::open(&dir, &infra, WalOptions::default()).unwrap();
            wal.append(WalOp::Quarantine, &[Effect::Quarantine { host: h(0) }]).unwrap();
            wal.snapshot(&CapacityState::new(&infra), &[h(0)]).unwrap();
        }
        Wal::reset(&dir).unwrap();
        assert!(!dir.join(WAL_FILE).exists());
        assert!(!dir.join(SNAPSHOT_FILE).exists());
        let recovery = recover(&dir, &infra).unwrap();
        assert_eq!(recovery.seq, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
