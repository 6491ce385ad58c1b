//! Versioned binary checkpoints of a running [`Simulation`].
//!
//! A snapshot captures the *complete* mutable state of a run — the event
//! queue and clock, every RNG stream, the request graph with its undrained
//! dirty log, the ring-candidate cache (entries *and* counters), all active
//! transfers and rings, per-peer population state, and the report
//! accumulators — such that
//!
//! ```text
//! run to T                ==  run to T/2, checkpoint, restore, run to T
//! ```
//!
//! is **bit-identical**, including [`crate::RingCacheStats`].
//!
//! # What is serialized vs regenerated
//!
//! [`SimSetup::generate`] is a pure function of `(config, setup seed)`, so
//! the snapshot stores only the setup seed: restore regenerates the catalog,
//! behavior assignment and pristine peers, then overwrites everything a run
//! mutates.  Derived indexes that are a pure function of serialized state
//! (the holders index, the per-transfer reverse maps, the maintenance wheel,
//! the search scratches) are rebuilt rather than stored — the search
//! scratches are pure memoization with a warm-equals-cold guarantee, so a
//! resumed run starting cold stays bit-identical.
//!
//! # Wire format
//!
//! Everything is little-endian.  The file starts with a fixed header —
//! magic `XCHGSNAP`, format version (`u32`), setup seed (`u64`), peer count
//! (`u64`) — followed by tagged, length-prefixed sections (`tag: u8`,
//! `len: u64`, payload) in a fixed order.  `f64` values travel as
//! [`f64::to_bits`] so accumulators survive exactly.
//!
//! # Version policy
//!
//! [`SNAPSHOT_VERSION`] must be bumped whenever the layout of any section
//! changes (a field added, removed, reordered, or re-encoded).  Readers
//! reject snapshots from any other version with
//! [`SnapshotError::UnsupportedVersion`] — there is no cross-version
//! migration; checkpoints are an intra-version resume mechanism, not an
//! archival format.  The golden fixture under `crates/sim/tests/golden/`
//! pins the current layout; regenerate it with `UPDATE_SNAPSHOTS=1` when
//! bumping the version.
//!
//! # Error policy
//!
//! Restore never panics on bad input: truncated bytes, a wrong magic, a
//! future version, or any out-of-range index yields an [`Err`].  The
//! checkpoint side can only fail with the underlying writer's I/O error.

// The event loop's panic policy (exchange-lint rule H001): no `.unwrap()` —
// every panicking access carries an `.expect()` stating the invariant that
// makes it unreachable.  Clippy enforces the same contract at module level.
#![deny(clippy::unwrap_used, clippy::get_unwrap)]

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::io::{Read, Write};

use credit::SchedulerState;
use des::{DetRng, EventQueue, Scheduler, SimTime};
use exchange::cheat::WindowedExchange;
use exchange::{ExchangeRing, RequestGraph, RingEdge, SearchTrace};
use metrics::{ClassTally, OnlineStats, SampleSet};
use netsim::TransferSession;
use workload::{CategoryId, ObjectId, PeerId, Storage};

use crate::report::ReportParts;
use crate::{
    BehaviorKind, CapacityClass, PeerClass, SessionEnd, SessionKind, SimConfig, SimReport,
    WantState,
};

use super::events::Event;
use super::ring_cache::RingCacheStats;
use super::transfers::{ActiveRing, ActiveTransfer};
use super::{RingId, SimSetup, Simulation, TransferId};

/// The 8-byte magic that opens every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"XCHGSNAP";

/// The current snapshot format version (see the module docs for the bump
/// policy).
pub const SNAPSHOT_VERSION: u32 = 1;

// Section tags, in their mandatory file order.
const TAG_RNGS: u8 = 1;
const TAG_CATALOG: u8 = 2;
const TAG_PEERS: u8 = 3;
const TAG_GRAPH: u8 = 4;
const TAG_TRANSFERS: u8 = 5;
const TAG_ENGINE: u8 = 6;
const TAG_SCHEDULER: u8 = 7;
const TAG_POPULATION: u8 = 8;
const TAG_RING_CACHE: u8 = 9;
const TAG_REPORT: u8 = 10;

/// The ring-cache section's leading tag.  Entry-level invalidation is the
/// only cache design; the byte survives from the v1 layout, where `0` named
/// a since-removed provider-level design and is now rejected.
const RING_CACHE_TAG: u8 = 1;

/// Why a checkpoint could not be written or a snapshot could not be restored.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying reader or writer failed.
    Io(std::io::Error),
    /// The input does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by a different (usually newer) format
    /// version; see the module docs for the no-migration policy.
    UnsupportedVersion {
        /// The version recorded in the snapshot.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// The input ended before the structure it promised.
    Truncated,
    /// The input is structurally well-formed but semantically invalid (an
    /// out-of-range index, a section mismatch, a config that does not match
    /// the snapshot, ...).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a simulation snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build supports {supported})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

// ---- encoding helpers ------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, u8::from(v));
}

fn put_time(buf: &mut Vec<u8>, t: SimTime) {
    put_u64(buf, t.as_micros());
}

fn put_peer(buf: &mut Vec<u8>, p: PeerId) {
    put_u32(buf, p.index());
}

fn put_object(buf: &mut Vec<u8>, o: ObjectId) {
    put_u32(buf, o.index());
}

fn put_stats(buf: &mut Vec<u8>, stats: &OnlineStats) {
    let (count, mean, m2, min, max, sum) = stats.raw_parts();
    put_u64(buf, count);
    put_f64(buf, mean);
    put_f64(buf, m2);
    put_f64(buf, min);
    put_f64(buf, max);
    put_f64(buf, sum);
}

fn put_samples(buf: &mut Vec<u8>, set: &SampleSet) {
    put_usize(buf, set.samples().len());
    for &s in set.samples() {
        put_f64(buf, s);
    }
    put_usize(buf, set.capacity());
    put_u64(buf, set.seen());
}

fn put_event(buf: &mut Vec<u8>, event: Event) {
    match event {
        Event::Arrive(p) => {
            put_u8(buf, 0);
            put_peer(buf, p);
        }
        Event::GenerateRequests(p) => {
            put_u8(buf, 1);
            put_peer(buf, p);
        }
        Event::TrySchedule(p) => {
            put_u8(buf, 2);
            put_peer(buf, p);
        }
        Event::BlockComplete(tid) => {
            put_u8(buf, 3);
            put_u64(buf, tid);
        }
        Event::StorageMaintenance(p) => {
            put_u8(buf, 4);
            put_peer(buf, p);
        }
        Event::Depart(p) => {
            put_u8(buf, 5);
            put_peer(buf, p);
        }
        Event::Rejoin(p) => {
            put_u8(buf, 6);
            put_peer(buf, p);
        }
        Event::Catastrophe => put_u8(buf, 7),
        Event::FlashCrowd => put_u8(buf, 8),
    }
}

fn session_kind_tag(kind: SessionKind) -> (u8, Option<u64>) {
    match kind {
        SessionKind::NonExchange => (0, None),
        SessionKind::Exchange { ring_size } => (1, Some(ring_size as u64)),
    }
}

fn session_end_tag(end: SessionEnd) -> u8 {
    match end {
        SessionEnd::DownloadComplete => 0,
        SessionEnd::RingDissolved => 1,
        SessionEnd::Preempted => 2,
        SessionEnd::SourceLostObject => 3,
        SessionEnd::CheatDetected => 4,
        SessionEnd::HorizonReached => 5,
        SessionEnd::PeerDeparted => 6,
    }
}

fn peer_class_tag(class: PeerClass) -> u8 {
    match class {
        PeerClass::Sharing => 0,
        PeerClass::NonSharing => 1,
    }
}

fn capacity_class_tag(class: CapacityClass) -> u8 {
    match class {
        CapacityClass::Fast => 0,
        CapacityClass::Medium => 1,
        CapacityClass::Slow => 2,
    }
}

fn behavior_kind_tag(kind: BehaviorKind) -> u8 {
    match kind {
        BehaviorKind::Honest => 0,
        BehaviorKind::FreeRider => 1,
        BehaviorKind::JunkSender => 2,
        BehaviorKind::ParticipationCheater => 3,
        BehaviorKind::Middleman => 4,
    }
}

/// Every endpoint of the dirty-edge log — the peer view the v1 layout stores
/// ahead of the log itself.
fn dirty_log_peers(log: &BTreeSet<(PeerId, PeerId, ObjectId)>) -> BTreeSet<PeerId> {
    log.iter()
        .flat_map(|&(provider, requester, _)| [provider, requester])
        .collect()
}

// ---- decoding helpers ------------------------------------------------------

/// A bounds-checked cursor over a fully-read snapshot buffer.  Every read
/// returns `Err(Truncated)` instead of indexing past the end.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let bytes = self.take(4)?;
        let arr: [u8; 4] = bytes.try_into().map_err(|_| SnapshotError::Truncated)?;
        Ok(u32::from_le_bytes(arr))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let bytes = self.take(8)?;
        let arr: [u8; 8] = bytes.try_into().map_err(|_| SnapshotError::Truncated)?;
        Ok(u64::from_le_bytes(arr))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(corrupt(format!("invalid boolean byte {v}"))),
        }
    }

    fn time(&mut self) -> Result<SimTime, SnapshotError> {
        Ok(SimTime::from_micros(self.u64()?))
    }

    /// Reads a length prefix, rejecting counts that cannot possibly fit in
    /// the remaining bytes (`min_elem` is a lower bound on the encoded size
    /// of one element) so a corrupt length cannot trigger a huge allocation.
    fn seq_len(&mut self, min_elem: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| SnapshotError::Truncated)?;
        if min_elem > 0 && n > self.remaining() / min_elem {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// Reads a peer id, validating it against the population size.
    fn peer(&mut self, num_peers: usize) -> Result<PeerId, SnapshotError> {
        let raw = self.u32()?;
        if (raw as usize) >= num_peers {
            return Err(corrupt(format!(
                "peer id {raw} out of range ({num_peers} peers)"
            )));
        }
        Ok(PeerId::new(raw))
    }

    /// Reads an object id, validating it against the catalog size.
    fn object(&mut self, num_objects: usize) -> Result<ObjectId, SnapshotError> {
        let raw = self.u32()?;
        if (raw as usize) >= num_objects {
            return Err(corrupt(format!(
                "object id {raw} out of range ({num_objects} objects)"
            )));
        }
        Ok(ObjectId::new(raw))
    }

    fn stats(&mut self) -> Result<OnlineStats, SnapshotError> {
        let count = self.u64()?;
        let mean = self.f64()?;
        let m2 = self.f64()?;
        let min = self.f64()?;
        let max = self.f64()?;
        let sum = self.f64()?;
        Ok(OnlineStats::from_raw_parts(count, mean, m2, min, max, sum))
    }

    fn samples(&mut self) -> Result<SampleSet, SnapshotError> {
        let n = self.seq_len(8)?;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            samples.push(self.f64()?);
        }
        let capacity = self.seq_len(0)?;
        let seen = self.u64()?;
        if capacity == 0 {
            return Err(corrupt("sample-set capacity must be positive"));
        }
        if samples.len() > capacity {
            return Err(corrupt("sample set holds more samples than its capacity"));
        }
        Ok(SampleSet::from_parts(samples, capacity, seen))
    }

    fn event(
        &mut self,
        num_peers: usize,
        num_transfers: TransferId,
    ) -> Result<Event, SnapshotError> {
        match self.u8()? {
            0 => Ok(Event::Arrive(self.peer(num_peers)?)),
            1 => Ok(Event::GenerateRequests(self.peer(num_peers)?)),
            2 => Ok(Event::TrySchedule(self.peer(num_peers)?)),
            3 => {
                let tid = self.u64()?;
                if tid >= num_transfers {
                    return Err(corrupt(format!("event references unknown transfer {tid}")));
                }
                Ok(Event::BlockComplete(tid))
            }
            4 => Ok(Event::StorageMaintenance(self.peer(num_peers)?)),
            5 => Ok(Event::Depart(self.peer(num_peers)?)),
            6 => Ok(Event::Rejoin(self.peer(num_peers)?)),
            7 => Ok(Event::Catastrophe),
            8 => Ok(Event::FlashCrowd),
            t => Err(corrupt(format!("unknown event tag {t}"))),
        }
    }

    fn session_kind(&mut self) -> Result<SessionKind, SnapshotError> {
        match self.u8()? {
            0 => Ok(SessionKind::NonExchange),
            1 => {
                let ring_size = self.seq_len(0)?;
                Ok(SessionKind::Exchange { ring_size })
            }
            t => Err(corrupt(format!("unknown session-kind tag {t}"))),
        }
    }

    fn session_end(&mut self) -> Result<SessionEnd, SnapshotError> {
        match self.u8()? {
            0 => Ok(SessionEnd::DownloadComplete),
            1 => Ok(SessionEnd::RingDissolved),
            2 => Ok(SessionEnd::Preempted),
            3 => Ok(SessionEnd::SourceLostObject),
            4 => Ok(SessionEnd::CheatDetected),
            5 => Ok(SessionEnd::HorizonReached),
            6 => Ok(SessionEnd::PeerDeparted),
            t => Err(corrupt(format!("unknown session-end tag {t}"))),
        }
    }

    fn peer_class(&mut self) -> Result<PeerClass, SnapshotError> {
        match self.u8()? {
            0 => Ok(PeerClass::Sharing),
            1 => Ok(PeerClass::NonSharing),
            t => Err(corrupt(format!("unknown peer-class tag {t}"))),
        }
    }

    fn capacity_class(&mut self) -> Result<CapacityClass, SnapshotError> {
        match self.u8()? {
            0 => Ok(CapacityClass::Fast),
            1 => Ok(CapacityClass::Medium),
            2 => Ok(CapacityClass::Slow),
            t => Err(corrupt(format!("unknown capacity-class tag {t}"))),
        }
    }

    fn behavior_kind(&mut self) -> Result<BehaviorKind, SnapshotError> {
        match self.u8()? {
            0 => Ok(BehaviorKind::Honest),
            1 => Ok(BehaviorKind::FreeRider),
            2 => Ok(BehaviorKind::JunkSender),
            3 => Ok(BehaviorKind::ParticipationCheater),
            4 => Ok(BehaviorKind::Middleman),
            t => Err(corrupt(format!("unknown behavior-kind tag {t}"))),
        }
    }

    /// Asserts the payload was consumed exactly.
    fn done(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(corrupt(format!(
                "{} trailing bytes after a complete structure",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn write_section<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> Result<(), SnapshotError> {
    w.write_all(&[tag])?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

fn read_section<'a>(cur: &mut Cursor<'a>, expected: u8) -> Result<Cursor<'a>, SnapshotError> {
    let tag = cur.u8()?;
    if tag != expected {
        return Err(corrupt(format!(
            "expected section tag {expected}, found {tag}"
        )));
    }
    let len = cur.u64()?;
    let len = usize::try_from(len).map_err(|_| SnapshotError::Truncated)?;
    Ok(Cursor::new(cur.take(len)?))
}

fn put_rng(buf: &mut Vec<u8>, rng: &DetRng) {
    put_u64(buf, rng.seed());
    for word in rng.state() {
        put_u64(buf, word);
    }
}

fn read_rng(cur: &mut Cursor<'_>) -> Result<DetRng, SnapshotError> {
    let seed = cur.u64()?;
    let mut state = [0u64; 4];
    for word in &mut state {
        *word = cur.u64()?;
    }
    Ok(DetRng::from_state(seed, state))
}

fn put_tally(buf: &mut Vec<u8>, tally: &ClassTally<PeerClass>) {
    put_usize(buf, tally.len());
    for (class, stats) in tally.iter() {
        put_u8(buf, peer_class_tag(*class));
        put_stats(buf, stats);
    }
}

fn read_tally(cur: &mut Cursor<'_>) -> Result<ClassTally<PeerClass>, SnapshotError> {
    let n = cur.seq_len(1 + 48)?;
    let mut tally = ClassTally::new();
    for _ in 0..n {
        let class = cur.peer_class()?;
        let stats = cur.stats()?;
        tally.insert_stats(class, stats);
    }
    Ok(tally)
}

impl Simulation {
    /// Serializes the complete run state into `writer` (see the
    /// [module docs](self) for the format).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] when the writer fails; nothing else can
    /// go wrong on the write side.
    pub fn checkpoint<W: Write>(&self, writer: &mut W) -> Result<(), SnapshotError> {
        writer.write_all(&SNAPSHOT_MAGIC)?;
        writer.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
        writer.write_all(&self.setup_seed.to_le_bytes())?;
        writer.write_all(&(self.peers.len() as u64).to_le_bytes())?;

        // RNG streams.
        let mut buf = Vec::new();
        for rng in [
            &self.rng_requests,
            &self.rng_lookup,
            &self.rng_storage,
            &self.rng_churn,
        ] {
            put_rng(&mut buf, rng);
        }
        write_section(writer, TAG_RNGS, &buf)?;

        // Catalog: only the flash-crowd releases beyond the setup catalog.
        buf.clear();
        put_usize(&mut buf, self.setup_objects);
        let released: Vec<_> = self.catalog.iter().skip(self.setup_objects).collect();
        put_usize(&mut buf, released.len());
        for info in released {
            put_u32(&mut buf, info.category.index());
            put_u64(&mut buf, info.size_bytes);
        }
        write_section(writer, TAG_CATALOG, &buf)?;

        // Per-peer mutable state.
        buf.clear();
        for peer in &self.peers {
            put_bool(&mut buf, peer.online);
            put_usize(&mut buf, peer.storage.iter().count());
            for object in peer.storage.iter() {
                put_object(&mut buf, object);
            }
            put_usize(&mut buf, peer.upload_slots.in_use());
            put_usize(&mut buf, peer.download_slots.in_use());
            put_usize(&mut buf, peer.wants.len());
            for (object, want) in &peer.wants {
                put_object(&mut buf, *object);
                put_time(&mut buf, want.issued_at);
                put_u64(&mut buf, want.received_bytes);
                put_usize(&mut buf, want.providers.len());
                for provider in &want.providers {
                    put_peer(&mut buf, *provider);
                }
                put_usize(&mut buf, want.active_sessions);
            }
            put_u64(&mut buf, peer.downloaded_bytes);
            put_u64(&mut buf, peer.uploaded_bytes);
            put_u64(&mut buf, peer.junk_bytes);
            put_u64(&mut buf, peer.ciphertext_bytes);
        }
        write_section(writer, TAG_PEERS, &buf)?;

        // Request graph, including the undrained dirty log.
        buf.clear();
        put_usize(&mut buf, self.graph.len());
        for request in self.graph.iter() {
            put_peer(&mut buf, request.requester);
            put_peer(&mut buf, request.provider);
            put_object(&mut buf, request.object);
        }
        put_u64(&mut buf, self.graph.generation());
        let endpoints = dirty_log_peers(self.graph.dirty_edge_log());
        put_usize(&mut buf, endpoints.len());
        for peer in endpoints {
            put_peer(&mut buf, peer);
        }
        put_usize(&mut buf, self.graph.dirty_edge_log().len());
        for (provider, requester, object) in self.graph.dirty_edge_log() {
            put_peer(&mut buf, *provider);
            put_peer(&mut buf, *requester);
            put_object(&mut buf, *object);
        }
        put_u64(&mut buf, self.drained_generation);
        write_section(writer, TAG_GRAPH, &buf)?;

        // Transfers and rings, in id order.
        buf.clear();
        put_u64(&mut buf, self.next_transfer_id);
        put_u64(&mut buf, self.next_ring_id);
        put_u64(&mut buf, self.transfer_epoch);
        put_u64(&mut buf, self.world_epoch);
        // exchange-lint: allow(D001, reason = "drained into a sorted Vec on the next line; serialized in TransferId order")
        let mut tids: Vec<TransferId> = self.transfers.keys().copied().collect();
        tids.sort_unstable();
        put_usize(&mut buf, tids.len());
        for tid in tids {
            // exchange-lint: allow(H001, reason = "tid drawn from transfers.keys() three lines up")
            let transfer = &self.transfers[&tid];
            put_u64(&mut buf, tid);
            put_peer(&mut buf, transfer.uploader);
            put_peer(&mut buf, transfer.downloader);
            put_object(&mut buf, transfer.object);
            let (kind_tag, ring_size) = session_kind_tag(transfer.kind);
            put_u8(&mut buf, kind_tag);
            if let Some(size) = ring_size {
                put_u64(&mut buf, size);
            }
            match transfer.ring {
                None => put_u8(&mut buf, 0),
                Some(rid) => {
                    put_u8(&mut buf, 1);
                    put_u64(&mut buf, rid);
                }
            }
            put_f64(&mut buf, transfer.session.rate_bytes_per_sec());
            put_u64(&mut buf, transfer.session.block_bytes());
            put_time(&mut buf, transfer.session.started_at());
            put_u64(&mut buf, transfer.session.bytes_transferred());
            match &transfer.validation {
                None => put_u8(&mut buf, 0),
                Some(exchange) => {
                    put_u8(&mut buf, 1);
                    put_u64(&mut buf, exchange.block_bytes());
                    put_u32(&mut buf, exchange.window());
                    put_u32(&mut buf, exchange.max_window());
                    put_u32(&mut buf, exchange.validated_rounds());
                    put_u32(&mut buf, exchange.invalid_blocks());
                }
            }
        }
        // exchange-lint: allow(D001, reason = "drained into a sorted Vec on the next line; serialized in RingId order")
        let mut rids: Vec<RingId> = self.rings.keys().copied().collect();
        rids.sort_unstable();
        put_usize(&mut buf, rids.len());
        for rid in rids {
            // exchange-lint: allow(H001, reason = "rid drawn from rings.keys() three lines up")
            let ring = &self.rings[&rid];
            put_u64(&mut buf, rid);
            put_usize(&mut buf, ring.transfers.len());
            // exchange-lint: allow(D001, reason = "ring.transfers is an ordered Vec, not a map")
            for tid in &ring.transfers {
                put_u64(&mut buf, *tid);
            }
        }
        write_section(writer, TAG_TRANSFERS, &buf)?;

        // DES engine: clock, horizon, delivered counter, pending events.
        buf.clear();
        put_time(&mut buf, self.engine.now());
        match self.engine.horizon() {
            None => put_u8(&mut buf, 0),
            Some(h) => {
                put_u8(&mut buf, 1);
                put_time(&mut buf, h);
            }
        }
        put_u64(&mut buf, self.engine.delivered());
        put_u64(&mut buf, self.engine.queue().next_seq());
        let entries = self.engine.queue().sorted_entries();
        put_usize(&mut buf, entries.len());
        for (time, seq, event) in entries {
            put_time(&mut buf, time);
            put_u64(&mut buf, seq);
            put_event(&mut buf, event);
        }
        write_section(writer, TAG_ENGINE, &buf)?;

        // Upload-scheduler state (credit tables and the like).
        buf.clear();
        match self.scheduler.export_state() {
            SchedulerState::Stateless => put_u8(&mut buf, 0),
            SchedulerState::EmuleCredit(rows) => {
                put_u8(&mut buf, 1);
                put_usize(&mut buf, rows.len());
                for (a, b, up, down) in rows {
                    put_peer(&mut buf, a);
                    put_peer(&mut buf, b);
                    put_u64(&mut buf, up);
                    put_u64(&mut buf, down);
                }
            }
            SchedulerState::TitForTat(rows) => {
                put_u8(&mut buf, 2);
                put_usize(&mut buf, rows.len());
                for (a, b, bytes) in rows {
                    put_peer(&mut buf, a);
                    put_peer(&mut buf, b);
                    put_u64(&mut buf, bytes);
                }
            }
            SchedulerState::ParticipationLevel { reported, honest } => {
                put_u8(&mut buf, 3);
                put_usize(&mut buf, reported.len());
                for (peer, level) in reported {
                    put_peer(&mut buf, peer);
                    put_f64(&mut buf, level);
                }
                put_usize(&mut buf, honest.len());
                for (peer, bytes) in honest {
                    put_peer(&mut buf, peer);
                    put_u64(&mut buf, bytes);
                }
            }
        }
        write_section(writer, TAG_SCHEDULER, &buf)?;

        // Population bookkeeping: armed maintenance/generation flags.
        buf.clear();
        put_usize(&mut buf, self.maintenance_pending.len());
        for &pending in &self.maintenance_pending {
            put_bool(&mut buf, pending);
        }
        put_usize(&mut buf, self.generate_queued.len());
        for &queued in &self.generate_queued {
            put_u32(&mut buf, queued);
        }
        write_section(writer, TAG_POPULATION, &buf)?;

        // Ring-candidate cache: tag, counters, entries (sorted roots).
        buf.clear();
        put_u8(&mut buf, RING_CACHE_TAG);
        let stats = self.ring_cache.stats();
        put_u64(&mut buf, stats.hits);
        put_u64(&mut buf, stats.misses);
        put_u64(&mut buf, stats.invalidations);
        put_usize(&mut buf, self.ring_cache.len());
        for entry in self.ring_cache.iter_entries() {
            put_peer(&mut buf, entry.root);
            put_usize(&mut buf, entry.wants.len());
            for object in entry.wants {
                put_object(&mut buf, *object);
            }
            put_usize(&mut buf, entry.rings.len());
            // exchange-lint: allow(D001, reason = "entry.rings is the cache entry's ordered Vec, not a map")
            for ring in entry.rings {
                put_usize(&mut buf, ring.edges().len());
                for edge in ring.edges() {
                    put_peer(&mut buf, edge.uploader);
                    put_peer(&mut buf, edge.downloader);
                    put_object(&mut buf, edge.object);
                }
            }
            put_usize(&mut buf, entry.deps.len());
            for peer in entry.deps {
                put_peer(&mut buf, *peer);
            }
            put_usize(&mut buf, entry.edge_deps.len());
            for peer in entry.edge_deps {
                put_peer(&mut buf, *peer);
            }
        }
        write_section(writer, TAG_RING_CACHE, &buf)?;

        // Report accumulators.
        buf.clear();
        let parts = self.report.to_parts();
        put_tally(&mut buf, &parts.download_time_min);
        put_usize(&mut buf, parts.capacity_download_min.len());
        for (class, set) in &parts.capacity_download_min {
            put_u8(&mut buf, capacity_class_tag(*class));
            put_samples(&mut buf, set);
        }
        for map in [&parts.waiting_secs, &parts.session_bytes] {
            put_usize(&mut buf, map.len());
            for (kind, set) in map {
                let (tag, ring_size) = session_kind_tag(*kind);
                put_u8(&mut buf, tag);
                if let Some(size) = ring_size {
                    put_u64(&mut buf, size);
                }
                put_samples(&mut buf, set);
            }
        }
        put_usize(&mut buf, parts.session_counts.len());
        for (kind, count) in &parts.session_counts {
            let (tag, ring_size) = session_kind_tag(*kind);
            put_u8(&mut buf, tag);
            if let Some(size) = ring_size {
                put_u64(&mut buf, size);
            }
            put_u64(&mut buf, *count);
        }
        put_usize(&mut buf, parts.session_ends.len());
        for (end, count) in &parts.session_ends {
            put_u8(&mut buf, session_end_tag(*end));
            put_u64(&mut buf, *count);
        }
        put_tally(&mut buf, &parts.volume_per_peer_mb);
        put_usize(&mut buf, parts.behaviors.len());
        for (kind, stats) in &parts.behaviors {
            put_u8(&mut buf, behavior_kind_tag(*kind));
            put_usize(&mut buf, stats.peers);
            put_u64(&mut buf, stats.uploaded_bytes);
            put_u64(&mut buf, stats.downloaded_bytes);
            put_u64(&mut buf, stats.junk_bytes);
            put_u64(&mut buf, stats.ciphertext_bytes);
            put_u64(&mut buf, stats.completed_downloads);
            put_u64(&mut buf, stats.ciphertext_downloads);
            put_u64(&mut buf, stats.cheat_detections);
            put_stats(&mut buf, &stats.download_time_min);
        }
        put_u64(&mut buf, parts.completed_downloads);
        put_usize(&mut buf, parts.rings_formed.len());
        for (size, count) in &parts.rings_formed {
            put_usize(&mut buf, *size);
            put_u64(&mut buf, *count);
        }
        put_u64(&mut buf, parts.token_declines);
        put_u64(&mut buf, parts.rings_dissolved_at_activation);
        put_u64(&mut buf, parts.preemptions);
        put_u64(&mut buf, parts.ring_cache.hits);
        put_u64(&mut buf, parts.ring_cache.misses);
        put_u64(&mut buf, parts.ring_cache.invalidations);
        put_f64(&mut buf, parts.sim_seconds);
        put_usize(&mut buf, parts.peers);
        write_section(writer, TAG_REPORT, &buf)?;

        Ok(())
    }

    /// Rebuilds a simulation from a snapshot previously written by
    /// [`checkpoint`](Self::checkpoint), under the **same** `config` the
    /// checkpointed run used.  Continuing the restored simulation is
    /// bit-identical to continuing the original.
    ///
    /// # Errors
    ///
    /// Returns an error — never panics — when the reader fails, the input is
    /// not a snapshot, was written by a different format version, is
    /// truncated, or is internally inconsistent (including a `config` that
    /// does not match the snapshot's population).
    pub fn restore<R: Read>(
        reader: &mut R,
        config: &SimConfig,
    ) -> Result<Simulation, SnapshotError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        let mut cur = Cursor::new(&bytes);

        // Header.
        let magic = cur.take(8).map_err(|_| SnapshotError::BadMagic)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = cur.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let setup_seed = cur.u64()?;
        let num_peers = usize::try_from(cur.u64()?).map_err(|_| SnapshotError::Truncated)?;
        if num_peers != config.num_peers {
            return Err(corrupt(format!(
                "snapshot holds {num_peers} peers but the config expects {}",
                config.num_peers
            )));
        }
        config
            .validate()
            .map_err(|e| corrupt(format!("invalid config for restore: {e}")))?;

        // Regenerate the pure setup, then overwrite everything a run mutates.
        let setup = SimSetup::generate(config, setup_seed);
        let mut sim = Simulation::from_setup(config.clone(), &setup, setup_seed);

        // RNG streams.
        let mut sec = read_section(&mut cur, TAG_RNGS)?;
        sim.rng_requests = read_rng(&mut sec)?;
        sim.rng_lookup = read_rng(&mut sec)?;
        sim.rng_storage = read_rng(&mut sec)?;
        sim.rng_churn = read_rng(&mut sec)?;
        sec.done()?;

        // Catalog: replay flash-crowd releases on the regenerated catalog.
        let mut sec = read_section(&mut cur, TAG_CATALOG)?;
        let setup_objects = sec.seq_len(0)?;
        if setup_objects != sim.setup_objects {
            return Err(corrupt(format!(
                "snapshot's setup catalog has {setup_objects} objects, regenerated setup has {}",
                sim.setup_objects
            )));
        }
        let released = sec.seq_len(12)?;
        for _ in 0..released {
            let category = sec.u32()?;
            if (category as usize) >= sim.catalog.num_categories() {
                return Err(corrupt(format!(
                    "released object names unknown category {category}"
                )));
            }
            let size = sec.u64()?;
            sim.catalog.release_object(CategoryId::new(category), size);
        }
        sec.done()?;
        let num_objects = sim.catalog.num_objects();

        // Per-peer mutable state.
        let mut sec = read_section(&mut cur, TAG_PEERS)?;
        for i in 0..num_peers {
            // exchange-lint: allow(H001, reason = "i < num_peers == sim.peers.len(), checked in the header")
            let peer = &mut sim.peers[i];
            peer.online = sec.bool()?;
            let stored = sec.seq_len(4)?;
            let mut storage = Storage::new(peer.storage.capacity());
            for _ in 0..stored {
                storage.insert(sec.object(num_objects)?);
            }
            peer.storage = storage;
            let upload_in_use = sec.seq_len(0)?;
            let download_in_use = sec.seq_len(0)?;
            for (pool, in_use) in [
                (&mut peer.upload_slots, upload_in_use),
                (&mut peer.download_slots, download_in_use),
            ] {
                for _ in 0..in_use {
                    pool.reserve()
                        .map_err(|_| corrupt("slot occupancy exceeds the pool capacity"))?;
                }
            }
            let wants = sec.seq_len(4)?;
            let mut want_map = BTreeMap::new();
            for _ in 0..wants {
                let object = sec.object(num_objects)?;
                let issued_at = sec.time()?;
                let received_bytes = sec.u64()?;
                let providers_len = sec.seq_len(4)?;
                let mut providers = Vec::with_capacity(providers_len);
                for _ in 0..providers_len {
                    providers.push(sec.peer(num_peers)?);
                }
                let active_sessions = sec.seq_len(0)?;
                let mut want = WantState::new(issued_at, providers);
                want.received_bytes = received_bytes;
                want.active_sessions = active_sessions;
                if want_map.insert(object, want).is_some() {
                    return Err(corrupt("duplicate want entry"));
                }
            }
            peer.wants = want_map;
            peer.downloaded_bytes = sec.u64()?;
            peer.uploaded_bytes = sec.u64()?;
            peer.junk_bytes = sec.u64()?;
            peer.ciphertext_bytes = sec.u64()?;
        }
        sec.done()?;

        // Rebuild the holders index from the restored storage (sharing and
        // honesty are fixed per behavior, so this is a pure function of the
        // per-peer state just read).
        let mut holders = vec![BTreeSet::new(); num_objects];
        let mut honest_holders = vec![0u32; num_objects];
        for (peer, behavior) in sim.peers.iter().zip(sim.behaviors.iter()) {
            if !peer.sharing || !peer.online {
                continue;
            }
            let honest = behavior.shares_honestly();
            for object in peer.storage.iter() {
                holders[object.as_usize()].insert(peer.id);
                if honest {
                    honest_holders[object.as_usize()] += 1;
                }
            }
        }
        sim.holders = holders;
        sim.honest_holders = honest_holders;

        // Request graph and its undrained dirty log.
        let mut sec = read_section(&mut cur, TAG_GRAPH)?;
        let edges_len = sec.seq_len(12)?;
        let mut edges = Vec::with_capacity(edges_len);
        for _ in 0..edges_len {
            let requester = sec.peer(num_peers)?;
            let provider = sec.peer(num_peers)?;
            let object = sec.object(num_objects)?;
            edges.push((requester, provider, object));
        }
        let generation = sec.u64()?;
        let dirty_len = sec.seq_len(4)?;
        let mut endpoints = Vec::with_capacity(dirty_len);
        for _ in 0..dirty_len {
            endpoints.push(sec.peer(num_peers)?);
        }
        let dirty_edges_len = sec.seq_len(12)?;
        let mut dirty_edges = BTreeSet::new();
        for _ in 0..dirty_edges_len {
            let provider = sec.peer(num_peers)?;
            let requester = sec.peer(num_peers)?;
            let object = sec.object(num_objects)?;
            dirty_edges.insert((provider, requester, object));
        }
        if !dirty_log_peers(&dirty_edges).into_iter().eq(endpoints) {
            return Err(corrupt(
                "snapshot dirty-peer list does not match its dirty-edge log",
            ));
        }
        sim.graph = RequestGraph::from_parts(edges, generation, dirty_edges);
        sim.drained_generation = sec.u64()?;
        sec.done()?;

        // Transfers and rings; rebuild the reverse indexes as we go.
        let mut sec = read_section(&mut cur, TAG_TRANSFERS)?;
        sim.next_transfer_id = sec.u64()?;
        sim.next_ring_id = sec.u64()?;
        sim.transfer_epoch = sec.u64()?;
        sim.world_epoch = sec.u64()?;
        let transfers_len = sec.seq_len(8)?;
        let mut transfers = HashMap::with_capacity(transfers_len);
        let mut uploads_by_peer: HashMap<PeerId, Vec<TransferId>> = HashMap::new();
        let mut downloads_by_want: HashMap<(PeerId, ObjectId), Vec<TransferId>> = HashMap::new();
        for _ in 0..transfers_len {
            let tid = sec.u64()?;
            if tid >= sim.next_transfer_id {
                return Err(corrupt(format!(
                    "transfer id {tid} not below the id counter"
                )));
            }
            let uploader = sec.peer(num_peers)?;
            let downloader = sec.peer(num_peers)?;
            let object = sec.object(num_objects)?;
            let kind = sec.session_kind()?;
            let ring = match sec.u8()? {
                0 => None,
                1 => {
                    let rid = sec.u64()?;
                    if rid >= sim.next_ring_id {
                        return Err(corrupt(format!("ring id {rid} not below the id counter")));
                    }
                    Some(rid)
                }
                t => Err(corrupt(format!("invalid option tag {t}")))?,
            };
            let rate = sec.f64()?;
            if !rate.is_finite() || rate <= 0.0 {
                return Err(corrupt("transfer rate must be finite and positive"));
            }
            let block_bytes = sec.u64()?;
            if block_bytes == 0 {
                return Err(corrupt("transfer block size must be positive"));
            }
            let started_at = sec.time()?;
            let bytes_transferred = sec.u64()?;
            let mut session = TransferSession::new(rate, block_bytes, started_at);
            if bytes_transferred > 0 {
                session.record_block(bytes_transferred);
            }
            let validation = match sec.u8()? {
                0 => None,
                1 => {
                    let block = sec.u64()?;
                    let window = sec.u32()?;
                    let max_window = sec.u32()?;
                    let validated_rounds = sec.u32()?;
                    let invalid_blocks = sec.u32()?;
                    if block == 0 || max_window == 0 || !(1..=max_window).contains(&window) {
                        return Err(corrupt("invalid validation-window state"));
                    }
                    Some(WindowedExchange::from_parts(
                        block,
                        window,
                        max_window,
                        validated_rounds,
                        invalid_blocks,
                    ))
                }
                t => Err(corrupt(format!("invalid option tag {t}")))?,
            };
            uploads_by_peer.entry(uploader).or_default().push(tid);
            downloads_by_want
                .entry((downloader, object))
                .or_default()
                .push(tid);
            let transfer = ActiveTransfer {
                uploader,
                downloader,
                object,
                kind,
                ring,
                session,
                validation,
            };
            if transfers.insert(tid, transfer).is_some() {
                return Err(corrupt(format!("duplicate transfer id {tid}")));
            }
        }
        // Serialized in ascending id order already; sort defensively so a
        // permuted (corrupt) input cannot smuggle in nondeterminism.
        // exchange-lint: allow(D001, reason = "visit order is irrelevant: each Vec is sorted independently")
        for tids in uploads_by_peer.values_mut() {
            tids.sort_unstable();
        }
        // exchange-lint: allow(D001, reason = "visit order is irrelevant: each Vec is sorted independently")
        for tids in downloads_by_want.values_mut() {
            tids.sort_unstable();
        }
        sim.transfers = transfers;
        sim.uploads_by_peer = uploads_by_peer;
        sim.downloads_by_want = downloads_by_want;
        let rings_len = sec.seq_len(8)?;
        let mut rings = HashMap::with_capacity(rings_len);
        for _ in 0..rings_len {
            let rid = sec.u64()?;
            if rid >= sim.next_ring_id {
                return Err(corrupt(format!("ring id {rid} not below the id counter")));
            }
            let members = sec.seq_len(8)?;
            let mut ring_transfers = Vec::with_capacity(members);
            for _ in 0..members {
                let tid = sec.u64()?;
                if !sim.transfers.contains_key(&tid) {
                    return Err(corrupt(format!("ring references unknown transfer {tid}")));
                }
                ring_transfers.push(tid);
            }
            if rings
                .insert(
                    rid,
                    ActiveRing {
                        transfers: ring_transfers,
                    },
                )
                .is_some()
            {
                return Err(corrupt(format!("duplicate ring id {rid}")));
            }
        }
        sim.rings = rings;
        sec.done()?;

        // DES engine.
        let mut sec = read_section(&mut cur, TAG_ENGINE)?;
        let now = sec.time()?;
        let horizon = match sec.u8()? {
            0 => None,
            1 => Some(sec.time()?),
            t => Err(corrupt(format!("invalid option tag {t}")))?,
        };
        let delivered = sec.u64()?;
        let next_seq = sec.u64()?;
        let entries_len = sec.seq_len(17)?;
        let mut entries = Vec::with_capacity(entries_len);
        for _ in 0..entries_len {
            let time = sec.time()?;
            let seq = sec.u64()?;
            if seq >= next_seq {
                return Err(corrupt(format!(
                    "event sequence {seq} not below the counter"
                )));
            }
            let event = sec.event(num_peers, sim.next_transfer_id)?;
            entries.push((time, seq, event));
        }
        sim.engine = Scheduler::from_parts(
            now,
            horizon,
            delivered,
            EventQueue::from_parts(entries, next_seq),
        );
        sec.done()?;

        // Upload-scheduler state.
        let mut sec = read_section(&mut cur, TAG_SCHEDULER)?;
        let state = match sec.u8()? {
            0 => SchedulerState::Stateless,
            1 => {
                let n = sec.seq_len(24)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let a = sec.peer(num_peers)?;
                    let b = sec.peer(num_peers)?;
                    let up = sec.u64()?;
                    let down = sec.u64()?;
                    rows.push((a, b, up, down));
                }
                SchedulerState::EmuleCredit(rows)
            }
            2 => {
                let n = sec.seq_len(12)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let a = sec.peer(num_peers)?;
                    let b = sec.peer(num_peers)?;
                    let bytes = sec.u64()?;
                    rows.push((a, b, bytes));
                }
                SchedulerState::TitForTat(rows)
            }
            3 => {
                let n = sec.seq_len(12)?;
                let mut reported = Vec::with_capacity(n);
                for _ in 0..n {
                    let peer = sec.peer(num_peers)?;
                    let level = sec.f64()?;
                    reported.push((peer, level));
                }
                let n = sec.seq_len(12)?;
                let mut honest = Vec::with_capacity(n);
                for _ in 0..n {
                    let peer = sec.peer(num_peers)?;
                    let bytes = sec.u64()?;
                    honest.push((peer, bytes));
                }
                SchedulerState::ParticipationLevel { reported, honest }
            }
            t => return Err(corrupt(format!("unknown scheduler-state tag {t}"))),
        };
        sim.scheduler.import_state(state);
        sec.done()?;

        // Population bookkeeping.
        let mut sec = read_section(&mut cur, TAG_POPULATION)?;
        let n = sec.seq_len(1)?;
        if n != num_peers {
            return Err(corrupt(
                "maintenance-pending length does not match the population",
            ));
        }
        let mut maintenance_pending = Vec::with_capacity(n);
        for _ in 0..n {
            maintenance_pending.push(sec.bool()?);
        }
        sim.maintenance_pending = maintenance_pending;
        let n = sec.seq_len(4)?;
        if n != num_peers {
            return Err(corrupt(
                "generate-queued length does not match the population",
            ));
        }
        let mut generate_queued = Vec::with_capacity(n);
        for _ in 0..n {
            generate_queued.push(sec.u32()?);
        }
        sim.generate_queued = generate_queued;
        sec.done()?;

        // Ring-candidate cache: replay the stores (which never touch the
        // counters), then reinstate the captured counters.
        let mut sec = read_section(&mut cur, TAG_RING_CACHE)?;
        let tag = sec.u8()?;
        if tag != RING_CACHE_TAG {
            return Err(corrupt(format!("unsupported ring-cache tag {tag}")));
        }
        let stats = RingCacheStats {
            hits: sec.u64()?,
            misses: sec.u64()?,
            invalidations: sec.u64()?,
        };
        let entries = sec.seq_len(4)?;
        for _ in 0..entries {
            let root = sec.peer(num_peers)?;
            let wants_len = sec.seq_len(4)?;
            let mut wants = Vec::with_capacity(wants_len);
            for _ in 0..wants_len {
                wants.push(sec.object(num_objects)?);
            }
            let rings_len = sec.seq_len(8)?;
            let mut cached_rings = Vec::with_capacity(rings_len);
            for _ in 0..rings_len {
                let edge_count = sec.seq_len(12)?;
                let mut ring_edges = Vec::with_capacity(edge_count);
                for _ in 0..edge_count {
                    let uploader = sec.peer(num_peers)?;
                    let downloader = sec.peer(num_peers)?;
                    let object = sec.object(num_objects)?;
                    ring_edges.push(RingEdge {
                        uploader,
                        downloader,
                        object,
                    });
                }
                let ring = ExchangeRing::new(ring_edges)
                    .map_err(|e| corrupt(format!("invalid cached ring: {e}")))?;
                cached_rings.push(ring);
            }
            let deps_len = sec.seq_len(4)?;
            let mut deps = Vec::with_capacity(deps_len);
            for _ in 0..deps_len {
                deps.push(sec.peer(num_peers)?);
            }
            let edge_deps_len = sec.seq_len(4)?;
            let mut edge_deps = Vec::with_capacity(edge_deps_len);
            for _ in 0..edge_deps_len {
                edge_deps.push(sec.peer(num_peers)?);
            }
            sim.ring_cache.store(
                root,
                wants,
                SearchTrace {
                    rings: cached_rings,
                    deps,
                    edge_deps,
                },
            );
        }
        sim.ring_cache.set_stats(stats);
        sec.done()?;

        // Report accumulators.
        let mut sec = read_section(&mut cur, TAG_REPORT)?;
        let download_time_min = read_tally(&mut sec)?;
        let n = sec.seq_len(1)?;
        let mut capacity_download_min = BTreeMap::new();
        for _ in 0..n {
            let class = sec.capacity_class()?;
            capacity_download_min.insert(class, sec.samples()?);
        }
        let mut kind_sample_maps = Vec::with_capacity(2);
        for _ in 0..2 {
            let n = sec.seq_len(1)?;
            let mut map = BTreeMap::new();
            for _ in 0..n {
                let kind = sec.session_kind()?;
                map.insert(kind, sec.samples()?);
            }
            kind_sample_maps.push(map);
        }
        let session_bytes = kind_sample_maps.pop().ok_or(SnapshotError::Truncated)?;
        let waiting_secs = kind_sample_maps.pop().ok_or(SnapshotError::Truncated)?;
        let n = sec.seq_len(1)?;
        let mut session_counts = BTreeMap::new();
        for _ in 0..n {
            let kind = sec.session_kind()?;
            session_counts.insert(kind, sec.u64()?);
        }
        let n = sec.seq_len(1)?;
        let mut session_ends = BTreeMap::new();
        for _ in 0..n {
            let end = sec.session_end()?;
            session_ends.insert(end, sec.u64()?);
        }
        let volume_per_peer_mb = read_tally(&mut sec)?;
        let n = sec.seq_len(1)?;
        let mut behaviors = BTreeMap::new();
        for _ in 0..n {
            let kind = sec.behavior_kind()?;
            let peers = sec.seq_len(0)?;
            let uploaded_bytes = sec.u64()?;
            let downloaded_bytes = sec.u64()?;
            let junk_bytes = sec.u64()?;
            let ciphertext_bytes = sec.u64()?;
            let completed_downloads = sec.u64()?;
            let ciphertext_downloads = sec.u64()?;
            let cheat_detections = sec.u64()?;
            let download_time_min = sec.stats()?;
            behaviors.insert(
                kind,
                crate::BehaviorStats {
                    peers,
                    uploaded_bytes,
                    downloaded_bytes,
                    junk_bytes,
                    ciphertext_bytes,
                    completed_downloads,
                    ciphertext_downloads,
                    cheat_detections,
                    download_time_min,
                },
            );
        }
        let completed_downloads = sec.u64()?;
        let n = sec.seq_len(16)?;
        let mut rings_formed = BTreeMap::new();
        for _ in 0..n {
            let size = sec.seq_len(0)?;
            rings_formed.insert(size, sec.u64()?);
        }
        let token_declines = sec.u64()?;
        let rings_dissolved_at_activation = sec.u64()?;
        let preemptions = sec.u64()?;
        let report_cache_stats = RingCacheStats {
            hits: sec.u64()?,
            misses: sec.u64()?,
            invalidations: sec.u64()?,
        };
        let sim_seconds = sec.f64()?;
        let report_peers = sec.seq_len(0)?;
        sim.report = SimReport::from_parts(ReportParts {
            download_time_min,
            capacity_download_min,
            waiting_secs,
            session_bytes,
            session_counts,
            session_ends,
            volume_per_peer_mb,
            behaviors,
            completed_downloads,
            rings_formed,
            token_declines,
            rings_dissolved_at_activation,
            preemptions,
            ring_cache: report_cache_stats,
            sim_seconds,
            peers: report_peers,
        });
        sec.done()?;

        cur.done()?;
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sim() -> Simulation {
        let mut config = SimConfig::quick_test();
        config.sim_duration_s = 120.0;
        Simulation::new(config, 42)
    }

    fn snapshot_of(sim: &Simulation) -> Vec<u8> {
        let mut bytes = Vec::new();
        sim.checkpoint(&mut bytes).expect("Vec writer cannot fail");
        bytes
    }

    #[test]
    fn restore_round_trips_bytes_exactly() {
        let mut sim = quick_sim();
        sim.run_until(SimTime::from_secs_f64(60.0));
        let config = sim.config().clone();
        let bytes = snapshot_of(&sim);
        let restored =
            Simulation::restore(&mut bytes.as_slice(), &config).expect("restore a valid snapshot");
        assert_eq!(snapshot_of(&restored), bytes);
    }

    #[test]
    fn truncated_snapshots_error_at_every_length() {
        let mut sim = quick_sim();
        sim.run_until(SimTime::from_secs_f64(30.0));
        let config = sim.config().clone();
        let bytes = snapshot_of(&sim);
        // Walk a sample of prefixes (every length would be O(n²) in test
        // time); always include the boundary cases.
        let mut cuts: Vec<usize> = (0..bytes.len()).step_by(97).collect();
        cuts.extend([0, 1, 7, 8, 11, 12, bytes.len() - 1]);
        for cut in cuts {
            let truncated = &bytes[..cut];
            let err = Simulation::restore(&mut &truncated[..], &config)
                .err()
                .unwrap_or_else(|| panic!("truncation at {cut} must fail"));
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated | SnapshotError::BadMagic | SnapshotError::Corrupt(_)
                ),
                "unexpected error at cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let sim = quick_sim();
        let config = sim.config().clone();
        let mut bytes = snapshot_of(&sim);
        bytes[0] ^= 0xFF;
        let err = match Simulation::restore(&mut bytes.as_slice(), &config) {
            Ok(_) => panic!("bad magic must fail"),
            Err(e) => e,
        };
        assert!(matches!(err, SnapshotError::BadMagic), "{err}");
    }

    #[test]
    fn future_versions_are_rejected() {
        let sim = quick_sim();
        let config = sim.config().clone();
        let mut bytes = snapshot_of(&sim);
        bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        let err = match Simulation::restore(&mut bytes.as_slice(), &config) {
            Ok(_) => panic!("future version must fail"),
            Err(e) => e,
        };
        assert!(
            matches!(
                err,
                SnapshotError::UnsupportedVersion {
                    found,
                    supported: SNAPSHOT_VERSION,
                } if found == SNAPSHOT_VERSION + 1
            ),
            "{err}"
        );
    }

    #[test]
    fn population_mismatch_is_rejected() {
        let sim = quick_sim();
        let mut other = sim.config().clone();
        other.num_peers += 1;
        let bytes = snapshot_of(&sim);
        let err = match Simulation::restore(&mut bytes.as_slice(), &other) {
            Ok(_) => panic!("population mismatch must fail"),
            Err(e) => e,
        };
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    #[test]
    fn random_corruption_never_panics() {
        let mut sim = quick_sim();
        sim.run_until(SimTime::from_secs_f64(30.0));
        let config = sim.config().clone();
        let bytes = snapshot_of(&sim);
        let mut rng = DetRng::seed_from(7);
        for _ in 0..200 {
            let mut corrupted = bytes.clone();
            let pos = (rng.next_u64() as usize) % corrupted.len();
            let bit = rng.next_u64() % 8;
            corrupted[pos] ^= 1 << bit;
            // Either outcome is fine — some flips land in payload values and
            // restore to a different-but-valid state — as long as nothing
            // panics.
            let _ = Simulation::restore(&mut corrupted.as_slice(), &config);
        }
    }
}
