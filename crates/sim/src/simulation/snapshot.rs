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
//! the search scratches and the search's holder marks) are rebuilt rather
//! than stored — the search scratches and holder marks are pure
//! memoization with a warm-equals-cold guarantee, so a resumed run starting
//! cold stays bit-identical.
//!
//! # Wire format
//!
//! Everything is little-endian.  The file starts with a fixed header —
//! magic `XCHGSNAP`, format version (`u32`), setup seed (`u64`), peer count
//! (`u64`) — followed by tagged, length-prefixed sections (`tag: u8`,
//! `len: u64`, payload) in a fixed order.  Inside the payloads, each type's
//! layout lives in exactly one place: its [`Encode`] impl, with the
//! validated [`Decode`] impl that reads it back right beside it.  `f64`s
//! travel as [`f64::to_bits`] so accumulators survive exactly; sequences,
//! maps and sets are a `u64` count and their items; an `Option` is a `0`/`1`
//! tag byte before its value; a tuple or record is its fields in order; and
//! a fieldless enum is one byte, its position in the enum's `const` tag
//! table.  `checkpoint` and `restore` only list the ten sections and the
//! checks across them, so a layout change edits one impl — and bumps
//! [`SNAPSHOT_VERSION`].
//!
//! # Version policy
//!
//! [`SNAPSHOT_VERSION`] must be bumped whenever the layout of any section
//! changes (a field added, removed, reordered, or re-encoded).  Readers
//! reject snapshots from any other version with
//! [`SnapshotError::UnsupportedVersion`] — there is no cross-version
//! migration; checkpoints are an intra-version resume mechanism, not an
//! archival format.  The golden fixtures under `crates/sim/tests/golden/`
//! pin the current layout; regenerate them with `UPDATE_SNAPSHOTS=1` when
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
use exchange::{ExchangeRing, FastState, RequestGraph, RingEdge, SearchTrace};
use metrics::{ClassTally, OnlineStats, SampleSet};
use netsim::TransferSession;
use workload::{CategoryId, ObjectId, PeerId, Storage};

use crate::{
    BehaviorKind, CapacityClass, PeerClass, PeerState, SessionEnd, SessionKind, SimConfig,
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

/// A [`SnapshotError::Corrupt`] with a `format!`-style message.
macro_rules! corrupt {
    ($($msg:tt)+) => {
        SnapshotError::Corrupt(format!($($msg)+))
    };
}

// ---- the codec -------------------------------------------------------------

/// The write half of a type's wire layout.
pub(crate) trait Encode {
    fn encode(&self, out: &mut Vec<u8>);
}

/// The validated read half of a type's wire layout, written beside its
/// [`Encode`] impl.
pub(crate) trait Decode: Sized {
    /// A lower bound on the encoded size of one value.  A container rejects
    /// a count its remaining bytes cannot hold, so a corrupt length fails
    /// with [`SnapshotError::Truncated`] before anything is allocated.
    const MIN_LEN: usize = 1;

    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError>;
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: Encode + ?Sized> Encode for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

/// A bounds-checked cursor over a fully-read snapshot buffer.  Every read
/// returns `Err(Truncated)` instead of indexing past the end.
#[derive(Clone, Copy, Default)]
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Exclusive bound for decoded peer ids, set once the header is read.
    peers: usize,
    /// Exclusive bound for decoded object ids, set once the catalog section
    /// is read.
    objects: usize,
    /// Exclusive bound for transfer ids named by pending events, set once
    /// the transfer section is read.
    transfers: TransferId,
}

impl<'a> Cursor<'a> {
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

    pub(crate) fn decode<T: Decode>(&mut self) -> Result<T, SnapshotError> {
        T::decode(self)
    }

    /// Reads the count of a sequence of `T`s, rejecting counts the remaining
    /// bytes cannot possibly hold.
    fn len_of<T: Decode>(&mut self) -> Result<usize, SnapshotError> {
        let n: usize = self.decode()?;
        if n > self.remaining() / T::MIN_LEN.max(1) {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// Reads section `tag` with `read`, which must consume its payload
    /// exactly.  The section inherits this cursor's id bounds.
    fn section<T>(
        &mut self,
        tag: u8,
        read: impl FnOnce(&mut Cursor<'a>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        let found: u8 = self.decode()?;
        if found != tag {
            return Err(corrupt!("expected section tag {tag}, found {found}"));
        }
        let len = self.decode()?;
        let mut section = Cursor {
            buf: self.take(len)?,
            pos: 0,
            ..*self
        };
        let value = read(&mut section)?;
        section.done()?;
        Ok(value)
    }

    /// Asserts the payload was consumed exactly.
    fn done(&self) -> Result<(), SnapshotError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(corrupt!("{n} trailing bytes after a complete structure")),
        }
    }
}

/// Writes one tagged, length-prefixed section whose payload `write` encodes.
fn write_section<W: Write>(
    w: &mut W,
    tag: u8,
    write: impl FnOnce(&mut Vec<u8>),
) -> Result<(), SnapshotError> {
    let mut payload = Vec::new();
    write(&mut payload);
    w.write_all(&[tag])?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    Ok(w.write_all(&payload)?)
}

// ---- primitives ------------------------------------------------------------

macro_rules! le_codec {
    ($($ty:ty),+) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }

        impl Decode for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();

            fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
                let bytes = cur.take(std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().map_err(|_| SnapshotError::Truncated)?))
            }
        }
    )+};
}

le_codec!(u8, u32, u64);

/// A type that travels with `$wire`'s layout: `$to` turns a borrowed value
/// into something that encodes as `$wire` (often a borrowed view), and the
/// fallible `$from` converts a decoded `$wire` back, validating it.
macro_rules! via_codec {
    ($ty:ty as $wire:ty, |$v:ident| $to:expr, |$w:pat, $cur:ident| $from:expr) => {
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                let $v = self;
                $to.encode(out);
            }
        }

        impl Decode for $ty {
            const MIN_LEN: usize = <$wire as Decode>::MIN_LEN;

            fn decode($cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
                let $w: $wire = $cur.decode()?;
                $from
            }
        }
    };
}

via_codec!(usize as u64, |v| *v as u64, |w, _cur| {
    usize::try_from(w).map_err(|_| SnapshotError::Truncated)
});
via_codec!(f64 as u64, |v| v.to_bits(), |w, _cur| Ok(f64::from_bits(w)));
via_codec!(SimTime as u64, |v| v.as_micros(), |w, _cur| {
    Ok(SimTime::from_micros(w))
});
via_codec!(bool as u8, |v| u8::from(*v), |w, _cur| match w {
    0 => Ok(false),
    1 => Ok(true),
    _ => Err(corrupt!("invalid boolean byte {w}")),
});
via_codec!(PeerId as u32, |v| v.index(), |w, cur| {
    id_below(w, cur.peers, "peer").map(PeerId::new)
});
via_codec!(ObjectId as u32, |v| v.index(), |w, cur| {
    id_below(w, cur.objects, "object").map(ObjectId::new)
});

/// Range-checks a decoded id against its population's size.
fn id_below(raw: u32, bound: usize, what: &str) -> Result<u32, SnapshotError> {
    if raw as usize >= bound {
        return Err(corrupt!("{what} id {raw} out of range ({bound} {what}s)"));
    }
    Ok(raw)
}

// ---- containers ------------------------------------------------------------

/// Writes `len` and then each item: the layout of every sequence, map and
/// set.
fn encode_seq<T: Encode>(out: &mut Vec<u8>, len: usize, items: impl IntoIterator<Item = T>) {
    len.encode(out);
    for item in items {
        item.encode(out);
    }
}

/// Reads a count and that many `T`s into `C`, rejecting an item `insert`
/// refuses (a repeated key).
fn decode_unique<T: Decode, C: Default>(
    cur: &mut Cursor<'_>,
    mut insert: impl FnMut(&mut C, T) -> bool,
) -> Result<C, SnapshotError> {
    let mut out = C::default();
    for _ in 0..cur.len_of::<T>()? {
        if !insert(&mut out, cur.decode()?) {
            return Err(corrupt!("duplicate key"));
        }
    }
    Ok(out)
}

// exchange-lint: allow(H001, reason = "`for [T]` names the slice type; nothing is indexed")
impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(out, self.len(), self);
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    const MIN_LEN: usize = 8;

    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        // Collecting grows the vector with the items actually decoded, never
        // by the declared count alone.
        (0..cur.len_of::<T>()?).map(|_| cur.decode()).collect()
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => 0u8.encode(out),
            Some(value) => (1u8, value).encode(out),
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        match cur.decode::<u8>()? {
            0 => Ok(None),
            1 => Ok(Some(cur.decode()?)),
            t => Err(corrupt!("invalid option tag {t}")),
        }
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(out, self.len(), self);
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    const MIN_LEN: usize = 8;

    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        decode_unique(cur, |map: &mut Self, (k, v)| map.insert(k, v).is_none())
    }
}

impl<T: Encode> Encode for BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(out, self.len(), self);
    }
}

impl<T: Decode + Ord> Decode for BTreeSet<T> {
    const MIN_LEN: usize = 8;

    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        decode_unique(cur, BTreeSet::insert)
    }
}

/// Tuples are their fields in order.
macro_rules! tuple_codec {
    ($($name:ident: $ty:ident),+) => {
        impl<$($ty: Encode),+> Encode for ($($ty,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                let ($($name,)+) = self;
                $($name.encode(out);)+
            }
        }

        impl<$($ty: Decode),+> Decode for ($($ty,)+) {
            const MIN_LEN: usize = 0 $(+ $ty::MIN_LEN)+;

            fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
                Ok(($(cur.decode::<$ty>()?,)+))
            }
        }
    };
}

tuple_codec!(a: A, b: B);
tuple_codec!(a: A, b: B, c: C);
tuple_codec!(a: A, b: B, c: C, d: D);
tuple_codec!(a: A, b: B, c: C, d: D, e: E);
tuple_codec!(a: A, b: B, c: C, d: D, e: E, f: F);

/// A struct travels as its listed fields, in order.  Reading builds it with
/// a struct literal, so a field missing from the list does not compile.
macro_rules! record_codec {
    ($ty:ty { $($field:ident: $fty:ty),+ $(,)? }) => {
        impl $crate::simulation::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::simulation::Encode::encode(&self.$field, out);)+
            }
        }

        impl $crate::simulation::Decode for $ty {
            const MIN_LEN: usize = 0 $(+ <$fty as $crate::simulation::Decode>::MIN_LEN)+;

            fn decode(
                cur: &mut $crate::simulation::Cursor<'_>,
            ) -> Result<Self, $crate::simulation::SnapshotError> {
                Ok(Self {
                    $($field: cur.decode::<$fty>()?,)+
                })
            }
        }
    };
}
pub(crate) use record_codec;

// ---- enums -----------------------------------------------------------------

/// A fieldless enum is one byte: the variant's position in `$table`.
macro_rules! table_codec {
    ($ty:ty, $table:ident) => {
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                let tag = $table
                    .iter()
                    .position(|v| v == self)
                    .expect("every variant is listed in its tag table");
                (tag as u8).encode(out);
            }
        }

        impl Decode for $ty {
            fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
                let tag: u8 = cur.decode()?;
                $table
                    .get(usize::from(tag))
                    .copied()
                    .ok_or_else(|| corrupt!("unknown {} tag {tag}", stringify!($ty)))
            }
        }
    };
}

const SESSION_END_TAGS: [SessionEnd; 7] = [
    SessionEnd::DownloadComplete,
    SessionEnd::RingDissolved,
    SessionEnd::Preempted,
    SessionEnd::SourceLostObject,
    SessionEnd::CheatDetected,
    SessionEnd::HorizonReached,
    SessionEnd::PeerDeparted,
];
const PEER_CLASS_TAGS: [PeerClass; 2] = [PeerClass::Sharing, PeerClass::NonSharing];
const CAPACITY_CLASS_TAGS: [CapacityClass; 3] = [
    CapacityClass::Fast,
    CapacityClass::Medium,
    CapacityClass::Slow,
];
const BEHAVIOR_KIND_TAGS: [BehaviorKind; 5] = [
    BehaviorKind::Honest,
    BehaviorKind::FreeRider,
    BehaviorKind::JunkSender,
    BehaviorKind::ParticipationCheater,
    BehaviorKind::Middleman,
];

table_codec!(SessionEnd, SESSION_END_TAGS);
table_codec!(PeerClass, PEER_CLASS_TAGS);
table_codec!(CapacityClass, CAPACITY_CLASS_TAGS);
table_codec!(BehaviorKind, BEHAVIOR_KIND_TAGS);

impl Encode for SessionKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            SessionKind::NonExchange => 0u8.encode(out),
            SessionKind::Exchange { ring_size } => (1u8, ring_size).encode(out),
        }
    }
}

impl Decode for SessionKind {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        match cur.decode::<u8>()? {
            0 => Ok(SessionKind::NonExchange),
            1 => Ok(SessionKind::Exchange {
                ring_size: cur.decode()?,
            }),
            t => Err(corrupt!("unknown session-kind tag {t}")),
        }
    }
}

impl Encode for Event {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Event::Arrive(p) => (0u8, p).encode(out),
            Event::GenerateRequests(p) => (1u8, p).encode(out),
            Event::TrySchedule(p) => (2u8, p).encode(out),
            Event::BlockComplete(tid) => (3u8, tid).encode(out),
            Event::StorageMaintenance(p) => (4u8, p).encode(out),
            Event::Depart(p) => (5u8, p).encode(out),
            Event::Rejoin(p) => (6u8, p).encode(out),
            Event::Catastrophe => 7u8.encode(out),
            Event::FlashCrowd => 8u8.encode(out),
        }
    }
}

impl Decode for Event {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(match cur.decode::<u8>()? {
            0 => Event::Arrive(cur.decode()?),
            1 => Event::GenerateRequests(cur.decode()?),
            2 => Event::TrySchedule(cur.decode()?),
            3 => match cur.decode()? {
                tid if tid < cur.transfers => Event::BlockComplete(tid),
                tid => return Err(corrupt!("event names unknown transfer {tid}")),
            },
            4 => Event::StorageMaintenance(cur.decode()?),
            5 => Event::Depart(cur.decode()?),
            6 => Event::Rejoin(cur.decode()?),
            7 => Event::Catastrophe,
            8 => Event::FlashCrowd,
            t => return Err(corrupt!("unknown event tag {t}")),
        })
    }
}

impl Encode for SchedulerState<PeerId> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SchedulerState::Stateless => 0u8.encode(out),
            SchedulerState::EmuleCredit(rows) => (1u8, rows).encode(out),
            SchedulerState::TitForTat(rows) => (2u8, rows).encode(out),
            SchedulerState::ParticipationLevel { reported, honest } => {
                (3u8, reported, honest).encode(out);
            }
        }
    }
}

impl Decode for SchedulerState<PeerId> {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        Ok(match cur.decode::<u8>()? {
            0 => SchedulerState::Stateless,
            1 => SchedulerState::EmuleCredit(cur.decode()?),
            2 => SchedulerState::TitForTat(cur.decode()?),
            3 => SchedulerState::ParticipationLevel {
                reported: cur.decode()?,
                honest: cur.decode()?,
            },
            t => return Err(corrupt!("unknown scheduler-state tag {t}")),
        })
    }
}

// ---- foreign and simulation types ------------------------------------------

via_codec!(
    OnlineStats as (u64, f64, f64, f64, f64, f64),
    |v| v.raw_parts(),
    |(count, mean, m2, min, max, sum), _cur| {
        Ok(OnlineStats::from_raw_parts(count, mean, m2, min, max, sum))
    }
);

via_codec!(
    SampleSet as (Vec<f64>, usize, u64),
    |v| (v.samples(), v.capacity(), v.seen()),
    |(samples, capacity, seen), _cur| {
        if capacity == 0 || samples.len() > capacity {
            return Err(corrupt!("sample set exceeds its (positive) capacity"));
        }
        Ok(SampleSet::from_parts(samples, capacity, seen))
    }
);

impl<K: Encode + Ord> Encode for ClassTally<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(out, self.len(), self.iter());
    }
}

impl<K: Decode + Ord> Decode for ClassTally<K> {
    const MIN_LEN: usize = 8;

    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let mut tally = ClassTally::new();
        for (class, stats) in cur.decode::<BTreeMap<K, OnlineStats>>()? {
            tally.insert_stats(class, stats);
        }
        Ok(tally)
    }
}

via_codec!(
    DetRng as (u64, u64, u64, u64, u64),
    |v| {
        let (seed, [a, b, c, d]) = (v.seed(), v.state());
        (seed, a, b, c, d)
    },
    |(seed, a, b, c, d), _cur| Ok(DetRng::from_state(seed, [a, b, c, d]))
);

via_codec!(
    WindowedExchange as (u64, u32, u32, u32, u32),
    |w| {
        let head = (w.block_bytes(), w.window(), w.max_window());
        (head, w.validated_rounds(), w.invalid_blocks())
    },
    |(block, window, max_window, validated, invalid), _cur| {
        if block == 0 || max_window == 0 || !(1..=max_window).contains(&window) {
            return Err(corrupt!("invalid validation-window state"));
        }
        Ok(WindowedExchange::from_parts(
            block, window, max_window, validated, invalid,
        ))
    }
);

record_codec!(RingEdge<PeerId, ObjectId> {
    uploader: PeerId,
    downloader: PeerId,
    object: ObjectId,
});

via_codec!(
    ExchangeRing<PeerId, ObjectId> as Vec<RingEdge<PeerId, ObjectId>>,
    |v| v.edges(),
    |edges, _cur| ExchangeRing::new(edges).map_err(|e| corrupt!("invalid cached ring: {e}"))
);

record_codec!(SearchTrace<PeerId, ObjectId> {
    rings: Vec<ExchangeRing<PeerId, ObjectId>>,
    deps: Vec<PeerId>,
    edge_deps: Vec<PeerId>,
});

record_codec!(RingCacheStats {
    hits: u64,
    misses: u64,
    invalidations: u64,
});

via_codec!(
    TransferSession as (f64, u64, SimTime, u64),
    |s| {
        let rate = s.rate_bytes_per_sec();
        (rate, s.block_bytes(), s.started_at(), s.bytes_transferred())
    },
    |(rate, block, started_at, bytes), _cur| {
        if !rate.is_finite() || rate <= 0.0 || block == 0 {
            return Err(corrupt!("transfer rate and block size must be positive"));
        }
        let mut session = TransferSession::new(rate, block, started_at);
        session.record_block(bytes);
        Ok(session)
    }
);

record_codec!(ActiveTransfer {
    uploader: PeerId,
    downloader: PeerId,
    object: ObjectId,
    kind: SessionKind,
    ring: Option<RingId>,
    session: TransferSession,
    validation: Option<WindowedExchange>,
});

record_codec!(ActiveRing {
    transfers: Vec<TransferId>,
});

record_codec!(WantState {
    issued_at: SimTime,
    received_bytes: u64,
    providers: Vec<PeerId>,
    active_sessions: usize,
});

/// A peer's mutable state; everything else about it is regenerated with the
/// setup.
fn encode_peer(peer: &PeerState, out: &mut Vec<u8>) {
    peer.online.encode(out);
    encode_seq(out, peer.storage.len(), peer.storage.iter());
    (peer.upload_slots.in_use(), peer.download_slots.in_use()).encode(out);
    peer.wants.encode(out);
    (peer.downloaded_bytes, peer.uploaded_bytes).encode(out);
    (peer.junk_bytes, peer.ciphertext_bytes).encode(out);
}

/// Overwrites the run-mutated state of a freshly generated `peer`.
fn decode_peer(peer: &mut PeerState, cur: &mut Cursor<'_>) -> Result<(), SnapshotError> {
    peer.online = cur.decode()?;
    peer.storage = Storage::new(peer.storage.capacity());
    for object in cur.decode::<Vec<ObjectId>>()? {
        peer.storage.insert(object);
    }
    for pool in [&mut peer.upload_slots, &mut peer.download_slots] {
        for _ in 0..cur.decode::<usize>()? {
            pool.reserve()
                .map_err(|_| corrupt!("slot occupancy exceeds the pool capacity"))?;
        }
    }
    peer.wants = cur.decode()?;
    (peer.downloaded_bytes, peer.uploaded_bytes) = cur.decode()?;
    (peer.junk_bytes, peer.ciphertext_bytes) = cur.decode()?;
    Ok(())
}

type Edge = (PeerId, PeerId, ObjectId);

/// Every endpoint of the dirty-edge log — the peer view the v1 layout stores
/// ahead of the log itself.
fn dirty_log_peers(log: &BTreeSet<Edge>) -> BTreeSet<PeerId> {
    log.iter()
        .flat_map(|&(provider, requester, _)| [provider, requester])
        .collect()
}

/// The request graph with its undrained dirty log: the edges, the mutation
/// generation, the log's endpoints, then the log itself.
impl Encode for RequestGraph<PeerId, ObjectId> {
    fn encode(&self, out: &mut Vec<u8>) {
        let edges = self.iter().map(|r| (r.requester, r.provider, r.object));
        encode_seq(out, self.len(), edges);
        let log = self.dirty_edge_log();
        (self.generation(), dirty_log_peers(log), log).encode(out);
    }
}

impl Decode for RequestGraph<PeerId, ObjectId> {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let (edges, generation): (Vec<Edge>, u64) = cur.decode()?;
        let (endpoints, log): (Vec<PeerId>, BTreeSet<Edge>) = cur.decode()?;
        if edges.iter().any(|(from, to, _)| from == to) {
            return Err(corrupt!("the request graph lists a self-request"));
        }
        if !dirty_log_peers(&log).into_iter().eq(endpoints) {
            return Err(corrupt!("dirty-peer list disagrees with the edge log"));
        }
        Ok(RequestGraph::from_parts(edges, generation, log))
    }
}

/// The DES engine: clock, horizon, delivered count, sequence counter and the
/// pending events, none of which may predate the clock.
impl Encode for Scheduler<Event> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.now(), self.horizon(), self.delivered()).encode(out);
        (self.queue().next_seq(), self.queue().sorted_entries()).encode(out);
    }
}

impl Decode for Scheduler<Event> {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SnapshotError> {
        let (now, horizon, delivered, next_seq) = cur.decode()?;
        let entries: Vec<(SimTime, u64, Event)> = cur.decode()?;
        for &(time, seq, _) in &entries {
            if seq >= next_seq {
                return Err(corrupt!("event sequence {seq} not below the counter"));
            }
            if time < now {
                return Err(corrupt!("event at {time} precedes the clock at {now}"));
            }
        }
        let queue = EventQueue::from_parts(entries, next_seq);
        Ok(Scheduler::from_parts(now, horizon, delivered, queue))
    }
}

/// A map's entries in ascending id order, the order the snapshot stores.
fn sorted_by_id<V>(map: &HashMap<u64, V, FastState>) -> Vec<(u64, &V)> {
    // exchange-lint: allow(D001, reason = "collected into a Vec that is sorted by id on the next line")
    let mut entries: Vec<(u64, &V)> = map.iter().map(|(id, value)| (*id, value)).collect();
    entries.sort_unstable_by_key(|&(id, _)| id);
    entries
}

impl Simulation {
    /// Serializes the complete run state into `writer` (the
    /// `simulation::snapshot` module docs describe the format).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] when the writer fails; nothing else can
    /// go wrong on the write side.
    pub fn checkpoint<W: Write>(&self, writer: &mut W) -> Result<(), SnapshotError> {
        let mut header = SNAPSHOT_MAGIC.to_vec();
        (SNAPSHOT_VERSION, self.setup_seed, self.peers.len()).encode(&mut header);
        writer.write_all(&header)?;
        write_section(writer, TAG_RNGS, |out| {
            (&self.rng_requests, &self.rng_lookup).encode(out);
            (&self.rng_storage, &self.rng_churn).encode(out);
        })?;
        // Catalog: only the flash-crowd releases beyond the setup catalog.
        write_section(writer, TAG_CATALOG, |out| {
            let released: Vec<(u32, u64)> = (self.catalog.iter().skip(self.setup_objects))
                .map(|info| (info.category.index(), info.size_bytes))
                .collect();
            (self.setup_objects, released).encode(out);
        })?;
        write_section(writer, TAG_PEERS, |out| {
            self.peers.iter().for_each(|p| encode_peer(p, out))
        })?;
        let graph = (&self.graph, self.drained_generation);
        write_section(writer, TAG_GRAPH, |out| graph.encode(out))?;
        write_section(writer, TAG_TRANSFERS, |out| {
            (self.next_transfer_id, self.next_ring_id).encode(out);
            (self.transfer_epoch, self.world_epoch).encode(out);
            (sorted_by_id(&self.transfers), sorted_by_id(&self.rings)).encode(out);
        })?;
        write_section(writer, TAG_ENGINE, |out| self.engine.encode(out))?;
        let scheduler = self.scheduler.export_state();
        write_section(writer, TAG_SCHEDULER, |out| scheduler.encode(out))?;
        let population = (&self.maintenance_pending, &self.generate_queued);
        write_section(writer, TAG_POPULATION, |out| population.encode(out))?;
        write_section(writer, TAG_RING_CACHE, |out| {
            (RING_CACHE_TAG, self.ring_cache.stats()).encode(out);
            // Each entry is laid out as a `(root, wants, SearchTrace)` triple.
            let entries = (self.ring_cache.iter_entries())
                .map(|e| (e.root, e.wants, (e.rings, e.deps, e.edge_deps)));
            encode_seq(out, self.ring_cache.len(), entries);
        })?;
        write_section(writer, TAG_REPORT, |out| self.report.encode(out))
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
        let mut cur = Cursor {
            buf: &bytes,
            ..Cursor::default()
        };

        // Header.
        let magic = cur.take(8).map_err(|_| SnapshotError::BadMagic)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version: u32 = cur.decode()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let (setup_seed, num_peers): (u64, usize) = cur.decode()?;
        if num_peers != config.num_peers {
            return Err(corrupt!(
                "snapshot holds {num_peers} peers but the config expects {}",
                config.num_peers
            ));
        }
        config
            .validate()
            .map_err(|e| corrupt!("invalid config for restore: {e}"))?;
        cur.peers = num_peers;

        // Regenerate the pure setup, then overwrite everything a run mutates.
        let setup = SimSetup::generate(config, setup_seed);
        let mut sim = Simulation::from_setup(config.clone(), &setup, setup_seed);

        cur.section(TAG_RNGS, |sec| {
            (sim.rng_requests, sim.rng_lookup) = sec.decode()?;
            (sim.rng_storage, sim.rng_churn) = sec.decode()?;
            Ok(())
        })?;

        // Catalog: replay flash-crowd releases on the regenerated catalog.
        let (setup_objects, released): (usize, Vec<(u32, u64)>) =
            cur.section(TAG_CATALOG, Cursor::decode)?;
        if setup_objects != sim.setup_objects {
            return Err(corrupt!(
                "snapshot's setup catalog has {setup_objects} objects, regenerated setup has {}",
                sim.setup_objects
            ));
        }
        for (category, size) in released {
            if category as usize >= sim.catalog.num_categories() {
                return Err(corrupt!("release names unknown category {category}"));
            }
            sim.catalog.release_object(CategoryId::new(category), size);
        }
        let num_objects = sim.catalog.num_objects();
        cur.objects = num_objects;

        cur.section(TAG_PEERS, |sec| {
            (sim.peers.iter_mut()).try_for_each(|peer| decode_peer(peer, sec))
        })?;

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

        (sim.graph, sim.drained_generation) = cur.section(TAG_GRAPH, Cursor::decode)?;

        // Transfers and rings; rebuild the reverse indexes as we go.
        let (transfers, rings) = cur.section(TAG_TRANSFERS, |sec| {
            (sim.next_transfer_id, sim.next_ring_id) = sec.decode()?;
            (sim.transfer_epoch, sim.world_epoch) = sec.decode()?;
            let transfers: Vec<(TransferId, ActiveTransfer)> = sec.decode()?;
            let rings: Vec<(RingId, ActiveRing)> = sec.decode()?;
            Ok((transfers, rings))
        })?;
        let (next_transfer_id, next_ring_id) = (sim.next_transfer_id, sim.next_ring_id);
        let mut transfer_map =
            HashMap::with_capacity_and_hasher(transfers.len(), FastState::default());
        let mut uploads_by_peer: HashMap<PeerId, Vec<TransferId>, FastState> = HashMap::default();
        let mut downloads_by_want: HashMap<(PeerId, ObjectId), Vec<TransferId>, FastState> =
            HashMap::default();
        for (tid, transfer) in transfers {
            if tid >= next_transfer_id || transfer.ring.is_some_and(|rid| rid >= next_ring_id) {
                return Err(corrupt!(
                    "transfer {tid} or its ring is past its id counter"
                ));
            }
            uploads_by_peer
                .entry(transfer.uploader)
                .or_default()
                .push(tid);
            downloads_by_want
                .entry((transfer.downloader, transfer.object))
                .or_default()
                .push(tid);
            if transfer_map.insert(tid, Box::new(transfer)).is_some() {
                return Err(corrupt!("duplicate transfer id {tid}"));
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
        let mut ring_map = HashMap::with_capacity_and_hasher(rings.len(), FastState::default());
        for (rid, ring) in rings {
            if rid >= next_ring_id {
                return Err(corrupt!("ring id {rid} not below the id counter"));
            }
            if let Some(tid) = (ring.transfers.iter()).find(|tid| !transfer_map.contains_key(tid)) {
                return Err(corrupt!("ring references unknown transfer {tid}"));
            }
            if ring_map.insert(rid, ring).is_some() {
                return Err(corrupt!("duplicate ring id {rid}"));
            }
        }
        sim.transfers = transfer_map;
        sim.uploads_by_peer = uploads_by_peer;
        sim.downloads_by_want = downloads_by_want;
        sim.rings = ring_map;

        cur.transfers = next_transfer_id;
        sim.engine = cur.section(TAG_ENGINE, Cursor::decode)?;

        let state = cur.section(TAG_SCHEDULER, Cursor::decode)?;
        sim.scheduler.import_state(state);

        let (maintenance_pending, generate_queued): (Vec<bool>, Vec<u32>) =
            cur.section(TAG_POPULATION, Cursor::decode)?;
        if maintenance_pending.len() != num_peers || generate_queued.len() != num_peers {
            return Err(corrupt!("population bookkeeping has the wrong length"));
        }
        sim.maintenance_pending = maintenance_pending;
        sim.generate_queued = generate_queued;

        // Ring-candidate cache: replay the stores (which never touch the
        // counters), then reinstate the captured counters.
        type CacheEntry = (PeerId, Vec<ObjectId>, SearchTrace<PeerId, ObjectId>);
        let (tag, stats, entries): (u8, RingCacheStats, Vec<CacheEntry>) =
            cur.section(TAG_RING_CACHE, Cursor::decode)?;
        if tag != RING_CACHE_TAG {
            return Err(corrupt!("unsupported ring-cache tag {tag}"));
        }
        // A search leaves `deps` and `edge_deps` strictly ascending, and the
        // cache's invalidations binary-search `deps`: anything else is
        // corrupt input.
        for (root, wants, trace) in entries {
            let ascending = |peers: &[PeerId]| peers.is_sorted_by(|a, b| a < b);
            if !ascending(&trace.deps) || !ascending(&trace.edge_deps) {
                return Err(corrupt!(
                    "cached search of root {root} has dependencies out of order"
                ));
            }
            sim.ring_cache.store(root, wants, trace);
        }
        sim.ring_cache.set_stats(stats);

        sim.report = cur.section(TAG_REPORT, Cursor::decode)?;
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
