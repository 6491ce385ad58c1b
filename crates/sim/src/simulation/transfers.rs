//! The block-by-block transfer lifecycle and its bookkeeping, including the
//! Section III-B cheating paths: junk blocks, relayed (middleman) content,
//! and the windowed-validation / mediator countermeasures.

// The event loop's panic policy (exchange-lint rule H001): no `.unwrap()` —
// every panicking access carries an `.expect()` stating the invariant that
// makes it unreachable.  Clippy enforces the same contract at module level.
#![deny(clippy::unwrap_used, clippy::get_unwrap)]

use des::SimDuration;
use exchange::cheat::WindowedExchange;
use netsim::TransferSession;
use workload::{ObjectId, PeerId};

use crate::{BehaviorKind, Protection, SessionEnd, SessionKind};

use super::events::Event;
use super::{RingId, Simulation, TransferId};

/// One in-flight transfer session.
#[derive(Debug, Clone)]
pub(crate) struct ActiveTransfer {
    pub(crate) uploader: PeerId,
    pub(crate) downloader: PeerId,
    pub(crate) object: ObjectId,
    pub(crate) kind: SessionKind,
    pub(crate) ring: Option<RingId>,
    pub(crate) session: TransferSession,
    /// Synchronous block-validation state, present on exchange sessions when
    /// [`Protection::Windowed`] is active.  The window caps the achievable
    /// rate at `window × block / rtt` and grows as blocks validate.
    pub(crate) validation: Option<WindowedExchange>,
}

/// The transfer sessions forming one activated exchange ring.
#[derive(Debug, Clone)]
pub(crate) struct ActiveRing {
    pub(crate) transfers: Vec<TransferId>,
}

/// The top bit of [`TransferLink::tagged_id`], set on an exchange transfer.
pub(crate) const EXCHANGE_BIT: TransferId = 1 << 63;

/// One live transfer as indexed at one of its ends: in
/// [`Simulation::uploads`] the other end is the downloader, in
/// [`Simulation::downloads`] the uploader.  The exchange flag rides in the
/// id's top bit, so a record is 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TransferLink {
    tagged_id: TransferId,
    /// The peer at the other end.
    pub(crate) peer: PeerId,
    pub(crate) object: ObjectId,
}

impl TransferLink {
    pub(crate) fn new(tid: TransferId, peer: PeerId, object: ObjectId, exchange: bool) -> Self {
        assert!(tid < EXCHANGE_BIT, "transfer id {tid} overflows its record");
        let flag = if exchange { EXCHANGE_BIT } else { 0 };
        TransferLink {
            tagged_id: tid | flag,
            peer,
            object,
        }
    }

    pub(crate) fn id(self) -> TransferId {
        self.tagged_id & !EXCHANGE_BIT
    }

    pub(crate) fn is_exchange(self) -> bool {
        self.tagged_id & EXCHANGE_BIT != 0
    }
}

/// Removes `tid`'s record from one peer's index list, keeping the rest in
/// ascending id order.
fn unlink(links: &mut Vec<TransferLink>, tid: TransferId) {
    if let Some(at) = links.iter().position(|l| l.id() == tid) {
        links.remove(at);
    }
}

impl Simulation {
    /// Starts a transfer session, reserving one slot at each end.
    /// Returns `None` if either side has no capacity.
    pub(super) fn start_transfer(
        &mut self,
        uploader: PeerId,
        downloader: PeerId,
        object: ObjectId,
        kind: SessionKind,
        ring: Option<RingId>,
    ) -> Option<TransferId> {
        if !self.peer(uploader).upload_slots.has_free()
            || !self.peer(downloader).download_slots.has_free()
        {
            return None;
        }
        let now = self.now();
        let waiting_secs = {
            let want = self.peer(downloader).wants.get(&object)?;
            now.saturating_since(want.issued_at).as_secs_f64()
        };
        self.peer_mut(uploader)
            .upload_slots
            .reserve()
            .expect("checked free upload slot");
        self.peer_mut(downloader)
            .download_slots
            .reserve()
            .expect("checked free download slot");

        // The uploader's access-link class scales its per-slot rate (Medium's
        // ×1.0 is IEEE-exact, so homogeneous populations are bit-identical
        // to the pre-class code).
        let rate =
            self.config.link.slot_bytes_per_sec() * self.peer(uploader).capacity.rate_multiplier();
        let session = TransferSession::new(rate, self.config.block_bytes, now);
        let validation = match self.config.protection {
            Protection::Windowed { max_window } if kind.is_exchange() => {
                Some(WindowedExchange::new(self.config.block_bytes, max_window))
            }
            _ => None,
        };
        let tid = self.next_transfer_id;
        self.next_transfer_id += 1;
        self.transfers.insert(
            tid,
            Box::new(ActiveTransfer {
                uploader,
                downloader,
                object,
                kind,
                ring,
                session,
                validation,
            }),
        );
        // Ids rise, so pushing keeps each list in ascending id order.
        let exchange = kind.is_exchange();
        self.uploads[uploader.as_usize()]
            .push(TransferLink::new(tid, downloader, object, exchange));
        self.downloads[downloader.as_usize()]
            .push(TransferLink::new(tid, uploader, object, exchange));
        if self.measuring() {
            self.report.record_waiting(kind, waiting_secs);
        }

        let remaining = if self.peer(uploader).behavior.block_validity() {
            self.remaining_bytes(downloader, object)
        } else {
            // A junk stream paces itself against a full (fake) object copy,
            // independent of how much real data the want already collected.
            self.catalog.size_bytes(object).max(1)
        };
        let block = session.next_block_bytes(remaining);
        let duration = match validation {
            Some(v) => Self::validated_block_duration(&v, block, self.config.rtt_s, rate),
            None => session.block_duration(block),
        };
        self.engine.schedule_in(duration, Event::BlockComplete(tid));
        Some(tid)
    }

    /// How long `bytes` take under windowed validation: the slot rate capped
    /// at `window × block / rtt` (the paper's synchronous-validation cost).
    fn validated_block_duration(
        validation: &WindowedExchange,
        bytes: u64,
        rtt_secs: f64,
        slot_bytes_per_sec: f64,
    ) -> SimDuration {
        let rate = validation.effective_rate(rtt_secs, slot_bytes_per_sec);
        SimDuration::from_secs_f64(bytes as f64 / rate)
    }

    /// The duration of the next `bytes` of `transfer`, honouring any active
    /// validation window.
    fn block_duration_of(&self, transfer: &ActiveTransfer, bytes: u64) -> SimDuration {
        match &transfer.validation {
            Some(v) => Self::validated_block_duration(
                v,
                bytes,
                self.config.rtt_s,
                transfer.session.rate_bytes_per_sec(),
            ),
            None => transfer.session.block_duration(bytes),
        }
    }

    pub(super) fn remaining_bytes(&self, downloader: PeerId, object: ObjectId) -> u64 {
        let size = self.catalog.size_bytes(object);
        let received = self
            .peer(downloader)
            .wants
            .get(&object)
            .map_or(0, |w| w.received_bytes);
        size.saturating_sub(received).max(1)
    }

    pub(super) fn handle_block_complete(&mut self, tid: TransferId) {
        let Some(transfer) = self.transfers.get(&tid).map(|t| ActiveTransfer::clone(t)) else {
            return; // the session ended before this block event fired
        };
        let size = self.catalog.size_bytes(transfer.object);
        let junk = !self.peer(transfer.uploader).behavior.block_validity();
        let block = if junk {
            // Junk streams track their own progress towards a fake full copy.
            let streamed = transfer.session.bytes_transferred();
            transfer
                .session
                .next_block_bytes(size.saturating_sub(streamed).max(1))
        } else {
            let remaining = self.remaining_bytes(transfer.downloader, transfer.object);
            transfer.session.next_block_bytes(remaining).min(remaining)
        };

        // Account the block.  Junk and relayed bytes count like any others —
        // that is exactly how the cheats farm credit and priority.
        if let Some(t) = self.transfers.get_mut(&tid) {
            t.session.record_block(block);
        }
        self.peer_mut(transfer.downloader).downloaded_bytes += block;
        self.peer_mut(transfer.uploader).uploaded_bytes += block;
        self.scheduler
            .record_transfer(transfer.uploader, transfer.downloader, block);

        if junk {
            self.handle_junk_block(tid, &transfer, block, size);
            return;
        }

        // Valid data.  Under the mediator a relaying middleman still receives
        // the stream, but the decryption key is only ever released to the
        // peer the true origin named — never the middleman — so everything
        // it downloads stays ciphertext.
        let ciphertext = self.ciphertext_downloader(transfer.downloader);
        if ciphertext {
            self.peer_mut(transfer.downloader).ciphertext_bytes += block;
        }
        if let Some(t) = self.transfers.get_mut(&tid) {
            if let Some(v) = &mut t.validation {
                v.on_round_validated();
            }
        }

        let complete = {
            let want = self
                .peer_mut(transfer.downloader)
                .wants
                .get_mut(&transfer.object);
            match want {
                Some(w) => {
                    w.received_bytes = (w.received_bytes + block).min(size);
                    w.received_bytes >= size
                }
                None => false,
            }
        };

        if complete {
            self.complete_download(transfer.downloader, transfer.object);
            return;
        }
        // The uploader may no longer claim the object (an honest holder
        // evicted it mid-transfer, or a middleman's last backing request was
        // withdrawn).
        if !self.claims(transfer.uploader, transfer.object) {
            self.end_transfer(tid, SessionEnd::SourceLostObject);
            return;
        }
        let remaining = self.remaining_bytes(transfer.downloader, transfer.object);
        let duration = {
            let t = self
                .transfers
                .get(&tid)
                .expect("transfer is still registered");
            let next_block = t.session.next_block_bytes(remaining);
            self.block_duration_of(t, next_block)
        };
        self.engine.schedule_in(duration, Event::BlockComplete(tid));
    }

    /// One junk block arrived: decide whether the active countermeasure (or
    /// the victim's end-of-object checksum) catches the cheat now, and keep
    /// the garbage stream going otherwise.  Junk never advances the want.
    fn handle_junk_block(
        &mut self,
        tid: TransferId,
        transfer: &ActiveTransfer,
        block: u64,
        size: u64,
    ) {
        self.peer_mut(transfer.downloader).junk_bytes += block;
        let streamed = self
            .transfers
            .get(&tid)
            .map_or(block, |t| t.session.bytes_transferred());
        let detected = match self.config.protection {
            // Unprotected, the victim only discovers the garbage after
            // assembling (and checksumming) a full object's worth of bytes.
            Protection::None => streamed >= size,
            // Synchronous validation checks every exchange block before the
            // next is sent; the mediator samples blocks before releasing
            // keys.  Either way the first junk block of an exchange is
            // caught.  Non-exchange junk still takes a full object to spot.
            Protection::Windowed { .. } | Protection::Mediated => {
                transfer.kind.is_exchange() || streamed >= size
            }
        };
        if detected {
            if let Some(t) = self.transfers.get_mut(&tid) {
                if let Some(v) = &mut t.validation {
                    v.on_invalid_block();
                }
            }
            if self.measuring() {
                self.report
                    .record_cheat_detection(self.peer(transfer.uploader).behavior);
            }
            self.end_transfer(tid, SessionEnd::CheatDetected);
            return;
        }
        let duration = {
            let t = self
                .transfers
                .get(&tid)
                .expect("transfer is still registered");
            let next_block = t
                .session
                .next_block_bytes(size.saturating_sub(streamed).max(1));
            self.block_duration_of(t, next_block)
        };
        self.engine.schedule_in(duration, Event::BlockComplete(tid));
    }

    /// Whether everything `downloader` receives stays undecryptable under
    /// the active protection (the mediator's key-release never names a
    /// relaying middleman).
    fn ciphertext_downloader(&self, downloader: PeerId) -> bool {
        self.config.protection == Protection::Mediated
            && self.peer(downloader).behavior == BehaviorKind::Middleman
    }

    /// Handles the completion of a whole object at `downloader`.
    fn complete_download(&mut self, downloader: PeerId, object: ObjectId) {
        let now = self.now();
        let Some(want) = self.peer_mut(downloader).wants.remove(&object) else {
            return;
        };
        let minutes = now.saturating_since(want.issued_at).as_minutes_f64();
        let ciphertext = self.ciphertext_downloader(downloader);
        let class = self.peer(downloader).class();
        let behavior = self.peer(downloader).behavior;
        let capacity = self.peer(downloader).capacity;
        if self.measuring() {
            if ciphertext {
                self.report.record_ciphertext_download(behavior);
            } else {
                self.report
                    .record_download(class, behavior, capacity, minutes);
            }
        }

        // Withdraw every outstanding request for this object.
        self.graph.remove_object_requests(downloader, object);
        if !ciphertext {
            // The object enters the downloader's store (it may be evicted
            // later by the lazily scheduled maintenance pass).  The
            // downloader can now close rings it could not before, so any
            // cached search that probed it *for this object* is stale —
            // entries wanting other objects survive.  Ciphertext never
            // enters storage: the downloader holds bytes it cannot decrypt,
            // let alone re-serve.
            self.peer_mut(downloader).storage.insert(object);
            self.index_holding_gained(downloader, object);
            self.ring_cache.invalidate_holding(downloader, object);
            // Storage only grows past capacity here: materialise a
            // maintenance event at the peer's next wheel boundary if needed.
            self.schedule_maintenance_if_over_capacity(downloader);
        }

        // Terminate every session that was delivering this object.
        let sessions: Vec<TransferId> = (self.downloads[downloader.as_usize()].iter())
            .filter(|l| l.object == object)
            .map(|l| l.id())
            .collect();
        for tid in sessions {
            self.end_transfer(tid, SessionEnd::DownloadComplete);
        }

        // Free request budget: ask for something new right away.  (Bypasses
        // the retry dedup deliberately — a completion must never wait on a
        // retry scheduled hundreds of seconds out.  The queued counter keeps
        // the chain singular afterwards: the pass that fires while another
        // event is still pending will not re-arm.)
        self.generate_queued[downloader.as_usize()] += 1;
        self.engine
            .schedule_now(Event::GenerateRequests(downloader));
    }

    /// Tears down one transfer session and releases its resources.
    pub(super) fn end_transfer(&mut self, tid: TransferId, reason: SessionEnd) {
        let Some(transfer) = self.transfers.remove(&tid) else {
            return;
        };
        self.peer_mut(transfer.uploader).upload_slots.release();
        self.peer_mut(transfer.downloader).download_slots.release();
        unlink(&mut self.uploads[transfer.uploader.as_usize()], tid);
        unlink(&mut self.downloads[transfer.downloader.as_usize()], tid);
        // Sessions that never moved a byte (typically preempted before their
        // first block completed) are not counted as sessions in the report;
        // they would otherwise swamp the per-session distributions.
        if self.measuring() && transfer.session.bytes_transferred() > 0 {
            self.report
                .record_session(transfer.kind, transfer.session.bytes_transferred(), reason);
        }

        // An exchange ring dissolves as soon as any of its sessions ends.
        if let Some(ring_id) = transfer.ring {
            if reason != SessionEnd::RingDissolved {
                self.dissolve_ring(ring_id);
            }
        }
        if reason != SessionEnd::HorizonReached {
            // The freed upload slot can immediately be refilled — unless the
            // uploader is the one leaving (a departure teardown flips its
            // `online` flag before ending its sessions).
            if self.peer(transfer.uploader).online {
                self.engine
                    .schedule_now(Event::TrySchedule(transfer.uploader));
            }
        }
    }

    fn dissolve_ring(&mut self, ring_id: RingId) {
        let Some(ring) = self.rings.remove(&ring_id) else {
            return;
        };
        for tid in ring.transfers {
            self.end_transfer(tid, SessionEnd::RingDissolved);
        }
    }
}
