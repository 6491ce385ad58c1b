//! Between-events invariant audit (feature `audit`).
//!
//! [`Simulation::run_audited`] drives the same event loop as
//! [`Simulation::run`] but re-checks the simulator's structural invariants
//! after every event, and the report-level accounting identities after
//! finalisation:
//!
//! * slot accounting — each peer's reserved upload/download slots equal its
//!   live transfer count, each live transfer's downloader still wants its
//!   object, and no `(uploader, downloader, object)` edge is served by two
//!   live transfers;
//! * transfer indexes — each live transfer has exactly one record in its
//!   uploader's and one in its downloader's list, every record's other end,
//!   object and exchange flag equal the transfer's, every list is strictly
//!   ascending by id, and no record names a dead transfer;
//! * block events — each live transfer has exactly one pending
//!   `BlockComplete` event;
//! * provision — every active transfer's uploader stores the object or is a
//!   behavior that may advertise unstored objects (a relaying middleman);
//! * rings — every active exchange ring's sessions form one cycle over
//!   distinct peers;
//! * byte conservation — total bytes uploaded equal total bytes downloaded,
//!   and no peer's junk/ciphertext tallies exceed its downloads;
//! * holders index — `holders[o]` is exactly the set of sharing, online
//!   peers storing `o`, and `honest_holders[o]` counts the honest ones;
//! * middleman sources — every request at a middleman for an object it
//!   does not store has an honest holder to relay from;
//! * search oracle — for every online sharing root with wants, the
//!   holder-marked oracle a ring search probes agrees with the per-pair
//!   claims oracle on every peer and every distinct wanted object;
//! * cache exactness — every live [`super::RingCandidateCache`] entry equals
//!   a fresh [`exchange::RingSearch::find_traced_in`] run (in an audit-owned
//!   scratch) against the current graph and claims oracle, dependency sets
//!   included;
//! * report accounting ([`check_report`]) — per-behavior totals sum to the
//!   global totals.
//!
//! The checks are deliberately exhaustive and therefore expensive (the cache
//! check re-runs every cached search per event); the feature exists for
//! tests, not production runs.
//!
//! **Time travel.**  Before dispatching each event, [`Simulation::run_audited`]
//! serializes the complete pre-event state into a reusable buffer (the event
//! still queued).  When an invariant trips, that buffer is dumped to disk —
//! [`Simulation::audit_checkpoint_path`], else `AUDIT_CHECKPOINT_PATH`, else
//! `audit_failure.ckpt` in the temp dir — and the panic message names the
//! file.  [`Simulation::restore`]-ing the dump and calling `run_audited`
//! again replays the identical failing event first, reproducing the failure
//! in isolation.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use exchange::SearchScratch;
use workload::PeerId;

use crate::SimReport;

use super::events::Event;
use super::holder_marks::HolderMarks;
use super::transfers::{ActiveTransfer, TransferLink};
use super::{Simulation, TransferId};

impl Simulation {
    /// Runs the simulation to its horizon, checking every invariant after
    /// every event and the report identities after finalisation.
    ///
    /// The returned report is identical to [`Simulation::run`]'s.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant, after
    /// dumping the pre-event checkpoint (see the module docs).
    #[must_use]
    pub fn run_audited(mut self) -> SimReport {
        self.audit()
            .unwrap_or_else(|e| panic!("invariant violated before the first event: {e}"));
        // Reused across events: the complete pre-event state, captured while
        // the event is still queued so a restore replays it first.
        let mut pre_event: Vec<u8> = Vec::new();
        loop {
            pre_event.clear();
            if self.engine.peek().is_some() {
                self.checkpoint(&mut pre_event)
                    .expect("serializing into a Vec cannot fail");
            }
            let Some(event) = self.engine.next() else {
                break;
            };
            self.dispatch(event);
            self.audit_after(event, &pre_event);
        }
        let report = self.finalize();
        check_report(&report).unwrap_or_else(|e| panic!("report accounting violated: {e}"));
        report
    }

    /// Arms the test-only fault hook: once the engine has delivered
    /// `delivered` events, [`run_audited`](Self::run_audited) deliberately
    /// corrupts one byte-conservation tally so the next audit trips.  Used
    /// by the time-travel tests to produce a failure at a known event; the
    /// hook is not serialized, so replaying a restored checkpoint requires
    /// re-arming it with the same value.
    pub fn inject_audit_fault_at(&mut self, delivered: u64) {
        self.audit_fault_at = Some(delivered);
    }

    /// Overrides where [`run_audited`](Self::run_audited) dumps the
    /// pre-failure checkpoint (default: `AUDIT_CHECKPOINT_PATH`, else
    /// `audit_failure.ckpt` in the temp dir).
    pub fn audit_checkpoint_path(&mut self, path: impl Into<PathBuf>) {
        self.audit_dump_path = Some(path.into());
    }

    /// Drains pending graph deltas (exactly what the next cached lookup
    /// would do, so the audited run stays identical to an unaudited one) and
    /// re-checks every invariant; on a violation, dumps the pre-event
    /// checkpoint and panics naming the offending `event` and the dump.
    fn audit_after(&mut self, event: Event, pre_event: &[u8]) {
        self.drain_graph_deltas();
        if self.audit_fault_at == Some(self.engine.delivered()) {
            // Deliberate, detectable corruption: one phantom uploaded byte
            // breaks byte conservation without touching control flow.
            self.peers[0].uploaded_bytes += 1;
        }
        if let Err(e) = self.audit() {
            let dump = self.dump_pre_event_checkpoint(pre_event);
            panic!(
                "invariant violated after {event:?} at t={:.1}s: {e}{dump}",
                self.engine.now().as_secs_f64()
            )
        }
    }

    /// Writes the pre-event snapshot next to the failure and describes the
    /// outcome for the panic message (a dump failure must not mask the
    /// audit failure itself).
    fn dump_pre_event_checkpoint(&self, pre_event: &[u8]) -> String {
        if pre_event.is_empty() {
            return String::new();
        }
        let path = self.audit_dump_path.clone().unwrap_or_else(|| {
            std::env::var_os("AUDIT_CHECKPOINT_PATH").map_or_else(
                || std::env::temp_dir().join("audit_failure.ckpt"),
                Into::into,
            )
        });
        match std::fs::write(&path, pre_event) {
            Ok(()) => format!("; pre-failure checkpoint written to {}", path.display()),
            Err(e) => format!(
                "; FAILED to write pre-failure checkpoint to {}: {e}",
                path.display()
            ),
        }
    }

    /// Checks every between-events invariant once.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn audit(&self) -> Result<(), String> {
        self.audit_slots_and_indexes()?;
        self.audit_block_events()?;
        self.audit_transfer_provision()?;
        self.audit_rings()?;
        self.audit_byte_conservation()?;
        self.audit_ring_cache()?;
        self.audit_maintenance_wheel()?;
        self.audit_population()?;
        self.audit_holders_index()?;
        self.audit_middleman_sources()?;
        self.audit_search_oracle()?;
        Ok(())
    }

    /// A departed peer holds nothing live: no reserved slots, no transfers,
    /// no outstanding wants, no request-graph edges in either direction, no
    /// holders-index entries, and no ring-cache entry rooted at it or
    /// depending on it.  (Byte conservation over sessions that spanned the
    /// departure is covered by the byte-conservation audit: `end_transfer`
    /// accounts both ends before teardown, so the global identity holds
    /// through churn.)
    fn audit_population(&self) -> Result<(), String> {
        for peer in &self.peers {
            if peer.online {
                continue;
            }
            let id = peer.id;
            if peer.upload_slots.in_use() != 0 || peer.download_slots.in_use() != 0 {
                return Err(format!("departed peer {id:?} still holds transfer slots"));
            }
            if !peer.wants.is_empty() {
                return Err(format!("departed peer {id:?} still has outstanding wants"));
            }
            if !self.graph.incoming(id).is_empty() {
                return Err(format!("departed peer {id:?} still has incoming requests"));
            }
            if !self.graph.outgoing(id).is_empty() {
                return Err(format!("departed peer {id:?} still has outgoing requests"));
            }
            for (object, holders) in self.holders.iter().enumerate() {
                if holders.contains(&id) {
                    return Err(format!(
                        "departed peer {id:?} still indexed as holder of object {object}"
                    ));
                }
            }
            for entry in self.ring_cache.iter_entries() {
                if entry.root == id || entry.deps.contains(&id) || entry.edge_deps.contains(&id) {
                    return Err(format!(
                        "departed peer {id:?} still referenced by cache entry at {:?}",
                        entry.root
                    ));
                }
            }
        }
        Ok(())
    }

    /// The holders index equals its definition: `holders[o]` is the set of
    /// sharing, online peers storing `o`, and `honest_holders[o]` counts
    /// those that share honestly.  Every ring search marks its closing
    /// candidates from this index, so a drifted entry would change results.
    fn audit_holders_index(&self) -> Result<(), String> {
        let objects = self.holders.len();
        if self.honest_holders.len() != objects {
            return Err(format!(
                "holders index covers {objects} objects, honest counts {}",
                self.honest_holders.len()
            ));
        }
        let mut expected = vec![BTreeSet::new(); objects];
        let mut honest = vec![0u32; objects];
        for peer in self.peers.iter().filter(|p| p.sharing && p.online) {
            let shares_honestly = peer.behavior.shares_honestly();
            for object in peer.storage.iter() {
                let Some(holders) = expected.get_mut(object.as_usize()) else {
                    return Err(format!(
                        "peer {:?} stores {object:?}, outside the holders index",
                        peer.id
                    ));
                };
                holders.insert(peer.id);
                if shares_honestly {
                    honest[object.as_usize()] += 1;
                }
            }
        }
        for (object, (indexed, expected)) in self.holders.iter().zip(&expected).enumerate() {
            if indexed != expected {
                return Err(format!(
                    "holders of object {object}: indexed {indexed:?}, stored by {expected:?}"
                ));
            }
            if self.honest_holders[object] != honest[object] {
                return Err(format!(
                    "object {object}: {} honest holders counted, {} stored",
                    self.honest_holders[object], honest[object]
                ));
            }
        }
        Ok(())
    }

    /// Every request edge at a peer that may advertise unstored objects (a
    /// middleman), for an object it does not store, has an honest source:
    /// `honest_holders[o] > 0`.  Provider lookup offers such a claim only
    /// while an honest holder exists, and the simulator withdraws the edges
    /// when the last honest holder evicts the object or departs.
    fn audit_middleman_sources(&self) -> Result<(), String> {
        for middleman in self
            .peers
            .iter()
            .filter(|p| p.behavior.advertises_unstored())
        {
            for &(requester, object) in self.graph.incoming(middleman.id) {
                let sourced = self
                    .honest_holders
                    .get(object.as_usize())
                    .is_some_and(|honest| *honest > 0);
                if !middleman.storage.contains(object) && !sourced {
                    return Err(format!(
                        "middleman {:?} holds a request from {:?} for unstored {object:?} \
                         with no honest holder",
                        middleman.id, requester
                    ));
                }
            }
        }
        Ok(())
    }

    /// For every online sharing peer with wants, the oracle its ring search
    /// would probe ([`Simulation::search_claims`]) agrees with
    /// [`Simulation::claims`] for every peer and every distinct wanted
    /// object.
    fn audit_search_oracle(&self) -> Result<(), String> {
        // Audit-owned marks, so the check stays independent of the
        // simulation's own scratch state.
        let mut marks = HolderMarks::default();
        for root in self.peers.iter().filter(|p| p.sharing && p.online) {
            let wants = root.wanted_objects();
            if wants.is_empty() {
                continue;
            }
            marks.mark(self.peers.len(), &self.holders, &wants);
            for peer in &self.peers {
                for object in &wants {
                    let claimed = self.claims(peer.id, *object);
                    if self.search_claims(&marks, peer.id, *object) != claimed {
                        return Err(format!(
                            "search oracle of root {:?} answers {} for {:?} and {object:?}, \
                             claims answers {claimed}",
                            root.id, !claimed, peer.id
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Every over-capacity peer has a maintenance event materialised.  With
    /// the lazy timing wheel this is the invariant that bounds how long a
    /// store can exceed its capacity: an armed event fires at the peer's
    /// next wheel boundary — at most one maintenance interval away — exactly
    /// when the per-peer-event baseline would have evicted.
    fn audit_maintenance_wheel(&self) -> Result<(), String> {
        for peer in &self.peers {
            // Offline stores are frozen; the rejoin re-arms the wheel.
            if !peer.online {
                continue;
            }
            if peer.storage.over_capacity() && !self.maintenance_pending[peer.id.as_usize()] {
                return Err(format!(
                    "peer {:?} is over capacity ({} of {}) with no maintenance event armed",
                    peer.id,
                    peer.storage.len(),
                    peer.storage.capacity()
                ));
            }
        }
        Ok(())
    }

    /// Slot reservations and the transfer indexes agree with the transfer
    /// table, every live transfer's downloader still wants its object (so a
    /// departure ends the same sessions whether it reads the wants or the
    /// download index), and at most one live transfer serves each
    /// `(uploader, downloader, object)` edge: the serve queue skips pairs the
    /// provider already serves, and a ring preempts the low-priority
    /// transfer on its edge before starting its own.
    fn audit_slots_and_indexes(&self) -> Result<(), String> {
        let mut uploads: BTreeMap<PeerId, usize> = BTreeMap::new();
        let mut downloads: BTreeMap<PeerId, usize> = BTreeMap::new();
        let mut served = BTreeSet::new();
        for (tid, t) in &self.transfers {
            *uploads.entry(t.uploader).or_default() += 1;
            *downloads.entry(t.downloader).or_default() += 1;
            if !served.insert((t.uploader, t.downloader, t.object)) {
                return Err(format!(
                    "{:?} serves {:?} to {:?} on two live transfers",
                    t.uploader, t.object, t.downloader
                ));
            }
            if !self.peer(t.downloader).wants.contains_key(&t.object) {
                return Err(format!(
                    "transfer {tid} delivers {:?} to {:?}, which no longer wants it",
                    t.object, t.downloader
                ));
            }
        }
        audit_transfer_index("uploads", &self.uploads, self, |t| {
            (t.uploader, t.downloader)
        })?;
        audit_transfer_index("downloads", &self.downloads, self, |t| {
            (t.downloader, t.uploader)
        })?;
        for peer in &self.peers {
            let up = uploads.get(&peer.id).copied().unwrap_or(0);
            if peer.upload_slots.in_use() != up {
                return Err(format!(
                    "peer {:?}: {} upload slots reserved but {up} live uploads",
                    peer.id,
                    peer.upload_slots.in_use()
                ));
            }
            let down = downloads.get(&peer.id).copied().unwrap_or(0);
            if peer.download_slots.in_use() != down {
                return Err(format!(
                    "peer {:?}: {} download slots reserved but {down} live downloads",
                    peer.id,
                    peer.download_slots.in_use()
                ));
            }
        }
        Ok(())
    }

    /// Every live transfer has exactly one pending `BlockComplete`: with none
    /// it would stall holding both its slots, with two it would count its
    /// blocks twice.  A pending event of an ended transfer is harmless: it
    /// does nothing when it fires, and ids are never reused.
    fn audit_block_events(&self) -> Result<(), String> {
        let mut pending: BTreeMap<TransferId, usize> = BTreeMap::new();
        for (_, _, event) in self.engine.queue().sorted_entries() {
            if let Event::BlockComplete(tid) = event {
                *pending.entry(tid).or_default() += 1;
            }
        }
        let mut live: Vec<TransferId> = self.transfers.keys().copied().collect();
        live.sort_unstable();
        for tid in live {
            let events = pending.get(&tid).copied().unwrap_or(0);
            if events != 1 {
                return Err(format!("transfer {tid} has {events} pending block events"));
            }
        }
        Ok(())
    }

    /// Every active transfer's uploader stores the object, unless its
    /// behavior may legitimately advertise unstored objects (middleman
    /// relays; their backing claims are re-validated block by block).
    fn audit_transfer_provision(&self) -> Result<(), String> {
        for (tid, t) in &self.transfers {
            let uploader = self.peer(t.uploader);
            let holds =
                uploader.storage.contains(t.object) || uploader.behavior.advertises_unstored();
            if !holds {
                return Err(format!(
                    "transfer {tid}: uploader {:?} neither stores nor may advertise {:?}",
                    t.uploader, t.object
                ));
            }
        }
        Ok(())
    }

    /// Every active ring's sessions form one cycle over distinct peers.
    fn audit_rings(&self) -> Result<(), String> {
        for (ring_id, ring) in &self.rings {
            let mut next: BTreeMap<PeerId, PeerId> = BTreeMap::new();
            for tid in &ring.transfers {
                let Some(t) = self.transfers.get(tid) else {
                    return Err(format!("ring {ring_id} references dead transfer {tid}"));
                };
                if t.ring != Some(*ring_id) {
                    return Err(format!(
                        "ring {ring_id}: transfer {tid} belongs to {:?}",
                        t.ring
                    ));
                }
                if next.insert(t.uploader, t.downloader).is_some() {
                    return Err(format!(
                        "ring {ring_id}: peer {:?} uploads on two edges",
                        t.uploader
                    ));
                }
            }
            let Some(start) = ring
                .transfers
                .first()
                .and_then(|tid| self.transfers.get(tid))
            else {
                return Err(format!("ring {ring_id} has no transfers"));
            };
            // Walk the cycle; after exactly len() hops we must be back at the
            // start having seen len() distinct peers.
            let mut cursor = start.uploader;
            for hop in 0..ring.transfers.len() {
                let Some(&downloader) = next.get(&cursor) else {
                    return Err(format!(
                        "ring {ring_id}: no outgoing edge at {cursor:?} after {hop} hops"
                    ));
                };
                cursor = downloader;
            }
            if cursor != start.uploader {
                return Err(format!("ring {ring_id}: edges do not close a cycle"));
            }
            if next.len() != ring.transfers.len() {
                return Err(format!("ring {ring_id}: peers are not distinct"));
            }
        }
        Ok(())
    }

    /// Total bytes uploaded equal total bytes downloaded, and per-peer junk
    /// and ciphertext tallies never exceed the downloads they are part of.
    fn audit_byte_conservation(&self) -> Result<(), String> {
        let uploaded: u64 = self.peers.iter().map(|p| p.uploaded_bytes).sum();
        let downloaded: u64 = self.peers.iter().map(|p| p.downloaded_bytes).sum();
        if uploaded != downloaded {
            return Err(format!(
                "byte conservation broken: {uploaded} uploaded vs {downloaded} downloaded"
            ));
        }
        for peer in &self.peers {
            if peer.junk_bytes + peer.ciphertext_bytes > peer.downloaded_bytes {
                return Err(format!(
                    "peer {:?}: junk {} + ciphertext {} exceed downloads {}",
                    peer.id, peer.junk_bytes, peer.ciphertext_bytes, peer.downloaded_bytes
                ));
            }
        }
        Ok(())
    }

    /// Every live cache entry — rings and both dependency sets — equals a
    /// fresh traced search against the current graph and claims oracle.
    fn audit_ring_cache(&self) -> Result<(), String> {
        if self.ring_cache.is_empty() {
            return Ok(());
        }
        let Some(search) = self.ring_search() else {
            return Err("cache holds entries although the discipline never searches".into());
        };
        // One scratch for this call: the graph is fixed while the audit
        // runs, and warm results equal fresh ones.  It is deliberately not
        // the simulation's own scratch, so the check stays independent of
        // the state it checks.
        let mut scratch = SearchScratch::new();
        for entry in self.ring_cache.iter_entries() {
            let fresh = search.find_traced_in(
                &mut scratch,
                &self.graph,
                entry.root,
                entry.wants,
                |peer, object| self.claims(*peer, *object),
            );
            if fresh.rings != entry.rings {
                return Err(format!(
                    "stale cached rings at {:?} (wants {:?}): cached {} vs fresh {}",
                    entry.root,
                    entry.wants,
                    entry.rings.len(),
                    fresh.rings.len()
                ));
            }
            if fresh.deps != entry.deps || fresh.edge_deps != entry.edge_deps {
                return Err(format!(
                    "stale cached dependency sets at {:?} (wants {:?})",
                    entry.root, entry.wants
                ));
            }
        }
        Ok(())
    }
}

/// Checks a finished run's report-level accounting identities: per-behavior
/// totals sum to the global totals, and every session end was counted.
///
/// # Errors
///
/// Returns a description of the first violated identity.
pub fn check_report(report: &SimReport) -> Result<(), String> {
    let behaviors = report.behavior_breakdown();
    let peers: usize = behaviors.values().map(|s| s.peers).sum();
    if peers != report.peers() {
        return Err(format!(
            "behavior peer counts sum to {peers}, report has {}",
            report.peers()
        ));
    }
    let uploaded: u64 = behaviors.values().map(|s| s.uploaded_bytes).sum();
    let downloaded: u64 = behaviors.values().map(|s| s.downloaded_bytes).sum();
    if uploaded != downloaded {
        return Err(format!(
            "behavior byte totals broken: {uploaded} uploaded vs {downloaded} downloaded"
        ));
    }
    let completions: u64 = behaviors.values().map(|s| s.completed_downloads).sum();
    if completions != report.completed_downloads() {
        return Err(format!(
            "behavior completions sum to {completions}, report has {}",
            report.completed_downloads()
        ));
    }
    let ends: u64 = report.session_end_counts().values().sum();
    if ends != report.total_sessions() {
        return Err(format!(
            "{ends} session ends recorded for {} sessions",
            report.total_sessions()
        ));
    }
    Ok(())
}

/// Checks one per-peer transfer index (`name` is `uploads` or `downloads`)
/// against the transfer table.  `ends` maps a transfer to the peer whose
/// list must hold it and the peer its record names as the other end.
/// Every list is strictly ascending and each record names a live transfer
/// of that list's peer with the transfer's other end, object and kind, so
/// no transfer is recorded twice; the record count then equals the live
/// transfer count exactly when each transfer is recorded once.
fn audit_transfer_index(
    name: &str,
    index: &[Vec<TransferLink>],
    sim: &Simulation,
    ends: impl Fn(&ActiveTransfer) -> (PeerId, PeerId),
) -> Result<(), String> {
    let show = |l: &TransferLink| {
        format!(
            "(other end {:?}, {:?}, exchange {})",
            l.peer,
            l.object,
            l.is_exchange()
        )
    };
    let mut records = 0;
    for (peer, links) in index.iter().enumerate() {
        let peer = PeerId::new(peer as u32);
        if let Some(pair) = links.windows(2).find(|p| p[0].id() >= p[1].id()) {
            return Err(format!(
                "{name}[{peer:?}] is not strictly ascending: transfer {} before {}",
                pair[0].id(),
                pair[1].id()
            ));
        }
        for link in links {
            let tid = link.id();
            let Some(t) = sim.transfers.get(&tid) else {
                return Err(format!("{name}[{peer:?}] names dead transfer {tid}"));
            };
            let (owner, other) = ends(t);
            if owner != peer {
                return Err(format!(
                    "{name}[{peer:?}] holds transfer {tid} of {owner:?}"
                ));
            }
            let expected = TransferLink::new(tid, other, t.object, t.kind.is_exchange());
            if *link != expected {
                return Err(format!(
                    "{name}[{peer:?}] records transfer {tid} as {}, not {}",
                    show(link),
                    show(&expected)
                ));
            }
        }
        records += links.len();
    }
    if records != sim.transfers.len() {
        return Err(format!(
            "{name} records {records} transfers for {} live ones",
            sim.transfers.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{SessionKind, SimConfig};

    use super::{Event, Simulation, TransferLink};

    #[test]
    fn a_duplicated_transfer_is_named_by_the_audit() {
        let mut sim = Simulation::new(SimConfig::quick_test(), 1);
        // Step to the first live non-exchange transfer that a second copy
        // could join: both ends still have a free slot.
        let (uploader, downloader, object) = loop {
            sim.step()
                .expect("a duplicable transfer starts before the horizon");
            let duplicable = sim.transfers.values().find(|t| {
                !t.kind.is_exchange()
                    && sim.peer(t.uploader).upload_slots.has_free()
                    && sim.peer(t.downloader).download_slots.has_free()
            });
            if let Some(t) = duplicable {
                break (t.uploader, t.downloader, t.object);
            }
        };
        sim.drain_graph_deltas();
        sim.audit()
            .expect("the run is consistent before the duplicate");

        sim.start_transfer(uploader, downloader, object, SessionKind::NonExchange, None)
            .expect("both ends have a free slot");
        let err = sim.audit().expect_err("a second transfer on one edge");
        assert_eq!(
            err,
            format!("{uploader:?} serves {object:?} to {downloader:?} on two live transfers")
        );
    }

    #[test]
    fn a_corrupted_transfer_record_is_named_by_the_audit() {
        let mut sim = Simulation::new(SimConfig::quick_test(), 1);
        // Step to the first live exchange transfer.
        let (tid, uploader, downloader, object) = loop {
            sim.step()
                .expect("an exchange transfer starts before the horizon");
            let exchange = (sim.transfers.iter()).find(|(_, t)| t.kind.is_exchange());
            if let Some((&tid, t)) = exchange {
                break (tid, t.uploader, t.downloader, t.object);
            }
        };
        sim.drain_graph_deltas();
        sim.audit()
            .expect("the run is consistent before the corruption");

        let links = &mut sim.uploads[uploader.as_usize()];
        let at = (links.iter().position(|l| l.id() == tid))
            .expect("the uploader's list records the transfer");
        links[at] = TransferLink::new(tid, downloader, object, false);
        let err = sim.audit().expect_err("a record with the wrong kind");
        assert_eq!(
            err,
            format!(
                "uploads[{uploader:?}] records transfer {tid} as (other end {downloader:?}, \
                 {object:?}, exchange false), not (other end {downloader:?}, {object:?}, \
                 exchange true)"
            )
        );
    }

    #[test]
    fn a_second_block_event_is_named_by_the_audit() {
        let mut sim = Simulation::new(SimConfig::quick_test(), 1);
        // Step to the first live transfer.
        let tid = loop {
            sim.step().expect("a transfer starts before the horizon");
            if let Some(&tid) = sim.transfers.keys().min() {
                break tid;
            }
        };
        sim.drain_graph_deltas();
        sim.audit()
            .expect("the run is consistent before the extra event");

        sim.engine.schedule_now(Event::BlockComplete(tid));
        let err = sim.audit().expect_err("a second pending block event");
        assert_eq!(err, format!("transfer {tid} has 2 pending block events"));
    }
}
