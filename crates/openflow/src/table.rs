//! The switch flow table: a tuple-space classifier with priority-ordered
//! matching, timeout expiry, and per-entry counters.
//!
//! Entries are grouped by match **shape** — which of the ten fields are
//! constrained, plus the two prefix lengths. Every entry of one shape
//! pins the same fields, so a packet can only match those whose pinned
//! values equal its own: each shape owns one hash map from the
//! *canonical* match (networks masked to their prefix) to the entries
//! carrying it, and a lookup is one probe per shape in use instead of a
//! walk over the table. Among the shapes' candidates the winner is the
//! one that comes first in match order — priority ↓, specificity ↓,
//! install sequence ↓ — which is also the key of the ordered map that
//! full walks (statistics, expiry, non-strict delete) iterate. Expiry
//! deadlines are kept as a multiset, so [`FlowTable::next_expiry`] reads
//! its first key.
//!
//! There is no lookup cache in front of the table: a probe costs what a
//! cache hit would, and needs no invalidation.

use crate::action::Action;
use crate::match_fields::MatchFields;
use crate::message::{FlowMod, FlowModCommand, FlowRemoved, FlowRemovedReason};
use crate::packet::PacketHeader;
use crate::stats::{AggregateStats, FlowStatsEntry, TableStatsEntry};
use athena_types::{AthenaError, Ipv4Addr, Result, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// A single flow-table entry with live counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowEntry {
    /// The match.
    pub match_fields: MatchFields,
    /// The priority (higher wins).
    pub priority: u16,
    /// The action list (empty = drop).
    pub actions: Vec<Action>,
    /// The cookie from the installing flow-mod.
    pub cookie: u64,
    /// Idle timeout (zero = disabled).
    pub idle_timeout: SimDuration,
    /// Hard timeout (zero = disabled).
    pub hard_timeout: SimDuration,
    /// When the entry was installed.
    pub installed_at: SimTime,
    /// When the entry last matched a packet.
    pub last_matched_at: SimTime,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// Whether removal should emit a [`FlowRemoved`].
    pub send_flow_removed: bool,
}

impl FlowEntry {
    /// Returns the instant this entry expires, or [`SimTime::MAX`] if it
    /// has no timeouts.
    pub fn expires_at(&self) -> SimTime {
        let hard = if self.hard_timeout.is_zero() {
            SimTime::MAX
        } else {
            self.installed_at + self.hard_timeout
        };
        let idle = if self.idle_timeout.is_zero() {
            SimTime::MAX
        } else {
            self.last_matched_at + self.idle_timeout
        };
        hard.min(idle)
    }

    /// Returns the expiry reason if the entry is expired at `now`.
    pub fn expiry_reason(&self, now: SimTime) -> Option<FlowRemovedReason> {
        if !self.hard_timeout.is_zero() && now >= self.installed_at + self.hard_timeout {
            return Some(FlowRemovedReason::HardTimeout);
        }
        if !self.idle_timeout.is_zero() && now >= self.last_matched_at + self.idle_timeout {
            return Some(FlowRemovedReason::IdleTimeout);
        }
        None
    }

    fn to_flow_removed(&self, now: SimTime, reason: FlowRemovedReason) -> FlowRemoved {
        FlowRemoved {
            match_fields: self.match_fields,
            cookie: self.cookie,
            priority: self.priority,
            reason,
            duration: now.saturating_since(self.installed_at),
            packet_count: self.packet_count,
            byte_count: self.byte_count,
        }
    }

    fn to_stats(&self, now: SimTime) -> FlowStatsEntry {
        FlowStatsEntry {
            table_id: 0,
            match_fields: self.match_fields,
            priority: self.priority,
            duration: now.saturating_since(self.installed_at),
            idle_timeout: self.idle_timeout,
            hard_timeout: self.hard_timeout,
            cookie: self.cookie,
            packet_count: self.packet_count,
            byte_count: self.byte_count,
            actions: self.actions.clone(),
        }
    }
}

/// An entry's place in match order: priority ↓, specificity ↓, install
/// sequence ↓ (a later installation shadows an earlier equal one). The
/// sequence makes it unique per entry.
type Rank = (Reverse<u16>, Reverse<u32>, Reverse<u64>);

/// One stored entry: the slab slot the ordered map and the shape buckets
/// address.
#[derive(Debug, Clone)]
struct Node {
    entry: FlowEntry,
    rank: Rank,
    /// The next entry of the same bucket, in match order.
    next: Option<usize>,
}

/// Hasher for the shape buckets' fixed-layout [`MatchFields`] keys: one
/// rotate-xor-multiply per word written (the FxHash construction), a
/// fraction of SipHash's cost on a 60-byte key. The keys come from the
/// simulated controller, not from outside the program, and no bucket map
/// is ever iterated, so neither flooding resistance nor a per-process
/// seed is wanted.
#[derive(Debug, Clone, Copy, Default)]
struct WordHasher(u64);

impl WordHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        // The multiply mixes upward only; bring the strong bits down to
        // where the map takes its bucket index from.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            self.mix(chunk.iter().fold(0, |w, b| (w << 8) | u64::from(*b)));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// The entries that constrain one set of fields with one pair of prefix
/// lengths.
#[derive(Debug, Clone)]
struct Shape {
    /// What every entry's match looks like with its values zeroed.
    template: MatchFields,
    /// Canonical match → slot of the first entry carrying it.
    buckets: HashMap<MatchFields, usize, BuildHasherDefault<WordHasher>>,
}

impl Shape {
    /// The canonical match an entry of this shape must carry to match
    /// `pkt`, or `None` when the shape pins a field the packet lacks: no
    /// entry of the shape can match then, a `/0` prefix included.
    fn project(&self, pkt: &PacketHeader) -> Option<MatchFields> {
        let t = &self.template;
        Some(MatchFields {
            in_port: t.in_port.map(|_| pkt.in_port),
            eth_src: t.eth_src.map(|_| pkt.eth_src),
            eth_dst: t.eth_dst.map(|_| pkt.eth_dst),
            eth_type: t.eth_type.map(|_| pkt.eth_type),
            vlan_id: pinned(t.vlan_id, pkt.vlan_id)?,
            ip_src: match t.ip_src {
                Some((_, len)) => Some(network(pkt.ip_src?, len)),
                None => None,
            },
            ip_dst: match t.ip_dst {
                Some((_, len)) => Some(network(pkt.ip_dst?, len)),
                None => None,
            },
            ip_proto: pinned(t.ip_proto, pkt.ip_proto)?,
            tp_src: pinned(t.tp_src, pkt.tp_src)?,
            tp_dst: pinned(t.tp_dst, pkt.tp_dst)?,
        })
    }
}

/// A shape's key for an optional header field: wild when the shape
/// leaves it wild, the packet's value when it is pinned — and no key at
/// all (outer `None`) when it is pinned but the packet has none.
fn pinned<T>(template: Option<T>, have: Option<T>) -> Option<Option<T>> {
    match template {
        None => Some(None),
        Some(_) => have.map(Some),
    }
}

/// `ip/len` with the host bits cleared.
fn network(ip: Ipv4Addr, len: u8) -> (Ipv4Addr, u8) {
    let host_bits = 32u32.saturating_sub(u32::from(len));
    let mask = u32::MAX.checked_shl(host_bits).unwrap_or(0);
    (Ipv4Addr::from_raw(ip.raw() & mask), len)
}

/// `m` with its networks masked to their prefix: `10.0.0.5/24` and
/// `10.0.0.0/24` match the same packets, so they share a bucket.
fn canonical(m: &MatchFields) -> MatchFields {
    MatchFields {
        ip_src: m.ip_src.map(|(ip, len)| network(ip, len)),
        ip_dst: m.ip_dst.map(|(ip, len)| network(ip, len)),
        ..*m
    }
}

/// `m` with every pinned value zeroed: equal for two matches exactly
/// when they have the same shape.
fn template(m: &MatchFields) -> MatchFields {
    MatchFields {
        in_port: m.in_port.map(|_| Default::default()),
        eth_src: m.eth_src.map(|_| Default::default()),
        eth_dst: m.eth_dst.map(|_| Default::default()),
        eth_type: m.eth_type.map(|_| Default::default()),
        vlan_id: m.vlan_id.map(|_| 0),
        ip_src: m.ip_src.map(|(_, len)| (Ipv4Addr::UNSPECIFIED, len)),
        ip_dst: m.ip_dst.map(|(_, len)| (Ipv4Addr::UNSPECIFIED, len)),
        ip_proto: m.ip_proto.map(|_| Default::default()),
        tp_src: m.tp_src.map(|_| 0),
        tp_dst: m.tp_dst.map(|_| 0),
    }
}

fn arm(deadlines: &mut BTreeMap<SimTime, usize>, at: SimTime) {
    if at != SimTime::MAX {
        *deadlines.entry(at).or_insert(0) += 1;
    }
}

fn disarm(deadlines: &mut BTreeMap<SimTime, usize>, at: SimTime) {
    if let Some(n) = deadlines.get_mut(&at) {
        *n -= 1;
        if *n == 0 {
            deadlines.remove(&at);
        }
    }
}

/// A priority-ordered OpenFlow flow table.
///
/// Lookup semantics follow the specification: the highest-priority matching
/// entry wins; among equal priorities the more specific match wins, and
/// among equal specificity the most recently installed wins. Matched
/// entries update their packet/byte counters and idle-timeout clock.
///
/// # Examples
///
/// ```
/// use athena_openflow::{Action, FlowMod, FlowTable, MatchFields};
/// use athena_types::{IpProto, Ipv4Addr, PortNo, SimTime};
///
/// let mut table = FlowTable::new(0);
/// table.apply(
///     &FlowMod::add(MatchFields::new(), 1, vec![Action::Output(PortNo::new(1))]),
///     SimTime::ZERO,
/// )?;
/// assert_eq!(table.len(), 1);
/// # Ok::<(), athena_types::AthenaError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    table_id: u8,
    /// Entry storage; a freed slot is `None` and listed in `free`.
    slots: Vec<Option<Node>>,
    free: Vec<usize>,
    /// Every entry's slot, in match order.
    order: BTreeMap<Rank, usize>,
    /// The shapes in use. A `Vec`, not a map: the winner is chosen by
    /// rank, so the visiting order cannot change the answer.
    shapes: Vec<Shape>,
    /// The entries' finite [`FlowEntry::expires_at`] values, with
    /// multiplicity.
    deadlines: BTreeMap<SimTime, usize>,
    next_seq: u64,
    lookup_count: u64,
    matched_count: u64,
}

#[cfg(test)]
thread_local! {
    /// Entries this thread's bucket walks have examined: the scale
    /// guard's yardstick.
    static VISITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl FlowTable {
    /// Creates an empty table with the given id.
    pub fn new(table_id: u8) -> Self {
        FlowTable {
            table_id,
            ..FlowTable::default()
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterates over the entries in match order (highest priority first).
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.order
            .values()
            .filter_map(|slot| self.node(*slot))
            .map(|n| &n.entry)
    }

    fn node(&self, slot: usize) -> Option<&Node> {
        self.slots.get(slot)?.as_ref()
    }

    fn node_mut(&mut self, slot: usize) -> Option<&mut Node> {
        self.slots.get_mut(slot)?.as_mut()
    }

    /// The entries of one bucket from `head` on, in match order.
    fn mates(&self, head: Option<usize>) -> impl Iterator<Item = (usize, &Node)> {
        let mut at = head;
        std::iter::from_fn(move || {
            let slot = at?;
            let node = self.node(slot)?;
            at = node.next;
            #[cfg(test)]
            VISITS.with(|v| v.set(v.get() + 1));
            Some((slot, node))
        })
    }

    /// The index of the shape `m` has, if any entry has it.
    fn shape_of(&self, m: &MatchFields) -> Option<usize> {
        let shape = template(m);
        self.shapes.iter().position(|s| s.template == shape)
    }

    /// The first entry of the bucket `key` names in shape `at`.
    fn head(&self, at: usize, key: &MatchFields) -> Option<usize> {
        self.shapes.get(at)?.buckets.get(key).copied()
    }

    /// The entry with exactly this match (as installed, not merely an
    /// equivalent prefix) and priority.
    fn find_strict(&self, m: &MatchFields, priority: u16) -> Option<usize> {
        self.mates(self.head(self.shape_of(m)?, &canonical(m)))
            .find(|(_, n)| n.entry.priority == priority && n.entry.match_fields == *m)
            .map(|(slot, _)| slot)
    }

    /// The first live entry, in match order, that matches `pkt`: one
    /// probe per shape, then the best-ranked of the shapes' candidates.
    /// An expired entry stays in its bucket until [`FlowTable::expire`]
    /// and is passed over for the next mate.
    fn winner(&self, pkt: &PacketHeader, now: SimTime) -> Option<usize> {
        let mut best: Option<(Rank, usize)> = None;
        for shape in &self.shapes {
            let head = shape
                .project(pkt)
                .and_then(|key| shape.buckets.get(&key).copied());
            let live = self
                .mates(head)
                .find(|(_, n)| n.entry.expiry_reason(now).is_none());
            if let Some((slot, node)) = live {
                debug_assert!(node.entry.match_fields.matches(pkt));
                if best.is_none_or(|(rank, _)| node.rank < rank) {
                    best = Some((node.rank, slot));
                }
            }
        }
        best.map(|(_, slot)| slot)
    }

    fn install(&mut self, entry: FlowEntry) {
        let rank = (
            Reverse(entry.priority),
            Reverse(entry.match_fields.specificity()),
            Reverse(self.next_seq),
        );
        self.next_seq += 1;
        let key = canonical(&entry.match_fields);
        let at = self.shape_of(&entry.match_fields).unwrap_or_else(|| {
            self.shapes.push(Shape {
                template: template(&entry.match_fields),
                buckets: HashMap::default(),
            });
            self.shapes.len() - 1
        });
        let head = self.head(at, &key);
        // Bucket-mates share a shape, hence a specificity: rank orders
        // them by priority, then newest first.
        let before = self
            .mates(head)
            .take_while(|(_, n)| n.rank < rank)
            .last()
            .map(|(slot, _)| slot);
        let slot = self.free.pop().unwrap_or(self.slots.len());
        if slot == self.slots.len() {
            self.slots.push(None);
        }
        let next = match before.and_then(|b| self.node_mut(b)) {
            Some(b) => b.next.replace(slot),
            None => {
                if let Some(shape) = self.shapes.get_mut(at) {
                    shape.buckets.insert(key, slot);
                }
                head
            }
        };
        arm(&mut self.deadlines, entry.expires_at());
        self.order.insert(rank, slot);
        if let Some(vacant) = self.slots.get_mut(slot) {
            *vacant = Some(Node { entry, rank, next });
        }
    }

    fn uninstall(&mut self, slot: usize) -> Option<FlowEntry> {
        let m = self.node(slot)?.entry.match_fields;
        let (at, key) = (self.shape_of(&m)?, canonical(&m));
        let before = self
            .mates(self.head(at, &key))
            .find(|(_, n)| n.next == Some(slot))
            .map(|(b, _)| b);
        let Node { entry, rank, next } = self.slots.get_mut(slot)?.take()?;
        self.free.push(slot);
        self.order.remove(&rank);
        disarm(&mut self.deadlines, entry.expires_at());
        match before.and_then(|b| self.node_mut(b)) {
            Some(b) => b.next = next,
            None => {
                let shape = self.shapes.get_mut(at)?;
                match next {
                    Some(next) => shape.buckets.insert(key, next),
                    None => shape.buckets.remove(&key),
                };
                if shape.buckets.is_empty() {
                    self.shapes.swap_remove(at);
                }
            }
        }
        Some(entry)
    }

    /// Removes, in match order, every entry `doomed` gives a reason for,
    /// returning the notifications of those that asked for one.
    fn remove_where(
        &mut self,
        now: SimTime,
        doomed: impl Fn(&FlowEntry) -> Option<FlowRemovedReason>,
    ) -> Vec<FlowRemoved> {
        let slots: Vec<(usize, FlowRemovedReason)> = self
            .order
            .values()
            .filter_map(|slot| Some((*slot, doomed(&self.node(*slot)?.entry)?)))
            .collect();
        let mut removed = Vec::new();
        for (slot, reason) in slots {
            if let Some(e) = self.uninstall(slot).filter(|e| e.send_flow_removed) {
                removed.push(e.to_flow_removed(now, reason));
            }
        }
        removed
    }

    /// Applies a flow-mod. Returns any [`FlowRemoved`] notifications the
    /// operation produced (for deletes).
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::InvalidState`] for a `Modify`/`DeleteStrict`
    /// that names a non-existent entry — callers that want OpenFlow's
    /// silent-ignore behaviour can discard the error.
    pub fn apply(&mut self, fm: &FlowMod, now: SimTime) -> Result<Vec<FlowRemoved>> {
        match fm.command {
            FlowModCommand::Add => {
                // Adding replaces an entry with identical match + priority.
                if let Some(slot) = self.find_strict(&fm.match_fields, fm.priority) {
                    self.uninstall(slot);
                }
                self.install(FlowEntry {
                    match_fields: fm.match_fields,
                    priority: fm.priority,
                    actions: fm.actions.clone(),
                    cookie: fm.cookie,
                    idle_timeout: fm.idle_timeout,
                    hard_timeout: fm.hard_timeout,
                    installed_at: now,
                    last_matched_at: now,
                    packet_count: 0,
                    byte_count: 0,
                    send_flow_removed: fm.send_flow_removed,
                });
                Ok(Vec::new())
            }
            FlowModCommand::Modify => {
                let mut touched = 0;
                for n in self.slots.iter_mut().flatten() {
                    if n.entry.match_fields.is_subset_of(&fm.match_fields) {
                        n.entry.actions = fm.actions.clone();
                        n.entry.cookie = fm.cookie;
                        touched += 1;
                    }
                }
                if touched == 0 {
                    Err(AthenaError::InvalidState(format!(
                        "modify matched no entries in table {}",
                        self.table_id
                    )))
                } else {
                    Ok(Vec::new())
                }
            }
            FlowModCommand::Delete => Ok(self.remove_where(now, |e| {
                e.match_fields
                    .is_subset_of(&fm.match_fields)
                    .then_some(FlowRemovedReason::Delete)
            })),
            FlowModCommand::DeleteStrict => {
                let slot = self.find_strict(&fm.match_fields, fm.priority);
                match slot.and_then(|slot| self.uninstall(slot)) {
                    Some(e) if e.send_flow_removed => {
                        Ok(vec![e.to_flow_removed(now, FlowRemovedReason::Delete)])
                    }
                    Some(_) => Ok(Vec::new()),
                    None => Err(AthenaError::InvalidState(format!(
                        "strict delete matched no entry in table {}",
                        self.table_id
                    ))),
                }
            }
        }
    }

    /// Looks up the packet, updating the winning entry's counters.
    ///
    /// Returns the matched entry (post-update), or `None` for a table miss.
    /// `packets`/`bytes` are the amounts to credit (a flow-level simulator
    /// may credit a burst at once).
    pub fn lookup(
        &mut self,
        pkt: &PacketHeader,
        now: SimTime,
        packets: u64,
        bytes: u64,
    ) -> Option<&FlowEntry> {
        self.lookup_count += 1;
        let slot = self.winner(pkt, now)?;
        self.matched_count += 1;
        let entry = &mut self.slots.get_mut(slot)?.as_mut()?.entry;
        let deadline = entry.expires_at();
        entry.packet_count += packets;
        entry.byte_count += bytes;
        entry.last_matched_at = now;
        if entry.expires_at() != deadline {
            disarm(&mut self.deadlines, deadline);
            arm(&mut self.deadlines, entry.expires_at());
        }
        Some(entry)
    }

    /// Looks up the packet without mutating any counters (used by the
    /// simulator's routing phase; a subsequent [`FlowTable::lookup`]
    /// credits the traffic).
    pub fn peek(&self, pkt: &PacketHeader, now: SimTime) -> Option<&FlowEntry> {
        Some(&self.node(self.winner(pkt, now)?)?.entry)
    }

    /// Removes expired entries, returning their [`FlowRemoved`]
    /// notifications (only for entries that requested them).
    pub fn expire(&mut self, now: SimTime) -> Vec<FlowRemoved> {
        self.remove_where(now, |e| e.expiry_reason(now))
    }

    /// Returns the earliest instant at which some entry expires, if any.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.deadlines.keys().next().copied()
    }

    /// Per-flow statistics for entries whose match is a subset of `filter`.
    pub fn flow_stats(&self, filter: &MatchFields, now: SimTime) -> Vec<FlowStatsEntry> {
        self.iter()
            .filter(|e| e.match_fields.is_subset_of(filter))
            .map(|e| {
                let mut s = e.to_stats(now);
                s.table_id = self.table_id;
                s
            })
            .collect()
    }

    /// Aggregate statistics over entries whose match is a subset of
    /// `filter`.
    pub fn aggregate_stats(&self, filter: &MatchFields) -> AggregateStats {
        let mut agg = AggregateStats::default();
        for e in self.iter() {
            if e.match_fields.is_subset_of(filter) {
                agg.packet_count += e.packet_count;
                agg.byte_count += e.byte_count;
                agg.flow_count += 1;
            }
        }
        agg
    }

    /// Total lookups performed against this table.
    pub fn lookup_count(&self) -> u64 {
        self.lookup_count
    }

    /// Lookups that matched an entry.
    pub fn matched_count(&self) -> u64 {
        self.matched_count
    }

    /// Table-level statistics.
    pub fn table_stats(&self) -> TableStatsEntry {
        TableStatsEntry {
            table_id: self.table_id,
            active_count: self.len() as u32,
            lookup_count: self.lookup_count,
            matched_count: self.matched_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_types::{IpProto, Ipv4Addr, PortNo};

    fn pkt(dst_port: u16) -> PacketHeader {
        PacketHeader::tcp_syn(
            PortNo::new(1),
            Ipv4Addr::new(10, 0, 0, 1),
            50000,
            Ipv4Addr::new(10, 0, 0, 2),
            dst_port,
        )
    }

    fn add(table: &mut FlowTable, m: MatchFields, prio: u16, out: u32) {
        table
            .apply(
                &FlowMod::add(m, prio, vec![Action::Output(PortNo::new(out))]),
                SimTime::ZERO,
            )
            .unwrap();
    }

    #[test]
    fn highest_priority_wins() {
        let mut t = FlowTable::new(0);
        add(&mut t, MatchFields::new(), 1, 1);
        add(
            &mut t,
            MatchFields::new().with_ip_proto(IpProto::Tcp),
            100,
            2,
        );
        let hit = t.lookup(&pkt(80), SimTime::ZERO, 1, 64).unwrap();
        assert_eq!(Action::first_output(&hit.actions), Some(PortNo::new(2)));
    }

    #[test]
    fn specificity_breaks_priority_ties() {
        let mut t = FlowTable::new(0);
        add(&mut t, MatchFields::new().with_ip_proto(IpProto::Tcp), 5, 1);
        add(
            &mut t,
            MatchFields::new()
                .with_ip_proto(IpProto::Tcp)
                .with_tp_dst(80),
            5,
            2,
        );
        let hit = t.lookup(&pkt(80), SimTime::ZERO, 1, 64).unwrap();
        assert_eq!(Action::first_output(&hit.actions), Some(PortNo::new(2)));
        let hit = t.lookup(&pkt(443), SimTime::ZERO, 1, 64).unwrap();
        assert_eq!(Action::first_output(&hit.actions), Some(PortNo::new(1)));
    }

    #[test]
    fn add_replaces_identical_match_and_priority() {
        let mut t = FlowTable::new(0);
        add(&mut t, MatchFields::new(), 1, 1);
        add(&mut t, MatchFields::new(), 1, 2);
        assert_eq!(t.len(), 1);
        let hit = t.lookup(&pkt(80), SimTime::ZERO, 1, 64).unwrap();
        assert_eq!(Action::first_output(&hit.actions), Some(PortNo::new(2)));
    }

    #[test]
    fn counters_accumulate() {
        let mut t = FlowTable::new(0);
        add(&mut t, MatchFields::new(), 1, 1);
        t.lookup(&pkt(80), SimTime::ZERO, 3, 300);
        t.lookup(&pkt(80), SimTime::from_secs(1), 2, 200);
        let e = t.iter().next().unwrap();
        assert_eq!(e.packet_count, 5);
        assert_eq!(e.byte_count, 500);
        assert_eq!(e.last_matched_at, SimTime::from_secs(1));
    }

    #[test]
    fn hard_timeout_expires() {
        let mut t = FlowTable::new(0);
        let fm = FlowMod::add(MatchFields::new(), 1, vec![])
            .with_hard_timeout(SimDuration::from_secs(10));
        t.apply(&fm, SimTime::ZERO).unwrap();
        assert!(t.expire(SimTime::from_secs(9)).is_empty());
        let removed = t.expire(SimTime::from_secs(10));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, FlowRemovedReason::HardTimeout);
        assert!(t.is_empty());
    }

    #[test]
    fn idle_timeout_resets_on_traffic() {
        let mut t = FlowTable::new(0);
        let fm = FlowMod::add(MatchFields::new(), 1, vec![])
            .with_idle_timeout(SimDuration::from_secs(5));
        t.apply(&fm, SimTime::ZERO).unwrap();
        // Traffic at t=4 pushes expiry to t=9.
        t.lookup(&pkt(80), SimTime::from_secs(4), 1, 64);
        assert!(t.expire(SimTime::from_secs(8)).is_empty());
        let removed = t.expire(SimTime::from_secs(9));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, FlowRemovedReason::IdleTimeout);
    }

    #[test]
    fn expired_entries_do_not_match_before_gc() {
        let mut t = FlowTable::new(0);
        let fm = FlowMod::add(MatchFields::new(), 1, vec![Action::Output(PortNo::new(1))])
            .with_hard_timeout(SimDuration::from_secs(1));
        t.apply(&fm, SimTime::ZERO).unwrap();
        assert!(t.lookup(&pkt(80), SimTime::from_secs(2), 1, 64).is_none());
    }

    #[test]
    fn non_strict_delete_removes_subsets() {
        let mut t = FlowTable::new(0);
        add(&mut t, MatchFields::new().with_tp_dst(80), 1, 1);
        add(&mut t, MatchFields::new().with_tp_dst(443), 1, 1);
        add(&mut t, MatchFields::new().with_ip_proto(IpProto::Udp), 1, 1);
        // Delete everything under "tcp dst 80": only the first entry.
        let removed = t
            .apply(
                &FlowMod::delete(MatchFields::new().with_tp_dst(80)),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(t.len(), 2);
        // Delete-all removes the rest.
        let removed = t
            .apply(&FlowMod::delete(MatchFields::new()), SimTime::ZERO)
            .unwrap();
        assert_eq!(removed.len(), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn strict_delete_requires_exact_entry() {
        let mut t = FlowTable::new(0);
        add(&mut t, MatchFields::new().with_tp_dst(80), 7, 1);
        let mut fm = FlowMod::delete(MatchFields::new().with_tp_dst(80));
        fm.command = FlowModCommand::DeleteStrict;
        fm.priority = 8; // wrong priority
        assert!(t.apply(&fm, SimTime::ZERO).is_err());
        fm.priority = 7;
        assert_eq!(t.apply(&fm, SimTime::ZERO).unwrap().len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn modify_rewrites_actions() {
        let mut t = FlowTable::new(0);
        add(&mut t, MatchFields::new().with_tp_dst(80), 1, 1);
        let mut fm = FlowMod::add(MatchFields::new(), 0, vec![Action::Output(PortNo::new(9))]);
        fm.command = FlowModCommand::Modify;
        t.apply(&fm, SimTime::ZERO).unwrap();
        let hit = t.lookup(&pkt(80), SimTime::ZERO, 1, 64).unwrap();
        assert_eq!(Action::first_output(&hit.actions), Some(PortNo::new(9)));
    }

    #[test]
    fn stats_queries() {
        let mut t = FlowTable::new(3);
        add(&mut t, MatchFields::new().with_tp_dst(80), 1, 1);
        add(&mut t, MatchFields::new().with_tp_dst(443), 1, 1);
        t.lookup(&pkt(80), SimTime::from_secs(1), 4, 400);
        t.lookup(&pkt(443), SimTime::from_secs(1), 6, 600);
        t.lookup(&pkt(999), SimTime::from_secs(1), 1, 64); // miss

        let all = t.flow_stats(&MatchFields::new(), SimTime::from_secs(2));
        assert_eq!(all.len(), 2);
        assert!(all.iter().all(|s| s.table_id == 3));

        let agg = t.aggregate_stats(&MatchFields::new());
        assert_eq!(agg.packet_count, 10);
        assert_eq!(agg.byte_count, 1000);
        assert_eq!(agg.flow_count, 2);

        let ts = t.table_stats();
        assert_eq!(ts.active_count, 2);
        assert_eq!(ts.lookup_count, 3);
        assert_eq!(ts.matched_count, 2);
    }

    #[test]
    fn next_expiry_reports_earliest() {
        let mut t = FlowTable::new(0);
        t.apply(
            &FlowMod::add(MatchFields::new().with_tp_dst(1), 1, vec![])
                .with_hard_timeout(SimDuration::from_secs(30)),
            SimTime::ZERO,
        )
        .unwrap();
        t.apply(
            &FlowMod::add(MatchFields::new().with_tp_dst(2), 1, vec![])
                .with_idle_timeout(SimDuration::from_secs(10)),
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(t.next_expiry(), Some(SimTime::from_secs(10)));
    }

    /// The deterministic scale guard: on 8,192 five-tuple rules under 25
    /// `ip_src/32` block rules and over a default rule, a lookup examines
    /// one candidate per shape (plus expired bucket-mates) and an `Add`
    /// of a new match none, however deep the table is.
    #[test]
    fn probes_do_not_scale_with_table_depth() {
        let flow = |i: u32| {
            PacketHeader::tcp_syn(
                PortNo::new(1),
                Ipv4Addr::from_raw(0x0a00_0000 + i),
                1000,
                Ipv4Addr::from_raw(0x0b00_0000 + i),
                80,
            )
        };
        let rule = |i: u32, prio: u16| {
            let m = MatchFields::exact_five_tuple(flow(i).five_tuple().unwrap());
            FlowMod::add(m, prio, vec![Action::Output(PortNo::new(2))])
        };
        let mut t = FlowTable::new(0);
        add(&mut t, MatchFields::new(), 0, 9);
        for i in 0..25 {
            let blocked = Ipv4Addr::from_raw(0x0c00_0000 + i);
            t.apply(
                &FlowMod::add(MatchFields::new().with_ip_src(blocked, 32), 1000, vec![]),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let visits = || VISITS.with(|v| v.replace(0));
        visits();
        for i in 0..8192 {
            let fm = rule(i, 10).with_idle_timeout(SimDuration::from_secs(30));
            t.apply(&fm, SimTime::ZERO).unwrap();
            assert_eq!(visits(), 0, "add {i} examined entries");
        }
        assert_eq!((t.len(), t.shapes.len()), (8192 + 25 + 1, 3));

        for i in [0, 4096, 8191] {
            let hit = t.lookup(&flow(i), SimTime::ZERO, 1, 64).unwrap();
            assert_eq!(hit.priority, 10);
            assert!(visits() <= 3);
        }
        let stranger = t.peek(&flow(9000), SimTime::ZERO).unwrap();
        assert_eq!(stranger.priority, 0);
        assert!(visits() <= 3);
        let mut blocked = flow(3);
        blocked.ip_src = Some(Ipv4Addr::from_raw(0x0c00_0003));
        assert_eq!(t.peek(&blocked, SimTime::ZERO).unwrap().priority, 1000);
        assert!(visits() <= 3);

        // A lower-priority, permanent rule for flow 7 shares its bucket.
        // Once the table has idled out (but before `expire` collects it)
        // the lookup passes over the dead mate and nothing else.
        t.apply(&rule(7, 5), SimTime::ZERO).unwrap();
        assert!(visits() <= 2, "only the one bucket-mate is examined");
        let late = SimTime::from_secs(31);
        assert_eq!(t.lookup(&flow(7), late, 1, 64).unwrap().priority, 5);
        assert!(visits() <= 3 + 1);
        assert_eq!(t.peek(&flow(8), late).unwrap().priority, 0);
        assert!(visits() <= 3 + 1);
        // A replacing Add examines its bucket, not the table.
        t.apply(&rule(7, 10), late).unwrap();
        assert!(visits() <= 2 * 2);
        assert_eq!(t.lookup(&flow(7), late, 1, 64).unwrap().priority, 10);

        // An emptied shape stops being probed.
        assert_eq!(t.expire(late).len(), 8191);
        assert_eq!((t.len(), t.shapes.len()), (25 + 1 + 2, 3));
        let all_blocks = MatchFields::new().with_ip_src(Ipv4Addr::new(12, 0, 0, 0), 8);
        t.apply(&FlowMod::delete(all_blocks), late).unwrap();
        assert_eq!((t.len(), t.shapes.len()), (1 + 2, 2));
    }
}
