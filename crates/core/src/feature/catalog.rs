//! The Athena feature catalog.
//!
//! The paper exposes "over 100 network monitoring features" in three
//! categories (Table I): *protocol-centric* features read directly from
//! OpenFlow control messages, *combination* features derived by
//! pre-defined formulas, and *stateful* features reflecting tracked
//! network state — each with `_VAR` variation derivatives computed
//! against the previous sample.
//!
//! The list is closed, and this module is the one place a feature name
//! is spelled: the table below holds each name once, with its category
//! and kind, and everything else — records, documents, models, the
//! generator — carries the [`FeatureId`] constant or the table's own
//! `&'static str`.

use athena_store::Key;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The feature categories of Table I (plus the variation derivative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureCategory {
    /// Derived from SDN control messages directly.
    ProtocolCentric,
    /// Combined features derived by pre-defined formulas.
    Combination,
    /// Features reflecting tracked network state.
    Stateful,
    /// Change of a feature since the previous sample.
    Variation,
}

/// What a feature describes and where it is derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    /// Per-flow protocol-centric features (from `FLOW_STATS` replies).
    Flow,
    /// Per-flow combination features.
    FlowCombination,
    /// Per-flow stateful features.
    FlowStateful,
    /// Per-flow variation features.
    FlowVariation,
    /// Per-port protocol-centric counters (from `PORT_STATS` replies).
    Port,
    /// Per-port variation features.
    PortVariation,
    /// Per-port combination features.
    PortCombination,
    /// Per-table features (from `TABLE_STATS` replies).
    Table,
    /// Per-event packet-in features (derived from each `PACKET_IN`
    /// directly — the per-message protocol-centric path that dominates
    /// Athena's Table IX overhead).
    PacketIn,
    /// Flow-removed features.
    FlowRemoved,
    /// Per-switch control-plane message counters (the paper's eight
    /// major SDN operational functions each map to message types the SB
    /// interface watches), sampled per window with rates and variations.
    Message,
    /// Per-switch stateful aggregates.
    SwitchStateful,
    /// Per-host stateful aggregates (derived from each switch's
    /// flow-stats snapshot, keyed by host address).
    Host,
    /// Control-plane-wide features (per controller instance).
    ControlPlane,
}

/// A catalog feature: the position of its row in the table, which is
/// listed in name order — so ids order as their names do, and sorting
/// a record's fields into document order is an integer sort.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FeatureId(u8);

#[derive(Clone, Copy)]
struct Entry {
    name: &'static str,
    kind: FeatureKind,
    category: FeatureCategory,
}

/// Declares the table: one `NAME: Kind, Category;` row per feature, in
/// name order (checked at compile time). Each row yields the table
/// entry and a `pub const NAME: FeatureId`.
macro_rules! catalog {
    ($( $name:ident: $kind:ident, $category:ident; )*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        #[repr(u8)]
        enum Row { $( $name, )* }

        $(
            #[doc = concat!("The `", stringify!($name), "` feature.")]
            pub const $name: FeatureId = FeatureId(Row::$name as u8);
        )*

        /// Number of catalog features.
        pub const COUNT: usize = [$( Row::$name as u8 ),*].len();

        const ROWS: [Entry; COUNT] = [
            $( Entry {
                name: stringify!($name),
                kind: FeatureKind::$kind,
                category: FeatureCategory::$category,
            }, )*
        ];
    };
}

catalog! {
    CTRL_INSTALL_RATE: ControlPlane, Combination;
    CTRL_KNOWN_HOSTS: ControlPlane, Stateful;
    CTRL_LIVE_RULES: ControlPlane, Stateful;
    CTRL_MASTERED_SWITCHES: ControlPlane, Stateful;
    CTRL_REMOVAL_RATE: ControlPlane, Combination;
    CTRL_RULES_PER_APP: ControlPlane, Stateful;
    FLOW_ACTION_OUTPUT_PORT: Flow, ProtocolCentric;
    FLOW_APP_ID: FlowStateful, Stateful;
    FLOW_BYTE_COUNT: Flow, ProtocolCentric;
    FLOW_BYTE_COUNT_VAR: FlowVariation, Variation;
    FLOW_BYTE_PER_DURATION: FlowCombination, Combination;
    FLOW_BYTE_PER_PACKET: FlowCombination, Combination;
    FLOW_BYTE_PER_PACKET_VAR: FlowVariation, Variation;
    FLOW_DURATION_NSEC: Flow, ProtocolCentric;
    FLOW_DURATION_SEC: Flow, ProtocolCentric;
    FLOW_DURATION_SEC_VAR: FlowVariation, Variation;
    FLOW_ETH_TYPE: Flow, ProtocolCentric;
    FLOW_HARD_TIMEOUT: Flow, ProtocolCentric;
    FLOW_IDLE_TIMEOUT: Flow, ProtocolCentric;
    FLOW_IP_DST: Flow, ProtocolCentric;
    FLOW_IP_PROTO: Flow, ProtocolCentric;
    FLOW_IP_SRC: Flow, ProtocolCentric;
    FLOW_ORIGIN_REACTIVE: FlowStateful, Stateful;
    FLOW_PACKET_COUNT: Flow, ProtocolCentric;
    FLOW_PACKET_COUNT_VAR: FlowVariation, Variation;
    FLOW_PACKET_PER_DURATION: FlowCombination, Combination;
    FLOW_PRIORITY: Flow, ProtocolCentric;
    FLOW_TABLE_ID: Flow, ProtocolCentric;
    FLOW_TP_DST: Flow, ProtocolCentric;
    FLOW_TP_SRC: Flow, ProtocolCentric;
    FLOW_UTILIZATION: FlowCombination, Combination;
    HOST_FANIN: Host, Stateful;
    HOST_FANOUT: Host, Stateful;
    HOST_IN_FLOW_COUNT: Host, Stateful;
    HOST_OUT_FLOW_COUNT: Host, Stateful;
    HOST_PAIR_RATIO: Host, Stateful;
    HOST_RX_BYTES: Host, Stateful;
    HOST_RX_PACKETS: Host, Stateful;
    HOST_TX_BYTES: Host, Stateful;
    HOST_TX_PACKETS: Host, Stateful;
    MSG_BARRIER_COUNT: Message, ProtocolCentric;
    MSG_ECHO_COUNT: Message, ProtocolCentric;
    MSG_FLOW_MOD_COUNT: Message, ProtocolCentric;
    MSG_FLOW_MOD_COUNT_VAR: Message, Variation;
    MSG_FLOW_MOD_RATE: Message, Combination;
    MSG_FLOW_REMOVED_COUNT: Message, ProtocolCentric;
    MSG_FLOW_REMOVED_RATE: Message, Combination;
    MSG_PACKET_IN_COUNT: Message, ProtocolCentric;
    MSG_PACKET_IN_COUNT_VAR: Message, Variation;
    MSG_PACKET_IN_RATE: Message, Combination;
    MSG_PACKET_OUT_COUNT: Message, ProtocolCentric;
    MSG_PACKET_OUT_COUNT_VAR: Message, Variation;
    MSG_PORT_STATUS_COUNT: Message, ProtocolCentric;
    MSG_STATS_REPLY_COUNT: Message, ProtocolCentric;
    MSG_STATS_REQUEST_COUNT: Message, ProtocolCentric;
    MSG_TOTAL_COUNT: Message, ProtocolCentric;
    PACKET_IN_BUFFERED: PacketIn, ProtocolCentric;
    PACKET_IN_BYTE_LEN: PacketIn, ProtocolCentric;
    PACKET_IN_PORT: PacketIn, ProtocolCentric;
    PAIR_FLOW: FlowStateful, Stateful;
    PAIR_FLOW_RATIO: FlowStateful, Stateful;
    PORT_DROP_RATIO: PortCombination, Combination;
    PORT_RX_BYTES: Port, ProtocolCentric;
    PORT_RX_BYTES_VAR: PortVariation, Variation;
    PORT_RX_BYTE_PER_PACKET: PortCombination, Combination;
    PORT_RX_DROPPED: Port, ProtocolCentric;
    PORT_RX_DROPPED_VAR: PortVariation, Variation;
    PORT_RX_ERRORS: Port, ProtocolCentric;
    PORT_RX_ERRORS_VAR: PortVariation, Variation;
    PORT_RX_PACKETS: Port, ProtocolCentric;
    PORT_RX_PACKETS_VAR: PortVariation, Variation;
    PORT_RX_UTILIZATION: PortCombination, Combination;
    PORT_TX_BYTES: Port, ProtocolCentric;
    PORT_TX_BYTES_VAR: PortVariation, Variation;
    PORT_TX_BYTE_PER_PACKET: PortCombination, Combination;
    PORT_TX_DROPPED: Port, ProtocolCentric;
    PORT_TX_DROPPED_VAR: PortVariation, Variation;
    PORT_TX_ERRORS: Port, ProtocolCentric;
    PORT_TX_ERRORS_VAR: PortVariation, Variation;
    PORT_TX_PACKETS: Port, ProtocolCentric;
    PORT_TX_PACKETS_VAR: PortVariation, Variation;
    PORT_TX_UTILIZATION: PortCombination, Combination;
    REMOVED_BYTE_COUNT: FlowRemoved, ProtocolCentric;
    REMOVED_BYTE_PER_PACKET: FlowRemoved, Combination;
    REMOVED_DURATION_SEC: FlowRemoved, ProtocolCentric;
    REMOVED_PACKET_COUNT: FlowRemoved, ProtocolCentric;
    REMOVED_REASON_DELETE: FlowRemoved, ProtocolCentric;
    REMOVED_REASON_HARD: FlowRemoved, ProtocolCentric;
    REMOVED_REASON_IDLE: FlowRemoved, ProtocolCentric;
    SWITCH_APP_FLOW_COUNT: SwitchStateful, Stateful;
    SWITCH_AVG_FLOW_DURATION: SwitchStateful, Stateful;
    SWITCH_BYTE_COUNT_TOTAL: SwitchStateful, Stateful;
    SWITCH_FLOW_COUNT: SwitchStateful, Stateful;
    SWITCH_PACKET_COUNT_TOTAL: SwitchStateful, Stateful;
    SWITCH_PAIR_FLOW_COUNT: SwitchStateful, Stateful;
    SWITCH_PAIR_FLOW_RATIO: SwitchStateful, Stateful;
    SWITCH_SRC_DST_RATIO: SwitchStateful, Stateful;
    SWITCH_UNIQUE_DST_COUNT: SwitchStateful, Stateful;
    SWITCH_UNIQUE_SRC_COUNT: SwitchStateful, Stateful;
    TABLE_ACTIVE_COUNT: Table, ProtocolCentric;
    TABLE_ACTIVE_COUNT_VAR: Table, Variation;
    TABLE_LOOKUP_COUNT: Table, ProtocolCentric;
    TABLE_LOOKUP_COUNT_VAR: Table, Variation;
    TABLE_MATCHED_COUNT: Table, ProtocolCentric;
    TABLE_MISS_RATIO: Table, Combination;
}

/// The table, at one address: every reader sees the same `&'static str`
/// for a name, so "is this the catalog's own string" is a pointer test.
static ENTRIES: [Entry; COUNT] = ROWS;

const _: () = {
    assert!(COUNT <= u8::MAX as usize + 1, "FeatureId is a u8");
    let mut i = 0;
    while i + 1 < COUNT {
        assert!(
            bytes_lt(ROWS[i].name.as_bytes(), ROWS[i + 1].name.as_bytes()),
            "catalog rows must be strictly sorted by name"
        );
        i += 1;
    }
};

const fn bytes_lt(a: &[u8], b: &[u8]) -> bool {
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
        i += 1;
    }
    a.len() < b.len()
}

impl FeatureId {
    /// The feature's name: the table's own string.
    pub fn name(self) -> &'static str {
        self.entry().name
    }

    /// The feature's Table I category.
    pub fn category(self) -> FeatureCategory {
        self.entry().category
    }

    /// What the feature describes.
    pub fn kind(self) -> FeatureKind {
        self.entry().kind
    }

    /// The feature's position in name order, below [`COUNT`].
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// The feature at a position in name order.
    pub fn from_index(index: usize) -> Option<FeatureId> {
        // `COUNT <= 256` is asserted above, so the cast keeps the value.
        (index < COUNT).then_some(FeatureId(index as u8))
    }

    /// Looks a name up in the catalog.
    pub fn named(name: &str) -> Option<FeatureId> {
        ENTRIES
            .binary_search_by(|e| e.name.cmp(name))
            .ok()
            .and_then(FeatureId::from_index)
    }

    fn entry(self) -> &'static Entry {
        // Ids are only made from table positions.
        &ENTRIES[self.index()]
    }
}

impl fmt::Debug for FeatureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Display for FeatureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Every catalog feature, in name order.
pub fn all_features() -> impl ExactSizeIterator<Item = FeatureId> {
    // `COUNT <= 256` is asserted above, so the cast keeps the value.
    (0..COUNT).map(|i| FeatureId(i as u8))
}

/// The catalog features of one kind, in name order.
pub fn features_of(kind: FeatureKind) -> impl Iterator<Item = FeatureId> {
    all_features().filter(move |f| f.kind() == kind)
}

/// The category of a feature name; `None` for a name outside the
/// catalog.
pub fn category_of(name: &str) -> Option<FeatureCategory> {
    FeatureId::named(name).map(FeatureId::category)
}

/// The 10-tuple flow feature set the paper's DDoS detector uses
/// (Table V's candidates, ten of them, vs. Braga et al.'s 6-tuple).
pub const DDOS_10_TUPLE: [FeatureId; 10] = [
    PAIR_FLOW,
    PAIR_FLOW_RATIO,
    FLOW_PACKET_COUNT,
    FLOW_BYTE_COUNT,
    FLOW_BYTE_PER_PACKET,
    FLOW_PACKET_PER_DURATION,
    FLOW_BYTE_PER_DURATION,
    FLOW_DURATION_SEC,
    FLOW_DURATION_NSEC,
    FLOW_TP_DST,
];

/// The name of a record field: a catalog feature, or an ad-hoc name
/// (ground-truth tags, experiment columns) shared by pointer. Made from
/// a string it resolves against the catalog once, so a catalog feature
/// has exactly one representation and comparing two names never
/// compares a catalog name's characters.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FieldName(NameRepr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum NameRepr {
    Catalog(FeatureId),
    Adhoc(Arc<str>),
}

impl FieldName {
    /// The name.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            NameRepr::Catalog(id) => id.name(),
            NameRepr::Adhoc(name) => name,
        }
    }

    /// The catalog feature this names, if it is one.
    pub fn feature(&self) -> Option<FeatureId> {
        match self.0 {
            NameRepr::Catalog(id) => Some(id),
            NameRepr::Adhoc(_) => None,
        }
    }

    /// The name as a document key: the catalog's own string, or a
    /// handle to the shared ad-hoc one. Neither allocates.
    pub fn to_key(&self) -> Key {
        match &self.0 {
            NameRepr::Catalog(id) => Key::Static(id.name()),
            NameRepr::Adhoc(name) => Key::Shared(Arc::clone(name)),
        }
    }

    fn resolve(name: &str, adhoc: impl FnOnce() -> Arc<str>) -> Self {
        FieldName(match FeatureId::named(name) {
            Some(id) => NameRepr::Catalog(id),
            None => NameRepr::Adhoc(adhoc()),
        })
    }
}

impl From<FeatureId> for FieldName {
    fn from(id: FeatureId) -> Self {
        FieldName(NameRepr::Catalog(id))
    }
}

impl From<&str> for FieldName {
    fn from(name: &str) -> Self {
        FieldName::resolve(name, || name.into())
    }
}

impl From<String> for FieldName {
    fn from(name: String) -> Self {
        FieldName::from(name.as_str())
    }
}

impl From<&String> for FieldName {
    fn from(name: &String) -> Self {
        FieldName::from(name.as_str())
    }
}

impl From<&Key> for FieldName {
    fn from(key: &Key) -> Self {
        match key {
            Key::Static(name) => FieldName::from(*name),
            Key::Shared(name) => FieldName::resolve(name, || Arc::clone(name)),
        }
    }
}

impl AsRef<str> for FieldName {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for FieldName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for FieldName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for FieldName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for FieldName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for FieldName {
    fn to_value(&self) -> serde::Value {
        self.as_str().to_value()
    }
}

impl Deserialize for FieldName {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        String::from_value(v).map(FieldName::from)
    }
}

/// Resolves a document's keys, which arrive in name order, against the
/// catalog. A key that *is* the table's string (every key
/// `FeatureRecord::to_document` wrote in this process) is found by
/// pointer, scanning on from the previous hit; any other key is looked
/// up by content.
#[derive(Default)]
pub(crate) struct KeyResolver {
    next: usize,
}

impl KeyResolver {
    pub(crate) fn resolve(&mut self, key: &Key) -> FieldName {
        if let Key::Static(name) = key {
            let ahead = ENTRIES.iter().enumerate().skip(self.next);
            for (i, entry) in ahead {
                if std::ptr::eq(entry.name, *name) {
                    self.next = i + 1;
                    return FieldName(NameRepr::Catalog(FeatureId(i as u8)));
                }
            }
        }
        FieldName::from(key)
    }
}

/// The kind of a feature record: the OpenFlow message (or generator
/// state snapshot) it derives from. The generator's eight kinds are a
/// closed list; any other name (a replayed data set's own tag) is kept
/// as a shared string. The default is the empty name.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct MessageType(KindRepr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum KindRepr {
    /// A position in [`MESSAGE_TYPES`].
    Known(u8),
    Other(Arc<str>),
}

impl Default for KindRepr {
    fn default() -> Self {
        KindRepr::Known(KnownKind::Unset as u8)
    }
}

/// Declares the closed list: position 0 is the empty default, then one
/// `pub const NAME: MessageType` per name.
macro_rules! message_types {
    ($( $name:ident, )*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        #[repr(u8)]
        enum KnownKind { Unset, $( $name, )* }

        impl MessageType {
            $(
                #[doc = concat!("`", stringify!($name), "` records.")]
                pub const $name: MessageType =
                    MessageType(KindRepr::Known(KnownKind::$name as u8));
            )*
        }

        const MESSAGE_TYPES: &[&str] = &["", $( stringify!($name), )*];
    };
}

message_types! {
    FLOW_STATS,
    PORT_STATS,
    TABLE_STATS,
    FLOW_REMOVED,
    PACKET_IN,
    MSG_WINDOW,
    SWITCH_STATE,
    HOST_STATE,
}

impl MessageType {
    /// The name.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            KindRepr::Known(i) => MESSAGE_TYPES.get(usize::from(*i)).copied().unwrap_or(""),
            KindRepr::Other(name) => name,
        }
    }
}

impl From<&str> for MessageType {
    fn from(name: &str) -> Self {
        MessageType(
            match MESSAGE_TYPES.iter().position(|known| *known == name) {
                // The list has nine entries.
                Some(i) => KindRepr::Known(i as u8),
                None => KindRepr::Other(name.into()),
            },
        )
    }
}

impl From<String> for MessageType {
    fn from(name: String) -> Self {
        MessageType::from(name.as_str())
    }
}

impl PartialEq<str> for MessageType {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for MessageType {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for MessageType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for MessageType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for MessageType {
    fn to_value(&self) -> serde::Value {
        self.as_str().to_value()
    }
}

impl Deserialize for MessageType {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        String::from_value(v).map(MessageType::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalog_exposes_over_100_features() {
        assert!(all_features().len() > 100, "only {COUNT} features");
    }

    #[test]
    fn names_are_unique_and_id_order_is_name_order() {
        let all: Vec<FeatureId> = all_features().collect();
        let names: HashSet<&str> = all.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), all.len());
        for pair in all.windows(2) {
            assert!(pair[0] < pair[1]);
            assert!(pair[0].name() < pair[1].name(), "{:?}", pair);
        }
        for f in all {
            assert_eq!(FeatureId::named(f.name()), Some(f));
            assert_eq!(FeatureId::from_index(f.index()), Some(f));
        }
        assert_eq!(FeatureId::from_index(COUNT), None);
        assert_eq!(FeatureId::named("truth"), None);
    }

    #[test]
    fn every_table_i_category_is_represented() {
        for cat in [
            FeatureCategory::ProtocolCentric,
            FeatureCategory::Combination,
            FeatureCategory::Stateful,
            FeatureCategory::Variation,
        ] {
            assert!(all_features().any(|f| f.category() == cat), "{cat:?}");
        }
    }

    #[test]
    fn categories_match_the_paper_examples() {
        // Table I's examples: packet/byte counts are protocol-centric,
        // flow utilization is combination, pair-flow ratio is stateful.
        assert_eq!(
            category_of("FLOW_PACKET_COUNT"),
            Some(FeatureCategory::ProtocolCentric)
        );
        assert_eq!(FLOW_UTILIZATION.category(), FeatureCategory::Combination);
        assert_eq!(PAIR_FLOW_RATIO.category(), FeatureCategory::Stateful);
        assert_eq!(PORT_RX_BYTES_VAR.category(), FeatureCategory::Variation);
        assert_eq!(category_of("truth"), None);
        // Every `_VAR` derivative, and nothing else, is a variation.
        for f in all_features() {
            assert_eq!(
                f.category() == FeatureCategory::Variation,
                f.name().ends_with("_VAR"),
                "{f}"
            );
        }
    }

    #[test]
    fn kinds_partition_the_catalog() {
        assert_eq!(features_of(FeatureKind::PacketIn).count(), 3);
        assert_eq!(features_of(FeatureKind::Host).count(), 9);
        assert!(features_of(FeatureKind::Flow).all(|f| f.name().starts_with("FLOW_")));
        assert_eq!(PACKET_IN_PORT.kind(), FeatureKind::PacketIn);
    }

    #[test]
    fn ddos_tuple_has_ten_distinct_features() {
        let distinct: HashSet<FeatureId> = DDOS_10_TUPLE.into_iter().collect();
        assert_eq!(distinct.len(), 10);
    }

    #[test]
    fn field_names_resolve_once_and_compare_as_handles() {
        let from_text = FieldName::from("FLOW_TP_DST");
        assert_eq!(from_text, FieldName::from(FLOW_TP_DST));
        assert_eq!(from_text.feature(), Some(FLOW_TP_DST));
        assert!(std::ptr::eq(from_text.as_str(), FLOW_TP_DST.name()));
        let adhoc = FieldName::from("truth");
        assert_eq!(adhoc.feature(), None);
        assert_eq!(adhoc, "truth");
        assert_ne!(adhoc, from_text);
        // Through a document key and back, by pointer or by content.
        let mut resolver = KeyResolver::default();
        assert_eq!(resolver.resolve(&from_text.to_key()), from_text);
        assert_eq!(
            resolver
                .resolve(&Key::from("PAIR_FLOW".to_owned()))
                .feature(),
            Some(PAIR_FLOW)
        );
        assert_eq!(
            resolver.resolve(&Key::Static("FLOW_APP_ID")).feature(),
            Some(FLOW_APP_ID)
        );
        assert_eq!(resolver.resolve(&adhoc.to_key()), adhoc);
    }

    #[test]
    fn message_types_are_closed_with_an_open_escape() {
        assert_eq!(MessageType::from("FLOW_STATS"), MessageType::FLOW_STATS);
        assert_eq!(MessageType::HOST_STATE, "HOST_STATE");
        assert_eq!(MessageType::default(), "");
        assert_eq!(MessageType::from(""), MessageType::default());
        let other = MessageType::from("REPLAYED");
        assert_eq!(other.as_str(), "REPLAYED");
        assert_ne!(other, MessageType::PACKET_IN);
        assert_eq!(other.to_string(), "REPLAYED");
    }
}
