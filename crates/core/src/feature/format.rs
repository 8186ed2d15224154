//! The Athena feature format (the paper's Figure 4): index fields,
//! metadata, then the feature fields — one store document per record.

use crate::feature::catalog::{self, FeatureId, FieldName, MessageType};
use athena_store::{DocId, Document, Fields, Key, Layout};
use athena_types::hash::WordHasher;
use athena_types::{AppId, ControllerId, Dpid, FiveTuple, IpProto, Ipv4Addr, PortNo, SimTime};
use serde_json::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

const APP: &str = "app";
const ATHENA_POLLED: &str = "athena_polled";
const CONTROLLER: &str = "controller";
const HOST: &str = "host";
const IP_DST: &str = "ip_dst";
const IP_PROTO: &str = "ip_proto";
const IP_SRC: &str = "ip_src";
const MESSAGE_TYPE: &str = "message_type";
const PORT: &str = "port";
const SWITCH: &str = "switch";
const TIMESTAMP: &str = "timestamp";
const TP_DST: &str = "tp_dst";
const TP_SRC: &str = "tp_src";

/// The index and metadata keys, in name order: the order a record's
/// document holds them in, after every catalog name.
pub(crate) const META_KEYS: [&str; 13] = [
    APP,
    ATHENA_POLLED,
    CONTROLLER,
    HOST,
    IP_DST,
    IP_PROTO,
    IP_SRC,
    MESSAGE_TYPE,
    PORT,
    SWITCH,
    TIMESTAMP,
    TP_DST,
    TP_SRC,
];

/// Whether `name` is an index or metadata key. The keys all start with a
/// lower-case letter; catalog names never do, and skip the search.
fn is_meta_key(name: &str) -> bool {
    name.as_bytes().first().is_some_and(u8::is_ascii_lowercase)
        && META_KEYS.binary_search(&name).is_ok()
}

/// Whether `name` starts with a byte at or above `a`. Every index key
/// does and no catalog name does; in a name-sorted body all such names
/// come after all others.
fn is_lower_or_above(name: &str) -> bool {
    name.as_bytes().first().is_some_and(|b| *b >= b'a')
}

/// The index fields: where the feature came from, including OpenFlow
/// match-field indicators.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FeatureIndex {
    /// The originating switch.
    pub switch: Dpid,
    /// The port, for port-scoped features.
    pub port: Option<PortNo>,
    /// The flow's 5-tuple, for flow-scoped features.
    pub five_tuple: Option<FiveTuple>,
    /// The host address, for host-scoped features.
    pub host: Option<Ipv4Addr>,
    /// The installing application, when attributable.
    pub app: Option<AppId>,
}

impl FeatureIndex {
    /// A switch-scoped index.
    pub fn switch(dpid: Dpid) -> Self {
        FeatureIndex {
            switch: dpid,
            ..FeatureIndex::default()
        }
    }

    /// A port-scoped index.
    pub fn port(dpid: Dpid, port: PortNo) -> Self {
        FeatureIndex {
            switch: dpid,
            port: Some(port),
            ..FeatureIndex::default()
        }
    }

    /// A flow-scoped index.
    pub fn flow(dpid: Dpid, ft: FiveTuple) -> Self {
        FeatureIndex {
            switch: dpid,
            five_tuple: Some(ft),
            ..FeatureIndex::default()
        }
    }
}

/// Metadata: timestamp plus control-plane semantics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetaData {
    /// When the feature was generated.
    pub timestamp: SimTime,
    /// The controller instance whose SB element generated it.
    pub controller: ControllerId,
    /// The OpenFlow message type the feature derives from.
    pub message_type: MessageType,
    /// Whether the sample came from an Athena-marked statistics request.
    pub athena_polled: bool,
}

/// One Athena feature record: index, metadata, and named numeric fields,
/// held as the store document they make up. The store keeps the record's
/// own body, and a read hands the shard's body back: the record and its
/// stored document are one allocation, not two forms.
///
/// A field's name is a catalog feature or an ad-hoc string; pushing a
/// name again shadows the earlier value. Index and metadata keys, and
/// members holding no number, are never fields.
///
/// # Examples
///
/// ```
/// use athena_core::{catalog, FeatureIndex, FeatureRecord};
/// use athena_types::Dpid;
///
/// let mut r = FeatureRecord::new(FeatureIndex::switch(Dpid::new(1)));
/// r.push_field(catalog::FLOW_PACKET_COUNT, 42.0);
/// assert_eq!(r.field("FLOW_PACKET_COUNT"), Some(42.0));
/// assert_eq!(r.document().get_f64("FLOW_PACKET_COUNT"), Some(42.0));
/// assert_eq!(r.index().switch, Dpid::new(1));
/// assert_eq!(r.field("switch"), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureRecord(Arc<Document>);

/// Catalog feature values gathered for one record, placed by id: what
/// the generator hands [`FeatureRecord::from_catalog`].
pub(crate) struct CatalogValues {
    present: [u64; WORDS],
    values: [f64; catalog::COUNT],
}

const WORDS: usize = catalog::COUNT.div_ceil(64);

/// What fixes a generated record's member names: the catalog features
/// present, and which of the optional index keys are set (a bit each
/// for port, five-tuple, host and app).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Shape {
    present: [u64; WORDS],
    keys: u8,
}

impl Shape {
    fn of(index: &FeatureIndex, values: &CatalogValues) -> Self {
        let keys = u8::from(index.port.is_some())
            | u8::from(index.five_tuple.is_some()) << 1
            | u8::from(index.host.is_some()) << 2
            | u8::from(index.app.is_some()) << 3;
        Shape {
            present: values.present,
            keys,
        }
    }

    /// The number of members a record of this shape has: its features,
    /// the five keys every record carries, and the optional ones (a
    /// five-tuple is five).
    fn len(&self) -> usize {
        let features: usize = self.present.iter().map(|w| w.count_ones() as usize).sum();
        let keys = usize::from(self.keys & 1 != 0)
            + 5 * usize::from(self.keys & 2 != 0)
            + usize::from(self.keys & 4 != 0)
            + usize::from(self.keys & 8 != 0);
        features + 5 + keys
    }
}

/// The member-name lists of the records one generator builds, one per
/// [`Shape`]: every record of a shape points at its list and owns only
/// its values. A generator meets a handful of shapes.
#[derive(Debug, Default)]
pub(crate) struct NameLists(HashMap<Shape, Arc<[Key]>, BuildHasherDefault<WordHasher>>);

impl CatalogValues {
    pub(crate) fn new() -> Self {
        CatalogValues {
            present: [0; WORDS],
            values: [0.0; catalog::COUNT],
        }
    }

    /// Sets a feature's value; setting it again replaces it.
    pub(crate) fn set(&mut self, id: FeatureId, value: f64) {
        let i = id.index();
        if let (Some(word), Some(slot)) = (self.present.get_mut(i / 64), self.values.get_mut(i)) {
            *word |= 1 << (i % 64);
            *slot = value;
        }
    }
}

impl FeatureRecord {
    /// Creates a record for an index, with default metadata and no
    /// fields.
    pub fn new(index: FeatureIndex) -> Self {
        Self::from_catalog(
            &mut NameLists::default(),
            &index,
            &MetaData::default(),
            &CatalogValues::new(),
        )
    }

    /// Sets the metadata (builder style).
    pub fn with_meta(mut self, meta: MetaData) -> Self {
        let doc = Arc::make_mut(&mut self.0);
        doc.set(ATHENA_POLLED, meta.athena_polled);
        doc.set(CONTROLLER, meta.controller.raw());
        doc.set(MESSAGE_TYPE, meta.message_type.as_str());
        doc.set(TIMESTAMP, meta.timestamp.as_micros());
        self
    }

    /// Sets a field in place. A record extended after it was stored gets
    /// a body of its own; the stored one never changes.
    pub fn push_field(&mut self, name: impl Into<FieldName>, value: f64) {
        Arc::make_mut(&mut self.0).set(name.into().to_key(), value);
    }

    /// The record the generator emits: its catalog values, then the index
    /// and metadata keys, assembled in name order without comparing a
    /// name (catalog fields are placed by id; id order is name order, and
    /// all of them sort before the lower-case keys). Its name list is
    /// its shape's in `name_lists`, made by the first record of the shape.
    pub(crate) fn from_catalog(
        name_lists: &mut NameLists,
        index: &FeatureIndex,
        meta: &MetaData,
        values: &CatalogValues,
    ) -> Self {
        let shape = Shape::of(index, values);
        let known = name_lists.0.get(&shape).cloned();
        let mut names: Vec<Key> = Vec::with_capacity(if known.is_some() { 0 } else { shape.len() });
        let mut vals: Vec<Value> = Vec::with_capacity(shape.len());
        let mut member = |key: &'static str, value: Value| {
            if known.is_none() {
                names.push(Key::Static(key));
            }
            vals.push(value);
        };
        for (word, mut bits) in values.present.into_iter().enumerate() {
            while bits != 0 {
                let i = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if let (Some(id), Some(value)) = (FeatureId::from_index(i), values.values.get(i)) {
                    member(id.name(), Value::from(*value));
                }
            }
        }
        let ft = index.five_tuple;
        // In `META_KEYS` order.
        if let Some(app) = index.app {
            member(APP, app.raw().into());
        }
        member(ATHENA_POLLED, meta.athena_polled.into());
        member(CONTROLLER, meta.controller.raw().into());
        if let Some(host) = index.host {
            member(HOST, host.raw().into());
        }
        if let Some(ft) = ft {
            member(IP_DST, ft.dst.raw().into());
            member(IP_PROTO, ft.proto.number().into());
            member(IP_SRC, ft.src.raw().into());
        }
        member(MESSAGE_TYPE, meta.message_type.as_str().into());
        if let Some(p) = index.port {
            member(PORT, p.raw().into());
        }
        member(SWITCH, index.switch.raw().into());
        member(TIMESTAMP, meta.timestamp.as_micros().into());
        if let Some(ft) = ft {
            member(TP_DST, ft.dst_port.into());
            member(TP_SRC, ft.src_port.into());
        }
        let names = match known {
            Some(names) => names,
            None => Arc::clone(name_lists.0.entry(shape).or_insert_with(|| names.into())),
        };
        FeatureRecord(Arc::new(Document {
            fields: Fields::with_names(names, vals),
            ..Document::default()
        }))
    }

    /// The document the record is: its id once stored, zero before.
    pub fn document(&self) -> &Document {
        &self.0
    }

    /// A copy of the record's document with id zero, ready for an insert
    /// of its own.
    pub fn to_document(&self) -> Document {
        Document {
            id: DocId(0),
            fields: self.0.fields.clone(),
        }
    }

    /// The index and metadata members, one slot per [`META_KEYS`] entry
    /// in its order, found in one walk: the body is sorted by name, so
    /// its lower-case tail merges with the sorted keys, and ad-hoc names
    /// among them (`phase`, `truth`) are stepped over.
    fn meta_members(&self) -> [Option<&Value>; META_KEYS.len()] {
        let (names, values) = (self.0.fields.names(), self.0.fields.values());
        let tail = names.partition_point(|k| !is_lower_or_above(k.as_str()));
        let mut slots = [None; META_KEYS.len()];
        let (mut i, mut j) = (tail, 0);
        while let (Some(k), Some(key)) = (names.get(i), META_KEYS.get(j)) {
            let order = if std::ptr::eq(k.as_str(), *key) {
                Ordering::Equal
            } else {
                k.as_str().cmp(key)
            };
            match order {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    if let Some(slot) = slots.get_mut(j) {
                        *slot = values.get(i);
                    }
                    (i, j) = (i + 1, j + 1);
                }
            }
        }
        slots
    }

    /// Where the feature came from. A key that is missing or holds a
    /// value of the wrong type reads as its default; half a five-tuple
    /// is none.
    pub fn index(&self) -> FeatureIndex {
        let [app, _, _, host, ip_dst, ip_proto, ip_src, _, port, switch, _, tp_dst, tp_src] =
            self.meta_members().map(int);
        FeatureIndex {
            switch: Dpid::new(switch.unwrap_or(0) as u64),
            port: port.map(|p| PortNo::new(p as u32)),
            five_tuple: match (ip_src, ip_dst) {
                (Some(src), Some(dst)) => Some(FiveTuple {
                    src: Ipv4Addr::from_raw(src as u32),
                    dst: Ipv4Addr::from_raw(dst as u32),
                    src_port: tp_src.unwrap_or(0) as u16,
                    dst_port: tp_dst.unwrap_or(0) as u16,
                    proto: IpProto::from_number(ip_proto.unwrap_or(0) as u8),
                }),
                _ => None,
            },
            host: host.map(|h| Ipv4Addr::from_raw(h as u32)),
            app: app.map(|a| AppId::new(a as u32)),
        }
    }

    /// Timestamp and control-plane semantics, read in the one walk
    /// [`FeatureRecord::index`] reads its keys in.
    pub fn meta(&self) -> MetaData {
        let [_, athena_polled, controller, _, _, _, _, message_type, _, _, timestamp, _, _] =
            self.meta_members();
        MetaData {
            timestamp: SimTime::from_micros(int(timestamp).unwrap_or(0) as u64),
            controller: ControllerId::new(int(controller).unwrap_or(0) as u32),
            message_type: kind(message_type),
            athena_polled: athena_polled.and_then(Value::as_bool).unwrap_or(false),
        }
    }

    /// The originating switch alone (one key read).
    pub(crate) fn switch(&self) -> Dpid {
        Dpid::new(int(self.0.fields.get(SWITCH)).unwrap_or(0) as u64)
    }

    /// The record's kind alone (one key read).
    pub(crate) fn message_type(&self) -> MessageType {
        kind(self.0.fields.get(MESSAGE_TYPE))
    }

    /// Looks up a field by name: the last value pushed for it.
    pub fn field(&self, name: &str) -> Option<f64> {
        if is_meta_key(name) {
            return None;
        }
        self.0.fields.get(name)?.as_f64()
    }

    /// [`FeatureRecord::field`] by resolved name.
    pub fn value(&self, name: &FieldName) -> Option<f64> {
        self.field(name.as_str())
    }

    /// Extracts the named fields as a feature vector; `None` if any is
    /// missing (the record is not of the right kind for the model).
    pub fn values(&self, names: &[impl AsRef<str>]) -> Option<Vec<f64>> {
        let mut values = Vec::with_capacity(names.len());
        for name in names {
            values.push(self.field(name.as_ref())?);
        }
        Some(values)
    }

    /// The feature fields, in name order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0
            .fields
            .iter()
            .filter(|(k, _)| !is_meta_key(k.as_str()))
            .filter_map(|(k, v)| Some((k.as_str(), v.as_f64()?)))
    }
}

/// An integer-valued key's value, if it holds an integer.
fn int(value: Option<&Value>) -> Option<i64> {
    value.and_then(Value::as_i64)
}

/// The `message_type` key's value read as a kind; anything but a string
/// is the empty kind.
fn kind(value: Option<&Value>) -> MessageType {
    value.and_then(Value::as_str).unwrap_or("").into()
}

/// Reads a model's inputs from record after record: what
/// [`FeatureRecord::values`] returns, found faster when consecutive
/// records share a name list (every `FLOW_STATS` record of one
/// generator's shape does). It finds the names through an
/// [`athena_store::Layout`]: a record under the last list read (one
/// pointer comparison) is read by position alone, and one under another
/// list is looked up by name once and its positions kept.
///
/// # Examples
///
/// ```
/// use athena_core::{catalog, FeatureIndex, FeatureRecord, FieldName, FieldReader};
/// use athena_types::Dpid;
///
/// let names = [FieldName::from(catalog::FLOW_PACKET_COUNT)];
/// let mut reader = FieldReader::new(&names);
/// let mut r = FeatureRecord::new(FeatureIndex::switch(Dpid::new(1)));
/// r.push_field(catalog::FLOW_PACKET_COUNT, 42.0);
/// assert_eq!(reader.values(&r), Some(vec![42.0]));
/// assert_eq!(reader.values(&r), r.values(&names));
/// ```
#[derive(Debug, Clone)]
pub struct FieldReader {
    names: Vec<FieldName>,
    /// Where the records read hold the names.
    layout: Layout,
    /// Whether a name is an index or metadata key: then no record has
    /// all of the fields.
    meta: bool,
}

impl FieldReader {
    /// A reader of `names`, in order.
    pub fn new(names: &[FieldName]) -> Self {
        FieldReader {
            names: names.to_vec(),
            layout: Layout::default(),
            meta: names.iter().any(|name| is_meta_key(name.as_str())),
        }
    }

    /// The named fields of `record` as a feature vector: exactly
    /// [`FeatureRecord::values`] over the reader's names.
    pub fn values(&mut self, record: &FeatureRecord) -> Option<Vec<f64>> {
        if self.meta {
            return None;
        }
        let fields = &record.0.fields;
        let names = self.names.iter().map(FieldName::as_str);
        let values = fields.values();
        self.layout
            .positions(names, fields)
            .iter()
            .map(|at| values.get((*at)?)?.as_f64())
            .collect()
    }
}

/// A stored (or hand-built) document read as a record.
impl From<Document> for FeatureRecord {
    fn from(doc: Document) -> Self {
        FeatureRecord(Arc::new(doc))
    }
}

/// A handle the store returned, read as a record without a copy.
impl From<Arc<Document>> for FeatureRecord {
    fn from(doc: Arc<Document>) -> Self {
        FeatureRecord(doc)
    }
}

/// The record's body, for the store to keep.
impl From<FeatureRecord> for Arc<Document> {
    fn from(record: FeatureRecord) -> Self {
        record.0
    }
}

impl fmt::Display for FeatureRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {} {}] {} fields",
            self.meta().timestamp,
            self.switch(),
            self.message_type(),
            self.fields().count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nb::feature_manager::FeatureManager;
    use crate::nb::query::Query;
    use athena_store::StoreCluster;

    fn meta() -> MetaData {
        MetaData {
            timestamp: SimTime::from_secs(9),
            controller: ControllerId::new(2),
            message_type: "FLOW_STATS".into(),
            athena_polled: true,
        }
    }

    fn record() -> FeatureRecord {
        let ft = FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            1000,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        let mut r = FeatureRecord::new(FeatureIndex::flow(Dpid::new(7), ft)).with_meta(meta());
        r.push_field("FLOW_PACKET_COUNT", 100.0);
        r.push_field("FLOW_BYTE_COUNT", 6400.0);
        r
    }

    #[test]
    fn field_lookup_and_values() {
        let r = record();
        assert_eq!(r.field("FLOW_BYTE_COUNT"), Some(6400.0));
        assert_eq!(r.field("MISSING"), None);
        assert_eq!(
            r.values(&["FLOW_PACKET_COUNT", "FLOW_BYTE_COUNT"]),
            Some(vec![100.0, 6400.0])
        );
        assert_eq!(r.values(&["FLOW_PACKET_COUNT", "MISSING"]), None);
    }

    #[test]
    fn a_record_reads_back_what_it_was_built_from() {
        let r = record();
        let index = r.index();
        assert_eq!(index.switch, Dpid::new(7));
        assert_eq!(index.five_tuple.map(|ft| ft.dst_port), Some(80));
        assert_eq!((index.port, index.host, index.app), (None, None, None));
        assert_eq!(r.meta(), meta());
        assert_eq!(
            r.fields().collect::<Vec<_>>(),
            [("FLOW_BYTE_COUNT", 6400.0), ("FLOW_PACKET_COUNT", 100.0)]
        );
        // Its document, read on its own, is the same record.
        assert_eq!(FeatureRecord::from(r.document().clone()), r);
    }

    #[test]
    fn document_exposes_queryable_index_fields() {
        let r = record();
        let d = r.document();
        assert_eq!(d.get_i64("switch"), Some(7));
        assert_eq!(d.get_i64("tp_dst"), Some(80));
        assert_eq!(d.get_str("message_type"), Some("FLOW_STATS"));
    }

    #[test]
    fn port_scoped_index_reads_back() {
        let mut r = FeatureRecord::new(FeatureIndex::port(Dpid::new(3), PortNo::new(2)));
        r.push_field("PORT_RX_BYTES", 1.0);
        assert_eq!(r.index().port, Some(PortNo::new(2)));
        assert_eq!(r.index().five_tuple, None);
    }

    #[test]
    fn a_repeated_name_reads_as_its_last_value_on_both_sides_of_the_store() {
        // A record reads the last value pushed for a name, and an ad-hoc
        // field that repeats an index key is that key: the record and
        // its stored document are one body, so they cannot disagree.
        type Pairs = &'static [(&'static str, f64)];
        let cases: [(u64, Pairs, Pairs, u64); 2] = [
            (
                1,
                &[
                    ("FLOW_PACKET_COUNT", 1.0),
                    ("truth", 0.0),
                    ("FLOW_PACKET_COUNT", 2.0),
                    ("truth", 1.0),
                ],
                &[("FLOW_PACKET_COUNT", 2.0), ("truth", 1.0)],
                1,
            ),
            (7, &[("switch", 3.0)], &[], 3),
        ];
        for (built, pushed, fields, switch) in cases {
            let mut r = FeatureRecord::new(FeatureIndex::switch(Dpid::new(built)));
            for &(name, value) in pushed {
                r.push_field(name, value);
            }
            let mut fm = FeatureManager::new(&StoreCluster::new(3, 2));
            fm.ingest(r.clone()).unwrap();
            let stored = fm.request_features(&Query::all());
            assert_eq!(stored.len(), 1);
            for side in [&r, &stored[0]] {
                assert_eq!(side.fields().collect::<Vec<_>>(), fields, "{pushed:?}");
                assert_eq!(side.index().switch, Dpid::new(switch), "{pushed:?}");
                assert_eq!(side.field("switch"), None);
                for &(name, value) in fields {
                    assert_eq!(side.field(name), Some(value));
                    assert_eq!(side.document().get_f64(name), Some(value));
                }
            }
        }
    }

    #[test]
    fn index_and_meta_keys_are_one_sorted_list_apart_from_the_catalog() {
        assert!(META_KEYS.windows(2).all(|w| w[0] < w[1]));
        for key in META_KEYS {
            assert!(is_meta_key(key), "{key}");
            assert!(catalog::FeatureId::named(key).is_none());
        }
        // The first-byte shortcut in `is_meta_key` never hides a key, and
        // every catalog name sorts before every index key.
        assert!(META_KEYS
            .iter()
            .all(|k| k.as_bytes()[0].is_ascii_lowercase()));
        for f in catalog::all_features() {
            assert!(!is_meta_key(f.name()));
            assert!(f.name() < META_KEYS[0], "{f}");
        }
        assert!(!is_meta_key("truth"));
        assert!(!is_meta_key(""));
        // A full record writes every one of them, and reads them all back.
        let ft = record().index().five_tuple;
        let index = FeatureIndex {
            switch: Dpid::new(7),
            port: Some(PortNo::new(4)),
            five_tuple: ft,
            host: Some(Ipv4Addr::new(10, 0, 0, 9)),
            app: Some(AppId::new(5)),
        };
        let mut r = FeatureRecord::new(index).with_meta(meta());
        r.push_field("FLOW_PACKET_COUNT", 100.0);
        for key in META_KEYS {
            assert!(r.document().get(key).is_some(), "{key}");
        }
        assert_eq!(r.document().fields.len(), META_KEYS.len() + 1);
        assert_eq!((r.index(), r.meta()), (index, meta()));
        assert_eq!(r.fields().count(), 1);
    }

    #[test]
    fn a_wrong_typed_key_reads_as_its_default_and_is_no_field() {
        let back = FeatureRecord::from(
            record()
                .document()
                .clone()
                .with(SWITCH, "seven")
                .with(TIMESTAMP, 1.5)
                .with(TP_SRC, true)
                .with(ATHENA_POLLED, 1)
                .with(MESSAGE_TYPE, 4),
        );
        let want = record();
        assert_eq!(back.index().switch, Dpid::new(0));
        assert_eq!(back.meta().timestamp, SimTime::from_micros(0));
        assert_eq!(back.meta().message_type, MessageType::default());
        assert!(!back.meta().athena_polled);
        let (got, ft) = (
            back.index().five_tuple.unwrap(),
            want.index().five_tuple.unwrap(),
        );
        assert_eq!(
            (got.src, got.dst, got.dst_port),
            (ft.src, ft.dst, ft.dst_port)
        );
        assert_eq!(got.src_port, 0);
        // `timestamp` and `athena_polled` now hold numbers: still keys.
        assert_eq!(
            back.fields().collect::<Vec<_>>(),
            want.fields().collect::<Vec<_>>()
        );
        // Half a five-tuple is none.
        let d = record().document().clone().with(IP_DST, "10.0.0.2");
        assert_eq!(FeatureRecord::from(d).index().five_tuple, None);
    }

    #[test]
    fn ad_hoc_names_land_in_name_order_wherever_they_sort() {
        let mut r = record();
        for (name, value) in [("truth", 1.0), ("Alpha", 2.0), ("mid", 3.0)] {
            r.push_field(name, value);
        }
        let keys: Vec<&str> = r
            .document()
            .fields
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        assert_eq!(r.field("mid"), Some(3.0));
        assert_eq!(r.field("Alpha"), Some(2.0));
        assert_eq!(r.fields().count(), 5);
    }

    #[test]
    fn a_record_extended_after_storing_leaves_the_stored_body_alone() {
        let mut fm = FeatureManager::new(&StoreCluster::new(3, 2));
        fm.ingest(record()).unwrap();
        let mut stored = fm.request_features(&Query::all()).remove(0);
        stored.push_field("truth", 1.0);
        assert_eq!(stored.field("truth"), Some(1.0));
        let again = fm.request_features(&Query::all()).remove(0);
        assert_eq!(again.field("truth"), None);
        assert_eq!(again.fields().count(), 2);
    }
}
