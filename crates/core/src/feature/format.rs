//! The Athena feature format (the paper's Figure 4): index fields,
//! metadata, then the feature fields.

use crate::feature::catalog::{self, FieldName, KeyResolver, MessageType};
use athena_store::{Document, Fields, Key};
use athena_types::{AppId, ControllerId, Dpid, FiveTuple, IpProto, Ipv4Addr, PortNo, SimTime};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::fmt;

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

/// The members of a feature document that carry a record's index and
/// metadata, where [`FeatureRecord::from_document`]'s pass over the
/// document met them. Every other numeric member is a feature field.
#[derive(Default)]
struct MetaMembers<'a> {
    app: Option<&'a Value>,
    athena_polled: Option<&'a Value>,
    controller: Option<&'a Value>,
    host: Option<&'a Value>,
    ip_dst: Option<&'a Value>,
    ip_proto: Option<&'a Value>,
    ip_src: Option<&'a Value>,
    message_type: Option<&'a Value>,
    port: Option<&'a Value>,
    switch: Option<&'a Value>,
    timestamp: Option<&'a Value>,
    tp_dst: Option<&'a Value>,
    tp_src: Option<&'a Value>,
}

impl<'a> MetaMembers<'a> {
    /// Where the member called `name` goes, if it is an index or
    /// metadata key. The keys all start with a lower-case letter;
    /// catalog names never do, and skip the comparison.
    fn slot(&mut self, name: &str) -> Option<&mut Option<&'a Value>> {
        if !name.as_bytes().first().is_some_and(u8::is_ascii_lowercase) {
            return None;
        }
        Some(match name {
            APP => &mut self.app,
            ATHENA_POLLED => &mut self.athena_polled,
            CONTROLLER => &mut self.controller,
            HOST => &mut self.host,
            IP_DST => &mut self.ip_dst,
            IP_PROTO => &mut self.ip_proto,
            IP_SRC => &mut self.ip_src,
            MESSAGE_TYPE => &mut self.message_type,
            PORT => &mut self.port,
            SWITCH => &mut self.switch,
            TIMESTAMP => &mut self.timestamp,
            TP_DST => &mut self.tp_dst,
            TP_SRC => &mut self.tp_src,
            _ => return None,
        })
    }
}

/// The index fields: where the feature came from, including OpenFlow
/// match-field indicators.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
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

/// One Athena feature record: index, metadata, and named numeric fields.
///
/// A field's name is a catalog feature or an ad-hoc string; pushing a
/// name again shadows the earlier value, here and in the document.
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
/// let doc = r.to_document();
/// assert_eq!(doc.get_f64("FLOW_PACKET_COUNT"), Some(42.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FeatureRecord {
    /// Where the feature came from.
    pub index: FeatureIndex,
    /// Timestamp and control-plane semantics.
    pub meta: MetaData,
    /// The named feature fields.
    pub fields: Vec<(FieldName, f64)>,
}

impl FeatureRecord {
    /// Creates an empty record for an index.
    pub fn new(index: FeatureIndex) -> Self {
        FeatureRecord {
            index,
            ..FeatureRecord::default()
        }
    }

    /// Sets the metadata (builder style).
    pub fn with_meta(mut self, meta: MetaData) -> Self {
        self.meta = meta;
        self
    }

    /// Appends a field in place.
    pub fn push_field(&mut self, name: impl Into<FieldName>, value: f64) {
        self.fields.push((name.into(), value));
    }

    /// Looks up a field by name (resolved against the catalog here; a
    /// caller that looks the same names up in many records resolves
    /// them once and calls [`FeatureRecord::value`]).
    pub fn field(&self, name: &str) -> Option<f64> {
        match catalog::FeatureId::named(name) {
            Some(id) => self.value(&id.into()),
            // An ad-hoc name is compared as text: looking it up must not
            // allocate the shared string a `FieldName` would hold.
            None => self
                .fields
                .iter()
                .rev()
                .find(|(n, _)| n.feature().is_none() && n.as_str() == name)
                .map(|(_, v)| *v),
        }
    }

    /// Looks up a field by resolved name: the last value pushed for it,
    /// which is the one the record's document carries.
    pub fn value(&self, name: &FieldName) -> Option<f64> {
        self.fields
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Extracts the named fields as a feature vector; `None` if any is
    /// missing (the record is not of the right kind for the model).
    pub fn vector(&self, names: &[impl AsRef<str>]) -> Option<Vec<f64>> {
        names.iter().map(|n| self.field(n.as_ref())).collect()
    }

    /// [`FeatureRecord::vector`] over names resolved beforehand.
    pub fn values(&self, names: &[FieldName]) -> Option<Vec<f64>> {
        names.iter().map(|n| self.value(n)).collect()
    }

    /// Serializes the record into a store document, flattening index and
    /// metadata into queryable top-level fields.
    ///
    /// The body is assembled in name order without comparing a name:
    /// catalog fields are placed by id (id order is name order, and all
    /// of them sort before the lower-case index and metadata keys).
    pub fn to_document(&self) -> Document {
        const WORDS: usize = catalog::COUNT.div_ceil(64);
        let mut present = [0u64; WORDS];
        let mut values = [0.0f64; catalog::COUNT];
        let mut adhoc = 0;
        for (name, value) in &self.fields {
            match name.feature() {
                Some(id) => {
                    let i = id.index();
                    present[i / 64] |= 1 << (i % 64);
                    values[i] = *value;
                }
                None => adhoc += 1,
            }
        }
        let features: usize = present.iter().map(|w| w.count_ones() as usize).sum();
        let index = &self.index;
        let index_keys = usize::from(index.port.is_some())
            + 5 * usize::from(index.five_tuple.is_some())
            + usize::from(index.host.is_some())
            + usize::from(index.app.is_some());
        let mut members: Vec<(Key, Value)> = Vec::with_capacity(features + adhoc + 5 + index_keys);
        for (word, mut bits) in present.into_iter().enumerate() {
            while bits != 0 {
                let i = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if let Some(id) = catalog::FeatureId::from_index(i) {
                    members.push((Key::Static(id.name()), Value::from(values[i])));
                }
            }
        }
        let mut meta = |key: &'static str, value: Value| members.push((Key::Static(key), value));
        let ft = index.five_tuple;
        // In `META_KEYS` order.
        if let Some(app) = index.app {
            meta(APP, app.raw().into());
        }
        meta(ATHENA_POLLED, self.meta.athena_polled.into());
        meta(CONTROLLER, self.meta.controller.raw().into());
        if let Some(host) = index.host {
            meta(HOST, host.raw().into());
        }
        if let Some(ft) = ft {
            meta(IP_DST, ft.dst.raw().into());
            meta(IP_PROTO, ft.proto.number().into());
            meta(IP_SRC, ft.src.raw().into());
        }
        meta(MESSAGE_TYPE, self.meta.message_type.as_str().into());
        if let Some(p) = index.port {
            meta(PORT, p.raw().into());
        }
        meta(SWITCH, index.switch.raw().into());
        meta(TIMESTAMP, self.meta.timestamp.as_micros().into());
        if let Some(ft) = ft {
            meta(TP_DST, ft.dst_port.into());
            meta(TP_SRC, ft.src_port.into());
        }
        let mut doc = Document {
            fields: Fields::from_sorted(members),
            ..Document::default()
        };
        if adhoc > 0 {
            // Ad-hoc names sort anywhere, so they go in by search — and,
            // as a field always could, shadow an index key they repeat.
            for (name, value) in &self.fields {
                if name.feature().is_none() {
                    doc.set(name.to_key(), *value);
                }
            }
        }
        doc
    }

    /// Reconstructs a record from a store document (the inverse of
    /// [`FeatureRecord::to_document`]); unknown fields become feature
    /// fields.
    pub fn from_document(d: &Document) -> Self {
        Self::from_document_keeping(d, |_| true)
    }

    /// [`FeatureRecord::from_document`], keeping only the feature fields
    /// `keep` accepts (a query's projection, applied while converting).
    ///
    /// One forward pass over the members sorts them into index and
    /// metadata keys and feature fields; a key holding a value of the
    /// wrong type reads as its default, and is still no field.
    pub(crate) fn from_document_keeping(d: &Document, keep: impl Fn(&FieldName) -> bool) -> Self {
        let mut at = MetaMembers::default();
        let mut fields = Vec::with_capacity(d.fields.len().saturating_sub(5));
        let mut resolver = KeyResolver::default();
        for (k, v) in &d.fields {
            if let Some(slot) = at.slot(k.as_str()) {
                *slot = Some(v);
            } else if let Some(x) = v.as_f64() {
                let name = resolver.resolve(k);
                if keep(&name) {
                    fields.push((name, x));
                }
            }
        }
        let int = |member: Option<&Value>| member.and_then(Value::as_i64);
        let mut index = FeatureIndex::switch(Dpid::new(int(at.switch).unwrap_or(0) as u64));
        if let Some(p) = int(at.port) {
            index.port = Some(PortNo::new(p as u32));
        }
        if let (Some(src), Some(dst)) = (int(at.ip_src), int(at.ip_dst)) {
            index.five_tuple = Some(FiveTuple {
                src: Ipv4Addr::from_raw(src as u32),
                dst: Ipv4Addr::from_raw(dst as u32),
                src_port: int(at.tp_src).unwrap_or(0) as u16,
                dst_port: int(at.tp_dst).unwrap_or(0) as u16,
                proto: IpProto::from_number(int(at.ip_proto).unwrap_or(0) as u8),
            });
        }
        if let Some(host) = int(at.host) {
            index.host = Some(Ipv4Addr::from_raw(host as u32));
        }
        if let Some(app) = int(at.app) {
            index.app = Some(AppId::new(app as u32));
        }
        let meta = MetaData {
            timestamp: SimTime::from_micros(int(at.timestamp).unwrap_or(0) as u64),
            controller: ControllerId::new(int(at.controller).unwrap_or(0) as u32),
            message_type: at.message_type.and_then(Value::as_str).unwrap_or("").into(),
            athena_polled: at.athena_polled.and_then(Value::as_bool).unwrap_or(false),
        };
        FeatureRecord {
            index,
            meta,
            fields,
        }
    }
}

impl fmt::Display for FeatureRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {} {}] {} fields",
            self.meta.timestamp,
            self.index.switch,
            self.meta.message_type,
            self.fields.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> FeatureRecord {
        let ft = FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            1000,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        let mut r = FeatureRecord::new(FeatureIndex::flow(Dpid::new(7), ft)).with_meta(MetaData {
            timestamp: SimTime::from_secs(9),
            controller: ControllerId::new(2),
            message_type: "FLOW_STATS".into(),
            athena_polled: true,
        });
        r.push_field("FLOW_PACKET_COUNT", 100.0);
        r.push_field("FLOW_BYTE_COUNT", 6400.0);
        r
    }

    #[test]
    fn field_lookup_and_vector() {
        let r = record();
        assert_eq!(r.field("FLOW_BYTE_COUNT"), Some(6400.0));
        assert_eq!(r.field("MISSING"), None);
        assert_eq!(
            r.vector(&["FLOW_PACKET_COUNT", "FLOW_BYTE_COUNT"]),
            Some(vec![100.0, 6400.0])
        );
        assert_eq!(r.vector(&["FLOW_PACKET_COUNT", "MISSING"]), None);
    }

    #[test]
    fn document_roundtrip_preserves_everything() {
        let r = record();
        let d = r.to_document();
        let back = FeatureRecord::from_document(&d);
        assert_eq!(back.index.switch, r.index.switch);
        assert_eq!(back.index.five_tuple, r.index.five_tuple);
        assert_eq!(back.meta.timestamp, r.meta.timestamp);
        assert_eq!(back.meta.controller, r.meta.controller);
        assert_eq!(back.meta.message_type, r.meta.message_type);
        assert!(back.meta.athena_polled);
        for (name, value) in &r.fields {
            assert_eq!(back.value(name), Some(*value), "{name}");
        }
    }

    #[test]
    fn document_exposes_queryable_index_fields() {
        let d = record().to_document();
        assert_eq!(d.get_i64("switch"), Some(7));
        assert_eq!(d.get_i64("tp_dst"), Some(80));
        assert_eq!(d.get_str("message_type"), Some("FLOW_STATS"));
    }

    #[test]
    fn port_scoped_index_roundtrips() {
        let mut r = FeatureRecord::new(FeatureIndex::port(Dpid::new(3), PortNo::new(2)));
        r.push_field("PORT_RX_BYTES", 1.0);
        let back = FeatureRecord::from_document(&r.to_document());
        assert_eq!(back.index.port, Some(PortNo::new(2)));
        assert_eq!(back.index.five_tuple, None);
    }

    #[test]
    fn a_repeated_name_reads_as_its_last_value_on_both_sides_of_the_store() {
        // The document has always kept the last value pushed for a name;
        // `field()` used to return the first, so what a detector read
        // could change across a store round trip. Both read the last.
        let mut r = FeatureRecord::new(FeatureIndex::switch(Dpid::new(1)));
        for (name, value) in [
            ("FLOW_PACKET_COUNT", 1.0),
            ("truth", 0.0),
            ("FLOW_PACKET_COUNT", 2.0),
            ("truth", 1.0),
        ] {
            r.push_field(name, value);
        }
        assert_eq!(r.field("FLOW_PACKET_COUNT"), Some(2.0));
        assert_eq!(r.field("truth"), Some(1.0));
        let d = r.to_document();
        assert_eq!(d.get_f64("FLOW_PACKET_COUNT"), Some(2.0));
        assert_eq!(d.get_f64("truth"), Some(1.0));
        let back = FeatureRecord::from_document(&d);
        assert_eq!(back.fields.len(), 2);
        assert_eq!(
            back.vector(&["FLOW_PACKET_COUNT", "truth"]),
            r.vector(&["FLOW_PACKET_COUNT", "truth"])
        );
    }

    /// The index and metadata keys, in name order — the order
    /// `to_document` writes them in.
    const META_KEYS: [&str; 13] = [
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

    #[test]
    fn index_and_meta_keys_are_one_sorted_list_apart_from_the_catalog() {
        assert!(META_KEYS.windows(2).all(|w| w[0] < w[1]));
        let mut at = MetaMembers::default();
        for key in META_KEYS {
            assert!(at.slot(key).is_some(), "{key}");
            assert!(catalog::FeatureId::named(key).is_none());
        }
        // Thirteen keys, thirteen distinct slots.
        let probe = Value::Null;
        for key in META_KEYS {
            let slot = at.slot(key).unwrap();
            assert!(slot.is_none(), "{key} shares a slot");
            *slot = Some(&probe);
        }
        // The first-byte shortcut in `slot` never hides a key, and every
        // catalog name sorts before every index key.
        assert!(META_KEYS
            .iter()
            .all(|k| k.as_bytes()[0].is_ascii_lowercase()));
        for f in catalog::all_features() {
            assert!(at.slot(f.name()).is_none());
            assert!(f.name() < META_KEYS[0], "{f}");
        }
        assert!(at.slot("truth").is_none());
        assert!(at.slot("").is_none());
        // A full record writes every one of them, and reads them all back.
        let mut r = record();
        r.index.port = Some(PortNo::new(4));
        r.index.host = Some(Ipv4Addr::new(10, 0, 0, 9));
        r.index.app = Some(AppId::new(5));
        let d = r.to_document();
        for key in META_KEYS {
            assert!(d.get(key).is_some(), "{key}");
        }
        assert_eq!(d.fields.len(), META_KEYS.len() + r.fields.len());
        let back = FeatureRecord::from_document(&d);
        assert_eq!((back.index, &back.meta), (r.index, &r.meta));
        assert_eq!(back.fields.len(), r.fields.len());
    }

    #[test]
    fn a_wrong_typed_key_reads_as_its_default_and_is_no_field() {
        let d = record()
            .to_document()
            .with(SWITCH, "seven")
            .with(TIMESTAMP, 1.5)
            .with(TP_SRC, true)
            .with(ATHENA_POLLED, 1)
            .with(MESSAGE_TYPE, 4);
        let back = FeatureRecord::from_document(&d);
        let want = record();
        assert_eq!(back.index.switch, Dpid::new(0));
        assert_eq!(back.meta.timestamp, SimTime::from_micros(0));
        assert_eq!(back.meta.message_type, MessageType::default());
        assert!(!back.meta.athena_polled);
        let (got, ft) = (
            back.index.five_tuple.unwrap(),
            want.index.five_tuple.unwrap(),
        );
        assert_eq!(
            (got.src, got.dst, got.dst_port),
            (ft.src, ft.dst, ft.dst_port)
        );
        assert_eq!(got.src_port, 0);
        // `timestamp` and `athena_polled` now hold numbers: still keys.
        assert_eq!(back.fields.len(), want.fields.len());
        for (name, value) in &want.fields {
            assert_eq!(back.value(name), Some(*value), "{name}");
        }
        // Half a five-tuple is none.
        let d = record().to_document().with(IP_DST, "10.0.0.2");
        assert_eq!(FeatureRecord::from_document(&d).index.five_tuple, None);
    }

    #[test]
    fn ad_hoc_names_land_in_name_order_wherever_they_sort() {
        let mut r = record();
        for (name, value) in [("truth", 1.0), ("Alpha", 2.0), ("mid", 3.0)] {
            r.push_field(name, value);
        }
        let d = r.to_document();
        let keys: Vec<&str> = d.fields.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        assert_eq!(d.get_f64("mid"), Some(3.0));
        let back = FeatureRecord::from_document(&d);
        for (name, value) in &r.fields {
            assert_eq!(back.value(name), Some(*value), "{name}");
        }
    }
}
