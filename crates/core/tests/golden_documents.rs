//! The stored form of a feature record is pinned here, and so is the
//! way it gets there.
//!
//! * Golden bytes: the JSON text, journal length and snapshot text of
//!   one document of each of the generator's eight kinds equal literals
//!   captured before `Document` became a name-sorted vector and names
//!   became catalog handles.
//! * Pointer identity: every field name the generator emits is a
//!   catalog entry, and the key under which the store holds it is the
//!   catalog's own `&'static str` — nothing between the generator and
//!   the shard re-allocated a name.

use athena_core::{catalog, FeatureGenerator, FeatureManager, FeatureRecord, MessageType};
use athena_openflow::stats::{PortStatsEntry, TableStatsEntry};
use athena_openflow::{
    Action, FlowRemoved, FlowRemovedReason, FlowStatsEntry, MatchFields, OfMessage, PacketHeader,
    StatsReply,
};
use athena_store::{Document, Filter, FindOptions, Key, StoreCluster};
use athena_types::{
    AppId, ControllerId, Dpid, FiveTuple, Ipv4Addr, PortNo, SimDuration, SimTime, Xid,
};

/// One record of each kind, from one message of each kind.
fn one_of_each_kind() -> Vec<FeatureRecord> {
    let app_of = |cookie: u64| AppId::new(cookie as u32);
    let ft = FiveTuple::tcp(
        Ipv4Addr::new(10, 0, 0, 1),
        1000,
        Ipv4Addr::new(10, 0, 0, 2),
        80,
    );
    let mut g = FeatureGenerator::new(ControllerId::new(2));
    let dpid = Dpid::new(7);
    let stats = |body| OfMessage::StatsReply {
        xid: Xid::athena_marked(1),
        body,
    };
    let flow = FlowStatsEntry {
        table_id: 0,
        match_fields: MatchFields::exact_five_tuple(ft),
        priority: 100,
        duration: SimDuration::from_millis(4500),
        idle_timeout: SimDuration::from_secs(30),
        hard_timeout: SimDuration::ZERO,
        cookie: 3,
        packet_count: 100,
        byte_count: 64_123,
        actions: vec![Action::Output(PortNo::new(2))],
    };
    let mut out = Vec::new();
    // FLOW_STATS, SWITCH_STATE, HOST_STATE (two hosts; the first is kept).
    let mut records = g.ingest(
        dpid,
        &stats(StatsReply::Flow(vec![flow])),
        SimTime::from_secs(10),
        &app_of,
    );
    records.truncate(3);
    out.extend(records);
    out.extend(g.ingest(
        dpid,
        &stats(StatsReply::Port(vec![PortStatsEntry {
            port_no: PortNo::new(1),
            rx_packets: 10,
            tx_packets: 7,
            rx_bytes: 5000,
            tx_bytes: 901,
            rx_dropped: 1,
            tx_dropped: 0,
            rx_errors: 0,
            tx_errors: 2,
        }])),
        SimTime::from_secs(11),
        &app_of,
    ));
    out.extend(g.ingest(
        dpid,
        &stats(StatsReply::Table(vec![TableStatsEntry {
            table_id: 0,
            active_count: 12,
            lookup_count: 300,
            matched_count: 290,
        }])),
        SimTime::from_secs(12),
        &app_of,
    ));
    out.extend(g.ingest(
        dpid,
        &OfMessage::FlowRemoved {
            xid: Xid::new(4),
            body: FlowRemoved {
                match_fields: MatchFields::exact_five_tuple(ft),
                cookie: 3,
                priority: 1,
                reason: FlowRemovedReason::IdleTimeout,
                duration: SimDuration::from_secs(30),
                packet_count: 60,
                byte_count: 6001,
            },
        },
        SimTime::from_secs(13),
        &app_of,
    ));
    out.extend(g.ingest(
        dpid,
        &OfMessage::packet_in(
            Xid::new(5),
            PacketHeader::tcp_syn(
                PortNo::new(3),
                Ipv4Addr::new(1, 1, 1, 1),
                1234,
                Ipv4Addr::new(2, 2, 2, 2),
                443,
            ),
        ),
        SimTime::from_micros(13_500_001),
        &app_of,
    ));
    out.extend(g.flush_window(SimTime::from_secs(15)));
    out
}

/// `(message type, encoded_len, JSON text of the document)` per kind, as
/// commit 0027069 (`BTreeMap<String, Value>` body, `String` names) wrote
/// them.
const GOLDEN: [(&str, usize, &str); 8] = [
    (
        "FLOW_STATS",
        913,
        r#"{"fields":{"FLOW_ACTION_OUTPUT_PORT":2.0,"FLOW_APP_ID":3.0,"FLOW_BYTE_COUNT":64123.0,"FLOW_BYTE_COUNT_VAR":64123.0,"FLOW_BYTE_PER_DURATION":14249.555555555555,"FLOW_BYTE_PER_PACKET":641.23,"FLOW_BYTE_PER_PACKET_VAR":641.23,"FLOW_DURATION_NSEC":500000000.0,"FLOW_DURATION_SEC":4.0,"FLOW_DURATION_SEC_VAR":4.0,"FLOW_ETH_TYPE":2048.0,"FLOW_HARD_TIMEOUT":0.0,"FLOW_IDLE_TIMEOUT":30.0,"FLOW_IP_DST":167772162.0,"FLOW_IP_PROTO":6.0,"FLOW_IP_SRC":167772161.0,"FLOW_ORIGIN_REACTIVE":1.0,"FLOW_PACKET_COUNT":100.0,"FLOW_PACKET_COUNT_VAR":100.0,"FLOW_PACKET_PER_DURATION":22.22222222222222,"FLOW_PRIORITY":100.0,"FLOW_TABLE_ID":0.0,"FLOW_TP_DST":80.0,"FLOW_TP_SRC":1000.0,"FLOW_UTILIZATION":0.00011399644444444443,"PAIR_FLOW":0.0,"PAIR_FLOW_RATIO":0.0,"app":3,"athena_polled":true,"controller":2,"ip_dst":167772162,"ip_proto":6,"ip_src":167772161,"message_type":"FLOW_STATS","switch":7,"timestamp":10000000,"tp_dst":80,"tp_src":1000},"id":0}"#,
    ),
    (
        "SWITCH_STATE",
        395,
        r#"{"fields":{"SWITCH_APP_FLOW_COUNT":0.0,"SWITCH_AVG_FLOW_DURATION":4.5,"SWITCH_BYTE_COUNT_TOTAL":64123.0,"SWITCH_FLOW_COUNT":1.0,"SWITCH_PACKET_COUNT_TOTAL":100.0,"SWITCH_PAIR_FLOW_COUNT":0.0,"SWITCH_PAIR_FLOW_RATIO":0.0,"SWITCH_SRC_DST_RATIO":1.0,"SWITCH_UNIQUE_DST_COUNT":1.0,"SWITCH_UNIQUE_SRC_COUNT":1.0,"athena_polled":true,"controller":2,"message_type":"SWITCH_STATE","switch":7,"timestamp":10000000},"id":0}"#,
    ),
    (
        "HOST_STATE",
        312,
        r#"{"fields":{"HOST_FANIN":0.0,"HOST_FANOUT":1.0,"HOST_IN_FLOW_COUNT":0.0,"HOST_OUT_FLOW_COUNT":1.0,"HOST_PAIR_RATIO":0.0,"HOST_RX_BYTES":0.0,"HOST_RX_PACKETS":0.0,"HOST_TX_BYTES":64123.0,"HOST_TX_PACKETS":100.0,"athena_polled":true,"controller":2,"host":167772161,"message_type":"HOST_STATE","switch":7,"timestamp":10000000},"id":0}"#,
    ),
    (
        "PORT_STATS",
        676,
        r#"{"fields":{"PORT_DROP_RATIO":0.05555555555555555,"PORT_RX_BYTES":5000.0,"PORT_RX_BYTES_VAR":5000.0,"PORT_RX_BYTE_PER_PACKET":500.0,"PORT_RX_DROPPED":1.0,"PORT_RX_DROPPED_VAR":1.0,"PORT_RX_ERRORS":0.0,"PORT_RX_ERRORS_VAR":0.0,"PORT_RX_PACKETS":10.0,"PORT_RX_PACKETS_VAR":10.0,"PORT_RX_UTILIZATION":8e-6,"PORT_TX_BYTES":901.0,"PORT_TX_BYTES_VAR":901.0,"PORT_TX_BYTE_PER_PACKET":128.71428571428572,"PORT_TX_DROPPED":0.0,"PORT_TX_DROPPED_VAR":0.0,"PORT_TX_ERRORS":2.0,"PORT_TX_ERRORS_VAR":2.0,"PORT_TX_PACKETS":7.0,"PORT_TX_PACKETS_VAR":7.0,"PORT_TX_UTILIZATION":1.4415999999999999e-6,"athena_polled":true,"controller":2,"message_type":"PORT_STATS","port":1,"switch":7,"timestamp":11000000},"id":0}"#,
    ),
    (
        "TABLE_STATS",
        277,
        r#"{"fields":{"TABLE_ACTIVE_COUNT":12.0,"TABLE_ACTIVE_COUNT_VAR":0.0,"TABLE_LOOKUP_COUNT":300.0,"TABLE_LOOKUP_COUNT_VAR":0.0,"TABLE_MATCHED_COUNT":290.0,"TABLE_MISS_RATIO":0.033333333333333326,"athena_polled":true,"controller":2,"message_type":"TABLE_STATS","switch":7,"timestamp":12000000},"id":0}"#,
    ),
    (
        "FLOW_REMOVED",
        394,
        r#"{"fields":{"REMOVED_BYTE_COUNT":6001.0,"REMOVED_BYTE_PER_PACKET":100.01666666666667,"REMOVED_DURATION_SEC":30.0,"REMOVED_PACKET_COUNT":60.0,"REMOVED_REASON_DELETE":0.0,"REMOVED_REASON_HARD":0.0,"REMOVED_REASON_IDLE":1.0,"app":3,"athena_polled":false,"controller":2,"ip_dst":167772162,"ip_proto":6,"ip_src":167772161,"message_type":"FLOW_REMOVED","switch":7,"timestamp":13000000,"tp_dst":80,"tp_src":1000},"id":0}"#,
    ),
    (
        "PACKET_IN",
        254,
        r#"{"fields":{"PACKET_IN_BUFFERED":0.0,"PACKET_IN_BYTE_LEN":64.0,"PACKET_IN_PORT":3.0,"athena_polled":false,"controller":2,"ip_dst":33686018,"ip_proto":6,"ip_src":16843009,"message_type":"PACKET_IN","port":3,"switch":7,"timestamp":13500001,"tp_dst":443,"tp_src":1234},"id":0}"#,
    ),
    (
        "MSG_WINDOW",
        525,
        r#"{"fields":{"MSG_BARRIER_COUNT":0.0,"MSG_ECHO_COUNT":0.0,"MSG_FLOW_MOD_COUNT":0.0,"MSG_FLOW_MOD_COUNT_VAR":0.0,"MSG_FLOW_MOD_RATE":0.0,"MSG_FLOW_REMOVED_COUNT":1.0,"MSG_FLOW_REMOVED_RATE":0.2,"MSG_PACKET_IN_COUNT":1.0,"MSG_PACKET_IN_COUNT_VAR":1.0,"MSG_PACKET_IN_RATE":0.2,"MSG_PACKET_OUT_COUNT":0.0,"MSG_PACKET_OUT_COUNT_VAR":0.0,"MSG_PORT_STATUS_COUNT":0.0,"MSG_STATS_REPLY_COUNT":3.0,"MSG_STATS_REQUEST_COUNT":0.0,"MSG_TOTAL_COUNT":5.0,"athena_polled":false,"controller":2,"message_type":"MSG_WINDOW","switch":7,"timestamp":15000000},"id":0}"#,
    ),
];

#[test]
fn documents_of_every_kind_keep_their_bytes() {
    let records = one_of_each_kind();
    assert_eq!(records.len(), GOLDEN.len());
    for (r, (kind, encoded_len, text)) in records.iter().zip(GOLDEN) {
        assert_eq!(r.meta.message_type, kind);
        let doc = r.to_document();
        assert_eq!(serde_json::to_string(&doc).unwrap(), text, "{kind}");
        assert_eq!(serde_json::to_vec(&doc).unwrap(), text.as_bytes(), "{kind}");
        assert_eq!(doc.encoded_len(), encoded_len, "{kind}");
        // The journal payload is the fields object alone.
        assert_eq!(
            serde_json::to_vec(&doc.fields).unwrap().len(),
            encoded_len,
            "{kind}"
        );
        // Text written by the old representation reads back as an equal
        // document, and as an equal record.
        let parsed: Document = serde_json::from_str(text).unwrap();
        assert_eq!(parsed, doc, "{kind}");
        assert_eq!(
            FeatureRecord::from_document(&parsed),
            FeatureRecord::from_document(&doc),
            "{kind}"
        );
    }
}

#[test]
fn the_eight_kinds_are_the_closed_message_types() {
    let kinds: Vec<MessageType> = one_of_each_kind()
        .into_iter()
        .map(|r| r.meta.message_type)
        .collect();
    assert_eq!(
        kinds,
        [
            MessageType::FLOW_STATS,
            MessageType::SWITCH_STATE,
            MessageType::HOST_STATE,
            MessageType::PORT_STATS,
            MessageType::TABLE_STATS,
            MessageType::FLOW_REMOVED,
            MessageType::PACKET_IN,
            MessageType::MSG_WINDOW,
        ]
    );
}

#[test]
fn names_reach_the_shard_as_the_catalogs_own_strings() {
    let store = StoreCluster::new(3, 2);
    let mut fm = FeatureManager::new(&store);
    let records = one_of_each_kind();
    for r in &records {
        fm.ingest(r).unwrap();
    }
    let stored = store
        .collection(FeatureManager::COLLECTION)
        .find(&Filter::All, &FindOptions::default());
    assert_eq!(stored.len(), records.len());
    // Reads come back in insertion order.
    for (r, doc) in records.iter().zip(&stored) {
        assert!(!r.fields.is_empty());
        for (name, value) in &r.fields {
            let id = name
                .feature()
                .unwrap_or_else(|| panic!("{name} is not a catalog entry"));
            assert!(catalog::all_features().any(|f| f == id));
            let (key, held) = doc
                .fields
                .iter()
                .find(|(k, _)| k.as_str() == id.name())
                .unwrap_or_else(|| panic!("{name} missing from the stored document"));
            match key {
                Key::Static(s) => assert!(
                    std::ptr::eq(*s, id.name()),
                    "{name} was re-spelled on the way to the shard"
                ),
                Key::Shared(_) => panic!("{name} was re-allocated on the way to the shard"),
            }
            assert_eq!(held.as_f64(), Some(*value));
        }
        // Index and metadata keys are program literals too: no key of a
        // generated record's document lives on the heap.
        assert!(doc.fields.iter().all(|(k, _)| matches!(k, Key::Static(_))));
        // And the read side hands the same handles back.
        let back = FeatureRecord::from_document(doc);
        assert_eq!(back.index, r.index);
        assert_eq!(back.meta, r.meta);
        for (name, value) in &r.fields {
            assert_eq!(back.value(name), Some(*value), "{name}");
        }
        assert_eq!(back.fields.len(), r.fields.len());
    }
}
