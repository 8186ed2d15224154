//! Framework-level end-to-end behaviours: the query language against a
//! live feature store, monitoring fidelity, reactions, and the Athena
//! proxy's consistency property (mitigation rules are attributed and
//! visible to the controller).

use athena::controller::ControllerCluster;
use athena::core::nb::reaction_manager::Reaction;
use athena::core::{Athena, AthenaConfig, Query, QueryBuilder};
use athena::dataplane::{workload, FlowSpec, Network, Topology};
use athena::types::{FiveTuple, SimDuration, SimTime};

fn deployment() -> (Network, ControllerCluster, Athena, Topology) {
    let topo = Topology::enterprise();
    let mut net = Network::new(topo.clone());
    let mut cluster = ControllerCluster::new(&topo);
    let athena = Athena::new(AthenaConfig::default());
    athena.attach(&mut cluster);
    net.inject_flows(workload::benign_mix_on(
        &topo,
        60,
        SimDuration::from_secs(15),
        55,
    ));
    net.run_until(SimTime::from_secs(20), &mut cluster);
    (net, cluster, athena, topo)
}

#[test]
fn query_language_against_live_features() {
    let (_, _, athena, _) = deployment();
    // String syntax and builder produce the same results.
    let parsed = athena.request_features(
        &Query::parse("feature==FLOW_STATS && FLOW_PACKET_COUNT>0 limit 50").unwrap(),
    );
    let built = athena.request_features(
        &QueryBuilder::new()
            .eq("message_type", "FLOW_STATS")
            .gt("FLOW_PACKET_COUNT", 0)
            .limit(50)
            .build(),
    );
    assert_eq!(parsed.len(), built.len());
    assert!(!parsed.is_empty());
    // Sorting and limiting.
    let top = athena.request_features(
        &Query::parse("feature==FLOW_STATS sort FLOW_BYTE_COUNT desc limit 3").unwrap(),
    );
    assert_eq!(top.len(), 3);
    let bytes: Vec<f64> = top
        .iter()
        .filter_map(|r| r.field("FLOW_BYTE_COUNT"))
        .collect();
    assert!(bytes.windows(2).all(|w| w[0] >= w[1]), "{bytes:?}");
}

#[test]
fn manage_monitor_silences_a_switch() {
    let (mut net, mut cluster, athena, topo) = deployment();
    let victim_switch = topo.switches[0].dpid;
    let before = athena
        .request_features(&Query::parse(&format!("switch=={}", victim_switch.raw())).unwrap())
        .len();
    assert!(before > 0);

    athena.manage_monitor(
        &Query::parse(&format!("switch=={}", victim_switch.raw())).unwrap(),
        false,
    );
    net.inject_flows(workload::benign_mix_on(
        &topo,
        40,
        SimDuration::from_secs(10),
        56,
    ));
    net.run_until(SimTime::from_secs(35), &mut cluster);
    let after = athena
        .request_features(&Query::parse(&format!("switch=={}", victim_switch.raw())).unwrap())
        .len();
    // No new features from the silenced switch.
    assert_eq!(before, after);
    // Other switches kept producing.
    let others = athena.request_features(&Query::all()).len();
    assert!(others > before);
}

#[test]
fn quarantine_redirects_instead_of_dropping() {
    let topo = Topology::linear(3, 2);
    let mut net = Network::new(topo.clone());
    let mut cluster = ControllerCluster::new(&topo);
    let athena = Athena::new(AthenaConfig::default());
    athena.attach(&mut cluster);

    let suspect = topo.hosts[0].ip;
    let honeypot = topo.hosts[5].ip; // last host on switch 3
    athena.reactor(Reaction::Quarantine {
        targets: vec![suspect],
        destination: honeypot,
    });
    net.inject_flows([FlowSpec::new(
        FiveTuple::tcp(suspect, 1000, topo.hosts[3].ip, 80),
        SimTime::from_secs(2),
        SimDuration::from_secs(10),
        2_000_000,
    )]);
    net.run_until(SimTime::from_secs(15), &mut cluster);
    assert_eq!(athena.mitigated_hosts(), vec![suspect]);
    // The mitigation rule is attributed to Athena's app id in the
    // controller's flow-rule store (the proxy involved the controller).
    let athena_rules = cluster
        .flow_rules()
        .rules_of_app(athena::controller::apps::app_ids::ATHENA);
    assert!(!athena_rules.is_empty(), "proxy must register the rule");

    // The redirected traffic actually reached the honeynet: the
    // honeypot's access port transmitted bytes, and the suspect's flow
    // was delivered somewhere (not dropped).
    let honeypot_spec = topo.host_by_ip(honeypot).unwrap();
    let honeypot_switch = net.switch(honeypot_spec.switch).unwrap();
    let athena::openflow::StatsReply::Port(ports) = honeypot_switch.stats(
        &athena::openflow::StatsRequest::Port {
            port_no: honeypot_spec.port,
        },
        net.now(),
    ) else {
        panic!("port stats expected");
    };
    assert!(
        ports[0].tx_bytes > 1_000_000,
        "honeypot received the quarantined traffic: {} bytes",
        ports[0].tx_bytes
    );
    assert!(net.delivered_bytes() > 1_000_000);
}

#[test]
fn event_handlers_fire_during_live_collection() {
    let topo = Topology::linear(3, 2);
    let mut net = Network::new(topo.clone());
    let mut cluster = ControllerCluster::new(&topo);
    let athena = Athena::new(AthenaConfig::default());
    athena.attach(&mut cluster);

    let seen = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let seen2 = seen.clone();
    athena.add_event_handler(
        &Query::parse("feature==PORT_STATS").unwrap(),
        Box::new(move |_| {
            seen2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }),
    );
    net.inject_flows(workload::benign_mix_on(
        &topo,
        20,
        SimDuration::from_secs(10),
        57,
    ));
    net.run_until(SimTime::from_secs(15), &mut cluster);
    assert!(seen.load(std::sync::atomic::Ordering::Relaxed) > 0);
}
