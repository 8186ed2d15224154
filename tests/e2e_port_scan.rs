//! End-to-end port-scan detection over a live simulated network: the
//! extension app flags a vertical scanner from collected features and the
//! reactor blocks it, while normal clients stay untouched.

mod common;

use athena::apps::ScanDetector;
use athena::dataplane::workload;
use athena::types::SimTime;
use common::deploy_enterprise;

#[test]
fn live_scan_is_flagged_and_blocked_benign_clients_are_not() {
    let mut d = deploy_enterprise();
    let scanner = d.topo.hosts[0].ip;
    let target = d.topo.hosts[30].ip;
    let mut det = ScanDetector::new();
    det.deploy(&d.athena);

    // Benign background plus the scan.
    d.inject_benign(80, 20, 401);
    d.inject(workload::port_scan(
        scanner,
        target,
        40,
        SimTime::from_secs(5),
        402,
    ));
    d.run_until_secs(25);

    let flagged = det.detect(&d.athena);
    assert_eq!(flagged, vec![scanner], "exactly the scanner is flagged");
    assert_eq!(d.athena.mitigated_hosts(), vec![scanner]);
    let (_pairs, max_ports) = det.probe_stats();
    assert!(max_ports >= 15, "probe tracking saw the scan: {max_ports}");

    // After blocking, further scan traffic is dropped at the access
    // switch.
    let dropped_before = d.net.counters().dropped_bytes;
    d.inject(workload::port_scan(
        scanner,
        target,
        20,
        SimTime::from_secs(27),
        403,
    ));
    d.run_until_secs(35);
    assert!(d.net.counters().dropped_bytes > dropped_before);
}
