//! Durability wiring for the controller cluster: mastership transitions
//! and flow-rule bookkeeping are journaled through an
//! [`athena_persist::Journal`] and rehydrated on restart.
//!
//! ONOS keeps this state in its distributed stores; a rejoining instance
//! reads it back from the surviving quorum. The simulator collapses the
//! cluster into one address space, so before this module a crash/rejoin
//! cycle silently forgot every mastership move and installed rule. With
//! persistence attached, mastership events (crash/rejoin/fail-over) and
//! rule installs/removals append WAL records as they happen; a checkpoint
//! snapshots the full mastership map, rule store, and message counters.
//! [`ControllerCluster::attach_persistence`] on a freshly built cluster
//! replays checkpoint + WAL tail, reproducing the pre-crash control-plane
//! view. Each record is a serde-derived type: [`MastershipEvent`],
//! [`RuleEvent`] and the checkpoint's [`ControllerSnapshot`].

use crate::cluster::{ClusterCounters, ControllerCluster, FailoverCounters};
use crate::services::FlowRuleRecord;
use athena_openflow::{FlowModCommand, OfMessage};
use athena_persist::{from_payload, record::kind, to_payload, Journal, PersistConfig, Recovery};
use athena_telemetry::Telemetry;
use athena_types::{AppId, AthenaError, ControllerId, Dpid, Result, SimTime};
use serde::{Deserialize, Serialize};

/// The attached journal (records are stamped from the cluster's
/// last-seen virtual time, so no clock is carried here).
#[derive(Debug)]
pub struct ControllerPersist {
    pub(crate) journal: Journal,
}

/// What [`ControllerCluster::attach_persistence`] recovered from disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerRecoveryReport {
    /// A checkpoint snapshot was loaded and applied.
    pub checkpoint_applied: bool,
    /// WAL tail records replayed after the checkpoint.
    pub ops_replayed: u64,
    /// Mastership events among the replayed records.
    mastership_events: u64,
    /// Flow rules live after recovery.
    rules_live: u64,
    /// Torn/corrupt WAL tails truncated during recovery.
    pub tails_truncated: u64,
    /// Corrupt checkpoint files skipped during recovery.
    pub corrupt_checkpoints_skipped: u64,
}

/// One journaled mastership transition (a WAL record of kind
/// `MASTERSHIP`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MastershipEvent {
    /// An instance crashed.
    Crash(ControllerId),
    /// A crashed instance rejoined.
    Rejoin(ControllerId),
    /// Switch `dpid` failed over to instance `to`.
    Reassign { dpid: Dpid, to: ControllerId },
}

/// One journaled flow-rule change (a WAL record of kind `FLOW_RULE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuleEvent {
    /// Application `app` installed the rule `cookie` on switch `dpid`.
    Install {
        dpid: Dpid,
        app: AppId,
        cookie: u64,
        installed_at: SimTime,
    },
    /// The rule `cookie` was removed.
    Remove { cookie: u64 },
}

/// A checkpoint of the control-plane state: the mastership map and the
/// down set (sorted), the live rules (sorted by cookie) with the rule
/// store's counters, and the message and fail-over counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerSnapshot {
    pub masters: Vec<(Dpid, ControllerId)>,
    pub down: Vec<ControllerId>,
    pub rules: Vec<FlowRuleRecord>,
    pub installs: u64,
    pub removals: u64,
    pub next_seq: u64,
    pub counters: ClusterCounters,
    pub failover: FailoverCounters,
}

impl ControllerCluster {
    /// Opens (or creates) a journal under `config.dir`, replays whatever
    /// mastership/flow-rule history it holds into this cluster, and
    /// attaches the journal so subsequent control-plane events append WAL
    /// records. `persist/controller_*` metrics flow into `tel`.
    ///
    /// Attach to a freshly built cluster (same topology as the pre-crash
    /// one): recovery rebuilds the mastership map, the flow-rule store,
    /// and the message/failover counters.
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Persist`] if the journal cannot be opened or
    /// a recovered record cannot be decoded. Torn/corrupt tails are not
    /// errors — they are truncated, counted, and recovery continues.
    pub fn attach_persistence(
        &mut self,
        config: PersistConfig,
        tel: &Telemetry,
    ) -> Result<ControllerRecoveryReport> {
        let (journal, recovery) = Journal::open_with_telemetry(config, tel, "controller")?;
        let report = self.apply_recovery(&recovery)?;
        self.persist = Some(ControllerPersist { journal });
        Ok(report)
    }

    /// `true` once [`ControllerCluster::attach_persistence`] has run.
    pub fn persistence_attached(&self) -> bool {
        self.persist.is_some()
    }

    /// Takes a point-in-time checkpoint of the control-plane state
    /// (mastership map, flow-rule store, counters) and supersedes the WAL
    /// with it. Returns the WAL sequence number the checkpoint covers.
    ///
    /// # Errors
    ///
    /// Returns [`AthenaError::Persist`] when no journal is attached or the
    /// snapshot cannot be written.
    pub fn checkpoint(&mut self) -> Result<u64> {
        let payload = to_payload(&self.snapshot())?;
        let now = self.last_seen;
        let p = self
            .persist
            .as_mut()
            .ok_or_else(|| AthenaError::Persist("no journal attached".into()))?;
        p.journal.checkpoint(&payload, now)
    }

    /// Appends `records`, each a WAL record of `kind`, stamped with the
    /// last-seen time (best-effort: the southbound paths cannot surface
    /// persist errors). Without a journal, nothing is built: `records`
    /// is never iterated.
    pub(crate) fn journal<T: Serialize>(&mut self, kind: u8, records: impl IntoIterator<Item = T>) {
        let now = self.last_seen;
        let Some(p) = self.persist.as_mut() else {
            return;
        };
        for record in records {
            if let Ok(payload) = to_payload(&record) {
                let _ = p.journal.append(kind, &payload, now);
            }
        }
    }

    /// The state a checkpoint holds — the same state always snapshots to
    /// the same bytes.
    fn snapshot(&self) -> ControllerSnapshot {
        let (masters, down) = self.mastership.snapshot();
        let (installs, removals, next_seq) = self.flow_rules.snapshot_counters();
        ControllerSnapshot {
            masters,
            down,
            rules: self.flow_rules.snapshot_records(),
            installs,
            removals,
            next_seq,
            counters: self.counters(),
            failover: self.failover_counters(),
        }
    }

    fn apply_recovery(&mut self, recovery: &Recovery) -> Result<ControllerRecoveryReport> {
        let mut report = ControllerRecoveryReport {
            tails_truncated: recovery.stats.tails_truncated,
            corrupt_checkpoints_skipped: recovery.corrupt_checkpoints_skipped,
            ..ControllerRecoveryReport::default()
        };
        if let Some(ck) = &recovery.checkpoint {
            let snapshot: ControllerSnapshot = from_payload(&ck.payload)?;
            self.mastership.restore(&snapshot.masters, &snapshot.down);
            self.flow_rules.restore(
                snapshot.rules,
                (snapshot.installs, snapshot.removals, snapshot.next_seq),
            );
            self.restore_counts(snapshot.counters, snapshot.failover);
            report.checkpoint_applied = true;
            self.last_seen = self.last_seen.max(ck.time);
        }
        for rec in &recovery.tail {
            match rec.kind {
                kind::MASTERSHIP => {
                    self.apply_mastership_event(from_payload(&rec.payload)?);
                    report.mastership_events += 1;
                }
                kind::FLOW_RULE => match from_payload(&rec.payload)? {
                    RuleEvent::Install {
                        dpid,
                        app,
                        cookie,
                        installed_at,
                    } => self.flow_rules.restore_record(FlowRuleRecord {
                        dpid,
                        app,
                        cookie,
                        installed_at,
                        packet_count: 0,
                        byte_count: 0,
                    }),
                    RuleEvent::Remove { cookie } => self.flow_rules.restore_removal(cookie),
                },
                k => {
                    return Err(AthenaError::Persist(format!(
                        "unexpected record kind {k} in controller journal"
                    )))
                }
            }
            report.ops_replayed += 1;
            self.last_seen = self.last_seen.max(rec.time);
        }
        report.rules_live = self.flow_rules.live_count() as u64;
        Ok(report)
    }

    /// Re-runs one journaled mastership transition. Crash/rejoin re-elect
    /// through the same deterministic service logic as the original run,
    /// so the recovered map matches without storing every reassignment.
    fn apply_mastership_event(&mut self, event: MastershipEvent) {
        let moved = match event {
            MastershipEvent::Crash(c) => self.mastership.crash(c),
            MastershipEvent::Rejoin(c) => self.mastership.rejoin(c),
            MastershipEvent::Reassign { dpid, to } => {
                self.mastership.reassign(dpid, to);
                Vec::new()
            }
        };
        self.restore_election(&moved);
    }
}

/// The install record of every flow-mod *add* in an outgoing command
/// batch. Both the application path and the Athena proxy path funnel
/// through the command batches, so this covers every install the rule
/// store sees.
pub(crate) fn rule_installs(
    commands: &[(Dpid, OfMessage)],
    now: SimTime,
) -> impl Iterator<Item = RuleEvent> + '_ {
    commands.iter().filter_map(move |(dpid, msg)| match msg {
        OfMessage::FlowMod { body, .. } if body.command == FlowModCommand::Add => {
            Some(RuleEvent::Install {
                dpid: *dpid,
                app: body.app_id(),
                cookie: body.cookie,
                installed_at: now,
            })
        }
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_dataplane::{workload, Network, Topology};
    use athena_types::SimDuration;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn test_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "athena-ctrl-persist-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn run_workload(cluster: &mut ControllerCluster, topo: &Topology, until: u64) {
        let mut net = Network::new(topo.clone());
        net.inject_flows(workload::benign_mix_on(
            topo,
            30,
            SimDuration::from_secs(5),
            11,
        ));
        net.run_until(SimTime::from_secs(until), cluster);
    }

    /// `(mastership snapshot, sorted rule cookies)` — the recovered
    /// control-plane view under comparison.
    fn view(c: &ControllerCluster) -> (Vec<(Dpid, ControllerId)>, Vec<u64>) {
        let (masters, _) = c.mastership.snapshot();
        let cookies: Vec<u64> = c
            .flow_rules
            .snapshot_records()
            .iter()
            .map(|r| r.cookie)
            .collect();
        (masters, cookies)
    }

    #[test]
    fn wal_replay_restores_mastership_and_rules() {
        let dir = test_dir();
        let tel = Telemetry::new();
        let topo = Topology::enterprise();
        let mut cluster = ControllerCluster::new(&topo);
        cluster
            .attach_persistence(PersistConfig::new(&dir), &tel)
            .unwrap();
        run_workload(&mut cluster, &topo, 8);
        cluster.crash_instance(ControllerId::new(1));
        cluster.fail_over(Dpid::new(2), ControllerId::new(2));
        let want = view(&cluster);
        let want_counters = cluster.flow_rules.snapshot_counters();

        let mut recovered = ControllerCluster::new(&topo);
        let report = recovered
            .attach_persistence(PersistConfig::new(&dir), &tel)
            .unwrap();
        assert!(!report.checkpoint_applied);
        assert!(report.ops_replayed > 0);
        assert!(report.mastership_events >= 2);
        assert_eq!(view(&recovered), want);
        assert_eq!(recovered.flow_rules.snapshot_counters(), want_counters);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_plus_tail_restores_identical_view() {
        let dir = test_dir();
        let tel = Telemetry::new();
        let topo = Topology::enterprise();
        let mut cluster = ControllerCluster::new(&topo);
        cluster
            .attach_persistence(PersistConfig::new(&dir), &tel)
            .unwrap();
        run_workload(&mut cluster, &topo, 8);
        cluster.checkpoint().unwrap();
        // Message counters are checkpoint state (the WAL journals rule and
        // mastership transitions, not every southbound message).
        let want_counters = cluster.counters();
        // Post-checkpoint history lands in the WAL tail.
        cluster.crash_instance(ControllerId::new(0));
        run_workload(&mut cluster, &topo, 6);
        let want = view(&cluster);
        let want_failover = cluster.failover_counters();

        let mut recovered = ControllerCluster::new(&topo);
        let report = recovered
            .attach_persistence(PersistConfig::new(&dir), &tel)
            .unwrap();
        assert!(report.checkpoint_applied);
        assert_eq!(view(&recovered), want);
        assert_eq!(recovered.counters(), want_counters);
        assert_eq!(recovered.failover_counters(), want_failover);
        assert!(!recovered.instance_alive(ControllerId::new(0)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The value of the counter row labeled `label` in `tel`'s report.
    fn row(tel: &Telemetry, label: &str) -> u64 {
        let report = tel.report();
        let mut rows = report.counters.iter().filter(|e| e.key.label() == label);
        let value = rows.next().map_or(0, |e| e.value);
        assert!(rows.next().is_none(), "{label} reported twice");
        value
    }

    #[test]
    fn a_deployment_rebuilt_in_one_process_reports_each_event_once() {
        let dir = test_dir();
        let tel = Telemetry::new();
        let topo = Topology::enterprise();
        let rows = || {
            (
                row(&tel, "controller/packet_ins"),
                row(&tel, "failover/elections"),
            )
        };
        let mut cluster = ControllerCluster::new(&topo);
        cluster.bind_telemetry(&tel);
        cluster
            .attach_persistence(PersistConfig::new(&dir), &tel)
            .unwrap();
        run_workload(&mut cluster, &topo, 8);
        cluster.crash_instance(ControllerId::new(1));
        cluster.checkpoint().unwrap();
        // A re-election after the checkpoint is replayed from the tail.
        cluster.rejoin_instance(ControllerId::new(1));
        let killed = (cluster.counters(), cluster.failover_counters());
        assert_eq!(killed.1.elections, 2);
        assert_eq!(rows(), (killed.0.packet_ins, 2));
        drop(cluster);

        // Rehydrated into a fresh cluster on the same telemetry: the views
        // carry the recovered counts, the rows do not count them again.
        let mut recovered = ControllerCluster::new(&topo);
        recovered.bind_telemetry(&tel);
        recovered
            .attach_persistence(PersistConfig::new(&dir), &tel)
            .unwrap();
        assert_eq!(
            (recovered.counters(), recovered.failover_counters()),
            killed
        );
        assert_eq!(rows(), (killed.0.packet_ins, 2));

        // Events after recovery count in both.
        run_workload(&mut recovered, &topo, 8);
        recovered.crash_instance(ControllerId::new(2));
        let served = recovered.counters().packet_ins - killed.0.packet_ins;
        assert!(served > 0);
        assert_eq!(recovered.failover_counters().elections, 3);
        assert_eq!(rows(), (killed.0.packet_ins + served, 3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_cluster_keeps_serving_and_journaling() {
        let dir = test_dir();
        let tel = Telemetry::new();
        let topo = Topology::enterprise();
        let mut cluster = ControllerCluster::new(&topo);
        cluster
            .attach_persistence(PersistConfig::new(&dir), &tel)
            .unwrap();
        run_workload(&mut cluster, &topo, 8);

        let mut recovered = ControllerCluster::new(&topo);
        recovered
            .attach_persistence(PersistConfig::new(&dir), &tel)
            .unwrap();
        let before = recovered.counters().packet_ins;
        run_workload(&mut recovered, &topo, 8);
        assert!(recovered.counters().packet_ins > before);

        // And a third generation sees the second's appended history.
        let mut third = ControllerCluster::new(&topo);
        third
            .attach_persistence(PersistConfig::new(&dir), &tel)
            .unwrap();
        assert_eq!(view(&third), view(&recovered));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checkpoint_naming_a_controller_beyond_u32_is_refused() {
        // 2^32 + 1, which a decoder that truncates reads as controller 1.
        let beyond = serde_json::Value::from(u64::from(u32::MAX) + 2);
        let topo = Topology::enterprise();
        // The untouched checkpoint recovers; either id past `u32` fails it.
        for member in [None, Some("masters"), Some("down")] {
            let mut cluster = ControllerCluster::new(&topo);
            cluster.crash_instance(ControllerId::new(1));
            let mut snapshot = serde_json::to_value(cluster.snapshot()).unwrap();
            if let Some(member) = member {
                let ids = snapshot
                    .as_object_mut()
                    .and_then(|m| m.get_mut(member))
                    .and_then(|v| v.as_array_mut())
                    .unwrap();
                match &mut ids[0] {
                    serde_json::Value::Array(pair) => pair[1] = beyond.clone(),
                    id => *id = beyond.clone(),
                }
            }
            let dir = test_dir();
            let (mut journal, _) = Journal::open(PersistConfig::new(&dir)).unwrap();
            journal
                .checkpoint(&to_payload(&snapshot).unwrap(), SimTime::ZERO)
                .unwrap();
            drop(journal);
            let recovered = ControllerCluster::new(&topo)
                .attach_persistence(PersistConfig::new(&dir), &Telemetry::off());
            match member {
                None => assert!(recovered.unwrap().checkpoint_applied),
                Some(member) => assert!(
                    matches!(recovered, Err(AthenaError::Persist(_))),
                    "{member}: {recovered:?}"
                ),
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn checkpoint_without_journal_errors() {
        let topo = Topology::enterprise();
        let mut cluster = ControllerCluster::new(&topo);
        assert!(!cluster.persistence_attached());
        assert!(cluster.checkpoint().is_err());
    }
}
