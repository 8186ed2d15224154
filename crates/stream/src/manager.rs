//! The retrain loop: live window → candidate fit → snapshot → atomic
//! hot-swap.
//!
//! [`RetrainLoop::deploy`] registers an online validator on the
//! [`Athena`] runtime with a caller-supplied bootstrap model, plus an
//! event handler that copies every matching feature record (labeled by
//! the app's ground-truth closure) into a bounded virtual-time
//! [`LiveWindow`]. Each [`RetrainLoop::tick`] then decides, on the
//! retrain cadence, whether to fit a candidate: the fit runs inside the
//! tick (so verdict streams are deterministic), the candidate
//! round-trips through the persist snapshot format
//! (`DetectionModel::save_to`/`load_from` — the exact bytes a crash
//! recovery would reload), and is hot-swapped into the
//! [`AttackDetector`](athena_core::AttackDetector) under the detector
//! lock.
//!
//! **Gap bound:** the displaced model keeps scoring every record until
//! the swap instant, and the swap itself happens atomically under the
//! detector lock between two records — so the detection gap during a
//! retrain is bounded by the alert cadence of whichever model is
//! worse, never by retrain latency. The `stream/detection_gap_us`
//! histogram measures the observed gap between consecutive alerts in
//! virtual time; the `detection-gap-exceeded` alert rule and the
//! `e2e_stream.rs` gate both watch the ≤ 15 virtual-second bound.

use crate::online::OnlineSpec;
use athena_core::{AlertHandler, Athena, DetectionModel, FeatureRecord, FieldName, Query};
use athena_ml::{LabeledPoint, Preprocessor};
use athena_telemetry::{names, Counter, Telemetry};
use athena_types::sentinel::TrackedMutex;
use athena_types::{Result, SimDuration, SimTime};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// When and on how much data the loop retrains.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrainPolicy {
    /// Minimum virtual time between retrains.
    pub interval: SimDuration,
    /// Live-window horizon: points older than this are evicted.
    pub window: SimDuration,
    /// Skip retraining below this many live points.
    pub min_points: usize,
    /// Hard cap on retained live points (oldest evicted first).
    pub max_points: usize,
    /// Snapshot path for the persist round-trip. When set, every
    /// candidate is written with `DetectionModel::save_to` and the
    /// *reloaded* copy is what gets swapped in — proving the deployed
    /// model survives the crash-recovery format. `None` swaps the
    /// in-memory candidate directly.
    pub snapshot: Option<PathBuf>,
}

impl Default for RetrainPolicy {
    fn default() -> Self {
        RetrainPolicy {
            interval: SimDuration::from_secs(10),
            window: SimDuration::from_secs(30),
            min_points: 64,
            max_points: 8192,
            snapshot: None,
        }
    }
}

/// Everything a streaming deployment needs besides the runtime itself.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Validator name (appears in `validator_stats`).
    pub name: String,
    /// Feature names extracted from matching records, in order.
    pub features: Vec<String>,
    /// Which online learner fits the candidates.
    pub spec: OnlineSpec,
    /// Preprocessing refitted on each live window before the fit.
    pub preprocessor: Preprocessor,
    /// Retrain cadence and window bounds.
    pub policy: RetrainPolicy,
}

/// What one completed retrain did.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrainReport {
    /// Virtual time of the tick that retrained.
    pub at: SimTime,
    /// Live points the candidate was fitted on.
    pub points: usize,
    /// Algorithm tag of the deployed candidate.
    pub algorithm: String,
    /// Whether the candidate was hot-swapped into the detector.
    pub swapped: bool,
}

/// The bounded, virtual-time-evicted buffer of labeled live traffic.
#[derive(Debug)]
struct LiveWindow {
    entries: VecDeque<(SimTime, LabeledPoint)>,
    horizon: SimDuration,
    max_points: usize,
    updates: Counter,
    evictions: Counter,
}

impl LiveWindow {
    fn push(&mut self, at: SimTime, point: LabeledPoint) {
        let cutoff = SimTime::from_micros(at.as_micros().saturating_sub(self.horizon.as_micros()));
        while self.entries.front().is_some_and(|&(t, _)| t < cutoff) {
            self.entries.pop_front();
            self.evictions.inc();
        }
        self.entries.push_back((at, point));
        while self.entries.len() > self.max_points {
            self.entries.pop_front();
            self.evictions.inc();
        }
        self.updates.inc();
    }

    fn snapshot(&self) -> Vec<LabeledPoint> {
        self.entries.iter().map(|(_, p)| p.clone()).collect()
    }
}

/// The streaming detector lifecycle: owns the live window, the retrain
/// cadence, and the validator slot it hot-swaps.
pub struct RetrainLoop {
    cfg: StreamConfig,
    validator: usize,
    live: Arc<TrackedMutex<LiveWindow>>,
    last_retrain: Option<SimTime>,
    reports: Vec<RetrainReport>,
    swap_failures: Counter,
}

impl RetrainLoop {
    /// Deploys a streaming detector: registers `initial` as the online
    /// validator (it serves from the first record — continuity never
    /// waits for the first retrain) and starts accumulating matching
    /// records, labeled by `truth`, into the live window. Alerts flow
    /// through `on_alert`; consecutive-alert gaps are recorded into
    /// `stream/detection_gap_us` in virtual time.
    pub fn deploy(
        athena: &Athena,
        query: &Query,
        cfg: StreamConfig,
        truth: Arc<dyn Fn(&FeatureRecord) -> bool + Send + Sync>,
        initial: DetectionModel,
        mut on_alert: AlertHandler,
    ) -> Self {
        let tel: Telemetry = athena.runtime().telemetry.clone();
        let gap = tel
            .metrics()
            .histogram(names::stream::SUBSYSTEM, names::stream::DETECTION_GAP_US);
        let last_alert = Arc::new(AtomicU64::new(u64::MAX));
        let stamp = Arc::clone(&last_alert);
        let wrapped: AlertHandler = Box::new(move |r| {
            let now_us = r.meta.timestamp.as_micros();
            let prev = stamp.swap(now_us, Ordering::SeqCst);
            if prev != u64::MAX {
                gap.record(now_us.saturating_sub(prev));
            }
            on_alert(r)
        });
        let validator = athena.add_online_validator(cfg.name.clone(), query, initial, wrapped);

        let live = Arc::new(TrackedMutex::new(
            "stream/live",
            LiveWindow {
                entries: VecDeque::new(),
                horizon: cfg.policy.window,
                max_points: cfg.policy.max_points.max(1),
                updates: tel
                    .metrics()
                    .counter(names::stream::SUBSYSTEM, names::stream::WINDOW_UPDATES),
                evictions: tel
                    .metrics()
                    .counter(names::stream::SUBSYSTEM, names::stream::WINDOW_EVICTIONS),
            },
        ));
        {
            let live = Arc::clone(&live);
            let truth = Arc::clone(&truth);
            let features: Vec<FieldName> = cfg.features.iter().map(FieldName::from).collect();
            athena.add_event_handler(
                query,
                Box::new(move |r| {
                    if let Some(v) = r.values(&features) {
                        let label = if truth(r) { 1.0 } else { 0.0 };
                        live.lock()
                            .push(r.meta.timestamp, LabeledPoint::new(v, label));
                    }
                }),
            );
        }

        RetrainLoop {
            swap_failures: tel
                .metrics()
                .counter(names::stream::SUBSYSTEM, names::stream::SWAP_FAILURES),
            cfg,
            validator,
            live,
            last_retrain: None,
            reports: Vec::new(),
        }
    }

    /// The validator slot this loop hot-swaps.
    pub fn validator(&self) -> usize {
        self.validator
    }

    /// Labeled points currently in the live window.
    pub fn live_points(&self) -> usize {
        self.live.lock().entries.len()
    }

    /// Every completed retrain so far, in order.
    pub fn reports(&self) -> &[RetrainReport] {
        &self.reports
    }

    /// Drives the loop at `now` (call once per virtual tick, e.g. from
    /// the simulation's step loop). When the retrain cadence is due and
    /// the live window holds enough points, fits a candidate,
    /// round-trips it through the snapshot format, and hot-swaps it.
    /// Returns the report when a retrain completed.
    ///
    /// Candidates that cannot be fitted yet (e.g. a one-class window
    /// before the attack starts) are skipped silently — the incumbent
    /// model keeps serving. Snapshot or swap failures increment
    /// `stream/swap_failures` (watched by the `model-swap-failed`
    /// alert rule).
    pub fn tick(&mut self, athena: &Athena, now: SimTime) -> Option<RetrainReport> {
        let due = self.last_retrain.is_none_or(|t| {
            now.saturating_since(t).as_micros() >= self.cfg.policy.interval.as_micros()
        });
        if !due {
            return None;
        }
        let points = self.live.lock().snapshot();
        if points.len() < self.cfg.policy.min_points {
            return None;
        }
        self.last_retrain = Some(now);
        let n = points.len();
        let candidate = match self.fit_candidate(&points) {
            Ok(c) => c,
            // Not enough signal in this window (single class, empty
            // threshold): keep the incumbent and try again next tick.
            Err(_) => return None,
        };
        let deployed = match &self.cfg.policy.snapshot {
            Some(path) => candidate
                .save_to(path, now)
                .and_then(|()| DetectionModel::load_from(path)),
            None => Ok(candidate),
        };
        let report = match deployed {
            Ok(m) => {
                let algorithm = m.algorithm.clone();
                let swapped = athena.swap_online_model(self.validator, m).is_some();
                if !swapped {
                    self.swap_failures.inc();
                }
                RetrainReport {
                    at: now,
                    points: n,
                    algorithm,
                    swapped,
                }
            }
            Err(_) => {
                self.swap_failures.inc();
                RetrainReport {
                    at: now,
                    points: n,
                    algorithm: self.cfg.spec.tag().to_string(),
                    swapped: false,
                }
            }
        };
        self.reports.push(report.clone());
        Some(report)
    }

    /// Fits a candidate on `points`: the preprocessor is refitted on the
    /// window, the online learner consumes the prepared points strictly
    /// in record order (so the fit is deterministic), and the frozen
    /// model is wrapped into a deployable [`DetectionModel`].
    fn fit_candidate(&self, points: &[LabeledPoint]) -> Result<DetectionModel> {
        let spec = &self.cfg.spec;
        let fitted = self.cfg.preprocessor.fit(points)?;
        let prepared = fitted.apply(points);
        let mut model = spec.build();
        for p in &prepared {
            model.partial_fit(p);
        }
        Ok(DetectionModel {
            model: model.freeze()?,
            preprocessor: fitted,
            features: self.cfg.features.iter().map(FieldName::from).collect(),
            algorithm: spec.tag().to_string(),
            trained_on: points.len(),
        })
    }
}
