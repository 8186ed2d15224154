//! The compute cluster: worker pool, job accounting, metrics.

use crate::dataset::Dataset;
use crate::scheduler::{SchedulerConfig, VirtualScheduler};
use athena_observe::Observe;
use athena_telemetry::{names, Counter, Histogram, Telemetry};
use athena_types::sentinel::{TrackedMutex, TrackedRwLock};
use athena_types::SimDuration;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Metrics for one executed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMetrics {
    /// The operation that ran the job (e.g. `"map"`, `"map_partitions"`).
    pub label: String,
    /// Number of tasks (one per partition).
    pub tasks: usize,
    /// The job's virtual completion time under the cluster's scheduler.
    pub virtual_time: SimDuration,
}

#[derive(Debug)]
pub(crate) struct ClusterInner {
    pub(crate) scheduler: VirtualScheduler,
    job_counter: AtomicU64,
    virtual_micros: AtomicU64,
    jobs: TrackedMutex<Vec<JobMetrics>>,
    tel: TrackedRwLock<ComputeTelemetry>,
}

/// The cluster's telemetry instruments (detached until
/// [`ComputeCluster::bind_telemetry`]).
#[derive(Debug, Default)]
struct ComputeTelemetry {
    task_ns: Histogram,
    job_ns: Histogram,
    tasks: Counter,
    observe: Observe,
}

/// A compute cluster of N worker nodes.
///
/// Cloning yields another handle to the same cluster; all virtual-time
/// accounting is shared.
///
/// # Examples
///
/// ```
/// use athena_compute::ComputeCluster;
///
/// let cluster = ComputeCluster::new(6);
/// let ds = cluster.parallelize((0..100).collect::<Vec<i64>>(), 12);
/// assert_eq!(ds.count(), 100);
/// assert_eq!(cluster.workers(), 6);
/// assert_eq!(cluster.job_count(), 1); // count() ran one job
/// ```
#[derive(Debug, Clone)]
pub struct ComputeCluster {
    pub(crate) inner: Arc<ClusterInner>,
}

impl ComputeCluster {
    /// Creates a cluster with `workers` nodes and the default cost model.
    pub fn new(workers: usize) -> Self {
        Self::with_config(workers, SchedulerConfig::default())
    }

    /// Creates a cluster with an explicit scheduler cost model.
    pub fn with_config(workers: usize, config: SchedulerConfig) -> Self {
        ComputeCluster {
            inner: Arc::new(ClusterInner {
                scheduler: VirtualScheduler::new(workers, config),
                job_counter: AtomicU64::new(0),
                virtual_micros: AtomicU64::new(0),
                jobs: TrackedMutex::new("compute/jobs", Vec::new()),
                tel: TrackedRwLock::new("compute/tel", ComputeTelemetry::default()),
            }),
        }
    }

    /// Routes task/job dispatch latencies into `tel` for every handle
    /// cloned from this cluster.
    pub fn bind_telemetry(&self, tel: &Telemetry) {
        let m = tel.metrics();
        let sub = names::compute::SUBSYSTEM;
        // Rebuild wholesale but keep any already-bound observe handle.
        let observe = self.inner.tel.read().observe.clone();
        *self.inner.tel.write() = ComputeTelemetry {
            task_ns: m.histogram(sub, names::compute::TASK_NS),
            job_ns: m.histogram(sub, names::compute::JOB_NS),
            tasks: m.counter(sub, names::compute::TASKS),
            observe,
        };
    }

    /// Routes causal spans (the compute-job leg of a trace) into `obs`
    /// for every handle cloned from this cluster. Spans are opened and
    /// closed on the submitting thread only — parallel runners record
    /// nothing causal, so the trace stream is thread-count-invariant.
    pub fn bind_observe(&self, obs: &Observe) {
        self.inner.tel.write().observe = obs.clone();
    }

    /// Number of worker nodes.
    pub fn workers(&self) -> usize {
        self.inner.scheduler.workers()
    }

    /// Distributes a vector into a dataset with `partitions` partitions.
    pub fn parallelize<T>(&self, data: Vec<T>, partitions: usize) -> Dataset<T> {
        Dataset::from_vec(self.clone(), data, partitions)
    }

    /// Creates a dataset from pre-built partitions.
    pub fn from_partitions<T>(&self, partitions: Vec<Vec<T>>) -> Dataset<T> {
        Dataset::from_partitions(self.clone(), partitions)
    }

    /// Total virtual time consumed by all jobs so far.
    pub fn total_virtual_time(&self) -> SimDuration {
        SimDuration::from_micros(self.inner.virtual_micros.load(Ordering::Relaxed))
    }

    /// Number of jobs executed.
    pub fn job_count(&self) -> u64 {
        self.inner.job_counter.load(Ordering::Relaxed)
    }

    /// Metrics of every executed job, in execution order.
    pub fn job_metrics(&self) -> Vec<JobMetrics> {
        self.inner.jobs.lock().clone()
    }

    /// Resets the virtual clock and job log (the worker count and cost
    /// model are kept). Used between benchmark repetitions.
    pub fn reset_accounting(&self) {
        self.inner.virtual_micros.store(0, Ordering::Relaxed);
        self.inner.job_counter.store(0, Ordering::Relaxed);
        self.inner.jobs.lock().clear();
    }

    /// Runs a job: executes `task` over each partition (for real, in
    /// parallel through `athena-parallel` at the `ATHENA_THREADS`
    /// width), measures each task's CPU cost, and charges the virtual
    /// makespan.
    ///
    /// Results come back in partition order, so output is byte-identical
    /// at any thread count.
    pub(crate) fn run_job<P: Sync, R: Send>(
        &self,
        label: &str,
        partitions: &[P],
        task: impl Fn(&P) -> R + Sync,
    ) -> Vec<R> {
        // Instruments are cloned out of a short-lived guard so the jobs
        // log below is never locked while `tel` is held.
        let tel = {
            let guard = self.inner.tel.read();
            ComputeTelemetry {
                task_ns: guard.task_ns.clone(),
                job_ns: guard.job_ns.clone(),
                tasks: guard.tasks.clone(),
                observe: guard.observe.clone(),
            }
        };
        let span = tel.observe.span("compute", "job");
        let job_timer = tel.job_ns.start_timer();
        let timed = athena_parallel::par_map_indexed(partitions.len(), |i| {
            let start = Instant::now();
            let r = task(&partitions[i]);
            let elapsed = start.elapsed();
            tel.task_ns
                .record(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
            (SimDuration::from_micros(elapsed.as_micros() as u64), r)
        });
        let mut results = Vec::with_capacity(timed.len());
        let mut costs = Vec::with_capacity(timed.len());
        for (cost, r) in timed {
            costs.push(cost);
            results.push(r);
        }
        tel.tasks.add(costs.len() as u64);
        let virtual_time = self.inner.scheduler.makespan(&costs);
        self.inner.job_counter.fetch_add(1, Ordering::Relaxed);
        self.inner
            .virtual_micros
            .fetch_add(virtual_time.as_micros(), Ordering::Relaxed);
        self.inner.jobs.lock().push(JobMetrics {
            label: label.to_owned(),
            tasks: partitions.len(),
            virtual_time,
        });
        job_timer.observe(&tel.job_ns);
        span.finish(format_args!("{label}: {} tasks", partitions.len()));
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_accumulate_virtual_time() {
        let c = ComputeCluster::new(3);
        let ds = c.parallelize((0..50u32).collect(), 6);
        let _ = ds.count();
        // map is itself a job, then count is another.
        let _ = ds.map(|x| x + 1).count();
        assert_eq!(c.job_count(), 3);
        assert!(c.total_virtual_time().as_micros() > 0);
        let metrics = c.job_metrics();
        assert_eq!(metrics.len(), 3);
        assert_eq!(metrics[0].tasks, 6);
    }

    #[test]
    fn reset_accounting_clears_log() {
        let c = ComputeCluster::new(2);
        let _ = c.parallelize(vec![1, 2, 3], 2).count();
        c.reset_accounting();
        assert_eq!(c.job_count(), 0);
        assert_eq!(c.total_virtual_time(), SimDuration::ZERO);
        assert!(c.job_metrics().is_empty());
    }

    #[test]
    fn telemetry_counts_tasks_and_traces_jobs() {
        let tel = Telemetry::new();
        let obs = Observe::new(7);
        let c = ComputeCluster::new(3);
        c.bind_telemetry(&tel);
        c.bind_observe(&obs);
        let _ = c.parallelize((0..50u32).collect(), 6).count();
        let m = tel.metrics();
        assert_eq!(m.counter("compute", "tasks").get(), 6);
        assert_eq!(m.histogram("compute", "task_ns").snapshot().count, 6);
        assert_eq!(m.histogram("compute", "job_ns").snapshot().count, 1);
        assert!(obs
            .spans()
            .iter()
            .any(|s| s.subsystem == "compute" && s.name == "job" && s.detail.contains("6 tasks")));
    }

    #[test]
    fn handles_share_accounting() {
        let c = ComputeCluster::new(2);
        let c2 = c.clone();
        let _ = c.parallelize(vec![1], 1).count();
        assert_eq!(c2.job_count(), 1);
    }
}
