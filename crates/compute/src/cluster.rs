//! The compute cluster: worker pool, job accounting, metrics.

use crate::dataset::Dataset;
use crate::scheduler::{SchedulerConfig, VirtualScheduler};
use athena_observe::Observe;
use athena_telemetry::{names, Counter, Histogram, Telemetry};
use athena_types::sentinel::TrackedMutex;
use athena_types::SimDuration;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Metrics for one executed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMetrics {
    /// Number of tasks (one per partition).
    pub tasks: usize,
    /// The job's virtual completion time under the cluster's scheduler.
    pub virtual_time: SimDuration,
}

#[derive(Debug)]
pub(crate) struct ClusterInner {
    pub(crate) scheduler: VirtualScheduler,
    /// Tasks run: the one tally, reported by
    /// [`ComputeCluster::bind_telemetry`].
    tasks: Counter,
    /// The job log: the one record of each job, which the job count and
    /// the total virtual time are read off.
    jobs: TrackedMutex<Vec<JobMetrics>>,
    /// Timing instruments, registered by
    /// [`ComputeCluster::bind_telemetry`].
    task_ns: Histogram,
    job_ns: Histogram,
    /// Set once, by [`ComputeCluster::bind_observe`].
    observe: OnceLock<Observe>,
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
                tasks: Counter::default(),
                jobs: TrackedMutex::new("compute/jobs", Vec::new()),
                task_ns: Histogram::default(),
                job_ns: Histogram::default(),
                observe: OnceLock::new(),
            }),
        }
    }

    /// Reports the task counter and task/job dispatch latencies into
    /// `tel`, for every handle cloned from this cluster.
    pub fn bind_telemetry(&self, tel: &Telemetry) {
        let (m, i) = (tel.metrics(), &self.inner);
        let sub = names::compute::SUBSYSTEM;
        m.register_counter(sub, names::compute::TASKS, &i.tasks);
        m.register_histogram(sub, names::compute::TASK_NS, "", &i.task_ns);
        m.register_histogram(sub, names::compute::JOB_NS, "", &i.job_ns);
    }

    /// Routes causal spans (the compute-job leg of a trace) into `obs`
    /// for every handle cloned from this cluster. The handle is set once:
    /// a later call leaves the first one bound. Spans are opened and
    /// closed on the submitting thread only — parallel runners record
    /// nothing causal, so the trace stream is thread-count-invariant.
    pub fn bind_observe(&self, obs: &Observe) {
        let _ = self.inner.observe.set(obs.clone());
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
        let jobs = self.inner.jobs.lock();
        SimDuration::from_micros(jobs.iter().map(|j| j.virtual_time.as_micros()).sum())
    }

    /// Number of jobs executed.
    pub fn job_count(&self) -> u64 {
        self.inner.jobs.lock().len() as u64
    }

    /// Metrics of every executed job, in execution order.
    pub fn job_metrics(&self) -> Vec<JobMetrics> {
        self.inner.jobs.lock().clone()
    }

    /// Resets the virtual clock and job log (the worker count and cost
    /// model are kept). Used between benchmark repetitions.
    pub fn reset_accounting(&self) {
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
        let span = self.inner.observe.get().map(|o| o.span("compute", "job"));
        let job_timer = self.inner.job_ns.start_timer();
        let timed = athena_parallel::par_map_indexed(partitions.len(), |i| {
            let start = Instant::now();
            let r = task(&partitions[i]);
            let elapsed = start.elapsed();
            self.inner
                .task_ns
                .record(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
            (SimDuration::from_micros(elapsed.as_micros() as u64), r)
        });
        let mut results = Vec::with_capacity(timed.len());
        let mut costs = Vec::with_capacity(timed.len());
        for (cost, r) in timed {
            costs.push(cost);
            results.push(r);
        }
        self.inner.tasks.add(costs.len() as u64);
        let virtual_time = self.inner.scheduler.makespan(&costs);
        self.inner.jobs.lock().push(JobMetrics {
            tasks: partitions.len(),
            virtual_time,
        });
        job_timer.observe(&self.inner.job_ns);
        if let Some(span) = span {
            span.finish(format_args!("{label}: {} tasks", partitions.len()));
        }
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
