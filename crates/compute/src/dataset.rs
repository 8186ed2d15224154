//! Partitioned datasets with Spark-like transformations and actions.

use crate::cluster::ComputeCluster;
use std::sync::Arc;

/// A partitioned, immutable collection bound to a [`ComputeCluster`].
///
/// Transformations (`map`, `filter`, `map_partitions`) and actions
/// (`reduce`, `fold`, `count`, `collect`) each run one cluster job; every
/// partition is one task. Partitions are shared (`Arc`) so chained
/// transformations do not copy input data.
///
/// # Examples
///
/// ```
/// use athena_compute::ComputeCluster;
///
/// let cluster = ComputeCluster::new(4);
/// let evens = cluster
///     .parallelize((0..100i64).collect::<Vec<_>>(), 8)
///     .filter(|x| x % 2 == 0);
/// assert_eq!(evens.count(), 50);
/// let max = evens.reduce(|a, b| if a > b { a } else { b });
/// assert_eq!(max, Some(98));
/// ```
#[derive(Debug, Clone)]
pub struct Dataset<T> {
    cluster: ComputeCluster,
    partitions: Arc<Vec<Vec<T>>>,
}

impl<T> Dataset<T> {
    /// Splits `data` into `partitions` roughly equal chunks.
    pub(crate) fn from_vec(cluster: ComputeCluster, data: Vec<T>, partitions: usize) -> Self {
        let p = partitions.max(1);
        let n = data.len();
        let chunk = n.div_ceil(p).max(1);
        let mut parts: Vec<Vec<T>> = Vec::with_capacity(p);
        let mut it = data.into_iter();
        loop {
            let part: Vec<T> = it.by_ref().take(chunk).collect();
            if part.is_empty() {
                break;
            }
            parts.push(part);
        }
        if parts.is_empty() {
            parts.push(Vec::new());
        }
        Dataset {
            cluster,
            partitions: Arc::new(parts),
        }
    }

    /// Wraps pre-built partitions.
    pub(crate) fn from_partitions(cluster: ComputeCluster, partitions: Vec<Vec<T>>) -> Self {
        let partitions = if partitions.is_empty() {
            vec![Vec::new()]
        } else {
            partitions
        };
        Dataset {
            cluster,
            partitions: Arc::new(partitions),
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The cluster this dataset is bound to.
    pub fn cluster(&self) -> &ComputeCluster {
        &self.cluster
    }

    /// Total number of elements (without running a job).
    pub fn len(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// Returns `true` if the dataset holds no elements.
    pub fn is_empty(&self) -> bool {
        self.partitions.iter().all(Vec::is_empty)
    }
}

impl<T: Clone + Send + Sync> Dataset<T> {
    /// Applies `f` to every element (one job, one task per partition).
    pub fn map<U: Send>(&self, f: impl Fn(&T) -> U + Sync) -> Dataset<U> {
        let parts = self
            .cluster
            .run_job("map", &self.partitions, move |p: &Vec<T>| {
                p.iter().map(&f).collect::<Vec<U>>()
            });
        Dataset::from_partitions(self.cluster.clone(), parts)
    }

    /// Keeps elements satisfying `f`.
    pub fn filter(&self, f: impl Fn(&T) -> bool + Sync) -> Dataset<T> {
        let parts = self
            .cluster
            .run_job("filter", &self.partitions, move |p: &Vec<T>| {
                p.iter().filter(|x| f(x)).cloned().collect::<Vec<T>>()
            });
        Dataset::from_partitions(self.cluster.clone(), parts)
    }

    /// Applies `f` to whole partitions (the workhorse for per-partition
    /// aggregation in ML algorithms).
    pub fn map_partitions<U: Send>(&self, f: impl Fn(&[T]) -> Vec<U> + Sync) -> Dataset<U> {
        let parts = self
            .cluster
            .run_job("map_partitions", &self.partitions, move |p: &Vec<T>| f(p));
        Dataset::from_partitions(self.cluster.clone(), parts)
    }

    /// Combines all elements with `f` (associative).
    pub fn reduce(&self, f: impl Fn(T, T) -> T + Sync) -> Option<T> {
        let partials = self
            .cluster
            .run_job("reduce", &self.partitions, |p: &Vec<T>| {
                p.iter().cloned().reduce(&f)
            });
        partials.into_iter().flatten().reduce(&f)
    }

    /// Spark's `aggregate`: per-partition fold with `seq`, then a driver
    /// combine with `comb`. The driver combine runs in partition order,
    /// so the result is byte-identical at any thread count.
    pub fn fold<A>(&self, init: A, seq: impl Fn(A, &T) -> A + Sync, comb: impl Fn(A, A) -> A) -> A
    where
        A: Clone + Send + Sync,
    {
        let partials = self
            .cluster
            .run_job("fold", &self.partitions, |p: &Vec<T>| {
                p.iter().fold(init.clone(), &seq)
            });
        partials.into_iter().fold(init, comb)
    }

    /// Counts elements (as a job, so it is charged virtual time).
    pub fn count(&self) -> usize {
        let partials = self
            .cluster
            .run_job("count", &self.partitions, |p: &Vec<T>| p.len());
        partials.into_iter().sum()
    }

    /// Gathers every element to the driver.
    pub fn collect(&self) -> Vec<T> {
        let parts = self
            .cluster
            .run_job("collect", &self.partitions, |p: &Vec<T>| p.clone());
        parts.into_iter().flatten().collect()
    }

    /// Repartitions into `n` chunks (a shuffle).
    pub fn repartition(&self, n: usize) -> Dataset<T> {
        let all: Vec<T> = self.collect();
        Dataset::from_vec(self.cluster.clone(), all, n)
    }

    /// Deterministically samples roughly `fraction` of the elements
    /// (every k-th element), mirroring Athena's `Sampling` preprocessor.
    pub fn sample(&self, fraction: f64) -> Dataset<T> {
        let fraction = fraction.clamp(0.0, 1.0);
        if fraction >= 1.0 {
            return self.clone();
        }
        if fraction <= 0.0 {
            return Dataset::from_partitions(self.cluster.clone(), vec![Vec::new()]);
        }
        let keep_every = (1.0 / fraction).round().max(1.0) as usize;
        let parts = self
            .cluster
            .run_job("sample", &self.partitions, move |p: &Vec<T>| {
                p.iter().step_by(keep_every).cloned().collect::<Vec<T>>()
            });
        Dataset::from_partitions(self.cluster.clone(), parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ComputeCluster {
        ComputeCluster::new(3)
    }

    #[test]
    fn partitioning_is_balanced_and_complete() {
        let ds = cluster().parallelize((0..103i32).collect(), 10);
        assert_eq!(ds.num_partitions(), 10);
        assert_eq!(ds.len(), 103);
        let mut all = ds.collect();
        all.sort();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn empty_dataset_has_one_empty_partition() {
        let ds = cluster().parallelize(Vec::<i32>::new(), 4);
        assert_eq!(ds.num_partitions(), 1);
        assert!(ds.is_empty());
        assert_eq!(ds.count(), 0);
        assert_eq!(ds.reduce(|a, _| a), None);
    }

    #[test]
    fn map_filter_chain() {
        let ds = cluster().parallelize((1..=10i64).collect(), 3);
        let out = ds.map(|x| x * x).filter(|x| x % 2 == 1);
        let mut v = out.collect();
        v.sort();
        assert_eq!(v, vec![1, 9, 25, 49, 81]);
    }

    #[test]
    fn fold_matches_serial_fold() {
        let data: Vec<i64> = (0..1000).collect();
        let expect: i64 = data.iter().sum();
        let ds = cluster().parallelize(data, 7);
        let sum = ds.fold(0i64, |a, x| a + x, |a, b| a + b);
        assert_eq!(sum, expect);
    }

    #[test]
    fn reduce_over_multiple_partitions() {
        let ds = cluster().parallelize(vec![5, 3, 9, 1, 7, 2], 3);
        assert_eq!(ds.reduce(std::cmp::max), Some(9));
    }

    #[test]
    fn map_partitions_sees_whole_partitions() {
        let ds = cluster().parallelize((0..12i32).collect(), 4);
        let sizes = ds.map_partitions(|p| vec![p.len()]);
        let total: usize = sizes.collect().into_iter().sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn sample_keeps_roughly_the_fraction() {
        let ds = cluster().parallelize((0..1000i32).collect(), 5);
        let s = ds.sample(0.2);
        let n = s.count();
        assert!((150..=250).contains(&n), "sampled {n}");
        assert_eq!(ds.sample(1.0).len(), 1000);
        assert_eq!(ds.sample(0.0).len(), 0);
    }

    #[test]
    fn repartition_preserves_elements() {
        let ds = cluster().parallelize((0..50i32).collect(), 2);
        let r = ds.repartition(9);
        assert_eq!(r.num_partitions(), 9);
        let mut v = r.collect();
        v.sort();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
