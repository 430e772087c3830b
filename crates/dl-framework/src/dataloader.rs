//! Simulated input pipeline with a worker pool.
//!
//! Reproduces the §6.4 case study: a data loader hard-coded to more
//! workers than the node has physical cores incurs scheduling overhead,
//! showing up as CPU time under `data_selection` while the GPU idles. The
//! oversubscription model charges a penalty proportional to the
//! worker-to-core excess.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use deepcontext_core::{ThreadRole, TimeNs};
use sim_runtime::{CpuWork, RuntimeEnv, ThreadCtx};

use crate::pyscope::PythonSim;

/// Data loader configuration.
#[derive(Debug, Clone)]
pub struct DataLoaderConfig {
    /// Worker threads to spawn.
    pub num_workers: usize,
    /// Physical CPU cores available on the node.
    pub physical_cores: usize,
    /// CPU time to decode/augment one item.
    pub per_item_cpu: TimeNs,
    /// Items per batch.
    pub items_per_batch: usize,
    /// One-time disk warm-up cost on the first batch (paper: "the first
    /// iteration of loading data from the disk takes 10 seconds").
    pub first_batch_disk: TimeNs,
    /// Python frame the loading work appears under.
    pub python_context: (String, u32, String),
}

impl Default for DataLoaderConfig {
    fn default() -> Self {
        DataLoaderConfig {
            num_workers: 4,
            physical_cores: 6,
            per_item_cpu: TimeNs::from_us(200),
            items_per_batch: 32,
            first_batch_disk: TimeNs::from_ms(100),
            python_context: ("input_pipeline.py".into(), 88, "data_selection".into()),
        }
    }
}

/// Per-worker oversubscription penalty factor.
fn oversubscription_penalty(workers: usize, cores: usize) -> f64 {
    if workers <= cores {
        1.0
    } else {
        1.0 + 0.35 * (workers - cores) as f64 / cores as f64
    }
}

/// A simulated multi-worker data loader.
#[derive(Debug)]
pub struct DataLoader {
    env: RuntimeEnv,
    config: DataLoaderConfig,
    workers: Vec<Arc<ThreadCtx>>,
    iteration: AtomicU64,
    // Keep the workers' persistent Python/native context alive.
    _scopes: Vec<crate::pyscope::PyScope>,
}

impl DataLoader {
    /// Spawns the worker pool.
    pub fn new(env: &RuntimeEnv, python: &PythonSim, config: DataLoaderConfig) -> Self {
        let mut workers = Vec::with_capacity(config.num_workers);
        let mut scopes = Vec::with_capacity(config.num_workers);
        let (file, line, func) = (
            config.python_context.0.clone(),
            config.python_context.1,
            config.python_context.2.clone(),
        );
        for _ in 0..config.num_workers {
            let ctx = env.threads().spawn(ThreadRole::DataLoader);
            // Workers sit inside the loader's Python function for their
            // whole lifetime.
            scopes.push(python.frame(&ctx, &file, line, &func));
            workers.push(ctx);
        }
        DataLoader {
            env: env.clone(),
            config,
            workers,
            iteration: AtomicU64::new(0),
            _scopes: scopes,
        }
    }

    /// Loads one batch: accounts CPU work on every worker (in parallel)
    /// and advances the virtual clock by the batch's wall-clock span.
    /// Returns that span.
    pub fn load_batch(&self) -> TimeNs {
        let iteration = self.iteration.fetch_add(1, Ordering::SeqCst);
        let total_work =
            TimeNs(self.config.per_item_cpu.as_nanos() * self.config.items_per_batch as u64);
        let parallel = self
            .config
            .num_workers
            .min(self.config.physical_cores)
            .max(1);
        let penalty = oversubscription_penalty(self.config.num_workers, self.config.physical_cores);
        let mut wall =
            TimeNs(((total_work.as_nanos() as f64 / parallel as f64) * penalty).round() as u64);
        if iteration == 0 {
            wall += self.config.first_batch_disk;
        }
        // Each worker burns its share of CPU time (plus the scheduling
        // overhead), concurrently.
        let per_worker = TimeNs(
            ((total_work.as_nanos() as f64 / self.config.num_workers as f64) * penalty).round()
                as u64,
        );
        for worker in &self.workers {
            self.env
                .account_cpu_work(worker, CpuWork::memory_bound(per_worker));
        }
        self.env.clock().advance(wall);
        wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loader(workers: usize, cores: usize) -> (DataLoader, RuntimeEnv) {
        let env = RuntimeEnv::new();
        let python = PythonSim::new(&env);
        let config = DataLoaderConfig {
            num_workers: workers,
            physical_cores: cores,
            per_item_cpu: TimeNs::from_us(100),
            items_per_batch: 60,
            first_batch_disk: TimeNs::from_ms(10),
            ..Default::default()
        };
        (DataLoader::new(&env, &python, config), env)
    }

    #[test]
    fn first_batch_pays_disk_cost() {
        let (dl, _env) = loader(6, 6);
        let first = dl.load_batch();
        let second = dl.load_batch();
        assert!(first > second);
        assert_eq!(first - second, TimeNs::from_ms(10));
    }

    #[test]
    fn oversubscribed_pool_is_slower_than_matched_pool() {
        // The §6.4 fix: 16 workers on 6 cores vs 8 workers on 6 cores.
        let (dl16, _e1) = loader(16, 6);
        let (dl8, _e2) = loader(8, 6);
        dl16.load_batch();
        dl8.load_batch();
        let t16 = dl16.load_batch();
        let t8 = dl8.load_batch();
        assert!(
            t16 > t8,
            "16 workers ({t16}) should be slower than 8 ({t8}) on 6 cores"
        );
    }

    #[test]
    fn workers_accumulate_cpu_time_under_python_context() {
        let (dl, _env) = loader(4, 6);
        dl.load_batch();
        for w in dl.workers {
            assert!(w.cpu_time() > TimeNs::ZERO);
            let py = w.python().walk();
            assert_eq!(py.len(), 1);
            assert_eq!(py[0].function.as_ref(), "data_selection");
        }
    }

    #[test]
    fn clock_advances_by_wall_not_total_cpu() {
        let (dl, env) = loader(6, 6);
        dl.load_batch(); // absorb the one-time disk cost
        let cpu_before: u64 = dl.workers.iter().map(|w| w.cpu_time().as_nanos()).sum();
        let before = env.clock().now();
        let wall = dl.load_batch();
        assert_eq!(env.clock().now() - before, wall);
        // Total CPU across workers exceeds wall (parallelism).
        let cpu_after: u64 = dl.workers.iter().map(|w| w.cpu_time().as_nanos()).sum();
        assert!(cpu_after - cpu_before > wall.as_nanos());
    }

    #[test]
    fn penalty_is_monotonic_in_oversubscription() {
        assert_eq!(oversubscription_penalty(4, 6), 1.0);
        assert_eq!(oversubscription_penalty(6, 6), 1.0);
        let p8 = oversubscription_penalty(8, 6);
        let p16 = oversubscription_penalty(16, 6);
        assert!(p8 > 1.0);
        assert!(p16 > p8);
    }
}
