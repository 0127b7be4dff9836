//! A rayon-based execution backend.
//!
//! Included as an alternative to the hand-rolled master/worker pool: rayon's
//! work-stealing pool executes the same per-worker command function
//! ([`execute_on_worker`]) on the same disjoint slices, so results are
//! identical; only the scheduling machinery differs. The comparison bench uses
//! it to show that the load-balance phenomenon is a property of the *work
//! partitioning per synchronization event*, not of the thread runtime.
//!
//! Since the rayon backend graduated beyond a comparison baseline it carries
//! the same hardening as the threaded one: a panic inside a worker's slice
//! execution is caught (`catch_unwind` inside the parallel closure, so it
//! never unwinds through the pool), surfaced as [`ExecError::WorkerDied`],
//! and poisons the executor until [`RayonExecutor::reassign`] rebuilds the
//! workers — the `Reassignable` capability the recovery drivers rely on.
//! Built with `timed == true`, each worker's region execution is bracketed
//! with [`Instant`] and accumulated into a [`WorkTrace`] together with the
//! region's convergence-mask shape and live pattern counts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use phylo_data::PartitionedPatterns;
use phylo_kernel::cost::{RegionRecord, WorkTrace};
use phylo_kernel::executor::{active_local_patterns, execute_on_worker, reduce_outputs};
use phylo_kernel::{ExecContext, ExecError, Executor, KernelOp, OpError, OpOutput, WorkerSlices};
use phylo_sched::{Assignment, SchedError};
use rayon::prelude::*;

/// Executes commands by fanning the per-worker slices out onto a dedicated
/// rayon thread pool.
pub struct RayonExecutor {
    workers: Vec<WorkerSlices>,
    pool: rayon::ThreadPool,
    assignment: Assignment,
    timed: bool,
    trace: WorkTrace,
    sync_events: u64,
    poisoned: Option<usize>,
    /// One-shot armed fault injection: `(worker, fire_at_sync_event)`.
    injected_panic: Option<(usize, u64)>,
    telemetry: phylo_telemetry::Telemetry,
}

impl std::fmt::Debug for RayonExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RayonExecutor")
            .field("worker_count", &self.workers.len())
            .field("sync_events", &self.sync_events)
            .field("timed", &self.timed)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl RayonExecutor {
    /// Builds a rayon executor for `assignment`, on a dedicated pool with one
    /// thread per worker.
    ///
    /// # Errors
    ///
    /// [`SchedError::PatternCountMismatch`] if the assignment was built for a
    /// different dataset.
    pub fn from_assignment(
        patterns: &PartitionedPatterns,
        assignment: &Assignment,
        node_capacity: usize,
        categories: &[usize],
    ) -> Result<Self, SchedError> {
        Self::with_options(patterns, assignment, node_capacity, categories, false)
    }

    /// Builds the executor with an explicit measurement switch: `timed`
    /// accumulates per-region wall-clock measurements (and the region's
    /// convergence-mask shape) into a [`WorkTrace`], the same contract as
    /// `ThreadedExecutor` under `ExecutorOptions { timed: true, .. }`.
    ///
    /// # Errors
    ///
    /// [`SchedError::PatternCountMismatch`] if the assignment was built for a
    /// different dataset.
    pub fn with_options(
        patterns: &PartitionedPatterns,
        assignment: &Assignment,
        node_capacity: usize,
        categories: &[usize],
        timed: bool,
    ) -> Result<Self, SchedError> {
        let workers = crate::build_workers(patterns, node_capacity, categories, assignment)?;
        let worker_count = workers.len();
        Ok(Self {
            pool: Self::build_pool(worker_count),
            workers,
            assignment: assignment.clone(),
            timed,
            trace: WorkTrace::new(worker_count),
            sync_events: 0,
            poisoned: None,
            injected_panic: None,
            telemetry: phylo_telemetry::Telemetry::disabled(),
        })
    }

    fn build_pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .thread_name(|i| format!("plk-rayon-{i}"))
            .build()
            .expect("failed to build rayon pool")
    }

    /// The assignment the current workers were built from.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The wall-clock trace accumulated so far (empty unless built timed).
    pub fn trace(&self) -> &WorkTrace {
        &self.trace
    }

    /// Takes the accumulated trace, leaving an empty one behind.
    pub fn take_trace(&mut self) -> WorkTrace {
        std::mem::replace(&mut self.trace, WorkTrace::new(self.workers.len()))
    }

    /// The worker whose death poisoned the executor, if any.
    pub fn poisoned_by(&self) -> Option<usize> {
        self.poisoned
    }

    /// Arms a one-shot injected panic: `worker` will panic while executing
    /// the command issued `after_regions` synchronization events from now
    /// (0 = the very next command). Test instrumentation for the
    /// worker-death recovery path — the panic travels through the same
    /// catch/poison machinery as a real fault in a worker's slice execution.
    pub fn inject_worker_panic(&mut self, worker: usize, after_regions: u64) {
        self.injected_panic = Some((worker, self.sync_events + 1 + after_regions));
    }

    /// Migrates pattern→worker ownership to a new assignment: the worker
    /// slices (and the pool, if the worker count changes) are rebuilt, the
    /// trace epoch restarts, and any poisoned state is cleared. The new
    /// workers own *empty* CLV buffers, so the caller must invalidate the
    /// master-side CLV validity cache (`LikelihoodKernel::invalidate_all`).
    ///
    /// # Errors
    ///
    /// [`SchedError::PatternCountMismatch`] if the assignment was built for
    /// a different dataset; the executor is left untouched in that case.
    pub fn reassign(
        &mut self,
        patterns: &PartitionedPatterns,
        assignment: &Assignment,
        node_capacity: usize,
        categories: &[usize],
    ) -> Result<(), SchedError> {
        let workers = crate::build_workers(patterns, node_capacity, categories, assignment)?;
        if workers.len() != self.workers.len() {
            self.pool = Self::build_pool(workers.len());
        }
        self.trace = WorkTrace::new(workers.len());
        self.workers = workers;
        self.assignment = assignment.clone();
        self.poisoned = None;
        self.injected_panic = None;
        Ok(())
    }
}

impl Executor for RayonExecutor {
    fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Executes one command, surfacing worker panics as values.
    ///
    /// # Errors
    ///
    /// [`ExecError::WorkerDied`] when a worker's slice execution panics
    /// during this command; the executor is poisoned afterwards.
    /// [`ExecError::Poisoned`] for every command issued to a poisoned
    /// executor; [`RayonExecutor::reassign`] clears the state by rebuilding
    /// the workers.
    fn execute(&mut self, op: &KernelOp, ctx: &ExecContext<'_>) -> Result<OpOutput, ExecError> {
        if let Some(worker) = self.poisoned {
            return Err(ExecError::Poisoned { worker });
        }
        self.sync_events += 1;
        let panic_worker = match self.injected_panic {
            Some((worker, at)) if self.sync_events >= at => {
                self.injected_panic = None;
                Some(worker)
            }
            _ => None,
        };
        // Telemetry shares the per-worker duration plumbing with the timed
        // trace: an enabled recorder forces the clock reads even untimed.
        let token = self.telemetry.enabled().then(|| {
            self.telemetry
                .region_start(op.kind().label(), &op.active_partitions())
        });
        let workers = &mut self.workers;
        let timed = self.timed || token.is_some();
        type WorkerOutput = Result<(OpOutput, Duration, usize), OpError>;
        type WorkerResult = Result<WorkerOutput, usize>;
        let results: Vec<WorkerResult> = self.pool.install(|| {
            workers
                .par_iter_mut()
                .map(|w| {
                    let index = w.worker;
                    // The catch keeps the panic from unwinding through the
                    // pool (which would kill the master); the worker index
                    // is the error payload. A typed kernel rejection travels
                    // inside the Ok arm — the worker stays healthy.
                    catch_unwind(AssertUnwindSafe(|| -> WorkerOutput {
                        if panic_worker == Some(index) {
                            // lint:allow(L001): fault-injection hook, armed only by recovery tests
                            panic!("injected worker panic (test instrumentation)");
                        }
                        if !timed {
                            // The untimed hot path skips the clock reads and
                            // the live-pattern count — nothing would keep
                            // them.
                            return Ok((execute_on_worker(w, op, ctx)?, Duration::ZERO, 0));
                        }
                        // lint:allow(L008): per-worker timing for the measured trace that
                        // drives rebalancing; never feeds the reduction order.
                        let start = Instant::now();
                        let out = execute_on_worker(w, op, ctx)?;
                        let active = active_local_patterns(w, op);
                        Ok((out, start.elapsed(), active))
                    }))
                    .map_err(|_| index)
                })
                .collect()
        });

        let mut record = self
            .timed
            .then(|| RegionRecord::new(op.kind(), results.len()));
        if let Some(record) = record.as_mut() {
            record.active_partitions = op.active_partitions();
        }
        let mut reduced: Option<OpOutput> = None;
        let mut worker_seconds = vec![0.0; self.workers.len()];
        // The parallel region is already fully joined here, so a typed
        // kernel rejection can surface immediately — unlike a panic it does
        // not poison the executor (the workers are healthy).
        let mut rejected: Option<OpError> = None;
        for (worker, result) in results.into_iter().enumerate() {
            match result {
                Ok(Ok((out, duration, active))) => {
                    worker_seconds[worker] = duration.as_secs_f64();
                    if let Some(record) = record.as_mut() {
                        record.seconds_per_worker[worker] = duration.as_secs_f64();
                        record.active_patterns_per_worker[worker] = active as f64;
                    }
                    // A reduce mismatch surfaces like any other typed op
                    // rejection: finish folding the joined results, then
                    // report it without poisoning the pool.
                    reduced = match reduced.take() {
                        None => Some(out),
                        Some(acc) => match reduce_outputs(acc, out) {
                            Ok(merged) => Some(merged),
                            Err(e) => {
                                rejected.get_or_insert(e);
                                None
                            }
                        },
                    };
                }
                Ok(Err(op_error)) => {
                    rejected.get_or_insert(op_error);
                }
                Err(worker) => {
                    self.poisoned = Some(worker);
                    self.telemetry
                        .worker_death(worker, token.as_ref().and_then(|t| t.region()));
                    return Err(ExecError::WorkerDied { worker });
                }
            }
        }
        // The region is joined and no worker died, so it completed (a typed
        // rejection still closes the bracket). Work-stealing has no per-worker
        // command queue, so the queue-wait lanes are zero.
        if let Some(token) = token {
            let samples: Vec<_> = self
                .workers
                .iter()
                .zip(&worker_seconds)
                .map(|(w, &seconds)| w.take_sample(seconds, 0.0))
                .collect();
            self.telemetry.region_end(token, &samples);
        }
        if let Some(op_error) = rejected {
            return Err(ExecError::Op(op_error));
        }
        if let Some(record) = record {
            self.trace.regions.push(record);
        }
        Ok(reduced.unwrap_or(OpOutput::None))
    }

    fn sync_events(&self) -> u64 {
        self.sync_events
    }

    fn attach_telemetry(&mut self, telemetry: &phylo_telemetry::Telemetry) {
        self.telemetry = telemetry.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule;
    use phylo_kernel::{BranchLengths, LikelihoodKernel, SequentialKernel};
    use phylo_models::{BranchLengthMode, ModelSet};
    use phylo_sched::{Block, Cyclic};
    use phylo_seqgen::datasets::paper_simulated;
    use std::sync::Arc;

    #[test]
    fn rayon_likelihood_matches_sequential() {
        let ds = paper_simulated(9, 200, 50, 31).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let mut seq =
            SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models.clone())
                .unwrap();
        let reference = seq.try_log_likelihood().unwrap();

        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let assignment = schedule(&ds.patterns, &cats, 4, &Cyclic).unwrap();
        let exec = RayonExecutor::from_assignment(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &cats,
        )
        .unwrap();
        let mut k =
            LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models, exec)
                .unwrap();
        let lnl = k.try_log_likelihood().unwrap();
        assert!((lnl - reference).abs() < 1e-8, "{lnl} vs {reference}");
    }

    #[test]
    fn rayon_block_strategy_also_matches() {
        let ds = paper_simulated(7, 120, 30, 37).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::Joint);
        let mut seq =
            SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models.clone())
                .unwrap();
        let reference = seq.try_log_likelihood().unwrap();

        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let assignment = schedule(&ds.patterns, &cats, 3, &Block).unwrap();
        let exec = RayonExecutor::from_assignment(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &cats,
        )
        .unwrap();
        let mut k =
            LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models, exec)
                .unwrap();
        let lnl = k.try_log_likelihood().unwrap();
        assert!((lnl - reference).abs() < 1e-8);
    }

    #[test]
    fn timed_rayon_executor_records_masks_and_live_counts() {
        let ds = paper_simulated(8, 160, 40, 41).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let assignment = schedule(&ds.patterns, &cats, 3, &Cyclic).unwrap();
        let exec = RayonExecutor::with_options(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &cats,
            true,
        )
        .unwrap();
        let mut k =
            LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models, exec)
                .unwrap();
        // A single-partition evaluation: the recorded masks must show the
        // partial convergence mask and zero live patterns on full idle.
        let mask = k.single_mask(0);
        let root = k.default_root_branch();
        let _ = k.try_log_likelihood_partitions(root, &mask).unwrap();
        let trace = k.executor_mut().take_trace();
        assert!(trace.sync_events() > 0);
        assert!(trace.has_seconds());
        assert!(trace.masked_region_count() > 0, "partial masks recorded");
        assert!(trace
            .live_patterns_per_worker_total()
            .iter()
            .any(|&c| c > 0.0));
    }

    #[test]
    fn injected_panic_poisons_and_reassign_recovers() {
        let ds = paper_simulated(6, 64, 16, 43).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::Joint);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let assignment = schedule(&ds.patterns, &cats, 3, &Cyclic).unwrap();
        let mut exec = RayonExecutor::from_assignment(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &cats,
        )
        .unwrap();
        let bl = BranchLengths::from_tree(
            &ds.tree,
            ds.patterns.partition_count(),
            models.branch_mode(),
        );
        let ctx = ExecContext {
            tree: &ds.tree,
            models: &models,
            branch_lengths: &bl,
        };
        let op = KernelOp::Newview {
            plans: vec![None; ds.patterns.partition_count()],
            tables: None,
        };
        exec.inject_worker_panic(1, 1);
        assert!(exec.execute(&op, &ctx).is_ok());
        let err = exec.execute(&op, &ctx).unwrap_err();
        assert_eq!(err, ExecError::WorkerDied { worker: 1 });
        assert_eq!(exec.poisoned_by(), Some(1));
        // Poisoned: every further command fails fast.
        assert_eq!(
            exec.execute(&op, &ctx).unwrap_err(),
            ExecError::Poisoned { worker: 1 }
        );
        exec.reassign(&ds.patterns, &assignment, ds.tree.node_capacity(), &cats)
            .unwrap();
        assert_eq!(exec.poisoned_by(), None);
        assert!(exec.execute(&op, &ctx).is_ok());
    }
}
