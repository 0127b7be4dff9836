//! A transparent timing wrapper around an execution backend.
//!
//! [`TimedExecutor`] forwards every call to the executor it wraps and, around
//! each [`Executor::execute`] (one parallel region), records the
//! master-side wall of the region, the per-worker seconds the wrapped timed
//! executor measured for it, and the analytic FLOPs and CLV bytes the
//! command computes. It changes nothing the kernel sees: the results, the
//! synchronisation count and the recovery behaviour are the wrapped
//! executor's own.

use std::sync::Arc;
use std::time::Instant;

use plf_loadbalance::data::PartitionedPatterns;
use plf_loadbalance::kernel::cost::{
    derivative_flops, evaluate_flops, newview_bytes, newview_flops, newview_flops_tabled,
    sumtable_flops,
};
use plf_loadbalance::kernel::{ExecContext, ExecError, Executor, KernelOp, OpOutput, WorkTrace};
use plf_loadbalance::sched::{Assignment, Reassignable, SchedError};
use plf_loadbalance::telemetry::Telemetry;

use crate::budget::{Budget, SplitError};

/// Wraps an executor and times every region it runs.
#[derive(Debug)]
pub struct TimedExecutor<E> {
    inner: E,
    patterns: Arc<PartitionedPatterns>,
    /// Copies of the wrapped executor's timed region records, kept here so a
    /// later `take_trace` or `reassign` on the wrapped executor loses none.
    regions: WorkTrace,
    /// Master-side wall of each region in `regions`.
    region_walls: Vec<f64>,
    flops: f64,
    bytes: f64,
}

impl<E: Executor + Reassignable> TimedExecutor<E> {
    /// Wraps `inner`, which runs commands over `patterns`. The wrapped
    /// executor must record a timed trace (for `ThreadedExecutor`,
    /// `ExecutorOptions { timed: true, .. }`); regions it does not record
    /// are not timed.
    pub fn new(inner: E, patterns: Arc<PartitionedPatterns>) -> Self {
        let workers = inner.worker_count();
        Self {
            inner,
            patterns,
            regions: WorkTrace::new(workers),
            region_walls: Vec::new(),
            flops: 0.0,
            bytes: 0.0,
        }
    }

    /// The budget of a job of wall `wall_s` that ran every region recorded
    /// so far.
    ///
    /// # Errors
    ///
    /// [`SplitError`] if the recorded regions and walls disagree.
    pub fn budget(&self, wall_s: f64) -> Result<Budget, SplitError> {
        Budget::split(wall_s, &self.regions, &self.region_walls)
    }

    /// Analytic FLOPs of every command executed so far.
    pub fn flops(&self) -> f64 {
        self.flops
    }

    /// Analytic CLV bytes (newview traffic) of every command executed so far.
    pub fn bytes(&self) -> f64 {
        self.bytes
    }

    /// Analytic FLOPs and newview bytes of one command over all patterns,
    /// by the same formulas the tracing executor charges per worker.
    fn analytic_cost(&self, op: &KernelOp, ctx: &ExecContext<'_>) -> (f64, f64) {
        let partition = |pi: usize| {
            let part = &self.patterns.partitions[pi];
            (
                part.pattern_count() as f64,
                part.states(),
                ctx.models.model(pi).categories(),
            )
        };
        let masked = |mask: &[bool], per_pattern: fn(usize, usize) -> f64| -> f64 {
            (0..mask.len())
                .filter(|&pi| mask[pi])
                .map(|pi| {
                    let (n, states, cats) = partition(pi);
                    n * per_pattern(states, cats)
                })
                .sum()
        };
        match op {
            KernelOp::Newview { plans, tables } => {
                let mut flops = 0.0;
                let mut bytes = 0.0;
                for (pi, plan) in plans.iter().enumerate() {
                    let Some(plan) = plan else { continue };
                    let (n, states, cats) = partition(pi);
                    let updates = n * plan.len() as f64;
                    let per_pattern = if tables.is_some() {
                        newview_flops_tabled(states, cats)
                    } else {
                        newview_flops(states, cats)
                    };
                    flops += updates * per_pattern;
                    bytes += updates * newview_bytes(states, cats);
                }
                (flops, bytes)
            }
            KernelOp::Evaluate { mask, .. } => (masked(mask, evaluate_flops), 0.0),
            KernelOp::Sumtable { mask, .. } => (masked(mask, sumtable_flops), 0.0),
            KernelOp::Derivatives { lengths } => {
                let mask: Vec<bool> = lengths.iter().map(Option::is_some).collect();
                (masked(&mask, derivative_flops), 0.0)
            }
        }
    }
}

impl<E: Executor + Reassignable> Executor for TimedExecutor<E> {
    fn worker_count(&self) -> usize {
        self.inner.worker_count()
    }

    fn execute(&mut self, op: &KernelOp, ctx: &ExecContext<'_>) -> Result<OpOutput, ExecError> {
        let recorded = self.inner.live_trace().regions.len();
        let start = Instant::now();
        let output = self.inner.execute(op, ctx);
        let wall = start.elapsed().as_secs_f64();
        let trace = self.inner.live_trace();
        if output.is_ok() && trace.regions.len() == recorded + 1 {
            let record = trace.regions[recorded].clone();
            self.regions.regions.push(record);
            self.region_walls.push(wall);
            let (flops, bytes) = self.analytic_cost(op, ctx);
            self.flops += flops;
            self.bytes += bytes;
        }
        output
    }

    fn sync_events(&self) -> u64 {
        self.inner.sync_events()
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.inner.attach_telemetry(telemetry);
    }
}

impl<E: Executor + Reassignable> Reassignable for TimedExecutor<E> {
    fn assignment(&self) -> &Assignment {
        self.inner.assignment()
    }

    fn live_trace(&self) -> &WorkTrace {
        self.inner.live_trace()
    }

    fn take_trace(&mut self) -> WorkTrace {
        self.inner.take_trace()
    }

    fn reassign(
        &mut self,
        patterns: &PartitionedPatterns,
        assignment: &Assignment,
        node_capacity: usize,
        categories: &[usize],
    ) -> Result<(), SchedError> {
        self.inner
            .reassign(patterns, assignment, node_capacity, categories)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plf_loadbalance::prelude::*;

    /// The same optimize with and without the shim around an identically
    /// configured timed executor.
    fn optimize(wrapped: bool, scheme: ParallelScheme) -> (u64, u64, usize) {
        let ds = mixed_dna_protein(6, 3, 2, 48, 17).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let costs = PatternCosts::analytic_blocked(&ds.patterns, &categories);
        let assignment = WeightedLpt.assign(&costs, 2).unwrap();
        let executor = ThreadedExecutor::with_options(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &categories,
            ExecutorOptions {
                timed: true,
                skew: None,
            },
        )
        .unwrap();
        let config = OptimizerConfig::new(scheme);
        if wrapped {
            let shim = TimedExecutor::new(executor, Arc::clone(&ds.patterns));
            let mut kernel =
                LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models, shim)
                    .unwrap();
            let (report, _) = optimize_model_parameters_resilient(&mut kernel, &config).unwrap();
            let regions = kernel.executor().region_walls.len();
            assert_eq!(regions as u64, kernel.sync_events());
            (
                report.final_log_likelihood.to_bits(),
                kernel.sync_events(),
                regions,
            )
        } else {
            let mut kernel = LikelihoodKernel::try_new(
                Arc::clone(&ds.patterns),
                ds.tree.clone(),
                models,
                executor,
            )
            .unwrap();
            let (report, _) = optimize_model_parameters_resilient(&mut kernel, &config).unwrap();
            (
                report.final_log_likelihood.to_bits(),
                kernel.sync_events(),
                0,
            )
        }
    }

    #[test]
    fn the_shim_is_transparent() {
        for scheme in [ParallelScheme::New, ParallelScheme::Old] {
            let (bits, syncs, regions) = optimize(true, scheme);
            let (plain_bits, plain_syncs, _) = optimize(false, scheme);
            assert_eq!(bits, plain_bits, "{scheme}: final lnL bits differ");
            assert_eq!(syncs, plain_syncs, "{scheme}: sync events differ");
            assert_eq!(regions as u64, syncs, "{scheme}: every region timed");
        }
    }

    #[test]
    fn the_shim_budget_closes_and_counts_work() {
        let ds = paper_simulated(8, 160, 40, 11).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let assignment = Cyclic
            .assign(&PatternCosts::analytic(&ds.patterns, &categories), 2)
            .unwrap();
        let executor = ThreadedExecutor::with_options(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &categories,
            ExecutorOptions {
                timed: true,
                skew: None,
            },
        )
        .unwrap();
        let shim = TimedExecutor::new(executor, Arc::clone(&ds.patterns));
        let mut kernel =
            LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models, shim)
                .unwrap();
        let started = Instant::now();
        kernel.try_log_likelihood().unwrap();
        let wall = started.elapsed().as_secs_f64();
        let budget = kernel.executor().budget(wall).unwrap();
        assert!(budget.region_count() >= 2, "newview + evaluate");
        assert!(budget.master_s >= 0.0 && budget.dispatch_s >= 0.0);
        assert!(budget.closure_error() < 1e-9);
        assert!(kernel.executor().flops() > 0.0);
        assert!(kernel.executor().bytes() > 0.0);
    }
}
