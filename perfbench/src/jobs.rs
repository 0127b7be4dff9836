//! The single-analysis jobs: one optimize or one SPR search on one dataset.
//!
//! An untraced job goes through the public [`Analysis`] API exactly as a
//! user would run it. A traced job builds the same session by hand —
//! the same default models, cost model, `WeightedLpt` schedule, shared
//! tables and kernel dispatch as [`AnalysisBuilder::build`] — with the
//! timed `ThreadedExecutor` wrapped in [`TimedExecutor`], and calls the same
//! optimize and search functions `Analysis` calls. The two must end on the
//! same lnL bits; the workloads check that.

use std::sync::Arc;

use plf_loadbalance::data::io::{parse_fasta, write_fasta};
use plf_loadbalance::kernel::KernelStats;
use plf_loadbalance::optimize::OptimizationReport;
use plf_loadbalance::prelude::*;
use plf_loadbalance::seqgen::GeneratedDataset;

use crate::budget::Budget;
use crate::cpu::Clock;
use crate::shim::TimedExecutor;

/// The optimizer or search configuration one job runs.
#[derive(Debug, Clone, Copy)]
pub enum Job {
    /// `Analysis::optimize` with this configuration.
    Optimize(OptimizerConfig),
    /// `Analysis::run_search` with this configuration.
    Search(SearchConfig),
}

impl Job {
    /// The same job under another parallelization scheme.
    pub fn with_scheme(self, scheme: ParallelScheme) -> Job {
        match self {
            Job::Optimize(config) => Job::Optimize(OptimizerConfig { scheme, ..config }),
            Job::Search(config) => Job::Search(SearchConfig {
                search_optimizer: OptimizerConfig {
                    scheme,
                    ..config.search_optimizer
                },
                model_optimizer: OptimizerConfig {
                    scheme,
                    ..config.model_optimizer
                },
                ..config
            }),
        }
    }

    /// How far two runs of the job at different thread counts may end
    /// apart: the convergence threshold of the optimizer deciding the final
    /// lnL. A different thread count changes the reduction order, so the
    /// results agree to this tolerance, not bit for bit.
    pub fn likelihood_epsilon(&self) -> f64 {
        match self {
            Job::Optimize(config) => config.likelihood_epsilon,
            Job::Search(config) => config.search_optimizer.likelihood_epsilon,
        }
    }
}

/// The dataset of an analysis workload, kept both compiled and as the text
/// files a user would start from.
pub struct Input {
    /// Compiled patterns of the generated dataset.
    pub patterns: Arc<PartitionedPatterns>,
    /// The starting tree of every job.
    pub tree: Tree,
    /// The alignment as FASTA text.
    pub fasta: String,
    /// The partition scheme as a RAxML partition file.
    pub partition_file: String,
}

impl Input {
    /// Keeps `dataset`'s patterns and text files, starting jobs from `tree`.
    pub fn new(dataset: &GeneratedDataset, tree: Tree) -> Self {
        Input {
            patterns: Arc::clone(&dataset.patterns),
            tree,
            fasta: write_fasta(&dataset.alignment, 60),
            partition_file: dataset.partition_set.to_file_string(),
        }
    }
}

/// Process CPU seconds of one set-up: text files to a ready session.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// `parse_fasta` + partition-file parse + `PartitionedPatterns::compile`.
    pub compile_s: f64,
    /// `Analysis::builder(..).build()`, worker threads included.
    pub build_s: f64,
}

/// Sets up a session from the input's text files at `threads` threads.
///
/// # Errors
///
/// A message when parsing or building fails, or when the compiled patterns
/// differ from the generated ones.
pub fn setup(input: &Input, threads: usize) -> Result<Setup, String> {
    let clock = Clock::start();
    let alignment = parse_fasta(&input.fasta).map_err(|e| format!("parse_fasta: {e}"))?;
    let partitions =
        PartitionSet::parse(&input.partition_file).map_err(|e| format!("partition file: {e}"))?;
    let patterns = PartitionedPatterns::compile(&alignment, &partitions)
        .map_err(|e| format!("compile: {e}"))?;
    let compiled = clock.cpu_s();
    let patterns = Arc::new(patterns);
    let clock = Clock::start();
    let analysis = Analysis::builder(Arc::clone(&patterns), input.tree.clone())
        .threads(threads)
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let built = clock.cpu_s();
    drop(analysis);
    if *patterns != *input.patterns {
        return Err("patterns compiled from the FASTA text differ from the generated ones".into());
    }
    Ok(Setup {
        compile_s: compiled,
        build_s: built,
    })
}

/// What one job produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Wall clock of the optimize or search call.
    pub wall_s: f64,
    /// Process CPU seconds of the optimize or search call.
    pub cpu_s: f64,
    /// lnL before the job.
    pub initial: f64,
    /// lnL after the job.
    pub final_lnl: f64,
    /// Optimizer rounds, or search rounds.
    pub rounds: u64,
    /// Newton–Raphson iterations (optimize only; the search API does not
    /// report them).
    pub newton_iterations: u64,
    /// Brent evaluations (optimize only).
    pub brent_evaluations: u64,
    /// SPR moves evaluated (search only).
    pub moves_evaluated: u64,
    /// SPR moves accepted (search only).
    pub moves_accepted: u64,
    /// Worker deaths recovered from during the job.
    pub recoveries: usize,
}

impl Outcome {
    /// The outcome of an optimize timed by `clock`.
    pub fn from_optimize(clock: &Clock, report: &OptimizationReport, recoveries: usize) -> Self {
        Outcome {
            wall_s: clock.wall_s(),
            cpu_s: clock.cpu_s(),
            initial: report.initial_log_likelihood,
            final_lnl: report.final_log_likelihood,
            rounds: report.rounds as u64,
            newton_iterations: report.branch_stats.newton_iterations,
            brent_evaluations: report.model_stats.brent_evaluations,
            moves_evaluated: 0,
            moves_accepted: 0,
            recoveries,
        }
    }

    fn from_search(clock: &Clock, result: &SearchResult, recoveries: usize) -> Self {
        Outcome {
            wall_s: clock.wall_s(),
            cpu_s: clock.cpu_s(),
            initial: result.initial_log_likelihood,
            final_lnl: result.final_log_likelihood,
            rounds: result.rounds as u64,
            newton_iterations: 0,
            brent_evaluations: 0,
            moves_evaluated: result.evaluated_moves,
            moves_accepted: result.accepted_moves,
            recoveries,
        }
    }

    /// Checks every job and session must pass: a finite lnL and no worker
    /// death.
    pub fn check_finished(&self) -> Result<(), String> {
        if !self.final_lnl.is_finite() {
            return Err(format!("final lnL {}", self.final_lnl));
        }
        if self.recoveries > 0 {
            return Err(format!("{} worker deaths recovered", self.recoveries));
        }
        Ok(())
    }

    /// Whether the job ended below the lnL it started from.
    pub fn regressed(&self) -> bool {
        self.final_lnl < self.initial
    }

    /// [`Outcome::check_finished`], and the lnL must not have got worse.
    pub fn check(&self) -> Result<(), String> {
        self.check_finished()?;
        if self.regressed() {
            return Err(format!(
                "final lnL {} below initial {}",
                self.final_lnl, self.initial
            ));
        }
        Ok(())
    }
}

/// A traced job: its outcome plus the layer measurements.
#[derive(Debug, Clone)]
pub struct Traced {
    /// What the job produced.
    pub outcome: Outcome,
    /// Wall-clock split of the job.
    pub budget: Budget,
    /// Analytic FLOPs of every command.
    pub flops: f64,
    /// Analytic newview CLV bytes of every command.
    pub bytes: f64,
    /// The kernel's own counters.
    pub stats: KernelStats,
}

fn error(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs `job` untraced through the public `Analysis` API at `threads`.
///
/// # Errors
///
/// A message when the session fails or the searched tree is invalid.
pub fn run_untraced(input: &Input, job: Job, threads: usize) -> Result<Outcome, String> {
    let mut analysis = Analysis::builder(Arc::clone(&input.patterns), input.tree.clone())
        .threads(threads)
        .build()
        .map_err(error)?;
    let clock = Clock::start();
    let outcome = match job {
        Job::Optimize(config) => {
            let out = analysis.optimize(&config).map_err(error)?;
            Outcome::from_optimize(&clock, &out.report, out.recoveries.len())
        }
        Job::Search(config) => {
            let out = analysis.run_search(&config).map_err(error)?;
            Outcome::from_search(&clock, &out.result, out.recoveries.len())
        }
    };
    analysis
        .tree()
        .validate()
        .map_err(|e| format!("invalid tree after the job: {e}"))?;
    Ok(outcome)
}

/// Builds a kernel the way `AnalysisBuilder::build` does, on a timed
/// `ThreadedExecutor` wrapped in [`TimedExecutor`], with `costs` choosing
/// the schedule.
///
/// # Errors
///
/// A message when scheduling or the kernel build fails.
pub fn traced_kernel(
    patterns: &Arc<PartitionedPatterns>,
    tree: &Tree,
    threads: usize,
    costs: fn(&PartitionedPatterns, &[usize]) -> PatternCosts,
) -> Result<LikelihoodKernel<TimedExecutor<ThreadedExecutor>>, String> {
    let models = ModelSet::default_for(patterns, BranchLengthMode::PerPartition);
    let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
    let assignment = WeightedLpt
        .assign(&costs(patterns, &categories), threads)
        .map_err(error)?;
    let executor = ThreadedExecutor::with_options(
        patterns,
        &assignment,
        tree.node_capacity(),
        &categories,
        ExecutorOptions {
            timed: true,
            skew: None,
        },
    )
    .map_err(error)?;
    let shim = TimedExecutor::new(executor, Arc::clone(patterns));
    LikelihoodKernel::try_new(Arc::clone(patterns), tree.clone(), models, shim).map_err(error)
}

/// Finishes a traced job: splits its wall and collects the counters.
///
/// # Errors
///
/// A message when the split fails or does not add back up to the wall.
pub fn finish_traced(
    kernel: &LikelihoodKernel<TimedExecutor<ThreadedExecutor>>,
    outcome: Outcome,
) -> Result<Traced, String> {
    let shim = kernel.executor();
    let budget = shim.budget(outcome.wall_s).map_err(error)?;
    if budget.master_s < 0.0 || budget.dispatch_s < 0.0 || budget.closure_error() > 1e-9 {
        return Err(format!(
            "traced layers do not add up to the wall: {budget:?}"
        ));
    }
    Ok(Traced {
        outcome,
        budget,
        flops: shim.flops(),
        bytes: shim.bytes(),
        stats: kernel.stats(),
    })
}

/// Runs `job` traced at `threads` (see the module docs).
///
/// # Errors
///
/// A message when the session fails, the tree is invalid or the trace does
/// not add up.
pub fn run_traced(input: &Input, job: Job, threads: usize) -> Result<Traced, String> {
    // `AnalysisBuilder`'s default engine runs shared tables with the blocked
    // dispatch, and schedules against the matching cost model.
    let mut kernel = traced_kernel(
        &input.patterns,
        &input.tree,
        threads,
        PatternCosts::analytic_blocked,
    )?;
    let clock = Clock::start();
    let outcome = match job {
        Job::Optimize(config) => {
            let (report, recoveries) =
                optimize_model_parameters_resilient(&mut kernel, &config).map_err(error)?;
            Outcome::from_optimize(&clock, &report, recoveries.len())
        }
        Job::Search(config) => {
            let (result, recoveries) =
                tree_search_resilient(&mut kernel, &config).map_err(error)?;
            Outcome::from_search(&clock, &result, recoveries.len())
        }
    };
    kernel
        .tree()
        .validate()
        .map_err(|e| format!("invalid tree after the job: {e}"))?;
    finish_traced(&kernel, outcome)
}
