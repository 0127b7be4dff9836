//! The serving jobs: a closed-loop fleet pass on one `SessionManager`, and
//! dedicated replays of fleet sessions for the kernel-layer trace.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use phylo_bench::serving::FleetSession;
use plf_loadbalance::data::io::{parse_fasta, write_fasta};
use plf_loadbalance::prelude::*;

use crate::cpu::Clock;
use crate::jobs::{self, Outcome, Setup, Traced};

/// One session of a pass as its client saw it.
#[derive(Debug, Clone)]
pub struct Served {
    /// Seconds from the `submit` call to the return of `join`.
    pub latency_s: f64,
    /// The session's outcome, or why it failed or was refused.
    pub outcome: Result<SessionOutcome, String>,
}

/// A closed-loop pass over a fleet.
#[derive(Debug)]
pub struct Pass {
    /// From the first submit to the last join.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Total time spent inside `SessionManager::submit`.
    pub submit_s: f64,
    /// One entry per fleet session, in fleet order.
    pub sessions: Vec<Served>,
    /// The pool's aggregates after the pass drained.
    pub stats: Result<PoolStats, String>,
}

/// Serves every session of `fleet` on a fresh pool of `workers` threads
/// from `clients` client threads. Each client submits its next session under
/// a shared lock, then joins it outside the lock, so at most `clients`
/// sessions are in flight. Pool start-up and shutdown are not timed.
pub fn closed_loop(
    fleet: &[FleetSession],
    workers: usize,
    clients: usize,
    optimizer: OptimizerConfig,
) -> Pass {
    struct Queue {
        pool: SessionManager,
        next: usize,
        submit_s: f64,
    }
    let queue = Mutex::new(Queue {
        pool: SessionManager::new(workers),
        next: 0,
        submit_s: 0.0,
    });
    let served: Mutex<Vec<Option<Served>>> = Mutex::new(vec![None; fleet.len()]);
    let clock = Clock::start();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let (index, submitted, handle) = {
                    let mut queue = queue.lock().expect("a client panicked holding the queue");
                    let index = queue.next;
                    let Some(session) = fleet.get(index) else {
                        return;
                    };
                    queue.next += 1;
                    let spec = SessionSpec::new(
                        Arc::clone(&session.dataset.patterns),
                        session.dataset.tree.clone(),
                    )
                    .label(session.label.clone())
                    .optimizer(optimizer);
                    let submitted = Instant::now();
                    let handle = queue.pool.submit(spec);
                    queue.submit_s += submitted.elapsed().as_secs_f64();
                    (index, submitted, handle)
                };
                let outcome = handle
                    .and_then(|handle| handle.join())
                    .map_err(|e| e.to_string());
                let latency_s = submitted.elapsed().as_secs_f64();
                served
                    .lock()
                    .expect("a client panicked holding the results")[index] =
                    Some(Served { latency_s, outcome });
            });
        }
    });
    let (wall_s, cpu_s) = (clock.wall_s(), clock.cpu_s());
    let queue = queue.into_inner().expect("clients joined");
    let stats = queue.pool.stats().map_err(|e| e.to_string());
    queue.pool.shutdown();
    let sessions = served
        .into_inner()
        .expect("clients joined")
        .into_iter()
        .map(|s| {
            s.unwrap_or(Served {
                latency_s: 0.0,
                outcome: Err("never served".into()),
            })
        })
        .collect();
    Pass {
        wall_s,
        cpu_s,
        submit_s: queue.submit_s,
        sessions,
        stats,
    }
}

/// The fleet as text files, for the set-up measurement.
pub struct FleetText {
    files: Vec<(String, String)>,
}

impl FleetText {
    /// Writes every session's alignment as FASTA plus its partition file.
    pub fn new(fleet: &[FleetSession]) -> Self {
        let files = fleet
            .iter()
            .map(|s| {
                (
                    write_fasta(&s.dataset.alignment, 60),
                    s.dataset.partition_set.to_file_string(),
                )
            })
            .collect();
        FleetText { files }
    }
}

/// Measures the process CPU seconds of one serving set-up: starting the
/// pool (`build_s`) and compiling every session's text files to patterns
/// (`compile_s`).
///
/// # Errors
///
/// A message when a session's files do not parse or compile to the fleet's
/// patterns.
pub fn setup(fleet: &[FleetSession], text: &FleetText, workers: usize) -> Result<Setup, String> {
    let clock = Clock::start();
    let pool = SessionManager::new(workers);
    let build_s = clock.cpu_s();
    let clock = Clock::start();
    let mut compiled = Vec::with_capacity(text.files.len());
    for (fasta, partition_file) in &text.files {
        let alignment = parse_fasta(fasta).map_err(|e| format!("parse_fasta: {e}"))?;
        let partitions =
            PartitionSet::parse(partition_file).map_err(|e| format!("partition file: {e}"))?;
        let patterns = PartitionedPatterns::compile(&alignment, &partitions)
            .map_err(|e| format!("compile: {e}"))?;
        compiled.push(patterns);
    }
    let compile_s = clock.cpu_s();
    pool.shutdown();
    for (session, patterns) in fleet.iter().zip(&compiled) {
        if *patterns != *session.dataset.patterns {
            return Err(format!("{}: compiled patterns differ", session.label));
        }
    }
    Ok(Setup { compile_s, build_s })
}

/// Runs one fleet session on a dedicated executor of `workers` threads,
/// built the way the pool builds a session (and the way
/// `phylo_bench::serving::run_solo` replicates it): default models, the
/// tabled cost model and `WeightedLpt`. Untraced; returns the optimize wall
/// and the final lnL.
///
/// # Errors
///
/// A message when the build or the optimize fails.
pub fn replay(
    session: &FleetSession,
    workers: usize,
    config: &OptimizerConfig,
) -> Result<Outcome, String> {
    let patterns = &session.dataset.patterns;
    let models = ModelSet::default_for(patterns, BranchLengthMode::PerPartition);
    let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
    let assignment = WeightedLpt
        .assign(
            &PatternCosts::analytic_tabled(patterns, &categories),
            workers,
        )
        .map_err(|e| e.to_string())?;
    let executor = ThreadedExecutor::from_assignment(
        patterns,
        &assignment,
        session.dataset.tree.node_capacity(),
        &categories,
    )
    .map_err(|e| e.to_string())?;
    let mut kernel = LikelihoodKernel::try_new(
        Arc::clone(patterns),
        session.dataset.tree.clone(),
        models,
        executor,
    )
    .map_err(|e| e.to_string())?;
    let clock = Clock::start();
    let (report, recoveries) =
        optimize_model_parameters_resilient(&mut kernel, config).map_err(|e| e.to_string())?;
    Ok(Outcome::from_optimize(&clock, &report, recoveries.len()))
}

/// [`replay`] on the timed executor behind [`crate::shim::TimedExecutor`].
///
/// # Errors
///
/// A message when the build or the optimize fails or the trace does not
/// add up.
pub fn replay_traced(
    session: &FleetSession,
    workers: usize,
    config: &OptimizerConfig,
) -> Result<Traced, String> {
    let mut kernel = jobs::traced_kernel(
        &session.dataset.patterns,
        &session.dataset.tree,
        workers,
        PatternCosts::analytic_tabled,
    )?;
    let clock = Clock::start();
    let (report, recoveries) =
        optimize_model_parameters_resilient(&mut kernel, config).map_err(|e| e.to_string())?;
    let outcome = Outcome::from_optimize(&clock, &report, recoveries.len());
    jobs::finish_traced(&kernel, outcome)
}
