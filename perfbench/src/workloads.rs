//! The three workloads and the metrics each reports.
//!
//! Every workload runs one kind of job repeatedly for the run's seconds and
//! reports medians. Untraced runs (`--trace 0`) interleave three variants
//! of the job so that a burst of host noise lands on all of them alike:
//! newPAR at `cores` threads (`cpu_s`), newPAR at one thread (`cpu_1t_s`)
//! and oldPAR at `cores` threads, each measured in process CPU seconds
//! (see [`crate::cpu`]) and wall seconds; the oldPAR figures and the wall
//! seconds go to the run metadata. Traced runs (`--trace 1`) interleave an untraced job with
//! the same job traced under newPAR and oldPAR, and report the layers of
//! the median traced job.

use std::sync::Arc;
use std::time::Instant;

use phylo_bench::serving::{mixed_serving_fleet, run_solo, FleetSession};
use plf_loadbalance::prelude::*;
use plf_loadbalance::seqgen::{simulate_alignment, GeneratedDataset, SimulationConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::budget::KINDS;
use crate::host::Host;
use crate::jobs::{self, Input, Job, Outcome, Setup, Traced};
use crate::report::Report;
use crate::serve::{self, FleetText, Pass};
use crate::stats::{median, median_index, tail_percentile};

/// Set-ups measured in each cycle; `setup_s` is the median of all of a
/// run's. Spreading them over the run exposes them to the same host load
/// as the jobs.
const SETUPS_PER_CYCLE: usize = 6;
/// Datasets an analysis run generates. Untraced cycles take them in turn
/// and report the mean over the datasets of each one's median, so a run's
/// figures do not hinge on how one dataset converges; traced runs use the
/// first.
const DATASETS: usize = 4;
/// Seed of the generating tree, the partition models and the starting tree
/// that all datasets of an analysis workload share; `--seed` draws their
/// characters (see [`resimulate`]).
const TEMPLATE_SEED: u64 = 2009;
/// Cycles a run makes even when they take longer than its seconds (and at
/// least one per dataset in untraced analysis runs).
const MIN_CYCLES: usize = 3;
/// Sessions of one closed-loop pass in an untraced serving run.
const FLEET_PASS: usize = 8;
/// Sessions of the traced serving pass (enough for ten beyond its p90),
/// and of the fleet compiled by the serving set-up.
const FLEET_SIZE: usize = 100;
/// Fleet sessions replayed on a dedicated traced executor per cycle.
const REPLAY_SESSIONS: usize = 8;
/// Pool sessions per run checked bit for bit against `run_solo`.
const SOLO_CHECKS: usize = 3;
/// SPR radius of the search sweep.
const SPR_RADIUS: usize = 1;
/// Branch length of every branch of the search's starting tree.
const START_BRANCH_LENGTH: f64 = 0.1;

/// The options of one run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measured cycles run.
    pub seconds: f64,
    /// Per-layer (traced) metrics instead of end-to-end ones.
    pub trace: bool,
    /// The host, whose core count sets every parallel job's threads.
    pub host: Host,
}

/// The workloads by name.
pub const WORKLOADS: [&str; 3] = ["optimize_mixed", "spr_search_dna", "serve_fleet"];

/// Runs the workload `name` (one of [`WORKLOADS`]) into `report`.
pub fn run(name: &str, run: &Run, report: &mut Report) {
    match name {
        "optimize_mixed" => {
            // The paper's mixed DNA/protein experiment, pinned: 16
            // partitions of 600 columns, the last 4 protein.
            let template = mixed_dna_protein(12, 12, 4, 600, TEMPLATE_SEED).generate();
            let inputs = datasets(run.seed, |seed| {
                Input::new(&resimulate(&template, seed), template.tree.clone())
            });
            // One optimizer round (model parameters, then every branch)
            // keeps a job near a second, so a run takes many samples.
            let job = Job::Optimize(OptimizerConfig {
                max_rounds: 1,
                ..OptimizerConfig::new(ParallelScheme::New)
            });
            analysis_workload(run, &inputs, job, report);
        }
        "spr_search_dna" => {
            let template = paper_simulated(16, 2000, 200, TEMPLATE_SEED).generate();
            let start = fixed_shape_tree(&template.patterns.taxa, TEMPLATE_SEED);
            let inputs = datasets(run.seed, |seed| {
                Input::new(&resimulate(&template, seed), start.clone())
            });
            // One sweep that applies, locally optimizes and undoes every
            // radius-1 SPR candidate (104 of them) of one starting tree: no
            // move is accepted, so every dataset evaluates the same
            // candidates. The model optimization the optimize workload
            // covers is left out.
            let job = Job::Search(SearchConfig {
                spr_radius: SPR_RADIUS,
                max_rounds: 1,
                acceptance_epsilon: f64::INFINITY,
                optimize_model_between_rounds: false,
                ..SearchConfig::new(ParallelScheme::New)
            });
            analysis_workload(run, &inputs, job, report);
        }
        "serve_fleet" => serve_workload(run, report),
        _ => report.attempt(Err(format!("unknown workload {name}"))),
    }
}

/// The [`DATASETS`] inputs of a run, generated from disjoint sub-seeds of
/// `seed`.
fn datasets(seed: u64, generate: impl Fn(u64) -> Input) -> Vec<Input> {
    let first = seed.wrapping_mul(DATASETS as u64);
    (0..DATASETS as u64)
        .map(|k| generate(first.wrapping_add(k)))
        .collect()
}

/// `template`'s dataset with its characters simulated afresh from `seed`
/// along the same generating tree, under partition models drawn once from
/// the template's seed.
///
/// How many Newton and Brent iterations a job takes depends on the
/// generating tree and the models: with a fresh tree and models per seed,
/// the same SPR sweep took from 0.55 to 1.07 CPU seconds on the reference
/// host. Fixing them leaves each seed its own inputs and about the same
/// work.
fn resimulate(template: &GeneratedDataset, seed: u64) -> GeneratedDataset {
    let mut models = ChaCha8Rng::seed_from_u64(template.spec.seed);
    let mut characters = ChaCha8Rng::seed_from_u64(seed);
    let taxa = &template.patterns.taxa;
    let mut rows: Vec<(String, String)> = taxa.iter().map(|t| (t.clone(), String::new())).collect();
    for (pi, &columns) in template.spec.partition_columns.iter().enumerate() {
        let alpha = models.gen_range(0.3..1.6);
        let substitution = match template.spec.partition_data_type(pi) {
            DataType::Dna => {
                let rates = [
                    models.gen_range(0.5..2.0),
                    models.gen_range(1.5..4.0),
                    models.gen_range(0.5..2.0),
                    models.gen_range(0.5..2.0),
                    models.gen_range(1.5..4.0),
                    1.0,
                ];
                let mut freqs: [f64; 4] = std::array::from_fn(|_| models.gen_range(0.15..0.35));
                let sum: f64 = freqs.iter().sum();
                freqs.iter_mut().for_each(|f| *f /= sum);
                SubstitutionModel::gtr(rates, freqs)
            }
            DataType::Protein => SubstitutionModel::synthetic_empirical_protein(),
        };
        let model = PartitionModel::new(substitution, alpha, 4);
        let config = SimulationConfig {
            columns,
            missing_taxa_fraction: 0.0,
            enforce_unique_columns: true,
        };
        let part = simulate_alignment(&template.tree, &model, &config, &mut characters);
        for (taxon, row) in rows.iter_mut().enumerate() {
            row.1.push_str(&String::from_utf8_lossy(part.row(taxon)));
        }
    }
    let alignment = Alignment::new(rows).expect("simulated rows are rectangular");
    let patterns = PartitionedPatterns::compile(&alignment, &template.partition_set)
        .expect("the template's partitions cover the alignment");
    GeneratedDataset {
        spec: DatasetSpec {
            seed,
            ..template.spec.clone()
        },
        tree: template.tree.clone(),
        alignment,
        partition_set: template.partition_set.clone(),
        patterns: Arc::new(patterns),
    }
}

/// A starting tree of a fixed shape, so every sweep evaluates the same
/// number of SPR candidates; the seed only permutes which taxon sits at
/// which leaf.
fn fixed_shape_tree(taxa: &[String], seed: u64) -> Tree {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..taxa.len()).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut tree = Tree::initial_triplet(taxa.to_vec(), [order[0], order[1], order[2]]);
    for (k, &leaf) in order[3..].iter().enumerate() {
        let branch = (2 * k + 1) % tree.branch_count();
        tree.insert_leaf(leaf, branch, START_BRANCH_LENGTH);
    }
    for branch in 0..tree.branch_count() {
        tree.set_branch_length(branch, START_BRANCH_LENGTH);
    }
    tree
}

/// Repeats `cycle` until starting another would overrun `seconds`, at
/// least `min_cycles` times.
fn repeat_for(seconds: f64, min_cycles: usize, mut cycle: impl FnMut()) {
    let started = Instant::now();
    let mut longest: f64 = 0.0;
    let mut cycles = 0;
    loop {
        let cycle_started = Instant::now();
        cycle();
        cycles += 1;
        longest = longest.max(cycle_started.elapsed().as_secs_f64());
        if cycles >= min_cycles && started.elapsed().as_secs_f64() + longest > seconds {
            return;
        }
    }
}

fn same_bits(a: f64, b: f64, what: &str) -> Result<(), String> {
    if a.to_bits() == b.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: lnL {a:.12} vs {b:.12} differ in bits"))
    }
}

fn within(a: f64, b: f64, epsilon: f64, what: &str) -> Result<(), String> {
    if (a - b).abs() <= epsilon {
        Ok(())
    } else {
        Err(format!(
            "{what}: lnL {a:.12} vs {b:.12} differ by more than {epsilon}"
        ))
    }
}

fn median_or_zero(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

/// Records the dataset's shape and its CLV working set against the L2.
fn dataset_meta(report: &mut Report, host: &Host, datasets: &[&PartitionedPatterns]) {
    let mut patterns = 0;
    let mut partitions = 0;
    let mut protein = 0;
    let mut clv_bytes: f64 = 0.0;
    for dataset in datasets {
        patterns += dataset.total_patterns();
        partitions += dataset.partition_count();
        let models = ModelSet::default_for(dataset, BranchLengthMode::PerPartition);
        let inner_nodes = dataset.taxa_count().saturating_sub(2) as f64;
        let mut bytes = 0.0;
        for (pi, partition) in dataset.partitions.iter().enumerate() {
            if partition.data_type == DataType::Protein {
                protein += 1;
            }
            let per_pattern = partition.states() * models.model(pi).categories() * 8;
            bytes += (partition.pattern_count() * per_pattern) as f64 * inner_nodes;
        }
        clv_bytes = clv_bytes.max(bytes);
    }
    let mib = 1024.0 * 1024.0;
    let per_worker = clv_bytes / host.cores as f64;
    report.meta_num("datasets", datasets.len() as f64);
    report.meta_num("patterns", patterns as f64);
    report.meta_num("partitions", partitions as f64);
    report.meta_num("protein_partitions", protein as f64);
    report.meta_num("clv_working_set_mib", clv_bytes / mib);
    report.meta_num("clv_per_worker_mib", per_worker / mib);
    if host.l2_kib > 0 {
        report.meta_num(
            "clv_per_worker_over_l2",
            per_worker / (host.l2_kib as f64 * 1024.0),
        );
    }
}

/// The set-up samples of a run.
#[derive(Default)]
struct Setups {
    compile: Vec<f64>,
    build: Vec<f64>,
}

impl Setups {
    /// Runs [`SETUPS_PER_CYCLE`] set-ups.
    fn measure(&mut self, report: &mut Report, setup: impl Fn() -> Result<Setup, String>) {
        for _ in 0..SETUPS_PER_CYCLE {
            report.attempt(setup().map(|setup| {
                self.compile.push(setup.compile_s);
                self.build.push(setup.build_s);
            }));
        }
    }

    /// `setup_s` in untraced runs; its two parts in traced runs.
    fn report(&self, report: &mut Report, trace: bool) {
        if trace {
            report.metric("phylo-data.compile_s", median_or_zero(&self.compile), "s");
            report.metric("analysis.build_s", median_or_zero(&self.build), "s");
        } else {
            let totals: Vec<f64> = self
                .compile
                .iter()
                .zip(&self.build)
                .map(|(c, b)| c + b)
                .collect();
            report.metric("setup_s", median_or_zero(&totals), "s");
        }
    }
}

fn analysis_workload(run: &Run, inputs: &[Input], job: Job, report: &mut Report) {
    let cores = run.host.cores;
    let input = &inputs[0];
    dataset_meta(report, &run.host, &[&input.patterns]);

    let mut setups = Setups::default();

    // Warm-up: the first job of a process pays page faults and allocator
    // growth that later jobs do not.
    report.attempt(jobs::run_untraced(input, job, cores).and_then(|o| o.check()));

    let old_job = job.with_scheme(ParallelScheme::Old);
    if run.trace {
        let (mut untraced, mut traced_new, mut traced_old) = (Vec::new(), Vec::new(), Vec::new());
        repeat_for(run.seconds, MIN_CYCLES, || {
            setups.measure(report, || jobs::setup(input, cores));
            let plain = jobs::run_untraced(input, job, cores);
            let new = jobs::run_traced(input, job, cores);
            let old = jobs::run_traced(input, old_job, cores);
            let plain_lnl = plain.as_ref().ok().map(|o| o.final_lnl);
            let new_lnl = new.as_ref().ok().map(|t| t.outcome.final_lnl);
            report.attempt(plain.and_then(|o| {
                untraced.push(o.wall_s);
                o.check()
            }));
            report.attempt(new.and_then(|t| {
                t.outcome.check()?;
                if let Some(lnl) = plain_lnl {
                    same_bits(t.outcome.final_lnl, lnl, "traced vs untraced newPAR")?;
                }
                traced_new.push(t);
                Ok(())
            }));
            report.attempt(old.and_then(|t| {
                t.outcome.check()?;
                if let Some(lnl) = new_lnl {
                    same_bits(t.outcome.final_lnl, lnl, "traced oldPAR vs newPAR")?;
                }
                traced_old.push(t);
                Ok(())
            }));
        });
        let untraced_wall = median_or_zero(&untraced);
        report.metric("untraced.wall_s", untraced_wall, "s");
        let overhead = median_or_zero(&walls(&traced_new)) / untraced_wall.max(1e-12);
        match (pick_median(&traced_new), pick_median(&traced_old)) {
            (Some(new), Some(old)) => {
                layer_metrics(report, new, old, overhead);
                optimize_metrics(report, &new.outcome, 0);
                let regions = new.budget.region_count() as f64;
                let moves = new.outcome.moves_evaluated;
                report.metric("phylo-search.moves_evaluated", moves as f64, "count");
                report.metric(
                    "phylo-search.moves_accepted",
                    new.outcome.moves_accepted as f64,
                    "count",
                );
                let per_move = if moves > 0 {
                    regions / moves as f64
                } else {
                    0.0
                };
                report.metric("phylo-search.regions_per_move", per_move, "count");
            }
            _ => report.attempt(Err("no traced job completed".into())),
        }
        serve_metrics(report, None);
    } else {
        let (mut new, mut one, mut old) = (Times::default(), Times::default(), Times::default());
        let epsilon = job.likelihood_epsilon();
        let mut cycle = 0;
        repeat_for(run.seconds, inputs.len().max(MIN_CYCLES), || {
            let dataset = cycle % inputs.len();
            let input = &inputs[dataset];
            cycle += 1;
            setups.measure(report, || jobs::setup(input, cores));
            let new_run = jobs::run_untraced(input, job, cores);
            let one_run = jobs::run_untraced(input, job, 1);
            let old_run = jobs::run_untraced(input, old_job, cores);
            let new_lnl = new_run.as_ref().ok().map(|o| o.final_lnl);
            report.attempt(new_run.and_then(|o| {
                new.push(dataset, o.wall_s, o.cpu_s);
                o.check()
            }));
            report.attempt(one_run.and_then(|o| {
                one.push(dataset, o.wall_s, o.cpu_s);
                o.check()?;
                match new_lnl {
                    Some(lnl) => within(o.final_lnl, lnl, epsilon, "1 thread vs cores"),
                    None => Ok(()),
                }
            }));
            report.attempt(old_run.and_then(|o| {
                old.push(dataset, o.wall_s, o.cpu_s);
                o.check()?;
                match new_lnl {
                    Some(lnl) => same_bits(o.final_lnl, lnl, "oldPAR vs newPAR"),
                    None => Ok(()),
                }
            }));
        });
        report_variants(report, &new, &one, &old);
    }
    setups.report(report, run.trace);
}

/// `(dataset, wall seconds, CPU seconds)` of each job of one variant.
#[derive(Default)]
struct Times {
    samples: Vec<(usize, f64, f64)>,
}

impl Times {
    fn push(&mut self, dataset: usize, wall_s: f64, cpu_s: f64) {
        self.samples.push((dataset, wall_s, cpu_s));
    }

    /// The mean over datasets of each dataset's median of `value`.
    fn balanced(&self, value: impl Fn(&(usize, f64, f64)) -> f64) -> f64 {
        let mut datasets: Vec<usize> = self.samples.iter().map(|s| s.0).collect();
        datasets.sort_unstable();
        datasets.dedup();
        let medians: Vec<f64> = datasets
            .iter()
            .map(|&d| {
                let of_d: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|s| s.0 == d)
                    .map(&value)
                    .collect();
                median_or_zero(&of_d)
            })
            .collect();
        medians.iter().sum::<f64>() / medians.len().max(1) as f64
    }
}

/// The end-to-end metrics of an untraced run: the CPU seconds of the
/// newPAR variants (see [`Times::balanced`]), with every variant's wall
/// seconds as metadata. The oldPAR CPU seconds are metadata too: oldPAR's
/// many more synchronisation events make them the figure host contention
/// moves most (ten runs spread by up to 0.32 of their median on the
/// reference host, past any bound the benchmark may set).
fn report_variants(report: &mut Report, new: &Times, one: &Times, old: &Times) {
    report.metric("cpu_s", new.balanced(|s| s.2), "s");
    report.metric("cpu_1t_s", one.balanced(|s| s.2), "s");
    report.meta_num("cpu_oldpar_s", old.balanced(|s| s.2));
    report.meta_num("wall_s", new.balanced(|s| s.1));
    report.meta_num("wall_1t_s", one.balanced(|s| s.1));
    report.meta_num("wall_oldpar_s", old.balanced(|s| s.1));
    report.meta_num("samples_per_variant", new.samples.len() as f64);
}

fn walls(traced: &[Traced]) -> Vec<f64> {
    traced.iter().map(|t| t.outcome.wall_s).collect()
}

/// The traced job with the median wall.
fn pick_median(traced: &[Traced]) -> Option<&Traced> {
    median_index(&walls(traced)).map(|i| &traced[i])
}

/// The kernel and parallel layers of a traced newPAR job and its oldPAR
/// counterpart.
fn layer_metrics(report: &mut Report, new: &Traced, old: &Traced, overhead: f64) {
    let b = &new.budget;
    for (k, kind) in KINDS.iter().enumerate() {
        report.metric(
            format!("phylo-kernel.busy_s.{}", kind.label()),
            b.busy_s[k],
            "s",
        );
    }
    let busy = b.busy_total_s();
    let gflops = if busy > 0.0 {
        new.flops / busy / 1e9
    } else {
        0.0
    };
    report.metric("phylo-kernel.gflops_computed", gflops, "GFLOP/s");
    report.metric("phylo-kernel.bytes_computed", new.bytes / 1e9, "GB");
    report.metric("phylo-kernel.master_s", b.master_s, "s");
    report.metric(
        "phylo-kernel.table_builds",
        new.stats.table_builds as f64,
        "count",
    );
    report.metric(
        "phylo-kernel.table_dedup_hits",
        new.stats.table_dedup_hits as f64,
        "count",
    );
    report.metric(
        "phylo-kernel.newview_node_updates",
        new.stats.newview_node_updates as f64,
        "count",
    );
    let regions = b.region_count();
    report.metric("phylo-parallel.regions", regions as f64, "count");
    for (k, kind) in KINDS.iter().enumerate() {
        let label = kind.label();
        report.metric(
            format!("phylo-parallel.regions.{label}"),
            b.regions[k] as f64,
            "count",
        );
    }
    report.metric("phylo-parallel.region_s", b.region_total_s(), "s");
    for (k, kind) in KINDS.iter().enumerate() {
        let label = kind.label();
        report.metric(
            format!("phylo-parallel.region_s.{label}"),
            b.region_s[k],
            "s",
        );
    }
    report.metric("phylo-parallel.slowest_worker_s", b.slowest_s, "s");
    report.metric("phylo-parallel.dispatch_s", b.dispatch_s, "s");
    let per_region = b.dispatch_s / regions.max(1) as f64 * 1e6;
    report.metric("phylo-parallel.dispatch_us_per_region", per_region, "us");
    report.metric("phylo-parallel.imbalance_idle_s", b.imbalance_idle_s, "s");
    report.metric("phylo-parallel.balance", b.balance(), "ratio");
    let o = &old.budget;
    report.metric(
        "phylo-parallel.oldpar.regions",
        o.region_count() as f64,
        "count",
    );
    report.metric("phylo-parallel.oldpar.dispatch_s", o.dispatch_s, "s");
    report.metric(
        "phylo-parallel.oldpar.imbalance_idle_s",
        o.imbalance_idle_s,
        "s",
    );
    report.metric("phylo-parallel.oldpar.wall_s", o.wall_s, "s");
    report.metric("traced.wall_s", b.wall_s, "s");
    report.metric("trace_overhead", overhead, "ratio");
}

/// The optimizer counts of a traced job; `lnl_regressions` counts serving
/// sessions that ended below their initial lnL (an analysis job that does
/// fails its check instead).
fn optimize_metrics(report: &mut Report, outcome: &Outcome, lnl_regressions: usize) {
    report.metric("phylo-optimize.rounds", outcome.rounds as f64, "count");
    report.metric(
        "phylo-optimize.newton_iterations",
        outcome.newton_iterations as f64,
        "count",
    );
    report.metric(
        "phylo-optimize.brent_evaluations",
        outcome.brent_evaluations as f64,
        "count",
    );
    report.metric(
        "phylo-optimize.lnl_regressions",
        lnl_regressions as f64,
        "count",
    );
}

/// The serving layer's metrics from a traced pass; zeros for the workloads
/// that do not serve.
fn serve_metrics(report: &mut Report, pass: Option<&Pass>) {
    let (mut submit, mut ops, mut batches, mut panics) = (0.0, 0.0, 0.0, 0.0);
    let (mut per_batch, mut us_per_op, mut rate, mut p50, mut p90) = (0.0, 0.0, 0.0, 0.0, 0.0);
    if let Some(pass) = pass {
        submit = pass.submit_s;
        if let Ok(stats) = &pass.stats {
            ops = stats.ops_dispatched as f64;
            batches = stats.batches as f64;
            panics = stats.worker_panics as f64;
        }
        per_batch = ops / batches.max(1.0);
        us_per_op = pass.wall_s / ops.max(1.0) * 1e6;
        rate = pass.sessions.len() as f64 / pass.wall_s;
        let latencies: Vec<f64> = pass.sessions.iter().map(|s| s.latency_s).collect();
        p50 = tail_percentile(&latencies, 0.5).unwrap_or(0.0);
        p90 = tail_percentile(&latencies, 0.9).unwrap_or(0.0);
    }
    report.metric("phylo-serve.submit_s", submit, "s");
    report.metric("phylo-serve.ops_dispatched", ops, "count");
    report.metric("phylo-serve.batches", batches, "count");
    report.metric("phylo-serve.ops_per_batch", per_batch, "count");
    report.metric("phylo-serve.us_per_op", us_per_op, "us");
    report.metric("phylo-serve.worker_panics", panics, "count");
    report.metric("phylo-serve.sessions_per_s", rate, "1/s");
    report.metric("phylo-serve.latency_p50_s", p50, "s");
    report.metric("phylo-serve.latency_p90_s", p90, "s");
}

/// Sessions of a pass whose optimize ended below their initial lnL. Serving
/// is checked against dedicated runs of the same sessions, which reproduce
/// such an optimizer outcome bit for bit, so it is counted and reported
/// rather than failed.
fn lnl_regressions(pass: &Pass) -> usize {
    let regressed: Vec<&SessionOutcome> = pass
        .sessions
        .iter()
        .filter_map(|s| s.outcome.as_ref().ok())
        .filter(|o| o.final_log_likelihood < o.initial_log_likelihood)
        .collect();
    for o in &regressed {
        eprintln!(
            "lnL regression: {}: {} after {}",
            o.label, o.final_log_likelihood, o.initial_log_likelihood
        );
    }
    regressed.len()
}

/// Checks every session of a pass, and its lnL against `reference` (a pass
/// of the same fleet) when given: bit for bit, or within `epsilon`.
fn check_pass(report: &mut Report, pass: &Pass, reference: Option<(&Pass, Option<f64>, &str)>) {
    for (i, served) in pass.sessions.iter().enumerate() {
        report.attempt(served.outcome.clone().and_then(|outcome| {
            if !outcome.final_log_likelihood.is_finite() {
                return Err(format!(
                    "{}: lnL {}",
                    outcome.label, outcome.final_log_likelihood
                ));
            }
            if !outcome.recoveries.is_empty() {
                return Err(format!("{}: worker deaths recovered", outcome.label));
            }
            let Some((reference, epsilon, what)) = reference else {
                return Ok(());
            };
            let Some(Ok(expected)) = reference.sessions.get(i).map(|s| s.outcome.as_ref()) else {
                return Ok(());
            };
            let (got, want) = (outcome.final_log_likelihood, expected.final_log_likelihood);
            match epsilon {
                Some(epsilon) => within(got, want, epsilon, what),
                None => same_bits(got, want, what),
            }
        }));
    }
}

/// A few pool sessions, chosen by the seed, must end on exactly the lnL of
/// `run_solo` on a dedicated executor of the pool's width.
fn check_solo(report: &mut Report, fleet: &[FleetSession], pass: &Pass, workers: usize, seed: u64) {
    for k in 0..SOLO_CHECKS.min(fleet.len()) {
        let i = (seed as usize).wrapping_add(k * 7) % fleet.len();
        let solo = run_solo(&fleet[i].dataset, workers);
        report.attempt(match &pass.sessions[i].outcome {
            Ok(outcome) => same_bits(
                outcome.final_log_likelihood,
                solo.final_lnl,
                "pooled session vs run_solo",
            ),
            Err(e) => Err(e.clone()),
        });
    }
}

fn serve_workload(run: &Run, report: &mut Report) {
    let cores = run.host.cores;
    let fleet = mixed_serving_fleet(FLEET_SIZE, run.seed);
    let pass_fleet = &fleet[..FLEET_PASS];
    let patterns: Vec<&PartitionedPatterns> = fleet.iter().map(|s| &*s.dataset.patterns).collect();
    dataset_meta(report, &run.host, &patterns);

    let text = FleetText::new(&fleet);
    let mut setups = Setups::default();

    let new = OptimizerConfig::new(ParallelScheme::New);
    let old = OptimizerConfig::new(ParallelScheme::Old);
    let warm = serve::closed_loop(pass_fleet, cores, cores, new);
    check_pass(report, &warm, None);

    if run.trace {
        // The traced pass counts toward the run's seconds.
        let measured = Instant::now();
        let pass = serve::closed_loop(&fleet, cores, cores, new);
        check_pass(report, &pass, None);
        check_solo(report, &fleet, &pass, cores, run.seed);
        serve_metrics(report, Some(&pass));

        let replayed = &fleet[..REPLAY_SESSIONS];
        let (mut untraced, mut traced_new, mut traced_old) = (Vec::new(), Vec::new(), Vec::new());
        let left = run.seconds - measured.elapsed().as_secs_f64();
        repeat_for(left, MIN_CYCLES, || {
            setups.measure(report, || serve::setup(&fleet, &text, cores));
            let mut plain_wall = 0.0;
            let mut merged: [Option<Traced>; 2] = [None, None];
            for (i, session) in replayed.iter().enumerate() {
                let pooled = pass.sessions[i].outcome.as_ref().ok();
                let plain = serve::replay(session, cores, &new);
                let plain_lnl = plain.as_ref().ok().map(|o| o.final_lnl);
                report.attempt(plain.and_then(|o| {
                    plain_wall += o.wall_s;
                    o.check_finished()?;
                    match pooled {
                        Some(p) => same_bits(o.final_lnl, p.final_log_likelihood, "replay vs pool"),
                        None => Ok(()),
                    }
                }));
                for (slot, config) in [new, old].iter().enumerate() {
                    let traced = serve::replay_traced(session, cores, config);
                    report.attempt(traced.and_then(|t| {
                        t.outcome.check_finished()?;
                        if let Some(lnl) = plain_lnl {
                            same_bits(t.outcome.final_lnl, lnl, "traced replay vs replay")?;
                        }
                        match &mut merged[slot] {
                            Some(total) => merge(total, &t),
                            empty => *empty = Some(t),
                        }
                        Ok(())
                    }));
                }
            }
            untraced.push(plain_wall);
            let [new_total, old_total] = merged;
            traced_new.extend(new_total);
            traced_old.extend(old_total);
        });
        let untraced_wall = median_or_zero(&untraced);
        report.metric("untraced.wall_s", untraced_wall, "s");
        let overhead = median_or_zero(&walls(&traced_new)) / untraced_wall.max(1e-12);
        match (pick_median(&traced_new), pick_median(&traced_old)) {
            (Some(new), Some(old)) => {
                layer_metrics(report, new, old, overhead);
                optimize_metrics(report, &new.outcome, lnl_regressions(&pass));
            }
            _ => report.attempt(Err("no traced replay completed".into())),
        }
        report.metric("phylo-search.moves_evaluated", 0.0, "count");
        report.metric("phylo-search.moves_accepted", 0.0, "count");
        report.metric("phylo-search.regions_per_move", 0.0, "count");
    } else {
        let (mut new_times, mut one_times, mut old_times) =
            (Times::default(), Times::default(), Times::default());
        let mut latencies = Vec::new();
        let mut last = None;
        repeat_for(run.seconds, MIN_CYCLES, || {
            setups.measure(report, || serve::setup(&fleet, &text, cores));
            let pass = serve::closed_loop(pass_fleet, cores, cores, new);
            let one = serve::closed_loop(pass_fleet, 1, 1, new);
            let oldpar = serve::closed_loop(pass_fleet, cores, cores, old);
            check_pass(report, &pass, None);
            check_pass(
                report,
                &one,
                Some((&pass, Some(new.likelihood_epsilon), "1 worker vs cores")),
            );
            check_pass(report, &oldpar, Some((&pass, None, "oldPAR vs newPAR")));
            new_times.push(0, pass.wall_s, pass.cpu_s);
            one_times.push(0, one.wall_s, one.cpu_s);
            old_times.push(0, oldpar.wall_s, oldpar.cpu_s);
            latencies.extend(pass.sessions.iter().map(|s| s.latency_s));
            last = Some(pass);
        });
        if let Some(pass) = &last {
            check_solo(report, pass_fleet, pass, cores, run.seed);
        }
        report_variants(report, &new_times, &one_times, &old_times);
        let total: f64 = new_times.samples.iter().map(|s| s.1).sum();
        report.meta_num("sessions_per_s", latencies.len() as f64 / total.max(1e-12));
        if let Some(p50) = tail_percentile(&latencies, 0.5) {
            report.meta_num("latency_p50_s", p50);
        }
        if let Some(p90) = tail_percentile(&latencies, 0.9) {
            report.meta_num("latency_p90_s", p90);
        }
    }
    setups.report(report, run.trace);
}

/// Adds one replayed session's traced job into a fleet total.
fn merge(total: &mut Traced, other: &Traced) {
    total.budget.merge(&other.budget);
    total.flops += other.flops;
    total.bytes += other.bytes;
    total.stats.table_builds += other.stats.table_builds;
    total.stats.table_dedup_hits += other.stats.table_dedup_hits;
    total.stats.newview_node_updates += other.stats.newview_node_updates;
    let (t, o) = (&mut total.outcome, &other.outcome);
    t.wall_s += o.wall_s;
    t.rounds += o.rounds;
    t.newton_iterations += o.newton_iterations;
    t.brent_evaluations += o.brent_evaluations;
}

#[cfg(test)]
mod tests {
    use super::*;
    use plf_loadbalance::tree::spr::candidate_moves;

    fn candidates(tree: &Tree) -> usize {
        let mut total = 0;
        for node in tree.internal_nodes() {
            for &(subtree, _) in tree.neighbors(node) {
                total += candidate_moves(tree, node, subtree, SPR_RADIUS).len();
            }
        }
        total
    }

    #[test]
    fn the_search_start_tree_has_a_seed_independent_shape() {
        let taxa: Vec<String> = (0..16).map(|i| format!("t{i}")).collect();
        let first = fixed_shape_tree(&taxa, 1);
        assert!(first.validate().is_ok());
        for seed in 2..6 {
            let tree = fixed_shape_tree(&taxa, seed);
            assert!(tree.validate().is_ok());
            assert_eq!(candidates(&tree), candidates(&first));
        }
        assert_ne!(
            plf_loadbalance::tree::newick::to_newick(&fixed_shape_tree(&taxa, 2)),
            plf_loadbalance::tree::newick::to_newick(&first),
            "the seed still permutes the leaves"
        );
    }
}
