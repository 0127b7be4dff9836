//! The repository benchmark: a layered wall-clock budget over optimize,
//! SPR search and serving.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of untraced runs
//! through the public `Analysis` / `SessionManager` API (process CPU
//! seconds, which leave out the time a virtual machine's host steals);
//! with `--trace 1`
//! the per-layer metrics of traced runs. The last line of standard output
//! is the JSON result; the exit code is non-zero when any correctness check
//! failed. `perfbench/run.py` builds this binary, runs it and adds the
//! process's peak RSS; see `perfbench/README.md` for the workloads and the
//! layer → metric → workload map.

mod budget;
mod cpu;
mod host;
mod jobs;
mod report;
mod serve;
mod shim;
mod stats;
mod workloads;

use std::process::ExitCode;

use report::{Report, Spec};
use workloads::{Run, WORKLOADS};

/// Metrics of an untraced run. `run.py` adds `peak_rss_mib`.
const END_TO_END: &[Spec] = &[("cpu_s", "s"), ("cpu_1t_s", "s"), ("setup_s", "s")];

/// Metrics of a traced run.
const PER_LAYER: &[Spec] = &[
    ("phylo-kernel.busy_s.newview", "s"),
    ("phylo-kernel.busy_s.evaluate", "s"),
    ("phylo-kernel.busy_s.sumtable", "s"),
    ("phylo-kernel.busy_s.derivatives", "s"),
    ("phylo-kernel.gflops_computed", "GFLOP/s"),
    ("phylo-kernel.bytes_computed", "GB"),
    ("phylo-kernel.master_s", "s"),
    ("phylo-kernel.table_builds", "count"),
    ("phylo-kernel.table_dedup_hits", "count"),
    ("phylo-kernel.newview_node_updates", "count"),
    ("phylo-parallel.regions", "count"),
    ("phylo-parallel.regions.newview", "count"),
    ("phylo-parallel.regions.evaluate", "count"),
    ("phylo-parallel.regions.sumtable", "count"),
    ("phylo-parallel.regions.derivatives", "count"),
    ("phylo-parallel.region_s", "s"),
    ("phylo-parallel.region_s.newview", "s"),
    ("phylo-parallel.region_s.evaluate", "s"),
    ("phylo-parallel.region_s.sumtable", "s"),
    ("phylo-parallel.region_s.derivatives", "s"),
    ("phylo-parallel.slowest_worker_s", "s"),
    ("phylo-parallel.dispatch_s", "s"),
    ("phylo-parallel.dispatch_us_per_region", "us"),
    ("phylo-parallel.imbalance_idle_s", "s"),
    ("phylo-parallel.balance", "ratio"),
    ("phylo-parallel.oldpar.regions", "count"),
    ("phylo-parallel.oldpar.dispatch_s", "s"),
    ("phylo-parallel.oldpar.imbalance_idle_s", "s"),
    ("phylo-parallel.oldpar.wall_s", "s"),
    ("phylo-optimize.rounds", "count"),
    ("phylo-optimize.newton_iterations", "count"),
    ("phylo-optimize.brent_evaluations", "count"),
    ("phylo-optimize.lnl_regressions", "count"),
    ("phylo-search.moves_evaluated", "count"),
    ("phylo-search.moves_accepted", "count"),
    ("phylo-search.regions_per_move", "count"),
    ("phylo-serve.submit_s", "s"),
    ("phylo-serve.ops_dispatched", "count"),
    ("phylo-serve.batches", "count"),
    ("phylo-serve.ops_per_batch", "count"),
    ("phylo-serve.us_per_op", "us"),
    ("phylo-serve.worker_panics", "count"),
    ("phylo-serve.sessions_per_s", "1/s"),
    ("phylo-serve.latency_p50_s", "s"),
    ("phylo-serve.latency_p90_s", "s"),
    ("phylo-data.compile_s", "s"),
    ("analysis.build_s", "s"),
    ("untraced.wall_s", "s"),
    ("traced.wall_s", "s"),
    ("trace_overhead", "ratio"),
    ("error_rate", "ratio"),
];

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = Run {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        host: host::Host::probe(),
    };
    let mut report = Report::default();
    report.meta_str("workload", &args.workload);
    report.meta_num("seed", args.seed as f64);
    report.meta_num("trace", f64::from(u8::from(args.trace)));
    report.meta_num("cores", run.host.cores as f64);
    report.meta_str("cpu", &run.host.cpu);
    report.meta_num("l2_kib", run.host.l2_kib as f64);
    report.meta_num("l3_kib", run.host.l3_kib as f64);

    workloads::run(&args.workload, &run, &mut report);
    if run.trace {
        let rate = report.error_rate();
        report.metric("error_rate", rate, "ratio");
    }
    let correct = report.print(if run.trace { PER_LAYER } else { END_TO_END });
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |entry: &str, key: &str| -> String {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn owned(specs: &[Spec]) -> Vec<(String, String)> {
        specs
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn the_metric_lists_match_benchmark_json() {
        let mut end_to_end = owned(END_TO_END);
        end_to_end.push(("peak_rss_mib".into(), "MiB".into()));
        assert_eq!(declared("end_to_end"), end_to_end);
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn every_workload_is_declared() {
        let json = include_str!("../../BENCHMARK.json");
        for name in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }
}
