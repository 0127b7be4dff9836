//! The layered wall-clock budget of one traced job.
//!
//! The paper's accounting is one command = one parallel region = one
//! synchronisation event, and a region lasts as long as its slowest worker.
//! The budget extends that to the whole job. With `W_r` the master-side wall
//! of region `r` and `s_rw` the time worker `w` spent computing in it:
//!
//! * compute on the critical path: `Σ_r max_w s_rw`;
//! * dispatch: `Σ_r (W_r − max_w s_rw)`, the time the master spends
//!   building and broadcasting the command, waking the workers and reducing
//!   the replies beyond the slowest worker's compute;
//! * imbalance idle: `Σ_r Σ_w (max_w s_rw − s_rw)`, the time workers wait
//!   at the barrier for the slowest one (not part of the wall, which the
//!   slowest worker already spans);
//! * master serial work: the job's wall minus `Σ_r W_r`.
//!
//! So `master + dispatch + Σ slowest = wall` holds by construction.

use plf_loadbalance::kernel::cost::OpKind;
use plf_loadbalance::kernel::WorkTrace;

/// Op kinds in the order the per-kind metrics are reported.
pub const KINDS: [OpKind; 4] = [
    OpKind::Newview,
    OpKind::Evaluate,
    OpKind::Sumtable,
    OpKind::Derivatives,
];

/// Why a trace cannot be split.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitError {
    /// The trace and the master-side region walls disagree on the region
    /// count.
    RegionCount {
        /// Regions in the worker trace.
        trace: usize,
        /// Region walls measured by the master.
        walls: usize,
    },
}

impl std::fmt::Display for SplitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RegionCount { trace, walls } => write!(
                f,
                "{trace} traced regions but {walls} measured region walls"
            ),
        }
    }
}

/// Wall-clock split of one traced job, in seconds unless noted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Budget {
    /// The job's traced wall clock.
    pub wall_s: f64,
    /// Master serial work between regions: `wall − Σ region wall`.
    pub master_s: f64,
    /// `Σ (region wall − slowest worker)`.
    pub dispatch_s: f64,
    /// `Σ slowest worker`: compute on the critical path.
    pub slowest_s: f64,
    /// `Σ_regions Σ_workers (slowest − own)`.
    pub imbalance_idle_s: f64,
    /// Worker busy seconds per op kind, in [`KINDS`] order.
    pub busy_s: [f64; 4],
    /// Master-side region wall per op kind, in [`KINDS`] order.
    pub region_s: [f64; 4],
    /// Region count per op kind, in [`KINDS`] order.
    pub regions: [u64; 4],
    /// Workers of the trace.
    pub workers: usize,
}

impl Budget {
    /// Splits a job of wall `wall_s` from its timed worker trace and the
    /// master-side wall of each of its regions (same order).
    ///
    /// # Errors
    ///
    /// [`SplitError::RegionCount`] when the two disagree on the region count.
    pub fn split(wall_s: f64, trace: &WorkTrace, region_walls: &[f64]) -> Result<Self, SplitError> {
        if trace.regions.len() != region_walls.len() {
            return Err(SplitError::RegionCount {
                trace: trace.regions.len(),
                walls: region_walls.len(),
            });
        }
        let mut budget = Budget {
            wall_s,
            workers: trace.workers,
            ..Budget::default()
        };
        let mut region_total = 0.0;
        for (record, &wall) in trace.regions.iter().zip(region_walls) {
            let k = kind_index(record.kind);
            let slowest = record
                .seconds_per_worker
                .iter()
                .copied()
                .fold(0.0, f64::max);
            let busy: f64 = record.seconds_per_worker.iter().sum();
            region_total += wall;
            budget.dispatch_s += wall - slowest;
            budget.slowest_s += slowest;
            budget.imbalance_idle_s += slowest * record.seconds_per_worker.len() as f64 - busy;
            budget.busy_s[k] += busy;
            budget.region_s[k] += wall;
            budget.regions[k] += 1;
        }
        budget.master_s = wall_s - region_total;
        Ok(budget)
    }

    /// Accumulates another job's budget (several sessions of one fleet).
    pub fn merge(&mut self, other: &Budget) {
        self.wall_s += other.wall_s;
        self.master_s += other.master_s;
        self.dispatch_s += other.dispatch_s;
        self.slowest_s += other.slowest_s;
        self.imbalance_idle_s += other.imbalance_idle_s;
        for k in 0..KINDS.len() {
            self.busy_s[k] += other.busy_s[k];
            self.region_s[k] += other.region_s[k];
            self.regions[k] += other.regions[k];
        }
        self.workers = self.workers.max(other.workers);
    }

    /// Total regions (synchronisation events).
    pub fn region_count(&self) -> u64 {
        self.regions.iter().sum()
    }

    /// Total worker busy seconds.
    pub fn busy_total_s(&self) -> f64 {
        self.busy_s.iter().sum()
    }

    /// Master-side wall of all regions.
    pub fn region_total_s(&self) -> f64 {
        self.region_s.iter().sum()
    }

    /// Mean over max worker load across the job: `Σ busy / (workers ·
    /// Σ slowest)`, 1.0 when every region is perfectly balanced.
    pub fn balance(&self) -> f64 {
        let capacity = self.workers as f64 * self.slowest_s;
        if capacity > 0.0 {
            self.busy_total_s() / capacity
        } else {
            1.0
        }
    }

    /// Relative gap between the job's wall and the sum of its layers; zero
    /// up to rounding by construction, checked at run time so a broken
    /// split cannot pass silently.
    pub fn closure_error(&self) -> f64 {
        let layers = self.master_s + self.dispatch_s + self.slowest_s;
        (layers - self.wall_s).abs() / self.wall_s.max(f64::MIN_POSITIVE)
    }
}

fn kind_index(kind: OpKind) -> usize {
    match kind {
        OpKind::Newview => 0,
        OpKind::Evaluate => 1,
        OpKind::Sumtable => 2,
        OpKind::Derivatives => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plf_loadbalance::kernel::cost::RegionRecord;

    fn record(kind: OpKind, seconds: &[f64]) -> RegionRecord {
        let mut record = RegionRecord::new(kind, seconds.len());
        record.seconds_per_worker = seconds.to_vec();
        record
    }

    fn trace(records: Vec<RegionRecord>) -> WorkTrace {
        let mut trace = WorkTrace::new(records[0].seconds_per_worker.len());
        trace.regions = records;
        trace
    }

    const EPS: f64 = 1e-12;

    #[test]
    fn dispatch_and_imbalance_split_per_region() {
        // Region 1: workers 0.3 / 0.1 in a 0.4 s region.
        // Region 2: workers 0.2 / 0.2 in a 0.25 s region.
        let t = trace(vec![
            record(OpKind::Newview, &[0.3, 0.1]),
            record(OpKind::Derivatives, &[0.2, 0.2]),
        ]);
        let b = Budget::split(1.0, &t, &[0.4, 0.25]).unwrap();
        assert!((b.slowest_s - 0.5).abs() < EPS);
        assert!((b.dispatch_s - (0.1 + 0.05)).abs() < EPS);
        // Only region 1 is imbalanced: worker 1 idles 0.2 s.
        assert!((b.imbalance_idle_s - 0.2).abs() < EPS);
        assert!((b.master_s - 0.35).abs() < EPS);
        assert!((b.busy_s[0] - 0.4).abs() < EPS);
        assert!((b.busy_s[3] - 0.4).abs() < EPS);
        assert_eq!(b.regions, [1, 0, 0, 1]);
        assert!((b.region_s[0] - 0.4).abs() < EPS);
        // Busy 0.8 over 2 workers × 0.5 s critical path.
        assert!((b.balance() - 0.8).abs() < EPS);
    }

    #[test]
    fn layers_add_back_up_to_the_wall() {
        let t = trace(vec![
            record(OpKind::Newview, &[0.011, 0.017, 0.002]),
            record(OpKind::Evaluate, &[0.003, 0.001, 0.004]),
            record(OpKind::Sumtable, &[0.009, 0.009, 0.008]),
            record(OpKind::Derivatives, &[0.0005, 0.0007, 0.0001]),
        ]);
        let walls = [0.018, 0.0049, 0.0093, 0.0011];
        let b = Budget::split(0.05, &t, &walls).unwrap();
        let sum = b.master_s + b.dispatch_s + b.slowest_s;
        assert!((sum - 0.05).abs() < EPS);
        assert!(b.closure_error() < 1e-12);
        assert!((b.region_total_s() - walls.iter().sum::<f64>()).abs() < EPS);
        assert_eq!(b.region_count(), 4);
    }

    #[test]
    fn a_balanced_trace_has_no_idle() {
        let t = trace(vec![record(OpKind::Evaluate, &[0.1, 0.1, 0.1, 0.1])]);
        let b = Budget::split(0.2, &t, &[0.12]).unwrap();
        assert_eq!(b.imbalance_idle_s, 0.0);
        assert!((b.balance() - 1.0).abs() < EPS);
    }

    #[test]
    fn mismatched_region_counts_are_an_error() {
        let t = trace(vec![record(OpKind::Evaluate, &[0.1, 0.1])]);
        assert_eq!(
            Budget::split(1.0, &t, &[]),
            Err(SplitError::RegionCount { trace: 1, walls: 0 })
        );
    }

    #[test]
    fn merged_budgets_keep_the_identity() {
        let a = Budget::split(
            0.5,
            &trace(vec![record(OpKind::Newview, &[0.2, 0.1])]),
            &[0.3],
        )
        .unwrap();
        let b = Budget::split(
            0.4,
            &trace(vec![record(OpKind::Derivatives, &[0.05, 0.15])]),
            &[0.2],
        )
        .unwrap();
        let mut merged = a.clone();
        merged.merge(&b);
        assert!((merged.wall_s - 0.9).abs() < EPS);
        assert!(merged.closure_error() < 1e-12);
        assert!((merged.imbalance_idle_s - 0.2).abs() < EPS);
        assert_eq!(merged.regions, [1, 0, 0, 1]);
    }
}
