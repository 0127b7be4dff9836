//! The linter's own gate, as a plain test: the real workspace must be clean.
//!
//! This is the same check CI runs via `cargo run -p phylo-lint -- --check`,
//! wired into `cargo test` so a violation fails the ordinary suite too. The
//! reachability-scoping acceptance criteria live here as well: every entry
//! point must resolve, the reachable set must stay a superset of the old
//! `OP_PATH_FILES` list, and no stale waiver may survive.

use std::path::Path;
use std::sync::OnceLock;

use phylo_lint::{
    analyze_workspace, envelope, inventory, Baseline, RuleId, WorkspaceAnalysis, ENTRY_POINTS,
    MIN_REACHABLE_FNS, MIN_RESOLVED_FRACTION, OP_PATH_FILES,
};

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn analysis() -> &'static WorkspaceAnalysis {
    static WS: OnceLock<WorkspaceAnalysis> = OnceLock::new();
    WS.get_or_init(|| analyze_workspace(workspace_root()))
}

#[test]
fn workspace_has_no_lint_findings_beyond_the_baseline() {
    let ws = analysis();
    assert!(
        ws.files > 50,
        "suspiciously few files scanned: {}",
        ws.files
    );
    let baseline = Baseline::load(workspace_root());
    assert!(
        baseline.is_empty(),
        "lint-baseline.txt must stay empty; fix the findings instead"
    );
    let (new, _) = baseline.partition(ws.scan.findings.clone());
    assert!(
        new.is_empty(),
        "lint findings in the workspace:\n{}",
        new.iter()
            .map(|f| format!("  {}", f.render()))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn no_stale_waivers_in_the_workspace() {
    let ws = analysis();
    assert!(
        ws.scan.stale_waivers.is_empty(),
        "stale waivers in the workspace:\n{}",
        ws.scan
            .stale_waivers
            .iter()
            .map(|w| format!("  {}", w.render()))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_entry_point_resolves() {
    let ws = analysis();
    assert_eq!(ws.metrics.entry_points, ENTRY_POINTS.len());
    assert!(
        ws.metrics.missing_entry_points.is_empty(),
        "entry points that matched no extracted function: {:?}",
        ws.metrics.missing_entry_points
    );
}

#[test]
fn reachable_set_is_a_superset_of_op_path_files() {
    // The old hardcoded file list survives only as this sanity check: every
    // file it named must still contain at least one reachable function.
    let ws = analysis();
    let uncovered: Vec<&&str> = OP_PATH_FILES
        .iter()
        .filter(|f| !ws.reachable_files.iter().any(|r| r == **f))
        .collect();
    assert!(
        uncovered.is_empty(),
        "op-path files with no reachable function: {uncovered:?}"
    );
}

#[test]
fn reachability_metrics_clear_the_drift_gates() {
    let m = &analysis().metrics;
    assert!(
        m.fns_reachable as f64 >= MIN_REACHABLE_FNS,
        "reachable set shrank to {} fns (gate: {MIN_REACHABLE_FNS})",
        m.fns_reachable
    );
    assert!(m.fns_total >= m.fns_reachable);
    let fraction = m.callsites_resolved as f64 / m.callsites_total.max(1) as f64;
    assert!(
        fraction >= MIN_RESOLVED_FRACTION,
        "call-site resolution fell to {fraction:.3} (gate: {MIN_RESOLVED_FRACTION})"
    );
}

#[test]
fn order_allocation_and_clock_rules_hold_without_baseline_help() {
    // L006–L008 must report zero un-waived findings on the real tree; their
    // liveness is proven separately by the seeded self-tests in `scan`.
    let ws = analysis();
    let late: Vec<_> = ws
        .scan
        .findings
        .iter()
        .filter(|f| matches!(f.rule, RuleId::L006 | RuleId::L007 | RuleId::L008))
        .collect();
    assert!(
        late.is_empty(),
        "un-waived L006/L007/L008 findings:\n{}",
        late.iter()
            .map(|f| format!("  {}", f.render()))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn envelope_for_the_real_workspace_passes() {
    let ws = analysis();
    let baseline = Baseline::load(workspace_root());
    let (new, _) = baseline.partition(ws.scan.findings.clone());
    let env = envelope(ws, &new, baseline.len(), &[]);
    assert!(env.passed(), "gate violations: {:#?}", env.violations);
}

#[test]
fn committed_unsafe_inventory_is_current() {
    let ws = analysis();
    let expected = inventory::render(&ws.scan.unsafe_sites);
    let committed = std::fs::read_to_string(workspace_root().join("UNSAFE_INVENTORY.md"))
        .expect("UNSAFE_INVENTORY.md missing; run `cargo run -p phylo-lint -- --write-inventory`");
    assert_eq!(
        committed, expected,
        "UNSAFE_INVENTORY.md drifted; run `cargo run -p phylo-lint -- --write-inventory`"
    );
}

/// An empty inventory is the strictest confinement: the workspace has no
/// `unsafe` at all. L003 and L004 stay armed against re-introduction.
#[test]
fn all_unsafe_is_confined_to_phylo_telemetry() {
    let sites = &analysis().scan.unsafe_sites;
    assert!(
        sites.is_empty(),
        "the workspace must stay free of unsafe, found: {:?}",
        sites
            .iter()
            .map(|s| format!("{}:{}", s.file, s.line))
            .collect::<Vec<_>>()
    );
}

#[test]
fn every_library_crate_forbids_unsafe() {
    let root = workspace_root();
    let mut libs = vec![root.join("src/lib.rs")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let lib = entry.expect("crates/ entry").path().join("src/lib.rs");
        if lib.exists() {
            libs.push(lib);
        }
    }
    assert!(libs.len() > 10, "suspiciously few crates: {}", libs.len());
    for lib in libs {
        let src = std::fs::read_to_string(&lib).expect("lib.rs is readable");
        assert!(
            src.contains("#![forbid(unsafe_code)]"),
            "{} lacks #![forbid(unsafe_code)]",
            lib.display()
        );
    }
}
