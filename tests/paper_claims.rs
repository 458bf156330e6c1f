//! Integration test: the entire experiment suite (E1–E12 and the
//! extensions X1–X7) reproduces the paper's claims end to end through the
//! public API.
//!
//! Each experiment internally asserts the paper-shape checks (bounds hold,
//! tightness where claimed, crossovers where predicted); this test runs the
//! one registry that `ca expt` runs.

use coordinated_attack::analysis::experiments::Scale;
use coordinated_attack::asynchronous::experiments::registry;
use coordinated_attack::sim::parallel_map;

#[test]
fn every_experiment_passes() {
    let scale = Scale::quick();
    let registry = registry();
    assert_eq!(registry.len(), 19, "E1–E12 and X1–X7");
    let mut failures = Vec::new();
    // The registry fans out across all cores; each experiment is a
    // deterministic function of `scale`, so results match a serial run.
    let results = parallel_map(registry.len(), 0, |k| registry[k].run_observed(scale));
    for result in results {
        assert!(!result.table.is_empty(), "{} produced no table", result.id);
        assert!(
            !result.findings.is_empty(),
            "{} produced no findings",
            result.id
        );
        if !result.passed {
            failures.push(format!("{result}"));
        }
    }
    assert!(
        failures.is_empty(),
        "experiments failed:\n{}",
        failures.join("\n")
    );
}

#[test]
fn experiment_tables_export_csv() {
    use coordinated_attack::analysis::experiments::Experiment as _;
    let result = coordinated_attack::analysis::experiments::ProtocolAUnsafety.run(Scale::quick());
    let csv = result.table.to_csv();
    assert!(csv.lines().count() == result.table.len() + 1);
    assert!(csv.starts_with("N,"));
}
