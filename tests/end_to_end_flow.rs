//! Cross-crate integration: the full MATADOR flow — dataset generation →
//! TM training → HCB partitioning → implementation → gate-level and
//! cycle-accurate verification — on a real (small) workload.

use matador::config::MatadorConfig;
use matador::flow::{MatadorFlow, TrainSpec};
use matador_datasets::{generate, DatasetKind, SplitSizes};
use tsetlin::params::TmParams;

fn kws_outcome(clauses: usize, epochs: usize) -> matador::flow::FlowOutcome {
    let sizes = SplitSizes {
        train: 150,
        test: 60,
    };
    let data = generate(DatasetKind::Kws6, sizes, 77);
    let params = TmParams::builder(data.features(), data.classes())
        .clauses_per_class(clauses)
        .threshold(10)
        .specificity(5.0)
        .build()
        .expect("valid params");
    let config = MatadorConfig::builder()
        .design_name("it_kws")
        .build()
        .expect("valid config");
    MatadorFlow::new(config)
        .verify_limit(Some(40))
        .run(
            TrainSpec {
                params,
                epochs,
                seed: 4,
            },
            &data.train,
            &data.test,
        )
        .expect("flow succeeds on a non-degenerate workload")
}

#[test]
fn kws_flow_verifies_and_matches_paper_cycle_model() {
    let outcome = kws_outcome(40, 3);
    // Hardware must be bit-equivalent to the trained model.
    assert!(outcome.verification.passed(), "{:?}", outcome.verification);
    assert_eq!(outcome.verification.system_mismatches, 0);
    assert_eq!(outcome.verification.gate_mismatches, 0);
    // 377 features at W=64 → 6 packets; latency = packets + 3; II = packets.
    assert_eq!(outcome.design.num_hcbs(), 6);
    assert_eq!(outcome.latency.initial_latency_cycles, 9);
    assert!((outcome.latency.steady_ii_cycles - 6.0).abs() < 1e-9);
    // At the 50 MHz evaluation clock these are the paper's KWS-6 numbers.
    assert!((outcome.latency_us() - 0.18).abs() < 1e-9);
    assert!((outcome.throughput_inf_s() - 8_333_333.0).abs() < 1.0);
}

#[test]
fn kws_flow_learns_the_task() {
    // Reduced-size split of the full workload: well above the 1/6 chance
    // level is what this budget can reach (`table1 --quick` reaches 100%
    // on KWS-6).
    let outcome = kws_outcome(80, 8);
    assert!(
        outcome.test_accuracy > 0.65,
        "accuracy {} too low",
        outcome.test_accuracy
    );
}

#[test]
fn resources_scale_with_clause_budget() {
    let small = kws_outcome(20, 2);
    let large = kws_outcome(80, 2);
    assert!(
        large.implementation.resources.luts() > small.implementation.resources.luts(),
        "more clauses must cost more LUTs"
    );
    assert!(large.implementation.resources.registers > small.implementation.resources.registers);
    // BRAM stays constant — the model lives in logic, not memory.
    assert_eq!(
        small.implementation.resources.bram,
        large.implementation.resources.bram
    );
}

#[test]
fn emitted_verilog_fileset_is_self_consistent() {
    let outcome = kws_outcome(20, 2);
    let files = outcome
        .design
        .emit_verilog()
        .expect("generated designs emit without shape errors");
    // One HCB per packet + class_sum + argmax + controller + top.
    assert_eq!(files.len(), 6 + 4);
    let top = files.last().expect("top module");
    for k in 0..6 {
        assert!(
            top.contents.contains(&format!("hcb_{k} u_hcb_{k}")),
            "top must instantiate hcb_{k}"
        );
    }
    // Every file parses superficially: balanced module/endmodule.
    for f in &files {
        assert_eq!(
            f.contents.matches("module ").count(),
            f.contents.matches("endmodule").count(),
            "{} unbalanced",
            f.name
        );
    }
}
