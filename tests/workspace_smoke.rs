//! Workspace smoke test: drives the entire stack exclusively through the
//! `matador_repro` facade re-exports, proving every crate is wired into
//! the workspace and the cross-crate dependency DAG is intact — the
//! minimal end-to-end flow a fresh checkout must sustain.

use matador_repro::baselines::presets::BaselineKind;
use matador_repro::datasets::{generate, DatasetKind, SplitSizes};
use matador_repro::logic::dag::Sharing;
use matador_repro::matador::config::MatadorConfig;
use matador_repro::matador::flow::{MatadorFlow, TrainSpec};
use matador_repro::rtl::netlist::Netlist;
use matador_repro::sim::SimEngine;
use matador_repro::synth::mapper::{map_dag, LUT_K};
use matador_repro::tsetlin::params::TmParams;
use matador_repro::{axi, Error};
use std::path::{Path, PathBuf};

#[test]
fn facade_drives_minimal_end_to_end_flow() {
    // Tiny workload through the re-exported datasets crate.
    let sizes = SplitSizes {
        train: 120,
        test: 48,
    };
    let data = generate(DatasetKind::NoisyXor, sizes, 21);
    assert_eq!(data.features(), 12);

    // Train + generate + implement + verify through the re-exported core.
    let params = TmParams::builder(data.features(), data.classes())
        .clauses_per_class(10)
        .threshold(4)
        .specificity(3.5)
        .build()
        .expect("valid params");
    let config = MatadorConfig::builder()
        .design_name("smoke")
        .bus_width(4) // 12 features → P = 3 packets
        .build()
        .expect("valid config");
    let outcome = MatadorFlow::new(config)
        .run(
            TrainSpec {
                params,
                epochs: 25,
                seed: 9,
            },
            &data.train,
            &data.test,
        )
        .expect("flow succeeds on a non-degenerate workload");

    // FlowOutcome invariants: hardware bit-equivalent to software, and the
    // paper's cycle model — initial latency = P + 3 (HCB chain + class sum
    // + argmax + output register), steady-state II = P.
    let p = outcome.design.num_hcbs();
    assert_eq!(p, 3);
    assert!(outcome.verification.passed(), "{:?}", outcome.verification);
    assert_eq!(outcome.latency.initial_latency_cycles, p as u64 + 3);
    assert!((outcome.latency.steady_ii_cycles - p as f64).abs() < 1e-9);
    assert!(outcome.throughput_inf_s() > 0.0);

    // AXI packetization (re-exported transport layer) agrees with the
    // design's packet count.
    let packetizer = axi::Packetizer::new(data.features(), 4);
    assert_eq!(packetizer.num_packets(), p);

    // RTL + synthesis layers reachable through the facade: lower one
    // window to a validated netlist and LUT-map its DAG.
    let dag = &outcome.design.dags()[0];
    let nl = Netlist::from_dag("smoke_w0", dag);
    nl.validate()
        .expect("generated netlist is structurally valid");
    assert!(map_dag(dag, LUT_K).lut_count() > 0 || dag.and2_count() == 0);

    // Cycle-accurate simulation through the re-exported sim crate.
    let accel = outcome.design.compile_for_sim();
    let mut sim = SimEngine::new(&accel);
    let results = sim
        .run_datapoints(&[data.test[0].input.clone()])
        .expect("drains within bound");
    assert_eq!(
        results[0].winner,
        outcome.model.predict(&data.test[0].input)
    );

    // Baselines stack reachable through the facade.
    let baseline = BaselineKind::FinnMnist.design();
    assert!(baseline.resources().bram > 0.0);

    // Logic-sharing knob round-trips through the re-exported logic crate.
    assert_eq!(outcome.design.config().sharing(), Sharing::Enabled);
}

#[test]
fn facade_exposes_the_unified_error_type() {
    // The facade's `Error` is `matador::Error`; a config failure from the
    // re-exported core converges into it with the variant intact.
    let err: Error = MatadorConfig::builder()
        .bus_width(0)
        .build()
        .unwrap_err()
        .into();
    assert!(matches!(
        err,
        Error::Config(
            matador_repro::matador::config::InvalidConfigError::BusWidthOutOfRange { width: 0 }
        )
    ));
    // And a dataset spec failure converges through the same type.
    let mut spec = DatasetKind::Mnist.default_spec();
    spec.noise = 7.0;
    let err: Error = spec.validate().unwrap_err().into();
    assert!(matches!(err, Error::Dataset(_)));
    assert!(std::error::Error::source(&err).is_some());
}

/// Every `.rs` file under `dir`, skipping build and vendored trees.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str());
            if !matches!(name, Some("target" | "vendor" | "perfbench")) {
                rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The markdown file names in `text` that are upper-case (`README`-style),
/// each with any relative directory path in front of it.
fn markdown_refs(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut refs = Vec::new();
    for (dot, _) in text.match_indices(".md") {
        let end = dot + 3;
        if bytes.get(end).is_some_and(|&b| is_word(b)) {
            continue;
        }
        let mut start = dot;
        while start > 0 && (is_word(bytes[start - 1]) || b"/.-".contains(&bytes[start - 1])) {
            start -= 1;
        }
        let token = &text[start..end];
        let name = token.rsplit('/').next().unwrap_or(token);
        let stem = &name[..name.len() - 3];
        let upper = stem.starts_with(|c: char| c.is_ascii_uppercase())
            && stem
                .bytes()
                .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_');
        if upper {
            refs.push(token);
        }
    }
    refs
}

#[test]
fn docs_name_only_files_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("README.md")];
    for dir in ["crates", "src", "tests", "examples"] {
        rust_sources(&root.join(dir), &mut files);
    }
    assert!(files.len() > 50, "scan found only {} files", files.len());
    let mut dangling = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source");
        for (i, line) in text.lines().enumerate() {
            for token in markdown_refs(line) {
                if !root.join(token).is_file() {
                    let rel = file.strip_prefix(root).unwrap_or(file);
                    dangling.push(format!("{}:{}: {token}", rel.display(), i + 1));
                }
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "docs name files that do not exist:\n{}",
        dangling.join("\n")
    );
    // The scanner itself: bare and path-qualified names are picked up,
    // lower-case and embedded names are not.
    assert_eq!(
        markdown_refs("see ROADMAP.md, `perfbench/README.md`. x.md README.mdx aBC.md"),
        ["ROADMAP.md", "perfbench/README.md"]
    );
}
