//! Parallel/sequential equivalence: the deterministic parallel execution
//! subsystem (`matador-par`) must never change results — only wall-clock.
//!
//! Locked in here across `MATADOR_THREADS=1` vs `=8`, for two seeds × two
//! dataset kinds each:
//!
//! 1. trained [`TrainedModel`]s are **bit-identical**,
//! 2. generated [`AcceleratorDesign`] netlists (emitted Verilog included)
//!    are identical,
//! 3. `table1` harness rows are identical.
//!
//! Env-dependent tests serialize on one lock (test binaries are separate
//! processes, but tests within this binary share the environment).

use matador_bench::eval::{run_table1, EvalOptions};
use matador_bench::table::Table1Row;
use matador_repro::datasets::{generate, DatasetKind, SplitSizes};
use matador_repro::matador::config::MatadorConfig;
use matador_repro::matador::design::AcceleratorDesign;
use matador_repro::par;
use matador_repro::tsetlin::model::TrainedModel;
use matador_repro::tsetlin::params::TmParams;
use matador_repro::tsetlin::MultiClassTm;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Serializes `MATADOR_THREADS` mutation within this test binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with `MATADOR_THREADS` set to `threads`, restoring the prior
/// value afterwards.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let previous = std::env::var(par::THREADS_ENV).ok();
    std::env::set_var(par::THREADS_ENV, threads.to_string());
    let out = f();
    match previous {
        Some(v) => std::env::set_var(par::THREADS_ENV, v),
        None => std::env::remove_var(par::THREADS_ENV),
    }
    out
}

const SEEDS: [u64; 2] = [3, 17];
const KINDS: [DatasetKind; 2] = [DatasetKind::NoisyXor, DatasetKind::Iris];
/// Kinds for the full-harness check: these are paired with FINN baselines
/// whose topologies match the dataset's feature count.
const TABLE1_KINDS: [DatasetKind; 2] = [DatasetKind::Kws6, DatasetKind::Mnist];
const SIZES: SplitSizes = SplitSizes {
    train: 80,
    test: 40,
};

fn params_for(kind: DatasetKind) -> TmParams {
    TmParams::builder(kind.features(), kind.classes())
        .clauses_per_class(12)
        .threshold(5)
        .specificity(4.0)
        .build()
        .expect("valid params")
}

fn train_model(kind: DatasetKind, seed: u64, threads: usize) -> TrainedModel {
    let data = generate(kind, SIZES, seed);
    let mut tm = MultiClassTm::new(params_for(kind));
    let mut rng = SmallRng::seed_from_u64(seed);
    tm.fit_with_threads(&data.train, 4, &mut rng, threads);
    tm.to_model()
}

#[test]
fn trained_models_bit_identical_across_thread_counts() {
    for kind in KINDS {
        for seed in SEEDS {
            let sequential = train_model(kind, seed, 1);
            for threads in [2, 8] {
                let parallel = train_model(kind, seed, threads);
                assert_eq!(
                    parallel, sequential,
                    "{kind} seed {seed}: model diverged at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn trained_models_bit_identical_under_env_override() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for kind in KINDS {
        for seed in SEEDS {
            let run = || {
                let data = generate(kind, SIZES, seed);
                let mut tm = MultiClassTm::new(params_for(kind));
                let mut rng = SmallRng::seed_from_u64(seed);
                tm.fit(&data.train, 4, &mut rng);
                tm.to_model()
            };
            let sequential = with_threads(1, run);
            let parallel = with_threads(8, run);
            assert_eq!(parallel, sequential, "{kind} seed {seed}");
        }
    }
}

#[test]
fn generated_designs_and_netlists_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for kind in KINDS {
        for seed in SEEDS {
            let model = train_model(kind, seed, 1);
            let config = || {
                MatadorConfig::builder()
                    .design_name("par_equiv")
                    .bus_width(4)
                    .build()
                    .expect("valid config")
            };
            let generate_all = || {
                let design = AcceleratorDesign::generate(model.clone(), config());
                let verilog = design.emit_verilog().expect("valid generated design");
                let netlists: Vec<String> = (0..design.num_hcbs())
                    .map(|w| design.window_verilog(w))
                    .collect();
                (
                    design.hcb_logic().to_vec(),
                    design.hcb_depth(),
                    verilog,
                    netlists,
                )
            };
            let sequential = with_threads(1, generate_all);
            let parallel = with_threads(8, generate_all);
            assert_eq!(
                parallel.0, sequential.0,
                "{kind} seed {seed}: HCB logic measurements diverged"
            );
            assert_eq!(parallel.1, sequential.1, "{kind} seed {seed}: depth");
            assert_eq!(
                parallel.2, sequential.2,
                "{kind} seed {seed}: emitted Verilog diverged"
            );
            assert_eq!(
                parallel.3, sequential.3,
                "{kind} seed {seed}: window netlists diverged"
            );
        }
    }
}

#[test]
fn table1_rows_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for seed in SEEDS {
        // Enough training to reach the sparse clause regime: logic
        // optimization cost grows steeply with include density, and
        // under-trained dense models make dev-profile runs crawl.
        let opts = EvalOptions {
            sizes: SplitSizes {
                train: 200,
                test: 30,
            },
            tm_epochs: 3,
            bnn_epochs: 1,
            seed,
        };
        let run = || -> Vec<(String, Vec<Table1Row>)> {
            run_table1(&TABLE1_KINDS, &opts).expect("table1 rows build")
        };
        let sequential = with_threads(1, run);
        let parallel = with_threads(8, run);
        assert_eq!(parallel, sequential, "seed {seed}: table1 rows diverged");
        // Sanity: both dataset groups are present, in input order.
        assert_eq!(sequential.len(), TABLE1_KINDS.len());
        for ((name, rows), kind) in sequential.iter().zip(TABLE1_KINDS) {
            assert_eq!(name, &kind.to_string());
            assert!(rows.iter().any(|r| r.label == "MATADOR"));
            assert!(rows.iter().any(|r| r.label == "FINN"));
        }
    }
}
