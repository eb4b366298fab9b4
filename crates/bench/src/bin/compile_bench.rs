//! Partitioned-serving benchmark: the KWS-6 design served as a K-shard
//! partition group must reproduce the monolithic pool's winners bit for
//! bit, with a machine-readable artifact.
//!
//! One KWS-6 model is trained and its accelerator generated. The
//! partitioner then cuts the design into each requested K, and a K-shard
//! partition-group pool serves the same batch as a one-shard monolithic
//! pool (always asserted; a mismatch exits non-zero).
//!
//! ```text
//! cargo run -p matador-bench --bin compile_bench --release -- \
//!     [--quick] [--seed N] [--batch N] \
//!     [--partitions 2,4] [--out BENCH_compile.json]
//! ```
//!
//! The JSON artifact (`BENCH_compile.json` by default) records the
//! monolithic tape size and one row per partition count: parts, cut
//! cost and whether the winners matched.

use matador::design::AcceleratorDesign;
use matador_bench::eval::{bad_arg, parse_positive_list, train_spec, EvalOptions};
use matador_bench::BenchArtifact;
use matador_datasets::{generate, DatasetKind};
use matador_serve::{EngineBackend, ServeOptions, ShardPool, ShardSpec};
use matador_sim::{CompileOptions, CompilePipeline, TurboProgram};
use tsetlin::bits::BitVec;

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

struct BenchArgs {
    batch: usize,
    partitions: Vec<usize>,
    out: String,
    opts: EvalOptions,
}

fn parse_args() -> Result<BenchArgs, matador::Error> {
    let mut batch = 1024usize;
    let mut partitions = vec![2usize];
    let mut out = "BENCH_compile.json".to_string();
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--batch" => {
                let value = args
                    .next()
                    .ok_or_else(|| bad_arg("--batch requires a value"))?;
                batch = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| bad_arg(format!("--batch '{value}' is not positive")))?;
            }
            "--partitions" => partitions = parse_positive_list(&arg, args.next())?,
            "--out" => {
                out = args
                    .next()
                    .ok_or_else(|| bad_arg("--out requires a path"))?;
            }
            _ => rest.push(arg),
        }
    }
    let opts = EvalOptions::from_args(rest)?;
    Ok(BenchArgs {
        batch,
        partitions,
        out,
        opts,
    })
}

/// Winners a `specs` pool serves for `batch`.
fn winners_of(specs: &[ShardSpec], batch: &[BitVec]) -> Vec<usize> {
    let mut pool =
        ShardPool::heterogeneous(specs, ServeOptions::new(specs.len())).expect("valid specs");
    pool.serve(batch)
        .expect("engines drain")
        .iter()
        .map(|p| p.winner)
        .collect()
}

fn run() -> Result<bool, matador::Error> {
    let args = parse_args()?;
    let kind = DatasetKind::Kws6;
    let opts = &args.opts;
    let threads = matador_par::configured_threads();

    eprintln!("[compile_bench] {kind}: training model + generating accelerator…");
    let data = generate(kind, opts.sizes, opts.seed);
    let model = train_spec(kind, opts).fit(&data.train, threads);
    let config = matador::config::MatadorConfig::builder()
        .design_name("compile_bench")
        .build()
        .expect("default configuration is valid");
    let design = AcceleratorDesign::generate_with_threads(model, config, threads);
    let accel = design.compile_for_sim();
    let batch: Vec<BitVec> = (0..args.batch)
        .map(|i| data.test[i % data.test.len()].input.clone())
        .collect();

    let tape = TurboProgram::compile(&accel).chunk_cost();
    println!(
        "compile_bench — {kind} design, {} windows of bus width {}, seed {}, {tape} tape \
         instructions",
        accel.shape().num_packets(),
        accel.shape().bus_width,
        opts.seed,
    );

    // Partitioned serving: a K-shard partition group must reproduce the
    // monolithic pool's winners bit for bit.
    let mono_specs = vec![ShardSpec::new(accel.clone()).backend(EngineBackend::Turbo)];
    let expected = winners_of(&mono_specs, &batch);
    let mut ok = true;
    let mut partition_rows: Vec<(usize, usize, u64, bool)> = Vec::new();
    println!();
    for &k in &args.partitions {
        let plan =
            CompilePipeline::new(CompileOptions::default().with_partitions(k)).partition(&accel);
        let (parts, cut_cost) = (plan.len(), plan.cut_cost());
        let specs: Vec<ShardSpec> = ShardSpec::partitioned(plan, 0)
            .into_iter()
            .map(|s| s.backend(EngineBackend::Turbo))
            .collect();
        let got = winners_of(&specs, &batch);
        let identical = got == expected;
        println!(
            "  partitions={k}: {parts} sub-programs, cut cost {cut_cost}, winners {}",
            if identical { "identical" } else { "DIVERGED" }
        );
        if !identical {
            eprintln!("::error::partitioned {k}-shard serving diverged from the monolithic pool");
            ok = false;
        }
        partition_rows.push((k, parts, cut_cost, identical));
    }

    let mut artifact = BenchArtifact::new(
        "compile_pipeline",
        kind.to_string(),
        args.batch,
        opts.seed,
        threads,
    );
    artifact.push_run_metadata();
    artifact.push_field("tape_instructions", tape.to_string());
    for &(k, parts, cut_cost, identical) in &partition_rows {
        artifact.push_row(format!(
            "{{\"sweep\": \"partitions\", \"partitions\": {k}, \"parts\": {parts}, \
             \"cut_cost\": {cut_cost}, \"winners_identical\": {identical}}}"
        ));
    }
    artifact.write(&args.out).map_err(matador::Error::other)?;
    println!("\nwrote {}", args.out);
    Ok(ok)
}
