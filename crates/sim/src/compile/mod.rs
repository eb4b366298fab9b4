//! The compiler: LogicDag windows → tape IR → turbo program, plus a
//! design partitioner for model-parallel serving.
//!
//! Compilation is one translation, **lowering**: each window
//! [`LogicDag`](matador_logic::dag::LogicDag) flattens to an untyped
//! instruction tape over the nodes its clause outputs reach
//! ([`TurboProgram::compile`] lowers every window and packages the
//! tapes). The DAG is hash-consed when the generator builds it, which is
//! where MATADOR's clause sharing happens, so a tape-level CSE would
//! find nothing left to merge.
//!
//! The **partitioner** ([`CompilePipeline::partition`], driven by
//! [`CompileOptions::partitions`]) splits one oversized design into K
//! standalone sub-accelerators with a deterministic class-sum merge plan
//! ([`PartitionPlan`]). Partitioned serving is bit-identical to the
//! monolithic design — winners, class sums and cycle stamps
//! (`crates/sim/tests/compile_pipeline_equivalence.rs`). Each cut books
//! the `matador_compile_partitions_total` and
//! `matador_compile_partition_cut_cost_total` counters in
//! [`matador_obs`].
//!
//! # Examples
//!
//! Split a design and let a shard pool treat the parts as one logical
//! model (`matador_serve::ShardSpec::partitioned`):
//!
//! ```
//! use matador_logic::cube::{Cube, Lit};
//! use matador_logic::dag::Sharing;
//! use matador_sim::{AccelShape, CompiledAccelerator, CompileOptions, CompilePipeline};
//!
//! let shape = AccelShape { bus_width: 4, features: 4, classes: 2, clauses_per_class: 4 };
//! let cubes = vec![vec![
//!     Cube::from_lits([Lit::pos(0)]), Cube::one(),
//!     Cube::from_lits([Lit::pos(1)]), Cube::one(),
//!     Cube::from_lits([Lit::pos(2)]), Cube::one(),
//!     Cube::from_lits([Lit::pos(3)]), Cube::one(),
//! ]];
//! let accel = CompiledAccelerator::from_window_cubes(shape, &cubes, Sharing::Enabled);
//! let pipeline = CompilePipeline::new(CompileOptions::default().with_partitions(2));
//! let plan = pipeline.partition(&accel);
//! assert_eq!(plan.len(), 2);
//! let x = tsetlin::bits::BitVec::from_indices(4, &[0, 2]);
//! let member_sums: Vec<Vec<i32>> = plan
//!     .parts()
//!     .iter()
//!     .map(|part| part.batch_class_sums(&[x.clone()]).remove(0))
//!     .collect();
//! assert_eq!(plan.merge_class_sums(&member_sums), accel.batch_class_sums(&[x]).remove(0));
//! ```
//!
//! [`TurboProgram::compile`]: crate::TurboProgram::compile

pub(crate) mod ir;

mod partition;

pub use partition::PartitionPlan;

use crate::accel::CompiledAccelerator;
use matador_obs::{Counter, Registry};
use std::sync::{Arc, OnceLock};

/// Partitioner metric handles, resolved once per process (same pattern
/// as the turbo datapath's metrics). Pure sinks.
struct CompileMetrics {
    /// `matador_compile_partitions_total` — parts produced by the
    /// partitioner.
    partitions: Arc<Counter>,
    /// `matador_compile_partition_cut_cost_total` — window DAG nodes
    /// duplicated across partition cuts.
    cut_cost: Arc<Counter>,
}

fn compile_metrics() -> &'static CompileMetrics {
    static METRICS: OnceLock<CompileMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = Registry::global();
        CompileMetrics {
            partitions: registry.counter(
                "matador_compile_partitions_total",
                "",
                "Sub-programs produced by the design partitioner.",
            ),
            cut_cost: registry.counter(
                "matador_compile_partition_cut_cost_total",
                "",
                "Window DAG nodes duplicated across partition cuts.",
            ),
        }
    })
}

/// How [`CompilePipeline::partition`] cuts a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// How many sub-programs [`CompilePipeline::partition`] splits a
    /// design into (clamped to the design's vote-pair count; `1` means
    /// no partitioning).
    pub partitions: usize,
}

impl Default for CompileOptions {
    /// No partitioning.
    fn default() -> Self {
        CompileOptions { partitions: 1 }
    }
}

impl CompileOptions {
    /// Returns the options with the partition count set.
    #[must_use]
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }
}

/// The design partitioner. See the [module docs](self) for an example.
#[derive(Debug, Clone)]
pub struct CompilePipeline {
    options: CompileOptions,
}

impl CompilePipeline {
    /// A partitioner cutting designs as `options` says.
    pub fn new(options: CompileOptions) -> Self {
        CompilePipeline { options }
    }

    /// Splits `accel` into [`CompileOptions::partitions`] standalone
    /// sub-accelerators (see [`PartitionPlan`] for the merge contract).
    pub fn partition(&self, accel: &CompiledAccelerator) -> PartitionPlan {
        let plan = partition::partition(accel, self.options.partitions);
        let metrics = compile_metrics();
        metrics.partitions.add(plan.len() as u64);
        metrics.cut_cost.add(plan.cut_cost());
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::AccelShape;
    use crate::turbo::TurboProgram;
    use ir::{Op, WindowProgram};
    use matador_logic::cube::{Cube, Lit};
    use matador_logic::dag::Sharing;
    use tsetlin::bits::BitVec;

    fn accel(sharing: Sharing) -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 4,
            features: 8,
            classes: 2,
            clauses_per_class: 4,
        };
        let w0 = vec![
            Cube::from_lits([Lit::pos(0), Lit::neg(1)]),
            Cube::from_lits([Lit::pos(0), Lit::neg(1)]),
            Cube::from_lits([Lit::pos(2)]),
            Cube::one(),
            Cube::from_lits([Lit::pos(0), Lit::neg(1), Lit::pos(3)]),
            Cube::one(),
            Cube::from_lits([Lit::neg(3)]),
            Cube::one(),
        ];
        let w1 = w0.clone();
        CompiledAccelerator::from_window_cubes(shape, &[w0, w1], sharing)
    }

    fn batch(n: usize) -> Vec<BitVec> {
        (0..n)
            .map(|i| BitVec::from_indices(8, &[i % 8, (3 * i + 1) % 8]))
            .collect()
    }

    /// Lowers every window of `a` and checks the compiled program
    /// against the reference evaluator; returns the tapes.
    fn lowered_and_checked(a: &CompiledAccelerator) -> Vec<WindowProgram> {
        let program = TurboProgram::compile(a);
        let xs = batch(200);
        for (x, sums) in xs.iter().zip(program.class_sums(&xs)) {
            assert_eq!(sums, a.reference_class_sums(x));
        }
        a.windows().iter().map(WindowProgram::lower).collect()
    }

    fn count(tape: &WindowProgram, op: Op) -> usize {
        tape.ops.iter().filter(|&&o| o == op).count()
    }

    #[test]
    fn lowering_drops_constants_no_output_reads() {
        let shape = AccelShape {
            bus_width: 4,
            features: 8,
            classes: 2,
            clauses_per_class: 2,
        };
        let window = |base: u32| {
            vec![
                Cube::from_lits([Lit::pos(base), Lit::neg(base + 1)]),
                Cube::from_lits([Lit::pos(base + 2)]),
                Cube::from_lits([Lit::neg(base + 3)]),
                Cube::from_lits([Lit::pos(base), Lit::pos(base + 3)]),
            ]
        };
        for sharing in [Sharing::Enabled, Sharing::DontTouch] {
            let a = CompiledAccelerator::from_window_cubes(shape, &[window(0), window(0)], sharing);
            for tape in lowered_and_checked(&a) {
                assert_eq!(count(&tape, Op::Const0), 0, "sharing={sharing:?}");
                assert_eq!(count(&tape, Op::Const1), 0, "sharing={sharing:?}");
            }
        }
    }

    #[test]
    fn lowering_keeps_one_const1_for_empty_clauses() {
        for sharing in [Sharing::Enabled, Sharing::DontTouch] {
            // Every window holds several empty cubes (constant-1 clauses).
            for tape in lowered_and_checked(&accel(sharing)) {
                assert_eq!(count(&tape, Op::Const1), 1, "sharing={sharing:?}");
                assert_eq!(count(&tape, Op::Const0), 0, "sharing={sharing:?}");
            }
        }
    }

    #[test]
    fn partition_sums_merge_to_monolithic() {
        for sharing in [Sharing::Enabled, Sharing::DontTouch] {
            let a = accel(sharing);
            for k in [1usize, 2, 3, 4, 7] {
                let plan = CompilePipeline::new(CompileOptions::default().with_partitions(k))
                    .partition(&a);
                assert_eq!(plan.len(), k.clamp(1, 2), "cpc=4 has 2 vote pairs");
                // Ranges tile [0, cpc) and start even.
                let mut next = 0usize;
                for &(start, end) in plan.ranges() {
                    assert_eq!(start, next);
                    assert_eq!(start % 2, 0);
                    assert!(end > start);
                    next = end;
                }
                assert_eq!(next, a.shape().clauses_per_class);
                for x in batch(40) {
                    let member: Vec<Vec<i32>> = plan
                        .parts()
                        .iter()
                        .map(|p| p.reference_class_sums(&x))
                        .collect();
                    assert_eq!(
                        plan.merge_class_sums(&member),
                        a.reference_class_sums(&x),
                        "sharing={sharing:?} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_parts_share_packet_count() {
        let a = accel(Sharing::Enabled);
        let plan = CompilePipeline::new(CompileOptions::default().with_partitions(2)).partition(&a);
        for part in plan.parts() {
            assert_eq!(part.shape().num_packets(), a.shape().num_packets());
            assert_eq!(part.shape().features, a.shape().features);
            assert_eq!(part.shape().classes, a.shape().classes);
        }
    }
}
