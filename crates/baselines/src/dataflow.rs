//! FINN-style streaming-dataflow accelerator model: per-layer matrix-vector
//! units with PE×SIMD folding, weight memories, and the cycle/resource
//! behaviour the FINN compiler reports.
//!
//! In FINN every layer is a pipeline stage; a layer processes one frame in
//! `(inputs/SIMD) × (outputs/PE)` cycles, so throughput is bound by the
//! slowest layer (the initiation interval) and latency is roughly one II
//! plus per-stage fill. Weights stay on chip: ~4096 useful weight bits per
//! 36Kb BRAM once FINN's per-PE partitioning fragmentation is accounted
//! for — the divisor that reproduces the paper's 14.5 / 131 BRAM rows.

use crate::topology::Topology;
use matador_synth::resources::ResourceReport;
use serde::{Deserialize, Serialize};

/// Folding of one layer: how many rows/columns are processed in parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fold {
    /// Output-parallel processing elements (must divide the layer rows).
    pub pe: usize,
    /// Input-parallel lanes per PE (must divide the layer columns).
    pub simd: usize,
}

impl Fold {
    /// Compute lanes of this layer.
    pub fn lanes(&self) -> usize {
        self.pe * self.simd
    }
}

/// A folded dataflow design for one topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataflowDesign {
    /// The network being accelerated.
    pub topology: Topology,
    /// Folding per weight layer.
    pub folds: Vec<Fold>,
    /// Operating clock in MHz (FINN designs run at 100 MHz in the paper;
    /// the ZC706 BNN references at 200 MHz).
    pub clock_mhz: f64,
}

/// Cycle behaviour of a dataflow design.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataflowTiming {
    /// Initiation interval in cycles (slowest layer fold).
    pub ii_cycles: u64,
    /// End-to-end latency of one frame in cycles.
    pub latency_cycles: u64,
}

impl DataflowDesign {
    /// Builds a design, validating divisibility.
    ///
    /// # Panics
    ///
    /// Panics if fold counts mismatch the layer count or a fold does not
    /// divide its layer's shape.
    pub fn new(topology: Topology, folds: Vec<Fold>, clock_mhz: f64) -> Self {
        assert_eq!(
            folds.len(),
            topology.num_weight_layers(),
            "one fold per weight layer required"
        );
        for (l, fold) in folds.iter().enumerate() {
            let (m, n) = topology.layer_shape(l);
            assert!(m % fold.pe == 0, "layer {l}: PE {} ∤ rows {m}", fold.pe);
            assert!(
                n % fold.simd == 0,
                "layer {l}: SIMD {} ∤ cols {n}",
                fold.simd
            );
        }
        DataflowDesign {
            topology,
            folds,
            clock_mhz,
        }
    }

    /// Chooses the smallest folding whose II meets `target_ii` cycles —
    /// the FINN flow's folding step for a frame-rate target. Every layer
    /// gets the minimal lane count that folds under the target.
    ///
    /// # Panics
    ///
    /// Panics if `target_ii == 0`.
    pub fn fold_for_target_ii(topology: Topology, target_ii: u64, clock_mhz: f64) -> Self {
        assert!(target_ii > 0, "target II must be positive");
        let mut folds = Vec::new();
        for l in 0..topology.num_weight_layers() {
            let (m, n) = topology.layer_shape(l);
            let mut best: Option<Fold> = None;
            for pe in divisors(m) {
                for simd in divisors(n) {
                    let fold_cycles = ((m / pe) * (n / simd)) as u64;
                    if fold_cycles <= target_ii {
                        let candidate = Fold { pe, simd };
                        if best.is_none_or(|b| candidate.lanes() < b.lanes()) {
                            best = Some(candidate);
                        }
                    }
                }
            }
            folds.push(best.expect("full parallel always meets any target"));
        }
        DataflowDesign::new(topology, folds, clock_mhz)
    }

    /// Cycle behaviour: II = slowest layer, latency = sum of layer folds
    /// plus stream-stage fill overhead.
    pub fn timing(&self) -> DataflowTiming {
        let mut ii = 0u64;
        let mut total = 0u64;
        for (l, fold) in self.folds.iter().enumerate() {
            let (m, n) = self.topology.layer_shape(l);
            let cycles = ((m / fold.pe) * (n / fold.simd)) as u64;
            ii = ii.max(cycles);
            total += cycles.min(ii.max(1)) / self.folds.len().max(1) as u64;
        }
        // Deep pipelines hide all but the slowest stage; the paper's FINN
        // latencies are ≈ one II plus small per-stage fill.
        let latency = ii + 10 * self.folds.len() as u64 + total / 4;
        DataflowTiming {
            ii_cycles: ii,
            latency_cycles: latency,
        }
    }

    /// Latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.timing().latency_cycles as f64 / self.clock_mhz
    }

    /// Throughput in inferences per second.
    pub fn throughput_inf_s(&self) -> f64 {
        self.clock_mhz * 1.0e6 / self.timing().ii_cycles as f64
    }

    /// Resource estimate of the folded design.
    ///
    /// Constants: a W×A-bit MAC lane costs `wb·ab + 1` LUTs; each PE
    /// carries an accumulator/threshold unit; each layer a stream/control
    /// harness; the design AXI/DMA glue.
    /// Weight memory: 4096 useful bits per 36Kb BRAM (FINN per-PE
    /// fragmentation); thresholds live in LUTRAM.
    pub fn resources(&self) -> ResourceReport {
        let quant = self.topology.quant;
        let wb = quant.weight_bits as usize;
        let ab = quant.activation_bits as usize;
        let mut lut_logic = 3000usize; // AXI/DMA/width-converter glue
        let mut registers = 5000usize;
        let mut lut_mem = 400usize; // stream FIFOs
        let mut f7 = 40usize;
        let mut f8 = 0usize;
        for (l, fold) in self.folds.iter().enumerate() {
            let lanes = fold.lanes();
            // XNOR/mul + its share of the popcount/adder tree per lane
            // (multi-bit MACs decompose into wb×ab binary planes plus
            // recombination, ≈3 LUTs per plane in the FINN MVAU).
            let mac = lanes * (3 * wb * ab + 2);
            let acc = fold.pe * (14 + 6 * ab);
            lut_logic += mac + acc + 500;
            registers += lanes * (wb + 2) + fold.pe * 30 + 900;
            lut_mem += fold.pe * ab * 8; // threshold storage
            f7 += fold.pe / 2;
            f8 += fold.pe / 8;
            let _ = l;
        }
        let bram = (self.topology.weight_bits() as f64 / 4096.0 * 2.0).round() / 2.0;
        let ideal = (lut_logic + lut_mem).div_ceil(4).max(registers.div_ceil(8));
        let slices = (ideal as f64 * 1.9).round() as usize;
        ResourceReport {
            lut_logic,
            lut_mem,
            registers,
            slices,
            f7_mux: f7,
            f8_mux: f8,
            bram,
        }
    }
}

fn divisors(v: usize) -> Vec<usize> {
    (1..=v).filter(|d| v.is_multiple_of(*d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnist_folding_reproduces_paper_ii() {
        // Paper FINN-MNIST: 954,457 inf/s at 100 MHz → II ≈ 105 cycles.
        let d = DataflowDesign::fold_for_target_ii(Topology::finn_mnist(), 105, 100.0);
        let t = d.timing();
        assert!(t.ii_cycles <= 105);
        assert!(t.ii_cycles > 50, "II {} suspiciously low", t.ii_cycles);
        let fps = d.throughput_inf_s();
        assert!(
            (900_000.0..1_600_000.0).contains(&fps),
            "throughput {fps} out of band"
        );
    }

    #[test]
    fn mnist_bram_matches_paper_row() {
        let d = DataflowDesign::fold_for_target_ii(Topology::finn_mnist(), 105, 100.0);
        let r = d.resources();
        // Paper: 14.5 BRAM.
        assert!((r.bram - 14.4).abs() < 0.7, "bram {}", r.bram);
    }

    #[test]
    fn fmnist_bram_matches_paper_row() {
        let d = DataflowDesign::fold_for_target_ii(Topology::finn_fmnist(), 430, 100.0);
        let r = d.resources();
        // Paper: 131 BRAM.
        assert!((r.bram - 131.0).abs() < 5.0, "bram {}", r.bram);
    }

    #[test]
    fn mnist_luts_in_paper_neighbourhood() {
        let d = DataflowDesign::fold_for_target_ii(Topology::finn_mnist(), 105, 100.0);
        let r = d.resources();
        // Paper: 11,622 LUTs / 17,990 registers. Model must land within
        // ~35% — it feeds Table I where only relative magnitude matters.
        assert!((7_500..16_000).contains(&r.luts()), "luts {}", r.luts());
        assert!(
            (11_000..25_000).contains(&r.registers),
            "regs {}",
            r.registers
        );
    }

    #[test]
    fn tighter_ii_costs_more_lanes() {
        let slow = DataflowDesign::fold_for_target_ii(Topology::finn_mnist(), 800, 100.0);
        let fast = DataflowDesign::fold_for_target_ii(Topology::finn_mnist(), 60, 100.0);
        assert!(fast.resources().luts() > slow.resources().luts());
        assert!(fast.timing().ii_cycles < slow.timing().ii_cycles);
    }

    #[test]
    fn latency_close_to_ii() {
        let d = DataflowDesign::fold_for_target_ii(Topology::finn_mnist(), 105, 100.0);
        let t = d.timing();
        assert!(t.latency_cycles >= t.ii_cycles);
        assert!(t.latency_cycles < 2 * t.ii_cycles + 80);
    }

    #[test]
    #[should_panic(expected = "PE")]
    fn validates_divisibility() {
        DataflowDesign::new(
            Topology::finn_mnist(),
            vec![
                Fold { pe: 7, simd: 4 }, // 7 ∤ 64
                Fold { pe: 1, simd: 1 },
                Fold { pe: 1, simd: 1 },
                Fold { pe: 1, simd: 1 },
            ],
            100.0,
        );
    }

    #[test]
    fn full_parallel_ii_is_one() {
        let topo = Topology::finn_mnist();
        let folds: Vec<Fold> = (0..topo.num_weight_layers())
            .map(|l| {
                let (m, n) = topo.layer_shape(l);
                Fold { pe: m, simd: n }
            })
            .collect();
        let d = DataflowDesign::new(topo, folds, 200.0);
        assert_eq!(d.timing().ii_cycles, 1);
    }
}
