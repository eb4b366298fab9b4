//! Dataset identities and generation parameters.

use std::fmt;

/// Error returned when a [`SyntheticSpec`]'s parameters are inconsistent.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SpecError {
    /// `distinct_bits + mode_spread_bits` exceeds the feature width, so
    /// class/mode signatures cannot be placed.
    SignatureExceedsWidth {
        /// Class-signature flip count.
        distinct_bits: usize,
        /// Mode-signature flip count.
        mode_spread_bits: usize,
        /// Booleanized feature width of the dataset kind.
        features: usize,
    },
    /// A probability-valued field is outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Which field (`"base_density"` or `"noise"`).
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `central_band` is outside `(0, 1]` — the signature band would be
    /// empty or exceed the feature range.
    CentralBandOutOfRange {
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid synthetic dataset spec: ")?;
        match *self {
            SpecError::SignatureExceedsWidth {
                distinct_bits,
                mode_spread_bits,
                features,
            } => write!(
                f,
                "signature bits {distinct_bits}+{mode_spread_bits} exceed {features} features"
            ),
            SpecError::ProbabilityOutOfRange { field, value } => {
                write!(f, "{field} = {value} is outside [0, 1]")
            }
            SpecError::CentralBandOutOfRange { value } => {
                write!(f, "central_band = {value} is outside (0, 1]")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// The five evaluation datasets of the paper (Table I / Table II) plus the
/// two small datasets the prior FPGA-TM literature used (\[22\], \[23\]).
///
/// All are *synthetic stand-ins* generated with the real datasets'
/// dimensions and class counts: the repository ships no real data, and
/// everything downstream of booleanization — packet counts, HCB
/// structure, latency and resource scaling — depends only on feature
/// width and class count (see the README's "Reproducing the paper's
/// tables and figures" section).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DatasetKind {
    /// 784-bit handwritten-digit stand-in, 10 classes (13 × 64-bit packets).
    Mnist,
    /// 784-bit Kuzushiji-character stand-in, 10 classes.
    Kmnist,
    /// 784-bit fashion-article stand-in, 10 classes.
    Fmnist,
    /// 1024-bit animal/vehicle stand-in, 2 classes (16 packets).
    Cifar2,
    /// 377-bit keyword-spotting stand-in, 6 classes (6 packets).
    Kws6,
    /// 12-bit noisy-XOR: label = x₀ ⊕ x₁ with distractor bits.
    NoisyXor,
    /// 16-bit thermometer-encoded 3-class flower stand-in.
    Iris,
}

impl DatasetKind {
    /// All five Table I datasets, in the paper's row order.
    pub const TABLE_I: [DatasetKind; 5] = [
        DatasetKind::Mnist,
        DatasetKind::Kws6,
        DatasetKind::Cifar2,
        DatasetKind::Fmnist,
        DatasetKind::Kmnist,
    ];

    /// Booleanized feature width consumed by the accelerator.
    pub fn features(self) -> usize {
        match self {
            DatasetKind::Mnist | DatasetKind::Kmnist | DatasetKind::Fmnist => 784,
            DatasetKind::Cifar2 => 1024,
            DatasetKind::Kws6 => 377,
            DatasetKind::NoisyXor => 12,
            DatasetKind::Iris => 16,
        }
    }

    /// Number of classes.
    pub fn classes(self) -> usize {
        match self {
            DatasetKind::Mnist | DatasetKind::Kmnist | DatasetKind::Fmnist => 10,
            DatasetKind::Cifar2 => 2,
            DatasetKind::Kws6 => 6,
            DatasetKind::NoisyXor => 2,
            DatasetKind::Iris => 3,
        }
    }

    /// MATADOR clause budget per class used in the paper (Table II).
    /// The small datasets get a modest default.
    pub fn paper_clauses_per_class(self) -> usize {
        match self {
            DatasetKind::Mnist => 200,
            DatasetKind::Kws6 => 300,
            DatasetKind::Cifar2 => 1000,
            DatasetKind::Fmnist | DatasetKind::Kmnist => 500,
            DatasetKind::NoisyXor => 20,
            DatasetKind::Iris => 40,
        }
    }

    /// Generation parameters tuned so the trained-TM accuracy ordering
    /// reproduces Table I (MNIST easiest; CIFAR-2/KWS harder).
    pub fn default_spec(self) -> SyntheticSpec {
        match self {
            DatasetKind::Mnist => SyntheticSpec {
                kind: self,
                modes_per_class: 5,
                base_density: 0.18,
                distinct_bits: 90,
                mode_spread_bits: 60,
                noise: 0.09,
                central_band: 0.55,
            },
            DatasetKind::Kmnist => SyntheticSpec {
                kind: self,
                modes_per_class: 6,
                base_density: 0.20,
                distinct_bits: 80,
                mode_spread_bits: 70,
                noise: 0.13,
                central_band: 0.60,
            },
            DatasetKind::Fmnist => SyntheticSpec {
                kind: self,
                modes_per_class: 6,
                base_density: 0.25,
                distinct_bits: 80,
                mode_spread_bits: 65,
                noise: 0.13,
                central_band: 0.60,
            },
            DatasetKind::Cifar2 => SyntheticSpec {
                kind: self,
                modes_per_class: 12,
                base_density: 0.35,
                distinct_bits: 90,
                mode_spread_bits: 90,
                noise: 0.17,
                central_band: 0.70,
            },
            DatasetKind::Kws6 => SyntheticSpec {
                kind: self,
                modes_per_class: 6,
                base_density: 0.30,
                distinct_bits: 48,
                mode_spread_bits: 40,
                noise: 0.14,
                central_band: 0.80,
            },
            DatasetKind::NoisyXor => SyntheticSpec {
                kind: self,
                modes_per_class: 1,
                base_density: 0.5,
                distinct_bits: 0,
                mode_spread_bits: 0,
                noise: 0.0,
                central_band: 1.0,
            },
            DatasetKind::Iris => SyntheticSpec {
                kind: self,
                modes_per_class: 1,
                base_density: 0.0,
                distinct_bits: 0,
                mode_spread_bits: 0,
                noise: 0.0,
                central_band: 1.0,
            },
        }
    }
}

impl fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DatasetKind::Mnist => "MNIST",
            DatasetKind::Kmnist => "KMNIST",
            DatasetKind::Fmnist => "FMNIST",
            DatasetKind::Cifar2 => "CIFAR-2",
            DatasetKind::Kws6 => "KWS-6",
            DatasetKind::NoisyXor => "2D-Noisy-XOR",
            DatasetKind::Iris => "IRIS",
        };
        f.write_str(name)
    }
}

/// Generation parameters of a prototype-based synthetic dataset.
///
/// Samples are drawn as: pick one of `modes_per_class` class prototypes,
/// then flip each bit independently with probability `noise`. Prototypes
/// are derived from one shared background pattern (`base_density` ones) by
/// flipping `distinct_bits` class-specific positions, then `mode_spread_bits`
/// mode-specific positions — so classes overlap heavily in the background
/// bits (like real image datasets) and differ in a sparse signature, which
/// is exactly the structure TM includes latch onto.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SyntheticSpec {
    /// Which dataset this parameterizes.
    pub kind: DatasetKind,
    /// Prototype sub-modes per class (intra-class variation).
    pub modes_per_class: usize,
    /// Fraction of background bits set.
    pub base_density: f64,
    /// Bits flipped from the background per class.
    pub distinct_bits: usize,
    /// Additional bits flipped per mode within a class.
    pub mode_spread_bits: usize,
    /// Per-bit flip probability at sampling time.
    pub noise: f64,
    /// Fraction of the feature range (centred) that carries the class /
    /// mode signature bits. Discriminative pixels cluster centrally in
    /// the real image datasets, which is what gives Fig 8 its mid-chain
    /// per-HCB resource bump; 1.0 = uniform.
    pub central_band: f64,
}

impl SyntheticSpec {
    /// Checks the parameters are generatable for this spec's kind.
    ///
    /// The NoisyXor and Iris generators are closed-form and ignore the
    /// prototype fields entirely, so specs of those kinds always validate.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] naming the first inconsistent field.
    pub fn validate(&self) -> Result<(), SpecError> {
        if matches!(self.kind, DatasetKind::NoisyXor | DatasetKind::Iris) {
            return Ok(());
        }
        let features = self.kind.features();
        if self.distinct_bits + self.mode_spread_bits > features {
            return Err(SpecError::SignatureExceedsWidth {
                distinct_bits: self.distinct_bits,
                mode_spread_bits: self.mode_spread_bits,
                features,
            });
        }
        for (field, value) in [("base_density", self.base_density), ("noise", self.noise)] {
            if !(0.0..=1.0).contains(&value) {
                return Err(SpecError::ProbabilityOutOfRange { field, value });
            }
        }
        if !(self.central_band > 0.0 && self.central_band <= 1.0) {
            return Err(SpecError::CentralBandOutOfRange {
                value: self.central_band,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_match_paper() {
        assert_eq!(DatasetKind::Mnist.features(), 784);
        assert_eq!(DatasetKind::Cifar2.features(), 1024);
        assert_eq!(DatasetKind::Kws6.features(), 377);
        assert_eq!(DatasetKind::Mnist.classes(), 10);
        assert_eq!(DatasetKind::Cifar2.classes(), 2);
        assert_eq!(DatasetKind::Kws6.classes(), 6);
    }

    #[test]
    fn paper_clause_budgets_match_table_ii() {
        assert_eq!(DatasetKind::Mnist.paper_clauses_per_class(), 200);
        assert_eq!(DatasetKind::Kws6.paper_clauses_per_class(), 300);
        assert_eq!(DatasetKind::Cifar2.paper_clauses_per_class(), 1000);
        assert_eq!(DatasetKind::Fmnist.paper_clauses_per_class(), 500);
        assert_eq!(DatasetKind::Kmnist.paper_clauses_per_class(), 500);
    }

    #[test]
    fn table_i_order_matches_paper_rows() {
        let names: Vec<String> = DatasetKind::TABLE_I.iter().map(|k| k.to_string()).collect();
        assert_eq!(names, ["MNIST", "KWS-6", "CIFAR-2", "FMNIST", "KMNIST"]);
    }

    #[test]
    fn display_names() {
        assert_eq!(DatasetKind::NoisyXor.to_string(), "2D-Noisy-XOR");
    }
}
