//! # matador-datasets — synthetic edge-application workloads
//!
//! Deterministic stand-ins for the five datasets of the MATADOR evaluation
//! (MNIST, KMNIST, FMNIST, CIFAR-2, KWS-6) plus the 2-D Noisy XOR and IRIS
//! tasks used by the earlier TM-FPGA literature. Each generator matches the
//! real dataset's booleanized feature width and class count, so packet
//! counts, HCB structure and resource scaling downstream are faithful even
//! where absolute accuracies differ — the repository ships no real data
//! (see the README's "Reproducing the paper's tables and figures" section).
//!
//! ```
//! use matador_datasets::{generate, DatasetKind, SplitSizes};
//!
//! let mnist = generate(DatasetKind::Mnist, SplitSizes::QUICK, 42);
//! assert_eq!(mnist.features(), 784);   // → 13 packets at W = 64
//! assert_eq!(mnist.classes(), 10);
//! ```

pub mod generate;
pub mod spec;

pub use generate::{generate, generate_with_spec, Dataset, SplitSizes};
pub use spec::{DatasetKind, SpecError, SyntheticSpec};
