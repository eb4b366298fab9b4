//! Scratch calibration probe for baseline BNN training (not part of the
//! published harness): prints the float and quantized test accuracy of
//! four FINN topologies over a small grid of float fraction, learning
//! rate and epochs.

use matador_baselines::bnn::{QuantMlp, TrainConfig};
use matador_baselines::presets::BaselineKind;
use matador_datasets::{generate, DatasetKind, SplitSizes};
use tsetlin::Sample;

fn float_acc(net: &QuantMlp, data: &[Sample]) -> f64 {
    let ok = data
        .iter()
        .filter(|s| {
            let sc = net.forward_float(&s.input);
            let mut best = 0;
            for (i, &v) in sc.iter().enumerate().skip(1) {
                if v > sc[best] {
                    best = i;
                }
            }
            best == s.label
        })
        .count();
    ok as f64 / data.len() as f64
}

fn main() {
    let sizes = SplitSizes {
        train: 400,
        test: 200,
    };
    for (kind, bk) in [
        (DatasetKind::Mnist, BaselineKind::FinnMnist),
        (DatasetKind::Kws6, BaselineKind::FinnKws6),
        (DatasetKind::Fmnist, BaselineKind::FinnFmnist),
        (DatasetKind::Cifar2, BaselineKind::FinnCifar2),
    ] {
        let data = generate(kind, sizes, 2024);
        for ff in [0.0f32, 0.25, 0.5] {
            for (lr, epochs) in [(0.03f32, 16usize), (0.05, 24)] {
                let mut net = QuantMlp::new(bk.topology(), 2024 ^ 0xF1);
                net.train(
                    &data.train,
                    TrainConfig {
                        learning_rate: lr,
                        epochs,
                        float_fraction: ff,
                    },
                    2024 ^ 0xF2,
                );
                println!(
                    "{kind:<8} ff={ff:<5} lr={lr:<5} ep={epochs:<3} float_test={:.3} quant_test={:.3}",
                    float_acc(&net, &data.test),
                    net.accuracy(&data.test)
                );
            }
        }
    }
}
