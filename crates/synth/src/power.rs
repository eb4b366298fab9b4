//! Power estimation — the stand-in for Vivado's implementation power
//! report (Table I's "Total Pwr" / "Dyn Pwr" columns).
//!
//! The model decomposes dissipation the way Zynq reports do:
//!
//! * device static leakage (≈0.135 W on the XC7Z020 rows),
//! * processing-system (ARM) dynamic power — both MATADOR and FINN keep
//!   the PS busy streaming, so it appears in every row (≈1.25 W),
//! * programmable-logic dynamic power ∝ clock × switched resources.
//!
//! The per-resource coefficients are calibrated so the published rows are
//! reproduced within a few percent (the `*_row_reproduced` tests hold
//! them to it):
//! MATADOR-MNIST 1.292 W dyn @50 MHz/8.7k LUT, FINN-MNIST 1.458 W dyn
//! @100 MHz/11.6k LUT/14.5 BRAM.

use crate::device::Device;
use crate::resources::ResourceReport;
use serde::{Deserialize, Serialize};

/// Calibrated dynamic-power coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Watts per MHz per logic LUT (includes average toggle activity).
    pub w_per_mhz_lut: f64,
    /// Watts per MHz per slice register.
    pub w_per_mhz_reg: f64,
    /// Watts per MHz per 36Kb BRAM.
    pub w_per_mhz_bram: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            w_per_mhz_lut: 3.0e-8,
            w_per_mhz_reg: 1.0e-8,
            w_per_mhz_bram: 1.0e-4,
        }
    }
}

/// A power estimate (watts).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerReport {
    /// Programmable-logic dynamic power.
    pub pl_dynamic_w: f64,
    /// Processing-system dynamic power.
    pub ps_dynamic_w: f64,
    /// Device static power.
    pub static_w: f64,
}

impl PowerReport {
    /// Dynamic power as Vivado reports it (PS + PL).
    pub fn dynamic_w(&self) -> f64 {
        self.pl_dynamic_w + self.ps_dynamic_w
    }

    /// Total on-chip power.
    pub fn total_w(&self) -> f64 {
        self.dynamic_w() + self.static_w
    }
}

impl PowerModel {
    /// Estimates power for `resources` clocked at `clock_mhz` on `device`.
    ///
    /// # Panics
    ///
    /// Panics if `clock_mhz` is not positive.
    pub fn estimate(
        &self,
        device: &Device,
        resources: &ResourceReport,
        clock_mhz: f64,
    ) -> PowerReport {
        assert!(clock_mhz > 0.0, "clock must be positive");
        let pl = clock_mhz
            * (self.w_per_mhz_lut * resources.luts() as f64
                + self.w_per_mhz_reg * resources.registers as f64
                + self.w_per_mhz_bram * resources.bram);
        PowerReport {
            pl_dynamic_w: pl,
            ps_dynamic_w: device.ps_power_w,
            static_w: device.static_power_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matador_mnist_resources() -> ResourceReport {
        ResourceReport {
            lut_logic: 8516,
            lut_mem: 193,
            registers: 17440,
            slices: 4186,
            f7_mux: 5,
            f8_mux: 0,
            bram: 3.0,
        }
    }

    fn finn_mnist_resources() -> ResourceReport {
        ResourceReport {
            lut_logic: 10425,
            lut_mem: 1197,
            registers: 17990,
            slices: 6207,
            f7_mux: 172,
            f8_mux: 16,
            bram: 14.5,
        }
    }

    #[test]
    fn matador_mnist_row_reproduced() {
        let p =
            PowerModel::default().estimate(&Device::xc7z020(), &matador_mnist_resources(), 50.0);
        // Paper: dyn 1.292 W, total 1.427 W.
        assert!(
            (p.dynamic_w() - 1.292).abs() < 0.05,
            "dyn = {}",
            p.dynamic_w()
        );
        assert!((p.total_w() - 1.427).abs() < 0.06, "tot = {}", p.total_w());
    }

    #[test]
    fn finn_mnist_row_reproduced() {
        let p = PowerModel::default().estimate(&Device::xc7z020(), &finn_mnist_resources(), 100.0);
        // Paper: dyn 1.458 W, total 1.599 W.
        assert!(
            (p.dynamic_w() - 1.458).abs() < 0.08,
            "dyn = {}",
            p.dynamic_w()
        );
        assert!((p.total_w() - 1.599).abs() < 0.09, "tot = {}", p.total_w());
    }

    #[test]
    fn bram_heavy_designs_burn_more() {
        let m = PowerModel::default();
        let dev = Device::xc7z020();
        let mut light = matador_mnist_resources();
        let mut heavy = light;
        heavy.bram = 131.0;
        light.bram = 3.0;
        let p_light = m.estimate(&dev, &light, 100.0);
        let p_heavy = m.estimate(&dev, &heavy, 100.0);
        assert!(p_heavy.dynamic_w() > p_light.dynamic_w() + 1.0);
    }

    #[test]
    fn power_scales_with_clock() {
        let m = PowerModel::default();
        let dev = Device::xc7z020();
        let r = matador_mnist_resources();
        let p50 = m.estimate(&dev, &r, 50.0);
        let p100 = m.estimate(&dev, &r, 100.0);
        assert!((p100.pl_dynamic_w - 2.0 * p50.pl_dynamic_w).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "clock must be positive")]
    fn rejects_zero_clock() {
        PowerModel::default().estimate(&Device::xc7z020(), &matador_mnist_resources(), 0.0);
    }
}
