//! The cost model behind "significantly lower in cost than conventional
//! ATE".
//!
//! The paper's pitch is economic: commodity parts (a ~$300 FPGA, a handful
//! of PECL/SiGe devices, a USB microcontroller) replace a multi-gigahertz
//! ATE channel card that costs thousands of dollars **per pin**. This
//! module quantifies the claim with a transparent 2005-era bill of
//! materials and the standard per-pin comparison.

use core::fmt;

/// One bill-of-materials line.
#[derive(Debug, Clone, PartialEq)]
pub struct BomLine {
    /// Part description.
    pub part: String,
    /// Quantity.
    pub quantity: u32,
    /// Unit cost in dollars.
    pub unit_cost: f64,
}

impl BomLine {
    /// Creates a line.
    pub fn new(part: impl Into<String>, quantity: u32, unit_cost: f64) -> Self {
        BomLine { part: part.into(), quantity, unit_cost }
    }

    /// Extended cost of the line.
    fn extended(&self) -> f64 {
        f64::from(self.quantity) * self.unit_cost
    }
}

/// A bill of materials.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BillOfMaterials {
    lines: Vec<BomLine>,
}

impl BillOfMaterials {
    /// Creates an empty BOM.
    pub fn new() -> Self {
        BillOfMaterials::default()
    }

    /// Adds a line (builder style).
    #[must_use]
    pub fn with(mut self, part: impl Into<String>, quantity: u32, unit_cost: f64) -> Self {
        self.lines.push(BomLine::new(part, quantity, unit_cost));
        self
    }

    /// The lines.
    pub fn lines(&self) -> &[BomLine] {
        &self.lines
    }

    /// Total cost.
    pub fn total(&self) -> f64 {
        self.lines.iter().map(BomLine::extended).sum()
    }

    /// The DLC board itself (Fig. 2): FPGA, FLASH, USB µC, crystal,
    /// power, PCB. 2005-era catalog prices.
    pub fn dlc() -> Self {
        BillOfMaterials::new()
            .with("Xilinx XC2V1000 FPGA", 1, 320.0)
            .with("Configuration FLASH", 1, 12.0)
            .with("USB 2.0 microcontroller", 1, 9.0)
            .with("12 MHz crystal", 1, 1.5)
            .with("DC power regulation", 1, 18.0)
            .with("6-layer PCB + assembly", 1, 150.0)
    }

    /// The Optical Test Bed PECL board (§3): serializers, SiGe buffers,
    /// delay verniers, DACs, connectors — for 10 channels.
    fn testbed_pecl() -> Self {
        BillOfMaterials::new()
            .with("PECL 8:1 serializer", 5, 42.0)
            .with("SiGe output buffer", 10, 28.0)
            .with("Programmable delay line (10 ps)", 10, 55.0)
            .with("Level-tuning DAC", 3, 11.0)
            .with("Clock fanout buffer", 2, 24.0)
            .with("SMA connectors", 24, 6.5)
            .with("8-layer RF PCB + assembly", 1, 400.0)
    }

    /// The mini-tester PECL additions (§4): two 8:1 groups, final 2:1 mux,
    /// sampler, verniers.
    fn minitester_pecl() -> Self {
        BillOfMaterials::new()
            .with("PECL 8:1 serializer", 2, 42.0)
            .with("PECL 2:1 output mux", 1, 38.0)
            .with("Sampling comparator", 1, 65.0)
            .with("Programmable delay line (10 ps)", 4, 55.0)
            .with("Level-tuning DAC", 2, 11.0)
            .with("Clock fanout buffer", 1, 24.0)
            .with("Compact RF PCB + assembly", 1, 280.0)
    }
}

impl fmt::Display for BillOfMaterials {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in &self.lines {
            writeln!(f, "{:>3} x {:<36} ${:>8.2}", line.quantity, line.part, line.extended())?;
        }
        write!(f, "      {:<36} ${:>8.2}", "TOTAL", self.total())
    }
}

/// Comparison of a DLC+PECL system against conventional ATE for the same
/// pin count and speed class.
#[derive(Debug, Clone, PartialEq)]
pub struct CostComparison {
    /// The custom system's total cost.
    pub custom_total: f64,
    /// High-speed pins provided.
    pub pins: u32,
    /// Conventional ATE cost per multi-gigahertz pin (2005: $3k–$10k).
    pub ate_cost_per_pin: f64,
}

impl CostComparison {
    /// The §3 test bed: DLC + test-bed PECL, 10 multi-gigahertz channels,
    /// against a conservative $5 000/pin ATE figure.
    pub fn optical_testbed() -> Self {
        CostComparison {
            custom_total: BillOfMaterials::dlc().total() + BillOfMaterials::testbed_pecl().total(),
            pins: 10,
            ate_cost_per_pin: 5_000.0,
        }
    }

    /// The §4 mini-tester: DLC + mini-tester PECL, 2 at-speed pins (one
    /// stimulus, one capture), against the same ATE figure.
    pub fn mini_tester() -> Self {
        CostComparison {
            custom_total: BillOfMaterials::dlc().total()
                + BillOfMaterials::minitester_pecl().total(),
            pins: 2,
            ate_cost_per_pin: 5_000.0,
        }
    }

    /// The custom system's cost per high-speed pin.
    fn custom_cost_per_pin(&self) -> f64 {
        self.custom_total / f64::from(self.pins)
    }

    /// Equivalent conventional-ATE cost for the same pins.
    fn ate_total(&self) -> f64 {
        self.ate_cost_per_pin * f64::from(self.pins)
    }

    /// Cost advantage: ATE cost over custom cost.
    pub fn savings_factor(&self) -> f64 {
        self.ate_total() / self.custom_total
    }
}

impl fmt::Display for CostComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "custom ${:.0} for {} pins (${:.0}/pin) vs ATE ${:.0} (${:.0}/pin): {:.1}x cheaper",
            self.custom_total,
            self.pins,
            self.custom_cost_per_pin(),
            self.ate_total(),
            self.ate_cost_per_pin,
            self.savings_factor()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bom_arithmetic() {
        let bom = BillOfMaterials::new().with("widget", 3, 10.0).with("gadget", 1, 5.5);
        assert_eq!(bom.lines().len(), 2);
        assert!((bom.total() - 35.5).abs() < 1e-9);
        assert!((bom.lines()[0].extended() - 30.0).abs() < 1e-9);
        let text = bom.to_string();
        assert!(text.contains("TOTAL"));
        assert!(text.contains("widget"));
        assert_eq!(BillOfMaterials::default(), BillOfMaterials::new());
    }

    #[test]
    fn dlc_is_commodity_priced() {
        let dlc = BillOfMaterials::dlc();
        // A DLC board is a few hundred dollars, not tens of thousands.
        assert!(dlc.total() > 300.0 && dlc.total() < 1_000.0, "{}", dlc.total());
    }

    #[test]
    fn testbed_beats_ate_by_an_order_of_magnitude() {
        let cmp = CostComparison::optical_testbed();
        // ~$2.7k custom vs $50k of ATE channels.
        assert!(cmp.custom_total < 4_000.0, "custom {}", cmp.custom_total);
        assert!((cmp.ate_total() - 50_000.0).abs() < 1e-9);
        assert!(cmp.savings_factor() > 10.0, "savings {}", cmp.savings_factor());
        assert!(cmp.custom_cost_per_pin() < 500.0);
        assert!(cmp.to_string().contains("cheaper"));
    }

    #[test]
    fn minitester_still_wins_at_low_pin_count() {
        let cmp = CostComparison::mini_tester();
        // Two at-speed pins for ~$1.5k vs $10k of ATE.
        assert!(cmp.savings_factor() > 5.0, "savings {}", cmp.savings_factor());
        assert!(cmp.custom_total < 2_500.0);
    }
}
