//! Signaling-protocol evaluation.
//!
//! §1: "Various signaling protocols are evaluated for the transmission of
//! data packets through an optical switching network." A protocol here is
//! a packet-slot layout — how the fixed 64-bit slot is divided between
//! dead time, guard bands, pre/post clocks, and payload. More payload
//! means higher efficiency; more protocol overhead means more tolerance
//! for receiver start-up time and switch timing uncertainty. This module
//! makes that trade measurable.

use core::fmt;

use pstime::Duration;

use crate::frame::{PacketSlot, SlotTiming};
use crate::rx::Receiver;
use crate::tx::Transmitter;
use crate::Result;

/// A named slot-layout variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolVariant {
    /// Human-readable name.
    pub name: &'static str,
    /// The slot layout.
    pub timing: SlotTiming,
}

impl ProtocolVariant {
    /// The paper's Fig. 4 layout: 32 payload bits of 64 (50 % efficient),
    /// generous guards and pre/post clocks.
    pub fn paper() -> Self {
        ProtocolVariant { name: "paper-fig4", timing: SlotTiming::paper() }
    }

    /// An aggressive layout: the same 32 payload bits squeezed into a
    /// shorter 48-bit slot (67 % efficient), minimal guards — fine with
    /// fast-locking receivers and a well-behaved switch, fragile
    /// otherwise.
    fn aggressive() -> Self {
        let mut t = SlotTiming::paper();
        t.slot_bits = 48;
        t.dead_bits = 6;
        t.guard_bits = 2;
        t.pre_clock_bits = 3;
        t.data_bits = 32;
        t.post_clock_bits = 3;
        ProtocolVariant { name: "aggressive", timing: t }
    }

    /// A conservative layout: only 20 payload bits (31 % efficient) but
    /// big margins everywhere.
    fn conservative() -> Self {
        let mut t = SlotTiming::paper();
        t.dead_bits = 10;
        t.guard_bits = 7;
        t.pre_clock_bits = 10;
        t.data_bits = 20;
        t.post_clock_bits = 10;
        ProtocolVariant { name: "conservative", timing: t }
    }

    /// All built-in variants, most conservative first.
    fn catalog() -> Vec<ProtocolVariant> {
        vec![Self::conservative(), Self::paper(), Self::aggressive()]
    }

    /// Payload efficiency: data bits over slot bits.
    fn efficiency(&self) -> f64 {
        self.timing.data_bits as f64 / self.timing.slot_bits as f64
    }
}

/// What the receiving side of the network needs from a protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceiverRequirements {
    /// Clock cycles the receiver PLL/DLL needs before data is trustworthy.
    pub startup_clocks: usize,
    /// Clock cycles needed after the data to flush the receive pipeline.
    pub flush_clocks: usize,
    /// Worst-case packet-arrival uncertainty through the switch (the slack
    /// the dead time + guard band must absorb).
    pub arrival_uncertainty: Duration,
}

impl ReceiverRequirements {
    /// The test bed's measured receiver: 3 start-up cycles, 2 flush
    /// cycles, 3 ns of switch timing uncertainty.
    pub fn testbed() -> Self {
        ReceiverRequirements {
            startup_clocks: 3,
            flush_clocks: 2,
            arrival_uncertainty: Duration::from_ns(3),
        }
    }

    /// A sluggish receiver: long lock time, sloppy switch.
    pub fn demanding() -> Self {
        ReceiverRequirements {
            startup_clocks: 5,
            flush_clocks: 4,
            arrival_uncertainty: Duration::from_ns_f64(4.5),
        }
    }
}

/// The verdict for one protocol against one receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolEvaluation {
    /// The variant's name.
    pub name: &'static str,
    /// Payload efficiency (0..1).
    pub efficiency: f64,
    /// Pre-clock cycles provided vs required.
    pub startup_margin_cycles: i64,
    /// Post-clock cycles provided vs required.
    pub flush_margin_cycles: i64,
    /// Arrival-slack margin (dead + guard − uncertainty).
    pub arrival_margin: Duration,
    /// Whether an actual loopback transmission decoded cleanly.
    pub loopback_clean: bool,
}

impl ProtocolEvaluation {
    /// Whether every requirement is met (including the measured loopback).
    fn viable(&self) -> bool {
        self.startup_margin_cycles >= 0
            && self.flush_margin_cycles >= 0
            && !self.arrival_margin.is_negative()
            && self.loopback_clean
    }
}

impl fmt::Display for ProtocolEvaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} eff {:>4.0}%  startup {:+} cyc  flush {:+} cyc  arrival {:>8}  loopback {}  -> {}",
            self.name,
            100.0 * self.efficiency,
            self.startup_margin_cycles,
            self.flush_margin_cycles,
            self.arrival_margin,
            if self.loopback_clean { "ok" } else { "FAIL" },
            if self.viable() { "viable" } else { "NOT viable" }
        )
    }
}

/// Evaluates one protocol variant against receiver requirements: computes
/// the margins and performs a real framed loopback at the variant's
/// timing.
///
/// # Errors
///
/// Propagates transmitter/receiver errors; invalid slot layouts fail at
/// [`SlotTiming::validate`].
fn evaluate(
    variant: &ProtocolVariant,
    rx: &ReceiverRequirements,
    seed: u64,
) -> Result<ProtocolEvaluation> {
    variant.timing.validate()?;
    let t = &variant.timing;
    // One clock cycle = 2 bits (the source-synchronous clock toggles per
    // bit, a full cycle spans two).
    let startup_provided = t.pre_clock_bits / 2;
    let flush_provided = t.post_clock_bits / 2;
    let arrival_slack = t.dead_duration() + t.guard_duration();

    // Measured check: a full transmit/decode round trip at this layout.
    let mut tx = Transmitter::new(*t)?;
    let receiver = Receiver::new(*t);
    let mask = if t.data_bits >= 32 { u32::MAX } else { (1u32 << t.data_bits) - 1 };
    let words = [0xDEAD_BEEF & mask, 0x0123_4567 & mask, 0xA5A5_5A5A & mask, 0x0F0F_F0F0 & mask];
    let slot = PacketSlot::new(*t, words, 0b0110);
    let sent = tx.transmit_slot(&slot, seed)?;
    let got = receiver.receive(&sent)?;
    let loopback_clean = got.payload == words && got.address == 0b0110 && got.frame_ok;

    Ok(ProtocolEvaluation {
        name: variant.name,
        efficiency: variant.efficiency(),
        startup_margin_cycles: startup_provided as i64 - rx.startup_clocks as i64,
        flush_margin_cycles: flush_provided as i64 - rx.flush_clocks as i64,
        arrival_margin: arrival_slack - rx.arrival_uncertainty,
        loopback_clean,
    })
}

/// Evaluates the whole catalog and returns evaluations in catalog order —
/// the "various signaling protocols" comparison as data.
///
/// # Errors
///
/// Propagates per-variant evaluation errors.
pub fn evaluate_catalog(rx: &ReceiverRequirements, seed: u64) -> Result<Vec<ProtocolEvaluation>> {
    ProtocolVariant::catalog().iter().map(|v| evaluate(v, rx, seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure of merit: efficiency if viable, zero otherwise.
    fn score(eval: &ProtocolEvaluation) -> f64 {
        if eval.viable() {
            eval.efficiency
        } else {
            0.0
        }
    }

    #[test]
    fn catalog_variants_are_valid_and_ordered_by_efficiency() {
        let catalog = ProtocolVariant::catalog();
        assert_eq!(catalog.len(), 3);
        for v in &catalog {
            v.timing.validate().unwrap();
        }
        assert!(catalog[0].efficiency() < catalog[1].efficiency());
        assert!(catalog[1].efficiency() < catalog[2].efficiency());
        assert!((ProtocolVariant::paper().efficiency() - 0.5).abs() < 1e-12);
        assert!((ProtocolVariant::aggressive().efficiency() - 2.0 / 3.0).abs() < 1e-12);
        // Evaluated against the test-bed receiver, the catalog keeps its
        // spread of efficiencies and the paper's layout stays viable.
        let evals = evaluate_catalog(&ReceiverRequirements::testbed(), 1).unwrap();
        assert!(evals.iter().any(|e| e.name == "paper-fig4" && e.viable()));
        let effs: Vec<f64> = evals.iter().map(|e| e.efficiency).collect();
        assert!(effs.windows(2).all(|w| w[0] < w[1]), "efficiencies {effs:?}");
    }

    #[test]
    fn paper_protocol_is_viable_for_the_testbed_receiver() {
        let eval =
            evaluate(&ProtocolVariant::paper(), &ReceiverRequirements::testbed(), 1).unwrap();
        assert!(eval.viable(), "{eval}");
        assert!(eval.loopback_clean);
        assert!((score(&eval) - 0.5).abs() < 1e-12);
        // Pre-clocks: 7 bits = 3 cycles, exactly the requirement.
        assert_eq!(eval.startup_margin_cycles, 0);
        // Arrival slack: 3.2 + 2.0 = 5.2 ns vs 3 ns needed.
        assert_eq!(eval.arrival_margin, Duration::from_ns_f64(2.2));
    }

    #[test]
    fn aggressive_protocol_wins_on_easy_networks_only() {
        let easy = ReceiverRequirements {
            startup_clocks: 1,
            flush_clocks: 1,
            arrival_uncertainty: Duration::from_ns(1),
        };
        let evals = evaluate_catalog(&easy, 2).unwrap();
        let best = evals.iter().max_by(|a, b| score(a).total_cmp(&score(b))).unwrap();
        assert_eq!(best.name, "aggressive", "easy network favors payload");

        // A demanding network disqualifies it.
        let evals = evaluate_catalog(&ReceiverRequirements::demanding(), 2).unwrap();
        let aggressive = evals.iter().find(|e| e.name == "aggressive").unwrap();
        assert!(!aggressive.viable(), "{aggressive}");
        assert_eq!(score(aggressive), 0.0);
        // The conservative variant survives.
        let conservative = evals.iter().find(|e| e.name == "conservative").unwrap();
        assert!(conservative.viable(), "{conservative}");
    }

    #[test]
    fn every_variant_loopbacks_cleanly() {
        // The measured part: all layouts decode their own payloads.
        for v in ProtocolVariant::catalog() {
            let eval = evaluate(&v, &ReceiverRequirements::testbed(), 3).unwrap();
            assert!(eval.loopback_clean, "{} failed loopback", v.name);
        }
    }

    #[test]
    fn display_row() {
        let eval =
            evaluate(&ProtocolVariant::paper(), &ReceiverRequirements::testbed(), 4).unwrap();
        let row = eval.to_string();
        assert!(row.contains("paper-fig4"));
        assert!(row.contains("viable"));
        assert!(row.contains("50%"));
    }

    #[test]
    fn short_payload_masking() {
        // The conservative layout's 20-bit payload must mask correctly.
        let eval = evaluate(&ProtocolVariant::conservative(), &ReceiverRequirements::testbed(), 5)
            .unwrap();
        assert!(eval.loopback_clean);
    }
}
