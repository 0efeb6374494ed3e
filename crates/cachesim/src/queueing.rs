//! Bus-contention queueing model.
//!
//! Section 3.3 of the paper notes that traffic ratio alone does not capture
//! the time penalty of contention for the shared bus, and refers to a
//! queueing model (from Tick's thesis) showing that "with a relatively fast
//! bus and an interleaved memory shared memory efficiency can be high".
//!
//! This module provides that missing piece as an M/D/1-style model: each PE
//! issues bus requests at a rate derived from its reference rate and the
//! measured traffic ratio; the bus serves requests with a deterministic
//! service time per word.  The model reports bus utilisation, the mean wait
//! per request, and the resulting processing efficiency (fraction of peak PE
//! speed retained).

use serde::{Deserialize, Serialize};

/// Parameters of the two-level memory system.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BusModel {
    /// Peak instruction rate of one PE in instructions per microsecond.
    pub(crate) pe_mips: f64,
    /// Data references per instruction (the paper uses ~3 for large programs).
    pub(crate) refs_per_instruction: f64,
    /// Bus bandwidth in words per microsecond.
    pub(crate) bus_words_per_us: f64,
    /// Fixed per-transaction overhead, expressed in words.
    pub(crate) words_per_transaction_overhead: f64,
}

impl Default for BusModel {
    fn default() -> Self {
        // A fast-for-1988 shared bus: 32-bit wide at ~25 MHz with some
        // overhead, i.e. on the order of 80 MB/s of useful data bandwidth.
        BusModel {
            pe_mips: 1.0,
            refs_per_instruction: 3.0,
            bus_words_per_us: 20.0,
            words_per_transaction_overhead: 0.5,
        }
    }
}

/// Output of the queueing model for one system configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BusModelResult {
    pub num_pes: usize,
    /// Offered bus utilisation (can exceed 1.0 when the bus saturates).
    pub offered_utilisation: f64,
    /// Actual utilisation (capped at 1.0).
    pub utilisation: f64,
    /// Mean waiting time per bus request, in microseconds.
    pub mean_wait_us: f64,
    /// Fraction of peak PE speed retained after memory stalls.
    pub efficiency: f64,
    /// Effective aggregate speed in (application) MLIPS assuming
    /// `instructions_per_inference` WAM instructions per inference.
    pub effective_mlips: f64,
}

impl BusModel {
    /// The "current technology" configuration the paper's Section 3.3 argues
    /// from: high-performance PEs and a fast bus / interleaved memory system
    /// ("multiple or overlapped busses").
    pub fn paper_technology() -> Self {
        BusModel {
            pe_mips: 2.0,
            refs_per_instruction: 3.0,
            bus_words_per_us: 40.0,
            words_per_transaction_overhead: 0.25,
        }
    }

    /// Evaluate the model for `num_pes` PEs whose caches leave `traffic_ratio`
    /// of their references on the bus, assuming `instructions_per_inference`
    /// instructions per logical inference (the paper uses 15).
    ///
    /// The PEs form a *closed* system: when the bus backs up they slow down
    /// rather than queueing unboundedly, so efficiency is the smaller of a
    /// light-load (M/D/1 waiting) estimate and the bandwidth bound.
    pub fn evaluate(
        &self,
        num_pes: usize,
        traffic_ratio: f64,
        instructions_per_inference: f64,
    ) -> BusModelResult {
        // Requests per microsecond per PE (in words).
        let words_per_us_per_pe = self.pe_mips * self.refs_per_instruction * traffic_ratio;
        let effective_word_cost = 1.0 + self.words_per_transaction_overhead;
        let offered = num_pes as f64 * words_per_us_per_pe * effective_word_cost / self.bus_words_per_us;
        let utilisation = offered.min(1.0);

        // M/D/1 mean wait at a capped utilisation (the closed system never
        // actually exceeds the cap): W = rho / (2 * mu * (1 - rho)).
        let mu = self.bus_words_per_us / effective_word_cost;
        let rho_eff = offered.min(0.90);
        let mean_wait_us = rho_eff / (2.0 * mu * (1.0 - rho_eff));

        // Light-load estimate: each bus-bound reference stalls the PE for the
        // wait plus its own service time.
        let service_us = 1.0 / mu;
        let stall_per_instruction = self.refs_per_instruction * traffic_ratio * (mean_wait_us + service_us);
        let base_instruction_us = 1.0 / self.pe_mips;
        let light_load = base_instruction_us / (base_instruction_us + stall_per_instruction);
        // Bandwidth bound: the bus cannot move more words than it has cycles.
        let bandwidth_bound = if offered > 0.0 { (1.0 / offered).min(1.0) } else { 1.0 };
        let efficiency = light_load.min(bandwidth_bound).clamp(0.0, 1.0);

        let aggregate_mips = num_pes as f64 * self.pe_mips * efficiency;
        let effective_mlips = aggregate_mips / instructions_per_inference;
        BusModelResult {
            num_pes,
            offered_utilisation: offered,
            utilisation,
            mean_wait_us,
            efficiency,
            effective_mlips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_traffic_gives_high_efficiency() {
        let m = BusModel::default();
        let r = m.evaluate(8, 0.1, 15.0);
        assert!(r.efficiency > 0.8, "efficiency {} too low for a 0.1 traffic ratio", r.efficiency);
        assert!(r.utilisation < 0.5);
    }

    #[test]
    fn saturated_bus_caps_throughput() {
        let m = BusModel::default();
        let r = m.evaluate(64, 1.0, 15.0);
        assert!(r.offered_utilisation > 1.0);
        assert!(r.efficiency < 0.5);
    }

    #[test]
    fn efficiency_is_monotone_across_the_saturation_boundary() {
        let m = BusModel::default();
        let mut last = f64::INFINITY;
        for pes in 1..40 {
            let e = m.evaluate(pes, 0.5, 15.0).efficiency;
            assert!(e <= last + 1e-12, "efficiency rose from {last} to {e} at {pes} PEs");
            last = e;
        }
    }

    #[test]
    fn paper_technology_reaches_two_mlips_with_good_caches() {
        // The paper's argument: with caches capturing ~70% of the traffic and
        // a fast bus, ~2 million application inferences per second are
        // attainable on a medium-sized machine.
        let m = BusModel::paper_technology();
        let best = [8usize, 16, 24, 32]
            .iter()
            .map(|&p| m.evaluate(p, 0.3, 15.0).effective_mlips)
            .fold(0.0f64, f64::max);
        assert!(best >= 2.0, "paper-technology model only reaches {best:.2} MLIPS");
    }

    #[test]
    fn efficiency_decreases_with_more_pes() {
        let m = BusModel::default();
        let e2 = m.evaluate(2, 0.3, 15.0).efficiency;
        let e8 = m.evaluate(8, 0.3, 15.0).efficiency;
        let e32 = m.evaluate(32, 0.3, 15.0).efficiency;
        assert!(e2 >= e8 && e8 >= e32);
    }

    #[test]
    fn mlips_scale_with_pe_count_until_saturation() {
        let m = BusModel::default();
        let m4 = m.evaluate(4, 0.3, 15.0).effective_mlips;
        let m8 = m.evaluate(8, 0.3, 15.0).effective_mlips;
        assert!(m8 > m4);
    }

    #[test]
    fn paper_back_of_envelope_is_achievable() {
        // The paper argues that ~2 million application inferences per second
        // are achievable when caches capture 70% of a 360 MB/s demand; with
        // a bus providing >= 108 MB/s (27 words/us) the model should agree.
        let m = BusModel {
            pe_mips: 2.0,
            refs_per_instruction: 3.0,
            bus_words_per_us: 30.0,
            words_per_transaction_overhead: 0.25,
        };
        // 16 PEs at 2 MIPS = 32 MIPS of WAM instructions ≈ 2.1 MLIPS at 15
        // instructions per inference — provided efficiency stays high.
        let r = m.evaluate(16, 0.3, 15.0);
        assert!(r.effective_mlips > 1.5, "model predicts only {} MLIPS", r.effective_mlips);
    }
}
