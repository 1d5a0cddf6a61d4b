//! Scenario overlays: time-varying policy changes layered on top of the
//! static world table.
//!
//! The only scripted scenario is the paper's §5.6 case study — Iran's
//! response to the September 2022 protests: tampering escalates sharply
//! from the first days, is concentrated on two mobile ISPs, and peaks in
//! the (late) evening hours, dominated by ClientHello dropping
//! (`⟨SYN; ACK → ∅⟩`), post-handshake RST+ACK injection, and `⟨SYN → RST⟩`.

use crate::countries::{Asn, CountryIdx};
use tamper_middlebox::Vendor;

/// Weighted vendor rules contributed by a scenario overlay.
pub(crate) type VendorRates = Vec<(Vendor, f64)>;

/// Which scenario a world runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scenario {
    /// The two-week January 2023 global measurement window.
    #[default]
    Standard,
    /// The 17-day September 2022 Iran window (Figure 8): only Iranian
    /// traffic, with an escalating, evening-peaked overlay on two mobile
    /// ISPs.
    IranProtest,
}

impl Scenario {
    /// Extra (SYN-stage, DPI-stage) rules contributed by the scenario for
    /// a session at `day` (since scenario start), local hour `lh`, from
    /// `asn` in `country`. Returns empty overlays for [`Scenario::Standard`].
    pub(crate) fn overlay(
        &self,
        day: u64,
        lh: u32,
        asn: Asn,
        country: CountryIdx,
    ) -> (VendorRates, VendorRates) {
        match self {
            Scenario::Standard => (Vec::new(), Vec::new()),
            Scenario::IranProtest => {
                // Escalation: near-zero at the protest onset, full force
                // from the third day onward.
                let ramp = (day as f64 / 2.0).clamp(0.08, 1.0);
                // Blocking peaks in the evening (16:00–24:00 local), as the
                // paper observes.
                let evening = if (16..24).contains(&lh) {
                    1.0 + 1.0 * ((lh as f64 - 16.0) / 7.0)
                } else if lh < 2 {
                    1.4
                } else {
                    0.3
                };
                // The two mobile ISPs (the country's two largest ASes in
                // our model) carry the brunt of it.
                let as_local = asn.0 - u32::from(country) * 1000;
                let isp = if as_local < 2 { 1.6 } else { 0.25 };
                let k = ramp * evening * isp;
                let syn = vec![(Vendor::SynRst { n: 1 }, 0.07 * k)];
                let dpi = vec![
                    (Vendor::DataDropAll, 0.30 * k),
                    (Vendor::DataDropRstAck { n: 1 }, 0.12 * k),
                ];
                (syn, dpi)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_overlay_is_empty() {
        let (s, d) = Scenario::Standard.overlay(5, 20, Asn(12_000), 12);
        assert!(s.is_empty() && d.is_empty());
    }

    #[test]
    fn iran_overlay_ramps_up() {
        let early: f64 = Scenario::IranProtest
            .overlay(0, 20, Asn(0), 0)
            .1
            .iter()
            .map(|(_, r)| r)
            .sum();
        let late: f64 = Scenario::IranProtest
            .overlay(10, 20, Asn(0), 0)
            .1
            .iter()
            .map(|(_, r)| r)
            .sum();
        assert!(late > early, "late {late} ≤ early {early}");
    }

    #[test]
    fn evening_peaks_exceed_morning() {
        let evening: f64 = Scenario::IranProtest
            .overlay(10, 21, Asn(0), 0)
            .1
            .iter()
            .map(|(_, r)| r)
            .sum();
        let morning: f64 = Scenario::IranProtest
            .overlay(10, 9, Asn(0), 0)
            .1
            .iter()
            .map(|(_, r)| r)
            .sum();
        assert!(evening > 2.0 * morning);
    }

    #[test]
    fn mobile_isps_dominate() {
        let mobile: f64 = Scenario::IranProtest
            .overlay(10, 21, Asn(1), 0)
            .1
            .iter()
            .map(|(_, r)| r)
            .sum();
        let other: f64 = Scenario::IranProtest
            .overlay(10, 21, Asn(7), 0)
            .1
            .iter()
            .map(|(_, r)| r)
            .sum();
        assert!(mobile > 3.0 * other);
    }
}
