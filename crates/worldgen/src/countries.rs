//! Country and autonomous-system registry.
//!
//! Countries carry traffic weight, timezone (for diurnal curves), IPv6
//! share, and an AS population whose sizes follow a Zipf-like skew. The
//! `centralization` knob controls how uniformly the country's tampering
//! policy is enforced across its ASes — the paper's Figure 5 contrast
//! between centralized systems (China, Iran) and decentralized ones
//! (Russia, Ukraine, Pakistan).

use tamper_netsim::splitmix64;

/// Index of a country in the world registry.
pub type CountryIdx = u16;

/// Static properties of one country.
#[derive(Debug, Clone)]
pub struct Country {
    /// ISO 3166 alpha-2 code.
    pub code: String,
    /// Relative traffic weight (normalized by the registry).
    pub weight: f64,
    /// UTC offset in hours, for local-time diurnal behaviour.
    pub tz_offset_hours: i32,
    /// Fraction of connections over IPv6.
    pub ipv6_share: f64,
    /// Number of ASes originating traffic.
    pub n_ases: usize,
    /// 1.0 = every AS enforces the national policy identically;
    /// 0.0 = per-AS enforcement varies wildly.
    pub centralization: f64,
    /// Fraction of cleartext-HTTP (port 80) connections.
    pub http_share: f64,
    /// Multiplier on tampering rates for IPv6 connections (Fig 7a
    /// outliers: Sri Lanka < 1, Kenya > 1).
    pub ipv6_tamper_mult: f64,
    /// Multiplier on the SYN-payload-client share (§4.1). Turkmenistan's
    /// filtered HTTP population barely uses these optimizer apps.
    pub syn_payload_mult: f64,
}

/// A concrete AS within a country.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Asn(pub u32);

/// A country's AS picker: AS sizes follow a Zipf(1.1) skew so one or two
/// ASes dominate (as in real eyeball markets). The cumulative table is
/// built once per country, when the world is assembled; a pick is a
/// search over it.
#[derive(Debug, Clone)]
pub(crate) struct AsSampler {
    /// `cdf[i]` = P(AS ≤ i), accumulated in index order.
    cdf: Vec<f64>,
}

impl AsSampler {
    /// The inverse-CDF table of P(i) ∝ 1/(i+1)^1.1 over `0..n_ases`.
    pub(crate) fn new(n_ases: usize) -> AsSampler {
        assert!(n_ases > 0, "a country needs at least one AS");
        let s = 1.1f64;
        let norm: f64 = (0..n_ases).map(|i| 1.0 / ((i + 1) as f64).powf(s)).sum();
        let mut acc = 0.0;
        let cdf = (0..n_ases)
            .map(|i| {
                acc += (1.0 / ((i + 1) as f64).powf(s)) / norm;
                acc
            })
            .collect();
        AsSampler { cdf }
    }

    /// The AS of `country` a uniform draw `u` lands on: the first whose
    /// cumulative share reaches `u` (the last if rounding leaves `u`
    /// above them all).
    pub(crate) fn pick(&self, country: CountryIdx, u: f64) -> Asn {
        let i = self
            .cdf
            .partition_point(|&acc| acc < u)
            .min(self.cdf.len() - 1);
        Asn(u32::from(country) * 1000 + i as u32)
    }
}

/// Deterministic per-AS enforcement multiplier with mean ≈ 1.
///
/// Centralized countries get multipliers near 1 for every AS; decentralized
/// ones spread in [0, 2].
pub fn as_enforcement_multiplier(seed: u64, asn: Asn, centralization: f64) -> f64 {
    let u = (splitmix64(seed ^ 0xA5A5 ^ u64::from(asn.0)) % 10_000) as f64 / 10_000.0;
    let spread = (1.0 - centralization).clamp(0.0, 1.0);
    1.0 + spread * (2.0 * u - 1.0)
}

/// Local hour (0..24) for a UTC timestamp in a country.
pub fn local_hour(unix_secs: u64, tz_offset_hours: i32) -> u32 {
    let shifted = unix_secs as i64 + i64::from(tz_offset_hours) * 3600;
    ((shifted.rem_euclid(86_400)) / 3600) as u32
}

/// Day index (whole days since the scenario start).
pub fn day_index(unix_secs: u64, start_unix: u64) -> u64 {
    unix_secs.saturating_sub(start_unix) / 86_400
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asn_pick_is_skewed_and_bounded() {
        let n = 10;
        let table = AsSampler::new(n);
        let mut counts = vec![0u32; n];
        for k in 0..10_000 {
            let u = (k as f64 + 0.5) / 10_000.0;
            let Asn(a) = table.pick(3, u);
            counts[(a - 3000) as usize] += 1;
        }
        assert!(counts[0] > counts[5], "AS sizes should be skewed");
        assert!(counts.iter().all(|&c| c > 0), "every AS gets some traffic");
        assert_eq!(counts.iter().sum::<u32>(), 10_000);
        // The edges: u = 0 is the largest AS, u past the last cumulative
        // share (rounding) the smallest.
        assert_eq!(table.pick(3, 0.0), Asn(3000));
        assert_eq!(table.pick(3, 1.5), Asn(3009));
        assert_eq!(AsSampler::new(1).pick(7, 0.99), Asn(7000));
    }

    #[test]
    fn enforcement_multiplier_ranges() {
        // Fully centralized: exactly 1.
        let m = as_enforcement_multiplier(1, Asn(42), 1.0);
        assert!((m - 1.0).abs() < 1e-9);
        // Decentralized: within [0, 2], varies across ASes.
        let vals: Vec<f64> = (0..50)
            .map(|i| as_enforcement_multiplier(1, Asn(i), 0.0))
            .collect();
        assert!(vals.iter().all(|v| (0.0..=2.0).contains(v)));
        let spread = vals.iter().cloned().fold(f64::MIN, f64::max)
            - vals.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 0.5, "spread {spread}");
    }

    #[test]
    fn local_hour_wraps() {
        // 2023-01-12 00:00 UTC.
        let t = 1_673_481_600;
        assert_eq!(local_hour(t, 0), 0);
        assert_eq!(local_hour(t, 5), 5);
        assert_eq!(local_hour(t, -5), 19);
        assert_eq!(local_hour(t + 3 * 3600, 23), 2);
    }

    #[test]
    fn day_index_counts_days() {
        let start = 1_673_481_600;
        assert_eq!(day_index(start, start), 0);
        assert_eq!(day_index(start + 86_399, start), 0);
        assert_eq!(day_index(start + 86_400, start), 1);
    }
}
