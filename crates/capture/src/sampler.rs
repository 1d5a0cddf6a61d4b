//! The uniform connection sampler.
//!
//! The paper samples one of every 10,000 new connections at every server,
//! after DDoS scrubbing. We reproduce that as a deterministic hash of the
//! connection 4-tuple and a deployment seed, so sampling is stable across
//! process runs and shards while remaining uniform.

use std::net::IpAddr;
use tamper_netsim::splitmix64;

/// Deterministic 1-in-N connection sampler.
///
/// ```
/// use tamper_capture::Sampler;
/// let s = Sampler::new(7, 10_000);
/// let client = "203.0.113.9".parse().unwrap();
/// let server = "198.51.100.1".parse().unwrap();
/// // Decisions are stable for a given connection identity.
/// assert_eq!(s.keep(client, server, 443, 1), s.keep(client, server, 443, 1));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    seed: u64,
    denominator: u64,
}

impl Sampler {
    /// Sample 1 in `denominator` connections. `denominator = 1` keeps
    /// everything (used when the simulation itself already models the
    /// sampled sub-population).
    pub fn new(seed: u64, denominator: u64) -> Sampler {
        Sampler {
            seed,
            denominator: denominator.max(1),
        }
    }

    fn hash_ip(h: u64, ip: IpAddr) -> u64 {
        match ip {
            IpAddr::V4(v4) => splitmix64(h ^ u64::from(u32::from(v4))),
            IpAddr::V6(v6) => {
                let bits = u128::from_be_bytes(v6.octets());
                let hi = (bits >> 64) as u64;
                let lo = bits as u64;
                splitmix64(splitmix64(h ^ hi) ^ lo)
            }
        }
    }

    /// Decide whether this connection is sampled.
    pub fn keep(&self, client: IpAddr, server: IpAddr, src_port: u16, conn_seq: u64) -> bool {
        let mut h = self.seed;
        h = Self::hash_ip(h, client);
        h = Self::hash_ip(h, server);
        h = splitmix64(h ^ (u64::from(src_port) << 32) ^ conn_seq);
        h.is_multiple_of(self.denominator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn client(i: u32) -> IpAddr {
        IpAddr::V4(Ipv4Addr::from(0x0A00_0000 + i))
    }

    #[test]
    fn denominator_one_keeps_everything() {
        let s = Sampler::new(7, 1);
        for i in 0..100 {
            assert!(s.keep(client(i), client(9999), 1000, i as u64));
        }
    }

    #[test]
    fn rate_is_approximately_one_in_n() {
        let s = Sampler::new(42, 100);
        let total = 200_000u64;
        let kept = (0..total)
            .filter(|&i| {
                s.keep(
                    client((i % 50_000) as u32),
                    client(9_999_999),
                    (i % 60_000) as u16,
                    i,
                )
            })
            .count() as f64;
        let rate = kept / total as f64;
        assert!(
            (rate - 0.01).abs() < 0.002,
            "rate {rate} too far from 1/100"
        );
    }

    #[test]
    fn decision_is_deterministic() {
        let s = Sampler::new(1, 10_000);
        let a = s.keep(client(5), client(6), 777, 123);
        let b = s.keep(client(5), client(6), 777, 123);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_sample_different_sets() {
        let s1 = Sampler::new(1, 10);
        let s2 = Sampler::new(2, 10);
        let picks1: Vec<bool> = (0..1000)
            .map(|i| s1.keep(client(i), client(0), 1, i as u64))
            .collect();
        let picks2: Vec<bool> = (0..1000)
            .map(|i| s2.keep(client(i), client(0), 1, i as u64))
            .collect();
        assert_ne!(picks1, picks2);
    }

    #[test]
    fn ipv6_addresses_hash() {
        let s = Sampler::new(3, 2);
        let v6a: IpAddr = "2001:db8::1".parse().unwrap();
        let v6b: IpAddr = "2001:db8::2".parse().unwrap();
        // Just exercise the path and determinism.
        assert_eq!(s.keep(v6a, v6b, 1, 1), s.keep(v6a, v6b, 1, 1));
    }
}
