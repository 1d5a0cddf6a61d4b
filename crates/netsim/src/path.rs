//! Path composition: the links and middlebox hops between a client and the
//! CDN edge.

use crate::hop::Hop;
use crate::time::SimDuration;

/// One link segment of the path.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// One-way propagation + queueing latency.
    pub latency: SimDuration,
    /// How many router hops this segment represents (each decrements TTL).
    pub ttl_decrement: u8,
    /// Independent per-packet loss probability on this segment.
    pub loss: f64,
}

impl Link {
    /// A clean link with the given latency and hop count.
    pub fn new(latency: SimDuration, ttl_decrement: u8) -> Link {
        Link {
            latency,
            ttl_decrement,
            loss: 0.0,
        }
    }

    /// Set the loss probability.
    pub fn with_loss(mut self, loss: f64) -> Link {
        self.loss = loss;
        self
    }
}

/// The full client↔server path: `links.len() == hops.len() + 1`, with hop
/// `i` sitting between `links[i]` and `links[i + 1]`.
pub struct Path {
    /// Link segments, client side first.
    pub links: Vec<Link>,
    /// Middleboxes, client side first.
    pub hops: Vec<Box<dyn Hop>>,
}

impl Path {
    /// A direct path with no middleboxes.
    pub fn direct(latency: SimDuration, ttl_decrement: u8) -> Path {
        Path {
            links: vec![Link::new(latency, ttl_decrement)],
            hops: Vec::new(),
        }
    }

    /// Sanity check the structural invariant.
    pub(crate) fn is_well_formed(&self) -> bool {
        self.links.len() == self.hops.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_path_is_well_formed() {
        let p = Path::direct(SimDuration::from_millis(40), 12);
        assert!(p.is_well_formed());
        assert_eq!(p.links[0].latency, SimDuration::from_millis(40));
    }
}
