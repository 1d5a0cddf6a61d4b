//! Shared endpoint machinery: emission actions, IP-ID generation policies
//! and TCP timestamp values.

use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use tamper_wire::Packet;

/// What an endpoint wants done after handling a packet or timer: packets to
/// emit (after a relative delay) and timers to arm. The caller owns one
/// buffer per endpoint for a whole session and drains it after every
/// [`EndpointMachine::process`] call, so handlers only ever push.
#[derive(Debug)]
pub struct Actions<T> {
    /// Packets to send, each after the given delay from "now".
    pub emits: Vec<(Packet, SimDuration)>,
    /// Timers to arm, each firing after the given delay from "now".
    pub timers: Vec<(T, SimDuration)>,
}

impl<T> Default for Actions<T> {
    fn default() -> Actions<T> {
        Actions {
            emits: Vec::new(),
            timers: Vec::new(),
        }
    }
}

impl<T> Actions<T> {
    /// Queue a packet for emission after `delay`.
    pub(crate) fn emit(&mut self, pkt: Packet, delay: SimDuration) {
        self.emits.push((pkt, delay));
    }

    /// Arm a timer.
    pub(crate) fn arm(&mut self, timer: T, delay: SimDuration) {
        self.timers.push((timer, delay));
    }
}

/// One input to an endpoint state machine, in the sans-IO shape: events
/// plus injected time, no sockets, no sleeps, no ambient clock. A packet
/// is lent, not handed over: the driver moves it into the trace after the
/// endpoint has read it.
#[derive(Debug)]
pub enum EndpointInput<'a, T> {
    /// The session begins. Clients emit their opening SYN here; servers
    /// simply listen.
    Start,
    /// A packet arrived from the wire.
    Packet(&'a Packet),
    /// A previously armed timer fired.
    Timer(T),
}

/// The unified sans-IO endpoint interface: `process(input, now, rng, out)`
/// is the single entry point the session driver calls for both sides.
/// Implementations must be pure of IO — everything they want done is
/// pushed onto `out`, and time only enters through `now`.
pub trait EndpointMachine {
    /// The endpoint's timer vocabulary.
    type Timer;

    /// Advance the machine by one input, pushing the resulting emits and
    /// timers onto `out` (which the caller drains between calls).
    fn process(
        &mut self,
        input: EndpointInput<'_, Self::Timer>,
        now: SimTime,
        rng: &mut StdRng,
        out: &mut Actions<Self::Timer>,
    );

    /// True once the endpoint has reached its terminal state.
    fn is_closed(&self) -> bool;
}

/// How a stack chooses IPv4 identification values — the behaviours the
/// paper's §4.3 relies on: most clients produce IP-ID deltas of 0 or 1
/// between consecutive packets of a flow, while injectors do not share the
/// client's counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IpIdMode {
    /// Always zero (common for modern Linux on DF packets).
    Zero,
    /// A counter starting at `start`, advancing by 1..=`stride_max` per
    /// packet (stride 1 ≈ per-flow counter; larger ≈ global counter shared
    /// with the host's other flows).
    Counter {
        /// Initial counter value.
        start: u16,
        /// Maximum per-packet stride (≥ 1).
        stride_max: u16,
    },
    /// A fixed nonzero value — ZMap famously uses 54321.
    Fixed(u16),
    /// Fresh uniform random value per packet (some injectors).
    Random,
}

/// Stateful IP-ID generator for one stack.
#[derive(Debug, Clone)]
pub struct IpIdGen {
    mode: IpIdMode,
    counter: u16,
}

impl IpIdGen {
    /// Create a generator with the given policy.
    pub fn new(mode: IpIdMode) -> IpIdGen {
        let counter = match mode {
            IpIdMode::Counter { start, .. } => start,
            _ => 0,
        };
        IpIdGen { mode, counter }
    }

    /// Produce the IP-ID for the next packet.
    pub fn next(&mut self, rng: &mut StdRng) -> u16 {
        match self.mode {
            IpIdMode::Zero => 0,
            IpIdMode::Fixed(v) => v,
            IpIdMode::Random => rng.gen(),
            IpIdMode::Counter { stride_max, .. } => {
                let stride = if stride_max <= 1 {
                    1
                } else {
                    rng.gen_range(1..=stride_max)
                };
                let v = self.counter;
                self.counter = self.counter.wrapping_add(stride);
                v
            }
        }
    }
}

/// Millisecond-resolution TCP timestamp value for a simulated instant.
pub(crate) fn tsval_at(t: SimTime) -> u32 {
    (t.as_nanos() / 1_000_000) as u32
}

/// One `process` call's actions, in a buffer of their own — the unit
/// tests' view of a machine, one input at a time.
#[cfg(test)]
pub(crate) fn step<M: EndpointMachine>(
    machine: &mut M,
    input: EndpointInput<'_, M::Timer>,
    now: SimTime,
    rng: &mut StdRng,
) -> Actions<M::Timer> {
    let mut out = Actions::default();
    machine.process(input, now, rng, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_rng;

    #[test]
    fn zero_mode_is_always_zero() {
        let mut g = IpIdGen::new(IpIdMode::Zero);
        let mut rng = derive_rng(1, 1);
        for _ in 0..4 {
            assert_eq!(g.next(&mut rng), 0);
        }
    }

    #[test]
    fn fixed_mode_is_constant() {
        let mut g = IpIdGen::new(IpIdMode::Fixed(54321));
        let mut rng = derive_rng(1, 1);
        assert_eq!(g.next(&mut rng), 54321);
        assert_eq!(g.next(&mut rng), 54321);
    }

    #[test]
    fn unit_stride_counter_increments_by_one() {
        let mut g = IpIdGen::new(IpIdMode::Counter {
            start: 100,
            stride_max: 1,
        });
        let mut rng = derive_rng(1, 1);
        assert_eq!(g.next(&mut rng), 100);
        assert_eq!(g.next(&mut rng), 101);
        assert_eq!(g.next(&mut rng), 102);
    }

    #[test]
    fn counter_wraps() {
        let mut g = IpIdGen::new(IpIdMode::Counter {
            start: u16::MAX,
            stride_max: 1,
        });
        let mut rng = derive_rng(1, 1);
        assert_eq!(g.next(&mut rng), u16::MAX);
        assert_eq!(g.next(&mut rng), 0);
    }

    #[test]
    fn bounded_stride_counter_deltas() {
        let mut g = IpIdGen::new(IpIdMode::Counter {
            start: 0,
            stride_max: 3,
        });
        let mut rng = derive_rng(7, 7);
        let mut prev = g.next(&mut rng);
        for _ in 0..32 {
            let v = g.next(&mut rng);
            let delta = v.wrapping_sub(prev);
            assert!((1..=3).contains(&delta), "delta {delta}");
            prev = v;
        }
    }

    #[test]
    fn tsval_is_milliseconds() {
        assert_eq!(tsval_at(SimTime::from_secs(2)), 2000);
    }
}
