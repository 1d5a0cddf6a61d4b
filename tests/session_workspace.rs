//! A reused simulator workspace must be invisible: every session it runs
//! yields exactly the trace, flow and labels a fresh workspace yields.
//! State leaking from one session into the next (a queued event, an
//! in-flight packet, a tamper event, a half-drained action buffer) is the
//! failure mode reuse introduces, and the goldens would catch it only by
//! chance.

use std::net::IpAddr;

use tamperscope::netsim::{
    derive_rng, run_session, ClientConfig, Path, ServerConfig, SessionParams, SessionWorkspace,
    SimDuration, SimTime,
};
use tamperscope::worldgen::{GroundTruth, WorldConfig, WorldSim};

/// The sessions the standard world never produces (none of its first
/// 100k runs past the 10-packet cap or is still busy at its 30 s
/// horizon): twelve response segments, whose ACKs pass the cap, or a
/// 20 s path, which leaves the server's SYN+ACK (and more) in flight at
/// the horizon.
fn edge_session(long: bool) -> (SessionParams, Path) {
    let client: IpAddr = "203.0.113.9".parse().unwrap();
    let server: IpAddr = "198.51.100.1".parse().unwrap();
    let cfg = ClientConfig::default_tls(client, server, "edge.example");
    let mut edge = ServerConfig::default_edge(server, 443);
    let latency = if long {
        edge.response_segments = 12;
        SimDuration::from_millis(30)
    } else {
        SimDuration::from_secs(20)
    };
    let params = SessionParams::new(cfg, edge, SimTime::ZERO);
    (params, Path::direct(latency, 9))
}

#[test]
fn a_warm_workspace_generates_what_a_fresh_one_does() {
    let sim = WorldSim::new(WorldConfig::default());
    let mut ws = SessionWorkspace::default();
    let (mut tampered, mut syn_payload, mut truncated, mut cut_at_horizon) = (0, 0, 0, 0);
    for i in 0..3_000 {
        // Now and then, an edge session through the same workspace.
        if i % 1_000 == 500 {
            for long in [true, false] {
                let (params, mut path) = edge_session(long);
                let fresh = run_session(params, &mut path, &mut derive_rng(5, i));
                let (params, mut path) = edge_session(long);
                let warm = ws.run(params, &mut path, &mut derive_rng(5, i));
                assert_eq!(warm, &fresh, "edge session (long: {long}) at {i}");
                truncated += usize::from(warm.inbound().count() > 10);
                cut_at_horizon += usize::from(ws.queued() > 0);
            }
        }
        let warm = sim.gen_session_in(&mut ws, i);
        assert_eq!(warm, sim.gen_session(i), "world session {i}");
        let Some(lf) = warm else { continue };
        tampered += usize::from(matches!(lf.meta.truth, GroundTruth::Tampered { .. }));
        syn_payload += usize::from(
            lf.flow
                .packets
                .iter()
                .any(|p| p.flags.has_syn() && p.payload_len > 0),
        );
    }
    // The run covers the sessions most likely to leave state behind.
    assert!(tampered > 0, "no tampered session");
    assert!(syn_payload > 0, "no HTTP request carried in a SYN");
    assert_eq!(truncated, 3, "every long session passes the cap");
    assert_eq!(cut_at_horizon, 3, "every slow session meets its horizon");
}
