//! Regenerate every table and figure of the paper from a full world
//! simulation. Scale with `--sessions N` (default 300k) and `--days D`.
//!
//! ```sh
//! cargo run --release --example global_report -- --sessions 1000000
//! ```

use tamper_analysis::{self, report, Collector};
use tamper_core::ClassifierConfig;
use tamper_worldgen::{generate_lists, Scenario, WorldConfig, WorldSim, SEP13_2022_UNIX};

fn arg(name: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let sessions = arg("--sessions", 300_000);
    let days = arg("--days", 14) as u32;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    eprintln!("[world] {sessions} sessions over {days} days on {threads} threads");
    let sim = WorldSim::new(WorldConfig {
        sessions,
        days,
        ..Default::default()
    });
    let mk = || {
        Collector::new(
            ClassifierConfig::default(),
            sim.world().len(),
            days,
            sim.config().start_unix,
        )
    };
    let t0 = std::time::Instant::now();
    let col = sim.run_sharded(threads, None, mk, |c, lf| c.observe(&lf), |a, b| a.merge(b));
    eprintln!(
        "[world] simulated+classified {} flows in {:.1}s",
        col.total,
        t0.elapsed().as_secs_f64()
    );

    println!("{}", tamper_analysis::comparison_table(&col));
    let lists = generate_lists(&sim);
    println!("{}", report::full_report(&col.view(), &sim, &lists));

    // Iran case study (Figure 8): separate 17-day scenario world.
    let iran_sessions = (sessions / 6).max(20_000);
    eprintln!("[iran] {iran_sessions} sessions over 17 days");
    let iran = WorldSim::new(WorldConfig {
        sessions: iran_sessions,
        days: 17,
        start_unix: SEP13_2022_UNIX,
        scenario: Scenario::IranProtest,
        ..Default::default()
    });
    let mk_iran = || {
        Collector::new(
            ClassifierConfig::default(),
            iran.world().len(),
            17,
            SEP13_2022_UNIX,
        )
    };
    let iran_col = iran.run_sharded(
        threads,
        None,
        mk_iran,
        |c, lf| c.observe(&lf),
        |a, b| a.merge(b),
    );
    println!("{}", report::fig8(&iran_col.view()));
}
