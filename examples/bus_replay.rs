//! End-to-end replay: profile a lossy channel, schedule against the
//! profile, execute the schedule over the simulated LWB, and check the
//! constraints against the observed traces — including the bursty-channel
//! case where a soft statistic fails and the weakly hard one holds.
//!
//! Run with: `cargo run --release --example bus_replay`

use netdag::core::prelude::*;
use netdag::core::stat::{TableSoftStatistic, TableWeaklyHardStatistic};
use netdag::glossy::link::{Bernoulli, GilbertElliott};
use netdag::glossy::{NodeId, SoftProfile, Topology, WeaklyHardProfile};
use netdag::lwb::EnergyModel;
use netdag::solver::ExecPolicy;
use netdag::validation::full_stack::validate_on_bus;
use netdag::weakly_hard::Constraint;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(1234);

    // Pipeline across a 4-node line: sense → fuse → actuate.
    let mut b = Application::builder();
    let sense = b.task("sense", NodeId(0), 500);
    let fuse = b.task("fuse", NodeId(2), 1_000);
    let act = b.task("actuate", NodeId(3), 300);
    b.edge(sense, fuse, 8)?;
    b.edge(fuse, act, 4)?;
    let app = b.build()?;
    let topo = Topology::line(4)?;

    // --- Profile the channel (what the paper gets from a testbed). ---
    println!("profiling λ_s and λ_WH on a bursty Gilbert–Elliott channel…");
    let channel = GilbertElliott::new(0.05, 0.25, 0.99, 0.35)?;
    let soft_profile = SoftProfile::measure_par(
        &topo,
        &channel,
        NodeId(0),
        1..=8,
        600,
        1234,
        ExecPolicy::Serial,
    )?;
    println!("  λ_s table: {:?}", soft_profile.table());
    let wh_profile = WeaklyHardProfile::measure_par(
        &topo,
        &channel,
        NodeId(0),
        1..=8,
        20,
        800,
        1,
        1234,
        ExecPolicy::Serial,
    )?;
    println!(
        "  λ_WH miss table (window 20): {:?}",
        wh_profile.miss_table()
    );

    let soft_stat: TableSoftStatistic = soft_profile.into();
    let wh_stat: TableWeaklyHardStatistic = wh_profile.into();

    // --- Schedule under both kinds of constraints. ---
    let mut soft_req = SoftConstraints::new();
    soft_req.set(act, 0.7)?;
    let mut wh_req = WeaklyHardConstraints::new();
    wh_req.set(act, Constraint::any_hit(8, 20)?)?;

    let soft_out = schedule_soft(&app, &soft_stat, &soft_req, &SchedulerConfig::default())?;
    let wh_out = schedule_weakly_hard(&app, &wh_stat, &wh_req, &SchedulerConfig::default())?;
    println!(
        "\nsoft schedule: makespan {} µs, bus {} µs",
        soft_out.schedule.makespan(&app),
        soft_out.schedule.total_communication_us()
    );
    println!(
        "weakly hard schedule: makespan {} µs, bus {} µs",
        wh_out.schedule.makespan(&app),
        wh_out.schedule.total_communication_us()
    );

    // --- Replay on the real (simulated) bus. ---
    for (name, out) in [("soft", &soft_out), ("weakly hard", &wh_out)] {
        let mut replay_channel = GilbertElliott::new(0.05, 0.25, 0.99, 0.35)?;
        let reports = validate_on_bus(
            &app,
            &out.schedule,
            &topo,
            NodeId(0),
            &mut replay_channel,
            &soft_req,
            &wh_req,
            1_500,
            &mut rng,
        )?;
        println!("\non-bus validation of the {name} schedule:");
        for r in &reports {
            println!("  {r:?}");
        }
    }

    // --- Contrast: the same replay on an i.i.d. channel of equal mean. ---
    let mut iid = Bernoulli::new(0.85)?;
    let reports = validate_on_bus(
        &app,
        &wh_out.schedule,
        &topo,
        NodeId(0),
        &mut iid,
        &soft_req,
        &wh_req,
        1_500,
        &mut rng,
    )?;
    println!("\nsame schedule on an i.i.d. channel:");
    for r in &reports {
        println!("  {r:?}");
    }

    let energy = EnergyModel::cc2420();
    println!(
        "\nper-run radio energy (weakly hard schedule): {:.3} mJ per node",
        energy.energy_mj(wh_out.schedule.total_communication_us())
    );
    Ok(())
}
