//! A campus-scale deployment on the sharded cluster: four `aorta-core`
//! engines behind the routing gateway, each owning a region stripe of the
//! fleet. A crash storm takes out one stripe's cameras mid-run and the
//! gateway re-routes its stranded requests to the cheapest sibling shard.
//!
//! ```text
//! cargo run --example cluster_campus
//! ```

use aorta::cluster::{BatchConfig, ClusterConfig, ShardManager};
use aorta_device::{DeviceId, PervasiveLab};
use aorta_sim::{FaultEvent, FaultPlan, SimDuration, SimTime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four shards over a 16-camera / 24-mote campus floor, striped by
    // mount position so each engine owns a contiguous region.
    let lab = PervasiveLab::with_sizes(16, 24, 0)
        .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
    let mut cluster = ShardManager::new(ClusterConfig::seeded(2026, 4), lab);
    println!("== cluster_campus: 4 shards, 16 cameras, 24 motes ==");
    for s in 0..cluster.shard_count() {
        println!(
            "  shard {s}: {} devices registered",
            cluster.shard(s).registry().len()
        );
    }

    // DDL broadcasts to every shard: each engine owns the full query set
    // but only detects events on (and aims cameras of) its own stripe.
    for i in 0..10 {
        cluster.execute_sql(&format!(
            r#"CREATE AQ q{i} AS
               SELECT photo(c.ip, s.loc, "campus/evidence")
               FROM sensor s, camera c
               WHERE s.accel_x > 500 AND s.id = {i}"#
        ))?;
    }

    // A maintenance accident: stripe 0 loses every camera two minutes in.
    let mut plan = FaultPlan::new();
    for idx in 0..16u32 {
        let id = DeviceId::camera(idx);
        if cluster.shard_owning(id) == Some(0) {
            plan.schedule(
                SimTime::ZERO + SimDuration::from_mins(2),
                FaultEvent::Crash(id),
            );
        }
    }
    cluster.inject_faults(plan);

    cluster.run_for(SimDuration::from_mins(10));
    cluster.run_for(SimDuration::from_secs(30));

    let stats = cluster.stats();
    println!("\n== after 10 minutes ==");
    println!(
        "  requests={} executed={} rerouted={} migrations={}",
        stats.requests(),
        stats.executed(),
        cluster.rerouted(),
        cluster.migrations()
    );
    if let Some(lat) = stats.mean_latency_secs() {
        println!("  mean event->completion latency: {lat:.2}s");
    }
    stats.check_conservation().expect("conservation invariant");
    println!("  conservation: every admitted request accounted for exactly once");

    println!("\n== gateway ledger ==");
    for line in cluster.gateway_trace().render().lines().take(8) {
        println!("  {line}");
    }

    // The batch arm used by experiment E8: one photo wave over a large
    // fleet, showing the serial control plane shrinking with shard count.
    println!("\n== E8 batch arm (400 requests / 100 cameras) ==");
    for shards in [1usize, 2, 4] {
        let out = aorta::cluster::run_photo_batch(&BatchConfig {
            requests: 400,
            cameras: 100,
            shards,
            seed: 2026,
            crashed_cameras: 0,
        });
        println!(
            "  k={shards}: makespan={} balanced={} rerouted={}",
            out.makespan, out.balanced, out.rerouted
        );
    }
    Ok(())
}
