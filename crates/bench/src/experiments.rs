//! The experiment functions, one per table/figure of §6.
//!
//! Each returns structured rows; `repro` prints them and `EXPERIMENTS.md`
//! records paper-vs-measured values. All experiments are deterministic given
//! their seed.

use aorta_sched::{run_algorithm, workload, Algorithm, SaConfig};
use aorta_sim::{CpuModel, SimRng};

/// Default number of independent runs averaged per point ("each point in the
/// figure is the average of results from ten independent runs", §6.3).
pub const RUNS_PER_POINT: u64 = 10;

/// One (algorithm, point) measurement averaged over seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct MakespanPoint {
    /// Algorithm display name.
    pub algorithm: &'static str,
    /// The x-axis value (number of requests, or skewness ×100).
    pub x: u64,
    /// Mean total makespan (scheduling + service), seconds.
    pub makespan_secs: f64,
    /// Mean scheduling time, seconds.
    pub sched_secs: f64,
    /// Mean service makespan, seconds.
    pub service_secs: f64,
}

/// A smaller SA budget for quick (smoke/bench) runs; scales the figure-5
/// shape down proportionally.
fn quick_lineup() -> Vec<Algorithm> {
    vec![
        Algorithm::LerfaSrfe,
        Algorithm::Srfae,
        Algorithm::Ls,
        Algorithm::Sa(SaConfig::quick()),
        Algorithm::Random,
    ]
}

fn average_runs(
    alg: &Algorithm,
    x: u64,
    runs: u64,
    base_seed: u64,
    mut make: impl FnMut(u64) -> (aorta_sched::Instance, aorta_sched::CameraPhotoModel),
) -> MakespanPoint {
    let cpu = CpuModel::paper_notebook();
    let mut tot = 0.0;
    let mut sched = 0.0;
    let mut service = 0.0;
    for run in 0..runs {
        let seed = base_seed + run;
        let (inst, model) = make(seed);
        let mut rng = SimRng::seed(seed ^ 0xA0A0_A0A0);
        let r = run_algorithm(alg, &inst, &model, &cpu, &mut rng);
        tot += r.total().as_secs_f64();
        sched += r.sched_time.as_secs_f64();
        service += r.service_makespan.as_secs_f64();
    }
    MakespanPoint {
        algorithm: alg.name(),
        x,
        makespan_secs: tot / runs as f64,
        sched_secs: sched / runs as f64,
        service_secs: service / runs as f64,
    }
}

/// **Figure 4** — makespan vs number of requests (10, 20, 30) with 10
/// cameras and a uniform workload, five algorithms, averaged over
/// `runs` seeded runs.
pub fn fig4(runs: u64, base_seed: u64) -> Vec<MakespanPoint> {
    let mut out = Vec::new();
    for &n in &[10usize, 20, 30] {
        for alg in Algorithm::paper_lineup() {
            out.push(average_runs(&alg, n as u64, runs, base_seed, |seed| {
                workload::uniform_targets(n, 10, &mut SimRng::seed(seed))
            }));
        }
    }
    out
}

/// **Figure 5** — scheduling-time / service-time breakdown at 20 requests,
/// 10 cameras (the n=20 column of Figure 4 decomposed).
pub fn fig5(runs: u64, base_seed: u64) -> Vec<MakespanPoint> {
    Algorithm::paper_lineup()
        .iter()
        .map(|alg| {
            average_runs(alg, 20, runs, base_seed, |seed| {
                workload::uniform_targets(20, 10, &mut SimRng::seed(seed))
            })
        })
        .collect()
}

/// **Figure 6** — makespan vs workload skewness (0.2, 0.3, 0.4) with 10
/// cameras, 20 requests.
pub fn fig6(runs: u64, base_seed: u64) -> Vec<MakespanPoint> {
    let mut out = Vec::new();
    for &skew in &[0.2f64, 0.3, 0.4] {
        for alg in Algorithm::paper_lineup() {
            out.push(average_runs(
                &alg,
                (skew * 100.0).round() as u64,
                runs,
                base_seed,
                |seed| workload::skewed_targets(20, 10, skew, &mut SimRng::seed(seed)),
            ));
        }
    }
    out
}

/// One row of the **E5** ratio experiment (§6.3 prose): with a uniform
/// workload, the four non-RANDOM algorithms' makespans depend only on
/// #requests / #devices.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioPoint {
    /// Algorithm display name.
    pub algorithm: &'static str,
    /// Number of requests.
    pub n: usize,
    /// Number of devices.
    pub m: usize,
    /// Mean service makespan, seconds (scheduling time excluded to isolate
    /// the ratio effect).
    pub service_secs: f64,
}

/// **E5** — sweeps (n, m) pairs sharing the ratio n/m = 2 plus contrasting
/// ratios, reporting mean service makespans.
pub fn e5(runs: u64, base_seed: u64) -> Vec<RatioPoint> {
    let cpu = CpuModel::instant();
    let mut out = Vec::new();
    for &(n, m) in &[(10usize, 5usize), (20, 10), (40, 20), (10, 10), (40, 10)] {
        for alg in quick_lineup() {
            if alg.name() == "RANDOM" {
                continue;
            }
            let mut service = 0.0;
            for run in 0..runs {
                let seed = base_seed + run;
                let (inst, model) = workload::uniform_targets(n, m, &mut SimRng::seed(seed));
                let mut rng = SimRng::seed(seed ^ 0x5E5E_5E5E);
                let r = run_algorithm(&alg, &inst, &model, &cpu, &mut rng);
                service += r.service_makespan.as_secs_f64();
            }
            out.push(RatioPoint {
                algorithm: alg.name(),
                n,
                m,
                service_secs: service / runs as f64,
            });
        }
    }
    out
}

/// Looks up a point by algorithm and x value.
fn find<'a>(points: &'a [MakespanPoint], algorithm: &str, x: u64) -> &'a MakespanPoint {
    points
        .iter()
        .find(|p| p.algorithm == algorithm && p.x == x)
        .unwrap_or_else(|| panic!("no point for {algorithm} at x={x}"))
}

/// The paper's headline Figure 4 shape claims, as a checkable predicate.
///
/// Returns a list of violated claims (empty = all shape claims hold):
/// 1. RANDOM is worst at every point,
/// 2. both proposed algorithms beat LS and SA at n=20 and n=30,
/// 3. the proposed algorithms scale sub-linearly from n=10 to n=30 while
///    LS grows at least proportionally faster.
pub fn check_fig4_shape(points: &[MakespanPoint]) -> Vec<String> {
    let mut violations = Vec::new();
    for &n in &[10u64, 20, 30] {
        let random = find(points, "RANDOM", n).makespan_secs;
        for alg in ["LERFA + SRFE", "SRFAE", "LS", "SA"] {
            let v = find(points, alg, n).makespan_secs;
            if v >= random {
                violations.push(format!(
                    "{alg} ({v:.2}s) not better than RANDOM ({random:.2}s) at n={n}"
                ));
            }
        }
    }
    for &n in &[20u64, 30] {
        for ours in ["LERFA + SRFE", "SRFAE"] {
            let v = find(points, ours, n).makespan_secs;
            for theirs in ["LS", "SA"] {
                let w = find(points, theirs, n).makespan_secs;
                if v >= w {
                    violations.push(format!(
                        "{ours} ({v:.2}s) not better than {theirs} ({w:.2}s) at n={n}"
                    ));
                }
            }
        }
    }
    for ours in ["LERFA + SRFE", "SRFAE"] {
        let at10 = find(points, ours, 10).makespan_secs;
        let at30 = find(points, ours, 30).makespan_secs;
        if at30 >= 3.0 * at10 {
            violations.push(format!(
                "{ours} scales linearly or worse: {at10:.2}s → {at30:.2}s"
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shape_claims_hold() {
        let points = fig4(RUNS_PER_POINT, 1000);
        let violations = check_fig4_shape(&points);
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn fig5_sa_scheduling_dominates() {
        let points = fig5(3, 2000);
        let sa = find(&points, "SA", 20);
        assert!(
            sa.sched_secs > 1.0,
            "SA scheduling time should be seconds, got {:.3}s",
            sa.sched_secs
        );
        for alg in ["LERFA + SRFE", "SRFAE", "LS", "RANDOM"] {
            let p = find(&points, alg, 20);
            assert!(
                p.sched_secs < 0.2,
                "{alg} scheduling time should be negligible, got {:.3}s",
                p.sched_secs
            );
            assert!(p.sched_secs < p.service_secs / 5.0, "{alg} breakdown off");
        }
    }

    #[test]
    fn fig6_makespan_decreases_with_skewness_for_greedy() {
        let points = fig6(RUNS_PER_POINT, 3000);
        for alg in ["LERFA + SRFE", "SRFAE", "LS"] {
            let at20 = find(&points, alg, 20).makespan_secs;
            let at40 = find(&points, alg, 40).makespan_secs;
            assert!(
                at40 <= at20 * 1.05,
                "{alg}: makespan should not grow with skewness ({at20:.2} → {at40:.2})"
            );
        }
        // SA is the worst algorithm under skew (scheduling time dominates).
        for &skew in &[20u64, 30, 40] {
            let sa = find(&points, "SA", skew).makespan_secs;
            for alg in ["LERFA + SRFE", "SRFAE", "LS"] {
                let v = find(&points, alg, skew).makespan_secs;
                assert!(
                    sa > v,
                    "SA ({sa:.2}) should be worst at skew {skew}, {alg} is {v:.2}"
                );
            }
        }
    }

    #[test]
    fn e5_ratio_invariance() {
        let points = e5(5, 4000);
        // Same ratio n/m = 2: service makespans within a modest band.
        for alg in ["LERFA + SRFE", "SRFAE", "LS"] {
            let vals: Vec<f64> = points
                .iter()
                .filter(|p| p.algorithm == alg && p.n == 2 * p.m)
                .map(|p| p.service_secs)
                .collect();
            assert!(vals.len() >= 3, "{alg}");
            let min = vals.iter().cloned().fold(f64::MAX, f64::min);
            let max = vals.iter().cloned().fold(0.0, f64::max);
            assert!(
                max / min < 1.6,
                "{alg}: same-ratio makespans spread too far: {vals:?}"
            );
            // Contrast: ratio 4 (40,10) should be clearly above ratio 1 (10,10).
            let r4 = points
                .iter()
                .find(|p| p.algorithm == alg && p.n == 40 && p.m == 10)
                .unwrap()
                .service_secs;
            let r1 = points
                .iter()
                .find(|p| p.algorithm == alg && p.n == 10 && p.m == 10)
                .unwrap()
                .service_secs;
            assert!(r4 > r1, "{alg}: ratio 4 ({r4:.2}) vs ratio 1 ({r1:.2})");
        }
    }
}

/// One row of the E1 synchronization experiment report.
#[derive(Debug, Clone, PartialEq)]
pub struct E1Row {
    /// "without locking" / "with locking".
    pub label: String,
    /// Total photo requests issued.
    pub requests: u64,
    /// Requests that failed or produced ruined photos.
    pub failures: u64,
    /// failures / requests.
    pub failure_rate: f64,
}

/// **E1** (§6.2) — the device-synchronization experiment: "We generated 10
/// queries embedded with the photo() action … a photo of Mote i's location
/// was required to be taken by the i-th query every minute", on the standard
/// 2-camera lab, with and without the locking mechanism.
pub fn e1(minutes: u64, seed: u64) -> Vec<E1Row> {
    use aorta_core::{Aorta, EngineConfig};
    use aorta_device::PervasiveLab;
    use aorta_sim::SimDuration;

    let mut rows = Vec::new();
    for (label, sync) in [("without locking", false), ("with locking", true)] {
        let lab = PervasiveLab::standard()
            .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
        let config = if sync {
            EngineConfig::seeded(seed)
        } else {
            EngineConfig::seeded(seed).without_sync()
        };
        let mut aorta = Aorta::with_lab(config, lab);
        for i in 0..10 {
            aorta
                .execute_sql(&format!(
                    r#"CREATE AQ snapshot_{i} AS
                       SELECT photo(c.ip, s.loc, "photos/admin")
                       FROM sensor s, camera c
                       WHERE s.accel_x > 500 AND s.id = {i} AND coverage(c.id, s.loc)"#
                ))
                .expect("the §6.2 queries are valid");
        }
        aorta.run_for(SimDuration::from_mins(minutes));
        // Let in-flight photos settle so outcomes are final.
        aorta.run_for(SimDuration::from_secs(30));
        let stats = aorta.stats();
        rows.push(E1Row {
            label: label.to_string(),
            requests: stats.requests,
            failures: stats.failures(),
            failure_rate: stats.failure_rate().unwrap_or(0.0),
        });
    }
    rows
}

/// **E6** (§2.3) — cost-model accuracy: profile-composed estimates vs the
/// (jittered) simulated camera's actual `photo()` execution times.
pub fn e6(samples: u64, seed: u64) -> Vec<(String, String)> {
    use aorta_core::{estimate_action_cost, ActionProfile, CostContext};
    use aorta_data::Location;
    use aorta_device::{
        Camera, CameraFailureModel, CameraSpec, DeviceKind, OpCostTable, PhotoSize, PtzPosition,
    };
    use aorta_sim::{SimDuration, SimTime};

    let spec = CameraSpec::axis_2130().with_move_jitter(0.03);
    let mut cam = Camera::new(
        0,
        spec,
        Location::new(4.0, 3.0, 3.0),
        90.0,
        CameraFailureModel::reliable(),
    );
    let profile = ActionProfile::photo();
    let table = OpCostTable::defaults_for(DeviceKind::Camera);
    let mut rng = SimRng::seed(seed);
    let mut rel_errors: Vec<f64> = Vec::with_capacity(samples as usize);
    let mut t = SimTime::ZERO;
    for _ in 0..samples {
        let from = PtzPosition::new(rng.range(-170.0..170.0), rng.range(-90.0..10.0), rng.unit());
        let to = PtzPosition::new(rng.range(-170.0..170.0), rng.range(-90.0..10.0), rng.unit());
        cam.force_position(from);
        let est = estimate_action_cost(&profile, &table, &CostContext::camera(from, to))
            .expect("photo profile always estimates");
        let rec = cam
            .begin_photo(t, to, PhotoSize::Medium, &mut rng)
            .expect("reliable camera accepts photos");
        let actual = rec.completes_at - t;
        let err = (est.as_secs_f64() - actual.as_secs_f64()).abs() / actual.as_secs_f64();
        rel_errors.push(err);
        t = rec.completes_at + SimDuration::from_secs(1);
    }
    rel_errors.sort_by(|a, b| a.partial_cmp(b).expect("errors are finite"));
    let mean = rel_errors.iter().sum::<f64>() / rel_errors.len() as f64;
    let p95 = rel_errors[(rel_errors.len() * 95 / 100).min(rel_errors.len() - 1)];
    let max = *rel_errors.last().expect("samples > 0");
    vec![
        ("samples".into(), samples.to_string()),
        (
            "mean |relative error|".into(),
            format!("{:.2}%", mean * 100.0),
        ),
        (
            "p95 |relative error|".into(),
            format!("{:.2}%", p95 * 100.0),
        ),
        (
            "max |relative error|".into(),
            format!("{:.2}%", max * 100.0),
        ),
        (
            "paper claim".into(),
            "\"our cost model is reasonably accurate\"".into(),
        ),
    ]
}

#[cfg(test)]
mod engine_experiment_tests {
    use super::*;

    #[test]
    fn e1_sync_contrast_matches_paper() {
        let rows = e1(10, 500);
        assert_eq!(rows.len(), 2);
        let without = &rows[0];
        let with = &rows[1];
        assert!(
            without.failure_rate > 0.5,
            "paper: >50% failures without locking, got {:.1}%",
            without.failure_rate * 100.0
        );
        assert!(
            with.failure_rate < 0.25,
            "paper: ~10% failures with locking, got {:.1}%",
            with.failure_rate * 100.0
        );
        assert!(with.failure_rate < without.failure_rate / 2.0);
        // Roughly 10 queries x 10 minutes of requests in both arms.
        assert!(without.requests >= 80, "{without:?}");
        assert!(with.requests >= 80, "{with:?}");
    }

    #[test]
    fn e6_cost_model_reasonably_accurate() {
        let rows = e6(500, 600);
        let mean: f64 = rows[1].1.trim_end_matches('%').parse().unwrap();
        assert!(mean < 5.0, "mean relative error {mean}% too large");
        let max: f64 = rows[3].1.trim_end_matches('%').parse().unwrap();
        assert!(max < 15.0, "max relative error {max}% too large");
    }
}

/// One row of the A1 ablation: what sequence-dependence awareness buys.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Which configuration the row describes.
    pub label: String,
    /// Mean service makespan, seconds.
    pub service_secs: f64,
}

/// **A1 (ablation)** — sequence-dependence: the same 20-request / 10-camera
/// workload under (a) the kinematic cost model, where SRFE's nearest-target
/// sequencing can shorten head travel, and (b) a sequence-independent cost
/// table drawn from the same `[0.36, 5.36]` s range, where reordering buys
/// nothing. The gap between LERFA+SRFE and LS collapses in (b).
pub fn ablation_sequence_dependence(runs: u64, base_seed: u64) -> Vec<AblationRow> {
    let cpu = CpuModel::instant();
    let mut out = Vec::new();
    for (label, kinematic) in [
        ("kinematic (sequence-dependent)", true),
        ("table (independent)", false),
    ] {
        for alg in [Algorithm::LerfaSrfe, Algorithm::Ls] {
            let mut service = 0.0;
            for run in 0..runs {
                let seed = base_seed + run;
                let s = if kinematic {
                    let (inst, model) = workload::uniform_targets(20, 10, &mut SimRng::seed(seed));
                    let mut rng = SimRng::seed(seed ^ 0xAB1);
                    run_algorithm(&alg, &inst, &model, &cpu, &mut rng)
                        .service_makespan
                        .as_secs_f64()
                } else {
                    let (inst, model) = workload::uniform_table(20, 10, &mut SimRng::seed(seed));
                    let mut rng = SimRng::seed(seed ^ 0xAB1);
                    run_algorithm(&alg, &inst, &model, &cpu, &mut rng)
                        .service_makespan
                        .as_secs_f64()
                };
                service += s;
            }
            out.push(AblationRow {
                label: format!("{label} / {}", alg.name()),
                service_secs: service / runs as f64,
            });
        }
    }
    out
}

/// **A2 (ablation)** — dispatch policy: the engine's batch scheduling
/// (`DispatchPolicy::Scheduled`, LERFA-style with SRFE ordering) against
/// independent per-request min-cost selection, on a bursty workload where
/// all ten motes fire simultaneously. Scheduling the batch balances the two
/// cameras and sequences for short head travel.
pub fn ablation_dispatch_policy(minutes: u64, seed: u64) -> Vec<AblationRow> {
    use aorta_core::{Aorta, DispatchPolicy, EngineConfig};
    use aorta_device::PervasiveLab;
    use aorta_sim::SimDuration;

    let mut out = Vec::new();
    for (label, policy) in [
        ("scheduled batch dispatch", DispatchPolicy::Scheduled),
        ("independent min-cost", DispatchPolicy::MinCost),
    ] {
        let lab = PervasiveLab::standard()
            .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
        let config = EngineConfig::seeded(seed).with_dispatch(policy);
        let mut aorta = Aorta::with_lab(config, lab);
        for sql in photo_aqs(10, true) {
            aorta.execute_sql(&sql).expect("valid query");
        }
        aorta.run_for(SimDuration::from_mins(minutes));
        aorta.run_for(SimDuration::from_secs(30));
        let stats = aorta.stats();
        let latency = stats
            .mean_action_latency
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        out.push(AblationRow {
            label: format!(
                "{label}: {} ok / {} requests, mean latency {latency:.2}s",
                stats.photos_ok, stats.requests,
            ),
            service_secs: latency,
        });
    }
    out
}

/// **E7 (extension, §8 future work)** — scheduling at scale: makespan and
/// wall-clock scheduling cost for large device fleets, the "large number of
/// heterogeneous devices" regime the paper leaves open.
pub fn e7_scale(runs: u64, base_seed: u64) -> Vec<RatioPoint> {
    let cpu = CpuModel::paper_notebook();
    let mut out = Vec::new();
    for &(n, m) in &[(100usize, 25usize), (200, 50), (400, 100)] {
        for alg in [Algorithm::LerfaSrfe, Algorithm::Srfae, Algorithm::Ls] {
            let mut service = 0.0;
            for run in 0..runs {
                let seed = base_seed + run;
                let (inst, model) = workload::uniform_targets(n, m, &mut SimRng::seed(seed));
                let mut rng = SimRng::seed(seed ^ 0xE7);
                let r = run_algorithm(&alg, &inst, &model, &cpu, &mut rng);
                service += r.total().as_secs_f64();
            }
            out.push(RatioPoint {
                algorithm: alg.name(),
                n,
                m,
                service_secs: service / runs as f64,
            });
        }
    }
    out
}

/// One batch row of the **E8** cluster sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct E8Row {
    /// Shard count *k*.
    pub shards: usize,
    /// Cameras down for the whole round (0 = the uniform arm; a non-zero
    /// block is a shard-local crash storm under stripe partitioning).
    pub crashed_cameras: usize,
    /// Cluster makespan (slowest shard), seconds.
    pub makespan_secs: f64,
    /// Requests re-routed to a sibling after candidate-set exhaustion.
    pub rerouted: usize,
    /// Requests moved at admission by queue-depth saturation routing.
    pub balanced: usize,
    /// Requests no shard could serve.
    pub dropped: usize,
}

/// The live-engine arm of E8: a [`aorta_cluster::ShardManager`] run with
/// periodic events, reporting event→completion latency and the cluster
/// conservation verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct E8LiveRow {
    /// Shard count.
    pub shards: usize,
    /// Requests admitted cluster-wide.
    pub requests: u64,
    /// Requests executed cluster-wide.
    pub executed: u64,
    /// Gateway reroutes.
    pub rerouted: u64,
    /// Device ownership migrations.
    pub migrations: u64,
    /// Mean event→completion latency, seconds.
    pub mean_latency_secs: Option<f64>,
    /// Whether [`aorta_cluster::ClusterStats::check_conservation`] held.
    pub conservation_ok: bool,
}

/// The full **E8** report: batch sweep, live arm, and determinism check.
#[derive(Debug, Clone, PartialEq)]
pub struct E8Report {
    /// Batch rows: shards ∈ {1, 2, 4, 8} × {uniform, crash storm}.
    pub batch: Vec<E8Row>,
    /// The live-engine arm.
    pub live: E8LiveRow,
    /// Uniform-arm makespan ratio, 1 shard over 8 shards.
    pub speedup_1_to_8: f64,
    /// Whether two identically-seeded 8-shard runs rendered byte-identical
    /// outcomes (batch) and traces (live).
    pub deterministic: bool,
    /// FNV-1a digest of the uniform 8-shard batch rendering.
    pub trace_digest: u64,
}

/// E8 workload scale: the request count,
pub const E8_REQUESTS: usize = 800;
/// … the camera fleet size,
pub const E8_CAMERAS: usize = 200;
/// … and the storm arm's crashed block (exactly stripe 0 at 8 shards).
pub const E8_STORM_CRASHED: usize = 25;

fn e8_batch(seed: u64, shards: usize, crashed: usize) -> aorta_cluster::BatchOutcome {
    aorta_cluster::run_photo_batch(&aorta_cluster::BatchConfig {
        requests: E8_REQUESTS,
        cameras: E8_CAMERAS,
        shards,
        seed,
        crashed_cameras: crashed,
    })
}

/// The photo wave the engine experiments register: `count` AQs `q0…`,
/// each photographing the location of a mote whose `accel_x` spikes past
/// 500; `per_mote` pins query `i` to mote `i`. The text is part of the
/// byte contract: a WAL logs it.
fn photo_aqs(count: usize, per_mote: bool) -> impl Iterator<Item = String> {
    (0..count).map(move |i| {
        let mote = per_mote.then(|| format!(" AND s.id = {i}"));
        let mote = mote.unwrap_or_default();
        format!(
            r#"CREATE AQ q{i} AS
                   SELECT photo(c.ip, s.loc, "p")
                   FROM sensor s, camera c
                   WHERE s.accel_x > 500{mote} AND coverage(c.id, s.loc)"#
        )
    })
}

/// One victim camera on each of `crashes` distinct shards, lowest camera
/// id first (E11, E12).
fn distinct_shard_victims(
    cluster: &aorta_cluster::ShardManager,
    crashes: usize,
) -> Vec<(usize, aorta_device::DeviceId)> {
    let mut victims: Vec<(usize, aorta_device::DeviceId)> = Vec::new();
    for id in (0..E11_CAMERAS as u32).map(aorta_device::DeviceId::camera) {
        let owner = cluster.shard_owning(id).expect("camera owned");
        if victims.len() < crashes && victims.iter().all(|(s, _)| *s != owner) {
            victims.push((owner, id));
        }
    }
    assert_eq!(victims.len(), crashes, "need {crashes} distinct shards");
    victims
}

/// 64-bit FNV-1a over a string, for compact trace fingerprints.
fn fnv1a64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// **E8 (extension)** — sharded multi-engine execution: cluster makespan vs
/// shard count at 800 requests / 200 cameras, with and without a
/// shard-local crash storm, plus a live two-shard engine run and a
/// byte-identical determinism check. See `DESIGN.md` §7.
pub fn e8_cluster(seed: u64) -> E8Report {
    use aorta_cluster::{ClusterConfig, ShardManager};
    use aorta_device::PervasiveLab;
    use aorta_sim::SimDuration;

    let mut batch = Vec::new();
    for &crashed in &[0usize, E8_STORM_CRASHED] {
        for &k in &[1usize, 2, 4, 8] {
            let out = e8_batch(seed, k, crashed);
            batch.push(E8Row {
                shards: k,
                crashed_cameras: crashed,
                makespan_secs: out.makespan.as_secs_f64(),
                rerouted: out.rerouted,
                balanced: out.balanced,
                dropped: out.dropped,
            });
        }
    }
    let speedup_1_to_8 = {
        let one = batch
            .iter()
            .find(|r| r.shards == 1 && r.crashed_cameras == 0);
        let eight = batch
            .iter()
            .find(|r| r.shards == 8 && r.crashed_cameras == 0);
        one.unwrap().makespan_secs / eight.unwrap().makespan_secs
    };

    let live_run = |seed: u64| {
        let lab = PervasiveLab::with_sizes(12, 16, 0)
            .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
        let mut cluster = ShardManager::new(ClusterConfig::seeded(seed, 2), lab);
        for sql in photo_aqs(10, true) {
            cluster.execute_sql(&sql).expect("valid query");
        }
        cluster.run_for(SimDuration::from_mins(10));
        cluster.run_for(SimDuration::from_secs(30));
        cluster
    };
    let live_a = live_run(seed);
    let live_b = live_run(seed);
    let stats = live_a.stats();
    let live = E8LiveRow {
        shards: live_a.shard_count(),
        requests: stats.requests(),
        executed: stats.executed(),
        rerouted: stats.rerouted,
        migrations: stats.migrations,
        mean_latency_secs: stats.mean_latency_secs(),
        conservation_ok: stats.check_conservation().is_ok(),
    };

    let render_a = e8_batch(seed, 8, 0).render();
    let render_b = e8_batch(seed, 8, 0).render();
    let deterministic = render_a == render_b && live_a.render_trace() == live_b.render_trace();

    E8Report {
        batch,
        live,
        speedup_1_to_8,
        deterministic,
        trace_digest: fnv1a64(&render_a),
    }
}

/// One cell of the **E9** overload sweep: one arrival-rate × fault-rate
/// combination run on a 4-shard cluster with the full overload stack on
/// (deadlines, admission control, brownout, breakers).
#[derive(Debug, Clone, PartialEq)]
pub struct E9Row {
    /// Event period, seconds (smaller = higher arrival rate).
    pub period_secs: u64,
    /// Crash rate per device per fault period.
    pub crash_rate: f64,
    /// Requests admitted cluster-wide.
    pub requests: u64,
    /// Full-quality completions.
    pub executed: u64,
    /// Brownout (lo-res) completions.
    pub degraded: u64,
    /// Requests shed by admission or deadline rejection.
    pub shed: u64,
    /// Requests cancelled at execution past their deadline, plus
    /// escalations expired at the gateway.
    pub expired: u64,
    /// Circuit-breaker trips across shards.
    pub breaker_trips: u64,
    /// p99 event→completion latency over all completions, seconds.
    pub p99_latency_secs: f64,
    /// Successes that completed after their deadline (must be 0).
    pub late_successes: u64,
    /// Whether cluster conservation (with overload terms) held.
    pub conservation_ok: bool,
}

/// The full **E9** report.
#[derive(Debug, Clone, PartialEq)]
pub struct E9Report {
    /// Sweep cells: period ∈ {30, 15, 5}s × crash rate ∈ {0, 0.3}.
    pub rows: Vec<E9Row>,
    /// Deadline budget every request carries, seconds.
    pub deadline_secs: f64,
    /// Largest p99 across the sweep — bounded by the deadline.
    pub max_p99_secs: f64,
    /// Whether every cell had zero post-deadline successes.
    pub zero_late_successes: bool,
    /// Whether two identically-seeded saturated runs rendered
    /// byte-identical traces.
    pub deterministic: bool,
    /// FNV-1a digest of the saturated cell's trace.
    pub trace_digest: u64,
}

/// The E9 deadline budget (also the p99 bound successes cannot exceed).
pub const E9_DEADLINE: aorta_sim::SimDuration = aorta_sim::SimDuration::from_secs(3);

fn e9_cluster_run(seed: u64, period_secs: u64, crash_rate: f64) -> aorta_cluster::ShardManager {
    use aorta_cluster::{ClusterConfig, ShardManager};
    use aorta_core::AdmissionConfig;
    use aorta_device::{DeviceId, PervasiveLab};
    use aorta_net::BreakerConfig;
    use aorta_sim::{FaultConfig, FaultPlan, SimDuration};

    let lab = PervasiveLab::with_sizes(12, 16, 0).with_periodic_events(
        SimDuration::from_secs(period_secs),
        SimDuration::from_secs(1),
    );
    let mut config = ClusterConfig::seeded(seed, 4);
    config.engine = config
        .engine
        .with_deadline(E9_DEADLINE)
        .with_admission(AdmissionConfig {
            rate_per_sec: 2.0,
            burst: 8.0,
            slo: SimDuration::from_secs(2),
            brownout_multiple: 0.5,
            shed_multiple: 2.0,
            protected_queries: 2,
        })
        .with_breakers(BreakerConfig::default());
    let mut cluster = ShardManager::new(config, lab);
    for sql in photo_aqs(10, true) {
        cluster.execute_sql(&sql).expect("valid query");
    }
    if crash_rate > 0.0 {
        let devices: Vec<DeviceId> = (0..12)
            .map(DeviceId::camera)
            .chain((0..16).map(DeviceId::sensor))
            .collect();
        let fc = FaultConfig {
            crash_rate,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(seed ^ 0x0E9, SimDuration::from_mins(3), &devices, &fc);
        cluster.inject_faults(plan);
    }
    cluster.run_for(SimDuration::from_mins(3));
    cluster.run_for(SimDuration::from_secs(30));
    cluster
}

/// **E9 (extension)** — overload sweep: arrival rate × fault rate on a
/// 4-shard cluster with deadlines, admission control, brownout and
/// breakers all enabled. The two headline claims: p99 completion latency
/// stays bounded by the deadline at every point of the sweep, and no
/// success ever lands past its deadline. See `DESIGN.md` §8.
pub fn e9_overload(seed: u64) -> E9Report {
    use aorta_sim::metrics::DurationStats;

    let mut rows = Vec::new();
    for &period_secs in &[30u64, 15, 5] {
        for &crash_rate in &[0.0f64, 0.3] {
            let cluster = e9_cluster_run(seed, period_secs, crash_rate);
            let stats = cluster.stats();
            let mut latencies = DurationStats::new();
            for s in 0..cluster.shard_count() {
                latencies.extend(cluster.shard(s).latency_stats().iter().copied());
            }
            // An empty sample set must not silently report p99 = 0.0: that
            // would vacuously pass the headline `p99 ≤ deadline` check even
            // if completions had gone unmeasured. Zero is only legitimate
            // when nothing completed at all.
            let p99 = match latencies.quantile(0.99) {
                Some(d) => d.as_secs_f64(),
                None => {
                    assert_eq!(
                        stats.executed() + stats.degraded(),
                        0,
                        "completions exist but no latency sample was recorded"
                    );
                    0.0
                }
            };
            rows.push(E9Row {
                period_secs,
                crash_rate,
                requests: stats.requests(),
                executed: stats.executed(),
                degraded: stats.degraded(),
                shed: stats.shed(),
                expired: stats.expired() + stats.gateway_expired,
                breaker_trips: stats.per_shard.iter().map(|s| s.breaker_trips).sum(),
                p99_latency_secs: p99,
                late_successes: stats.late_successes(),
                conservation_ok: stats.check_conservation().is_ok(),
            });
        }
    }
    let max_p99_secs = rows.iter().map(|r| r.p99_latency_secs).fold(0.0, f64::max);
    let zero_late_successes = rows.iter().all(|r| r.late_successes == 0);

    // Determinism witness: the most saturated cell, run twice.
    let trace_a = e9_cluster_run(seed, 5, 0.3).render_trace();
    let trace_b = e9_cluster_run(seed, 5, 0.3).render_trace();

    E9Report {
        rows,
        deadline_secs: E9_DEADLINE.as_secs_f64(),
        max_p99_secs,
        zero_late_successes,
        deterministic: trace_a == trace_b,
        trace_digest: fnv1a64(&trace_a),
    }
}

// ---------------------------------------------------------------------------
// E10 (extension): event detection with a shared predicate index

/// Number of distinct predicate templates in the E10 palette. Scales of
/// 10³–10⁶ registered AQs all draw from this fixed palette, so the number of
/// *distinct* comparisons — what detection's cost follows — stays
/// constant while the query count grows three orders of magnitude.
pub const E10_PALETTE: usize = 256;

/// Motes in the E10 lab (= sensor tuples per scan batch epoch).
pub const E10_MOTES: usize = 64;

/// One E10 measurement arm: detection at one registered-AQ scale.
#[derive(Debug, Clone)]
pub struct E10Row {
    /// Registered AQs.
    pub queries: u64,
    /// Detection epochs in the timed window (virtual seconds run).
    pub epochs: u64,
    /// Wall-clock seconds to register all AQs (bulk plan path).
    pub register_secs: f64,
    /// Wall-clock seconds of the timed detection window.
    pub detect_secs: f64,
    /// Detection throughput: scanned sensor tuples per wall-clock second.
    pub tuples_per_sec: f64,
    /// Live distinct comparisons in the predicate index after registration.
    pub index_cmps: u64,
    /// Live query groups in the predicate index after registration.
    pub index_groups: u64,
}

/// The E10 report: throughput rows plus the derived claims.
#[derive(Debug, Clone)]
pub struct E10Report {
    /// One row per scale.
    pub rows: Vec<E10Row>,
    /// Per-epoch wall-cost growth divided by query-count growth for each
    /// consecutive pair of scales — 1.0 would be exactly linear in the
    /// query count, so sub-linear means every ratio is below 1.0.
    pub sublinear_ratios: Vec<f64>,
    /// Whether every consecutive scale pair grew sub-linearly.
    pub sublinear_ok: bool,
}

impl E10Report {
    /// Whether the index shared at every scale: all AQs draw from one
    /// palette, so there is at most one group per template and strictly
    /// fewer distinct comparisons than registered queries.
    pub fn shares(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.index_groups <= E10_PALETTE as u64 && r.index_cmps < r.queries)
    }
}

/// The palette of E10 predicate templates. All are built never to match any
/// sensor tuple (thresholds far outside physical ranges), so throughput
/// measures pure detection, not action dispatch; matching behaviour is
/// covered by the differential harness in `aorta-core`. The mix
/// covers single comparisons across operators and attributes, short-circuit
/// two-conjunct chains, heavily shared duplicate comparisons, and
/// non-indexable fallback conjuncts.
fn e10_palette() -> Vec<String> {
    let attrs = ["accel_x", "accel_y", "light", "battery", "temp"];
    (0..E10_PALETTE)
        .map(|k| {
            let attr = attrs[k % attrs.len()];
            let attr2 = attrs[(k + 2) % attrs.len()];
            let hi = 1_000_000 + k;
            match k % 8 {
                0 | 1 => format!("s.{attr} > {hi}"),
                2 | 3 => format!("s.{attr} >= {hi}"),
                4 => format!("s.{attr} = {}", hi + 1_000_000),
                5 => format!("s.{attr} > {hi} AND s.{attr2} >= {}", hi + 2_000_000),
                // Motes report depth >= 1 and temp ~22 °C: indexable `<`
                // comparisons that never match, shared by many queries.
                6 => {
                    if k % 16 == 6 {
                        "s.depth < 1".to_string()
                    } else {
                        "s.temp <= 0".to_string()
                    }
                }
                // distance(x, x) = 0: a guaranteed-false call conjunct that
                // cannot be indexed — exercises the per-group fallback path.
                _ => format!("distance(s.loc, s.loc) >= 1.5 AND s.{attr} > {hi}"),
            }
        })
        .collect()
}

/// Parses and plans one `beep`-on-sensor AQ per palette predicate. The
/// caller clones a template per registered query and renames it; planning
/// happens once per *distinct* predicate, mirroring a real deployment where
/// many users register the same alert shapes.
fn e10_templates(preds: &[String]) -> Vec<aorta_core::AqPlan> {
    preds
        .iter()
        .map(|pred| {
            plan_template(&format!(
                "SELECT beep(t.id) FROM sensor t, sensor s WHERE {pred}"
            ))
        })
        .collect()
}

/// Parses and plans one `SELECT` as an AQ named `template`; callers clone
/// and rename the plan per registered query.
fn plan_template(sql: &str) -> aorta_core::AqPlan {
    use aorta_sql::ast::Statement;
    let stmts = aorta_sql::parse(sql).expect("template SQL parses");
    let Statement::Select(select) = stmts.into_iter().next().expect("one statement") else {
        panic!("template statements are SELECTs");
    };
    let catalog = aorta_core::Catalog::with_builtins();
    aorta_core::AqPlan::plan("template", &select, &catalog).expect("template plans")
}

/// Runs one E10 arm and measures registration and detection wall cost.
fn e10_run(seed: u64, queries: u64, epochs: u64, templates: &[aorta_core::AqPlan]) -> E10Row {
    use aorta_core::{Aorta, EngineConfig};
    use aorta_device::PervasiveLab;
    use aorta_sim::SimDuration;
    use std::time::Instant;

    let lab = PervasiveLab::with_sizes(2, E10_MOTES, 1);
    let mut aorta = Aorta::with_lab(EngineConfig::seeded(seed), lab);
    aorta.disable_trace();
    let t0 = Instant::now();
    for i in 0..queries {
        let mut plan = templates[(i % templates.len() as u64) as usize].clone();
        plan.name = format!("aq{i:07}");
        aorta
            .register_query_plan(plan)
            .expect("bench plans register");
    }
    let register_secs = t0.elapsed().as_secs_f64();
    // One untimed warm-up epoch fills lazy caches (scan-kind list).
    aorta.run_for(SimDuration::from_secs(1));
    let t0 = Instant::now();
    aorta.run_for(SimDuration::from_secs(epochs));
    let detect_secs = t0.elapsed().as_secs_f64().max(1e-9);
    E10Row {
        queries,
        epochs,
        register_secs,
        detect_secs,
        tuples_per_sec: (epochs * E10_MOTES as u64) as f64 / detect_secs,
        index_cmps: aorta.predicate_index().cmp_count() as u64,
        index_groups: aorta.predicate_index().group_count() as u64,
    }
}

/// **E10** — detection throughput and scaling over the shared predicate
/// index. `full` runs the committed 10³ → 10⁵ → 10⁶ sweep; otherwise the
/// 10³ → 10⁴ smoke pair runs (the CI configuration). That the index detects
/// exactly what a per-plan, tuple-at-a-time walk would is the differential
/// harness's job (`cargo test -p aorta-core detect_diff`), not this
/// experiment's.
pub fn e10_detect(seed: u64, full: bool) -> E10Report {
    let templates = e10_templates(&e10_palette());
    let scales: &[u64] = if full {
        &[1_000, 100_000, 1_000_000]
    } else {
        &[1_000, 10_000]
    };
    let rows: Vec<E10Row> = scales
        .iter()
        .map(|&q| e10_run(seed, q, 30, &templates))
        .collect();
    let sublinear_ratios: Vec<f64> = rows
        .windows(2)
        .map(|w| {
            let per_epoch_a = w[0].detect_secs / w[0].epochs as f64;
            let per_epoch_b = w[1].detect_secs / w[1].epochs as f64;
            (per_epoch_b / per_epoch_a) / (w[1].queries as f64 / w[0].queries as f64)
        })
        .collect();
    let sublinear_ok = sublinear_ratios.iter().all(|r| *r < 1.0);
    E10Report {
        rows,
        sublinear_ratios,
        sublinear_ok,
    }
}

/// One arm of the **E11** kill-and-recover experiment: a WAL-logged
/// cluster where one or more shards process-crash mid-wave and are rebuilt
/// from their logs, compared record-for-record against a crash-immune
/// reference run of the same seed.
#[derive(Debug, Clone, PartialEq)]
pub struct E11Row {
    /// Shard count.
    pub shards: usize,
    /// Shards crashed (each on its own seeded instant).
    pub crashes: usize,
    /// Snapshot cadence in log frames (a huge value forces genesis replay).
    pub snapshot_every: usize,
    /// True when the log lived in files on disk rather than memory.
    pub durable: bool,
    /// Requests admitted cluster-wide.
    pub requests: u64,
    /// Requests executed at full quality.
    pub executed: u64,
    /// Crash recoveries performed (must equal `crashes`).
    pub recoveries: u64,
    /// Log records replayed across all recoveries.
    pub records_replayed: u64,
    /// Host wall-clock milliseconds per recovery (machine-dependent).
    pub recovery_wall_ms: Vec<u64>,
    /// Records appended across all shard logs.
    pub wal_appends: u64,
    /// Live bytes across all shard logs.
    pub wal_bytes: u64,
    /// Snapshots vaulted across all shards.
    pub snapshots: u64,
    /// Whether the cluster ledger closed.
    pub conservation_ok: bool,
    /// Whether stats + trace matched the uninterrupted reference exactly.
    pub identical_to_reference: bool,
}

/// The **E11** report: per-arm rows plus the cross-cutting verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct E11Report {
    /// One row per (shards, crashes, cadence, store) arm.
    pub rows: Vec<E11Row>,
    /// Every arm's ledger closed.
    pub all_conserved: bool,
    /// Every arm matched its reference byte-for-byte.
    pub all_identical: bool,
    /// Two repetitions of the first arm rendered byte-identical traces.
    pub deterministic: bool,
    /// FNV-1a digest of the first arm's recovered trace.
    pub trace_digest: u64,
}

/// E11 fleet: the camera block …
pub const E11_CAMERAS: usize = 12;
/// … and the mote block.
pub const E11_MOTES: usize = 16;

/// One seeded kill-and-recover cluster run. `wal` is `(cadence, dir)` —
/// `None` runs without logging; `immune` absorbs the crashes instead
/// (the uninterrupted reference).
fn e11_cluster(
    seed: u64,
    shards: usize,
    crashes: usize,
    wal: Option<(usize, Option<std::path::PathBuf>)>,
    immune: bool,
) -> aorta_cluster::ShardManager {
    use aorta_cluster::{ClusterConfig, ShardManager};
    use aorta_device::PervasiveLab;
    use aorta_sim::{FaultEvent, FaultPlan, SimDuration, SimTime};

    let lab = PervasiveLab::with_sizes(E11_CAMERAS, E11_MOTES, 0)
        .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
    let mut config = ClusterConfig::seeded(seed, shards).with_imbalance_threshold(u64::MAX);
    if let Some((every, dir)) = wal {
        config = match dir {
            Some(d) => config.with_wal_dir(every, d),
            None => config.with_wal(every),
        };
    }
    let mut cluster = ShardManager::new(config, lab);
    for sql in photo_aqs(10, true) {
        cluster.execute_sql(&sql).expect("valid query");
    }
    let mut plan = FaultPlan::new();
    for (i, (owner, id)) in distinct_shard_victims(&cluster, crashes).iter().enumerate() {
        if immune {
            cluster.shard_mut(*owner).grant_crash_immunity(1);
        }
        plan.schedule(
            SimTime::ZERO + SimDuration::from_secs(100 + 37 * i as u64),
            FaultEvent::ProcessCrash(*id),
        );
    }
    cluster.inject_faults(plan);
    cluster.run_for(SimDuration::from_mins(5));
    cluster.run_for(SimDuration::from_secs(30));
    cluster
}

/// **E11 (extension)** — durable control plane: kill shards mid-wave at
/// seeded points, rebuild each from its write-ahead log (snapshot + replay
/// suffix), and prove the recovered run is *indistinguishable* from one
/// that was never interrupted: conservation holds and stats + trace are
/// byte-identical to a crash-immune reference. See `DESIGN.md` §11.
pub fn e11_wal(seed: u64, full: bool) -> E11Report {
    // (shards, crashes, snapshot cadence, durable file store)
    let mut arms: Vec<(usize, usize, usize, bool)> = vec![(2, 1, 64, true)];
    if full {
        arms.push((4, 2, 256, false));
        // Cadence beyond the log length: recovery replays from genesis.
        arms.push((4, 2, 1_000_000, false));
    }

    let mut rows = Vec::new();
    for (i, &(shards, crashes, snapshot_every, durable)) in arms.iter().enumerate() {
        let arm_seed = seed ^ (i as u64) << 8;
        let dir = durable.then(|| {
            let d = std::env::temp_dir().join(format!("aorta-e11-{arm_seed:08x}"));
            let _ = std::fs::remove_dir_all(&d);
            d
        });
        let live = e11_cluster(
            arm_seed,
            shards,
            crashes,
            Some((snapshot_every, dir.clone())),
            false,
        );
        let reference = e11_cluster(arm_seed, shards, crashes, None, true);
        let stats = live.stats();
        let report = live.wal_report().expect("wal is on");
        let identical =
            stats == reference.stats() && live.render_trace() == reference.render_trace();
        rows.push(E11Row {
            shards,
            crashes,
            snapshot_every,
            durable,
            requests: stats.requests(),
            executed: stats.executed(),
            recoveries: report.recoveries,
            records_replayed: report.records_replayed,
            recovery_wall_ms: report.recovery_wall_ms.clone(),
            wal_appends: report.per_shard.iter().map(|s| s.appends).sum(),
            wal_bytes: report.per_shard.iter().map(|s| s.bytes).sum(),
            snapshots: report.snapshots.iter().sum(),
            conservation_ok: stats.check_conservation().is_ok(),
            identical_to_reference: identical,
        });
        drop(live);
        if let Some(d) = dir {
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    // Determinism: two repetitions of the first arm, traces compared raw.
    let (shards, crashes, every, _) = arms[0];
    let rep_a = e11_cluster(seed, shards, crashes, Some((every, None)), false);
    let rep_b = e11_cluster(seed, shards, crashes, Some((every, None)), false);
    let trace_a = rep_a.render_trace();
    let deterministic = trace_a == rep_b.render_trace() && rep_a.stats() == rep_b.stats();

    E11Report {
        all_conserved: rows.iter().all(|r| r.conservation_ok),
        all_identical: rows.iter().all(|r| r.identical_to_reference),
        rows,
        deterministic,
        trace_digest: fnv1a64(&trace_a),
    }
}

/// One arm of the **E12** cross-host failover experiment: a WAL-logged,
/// failover-enabled cluster where shards process-crash mid-wave inside
/// asymmetric partition windows and are rebuilt on fresh hosts from
/// shipped snapshot images.
#[derive(Debug, Clone, PartialEq)]
pub struct E12Row {
    /// Shard count.
    pub shards: usize,
    /// Shards crashed (each on its own seeded instant, under a partition).
    pub crashes: usize,
    /// Per-chunk loss probability on the image transfer path.
    pub ship_loss: f64,
    /// Requests admitted cluster-wide.
    pub requests: u64,
    /// Requests executed at full quality.
    pub executed: u64,
    /// Requests completed at degraded (brownout) quality.
    pub degraded: u64,
    /// Requests shed by admission or deadline rejection.
    pub shed: u64,
    /// Escalations the gateway delivered to a sibling.
    pub rerouted: u64,
    /// Escalations terminally dropped at the gateway.
    pub gateway_dropped: u64,
    /// Escalations whose deadline lapsed at the gateway.
    pub gateway_expired: u64,
    /// Cross-host failovers completed (must equal `crashes`).
    pub failovers: u64,
    /// Degraded-window length per failover, in virtual microseconds
    /// (crash detection to adoption of the rebuilt shard).
    pub degraded_window_us: Vec<u64>,
    /// Snapshot-image bytes shipped across all failovers.
    pub bytes_shipped: u64,
    /// Transfer rounds across all failovers (loss forces retransmission).
    pub ship_rounds: u64,
    /// Log records the adopting hosts replayed.
    pub records_replayed: u64,
    /// The fresh host ids the shards were rebuilt on.
    pub new_hosts: Vec<u32>,
    /// The post-run zombie probe: a message stamped with the fenced-off
    /// epoch was rejected and counted, not applied.
    pub zombie_probe_rejected: bool,
    /// Successes past their deadline (must be zero).
    pub late_successes: u64,
    /// Whether the cluster ledger closed.
    pub conservation_ok: bool,
}

/// The **E12** report: per-arm rows plus the cross-cutting verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct E12Report {
    /// One row per (shards, crashes, ship loss) arm.
    pub rows: Vec<E12Row>,
    /// Every arm's ledger closed.
    pub all_conserved: bool,
    /// Every arm's zombie probe was fenced.
    pub all_fenced: bool,
    /// No arm completed a success past its deadline.
    pub no_late_successes: bool,
    /// Flipping any single byte of an encoded snapshot image made the
    /// receiver refuse it (the integrity gate swept every offset).
    pub corruption_detected: bool,
    /// Two repetitions of the first arm were byte-identical (trace, stats,
    /// and failover report).
    pub deterministic: bool,
    /// FNV-1a digest of the first arm's trace.
    pub trace_digest: u64,
}

/// One seeded kill-under-partition cluster run with cross-host failover.
/// Each victim shard process-crashes mid-wave inside a pair of asymmetric
/// partition windows (both directions of its gateway path to the next
/// shard blacked out around the crash instant).
fn e12_cluster(seed: u64, shards: usize, crashes: usize, loss: f64) -> aorta_cluster::ShardManager {
    use aorta_cluster::{ClusterConfig, FailoverConfig, ShardManager};
    use aorta_device::PervasiveLab;
    use aorta_net::ShipConfig;
    use aorta_sim::{FaultEvent, FaultPlan, SimDuration, SimTime};

    let lab = PervasiveLab::with_sizes(E11_CAMERAS, E11_MOTES, 0)
        .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
    let config = ClusterConfig::seeded(seed, shards)
        .with_imbalance_threshold(u64::MAX)
        .with_wal(128)
        .with_failover(FailoverConfig {
            ship: ShipConfig {
                loss,
                ..ShipConfig::default()
            },
        });
    let mut cluster = ShardManager::new(config, lab);
    for sql in photo_aqs(10, true) {
        cluster.execute_sql(&sql).expect("valid query");
    }
    let mut plan = FaultPlan::new();
    for (i, (owner, id)) in distinct_shard_victims(&cluster, crashes).iter().enumerate() {
        let crash_at = SimTime::ZERO + SimDuration::from_secs(100 + 37 * i as u64);
        let sibling = ((*owner + 1) % shards) as u32;
        let window = SimDuration::from_secs(20);
        let blackout_from = crash_at - SimDuration::from_secs(5);
        plan.schedule(
            blackout_from,
            FaultEvent::Partition {
                a: *owner as u32,
                b: sibling,
                window,
            },
        );
        plan.schedule(
            blackout_from,
            FaultEvent::Partition {
                a: sibling,
                b: *owner as u32,
                window,
            },
        );
        plan.schedule(crash_at, FaultEvent::ProcessCrash(*id));
    }
    cluster.inject_faults(plan);
    cluster.run_for(SimDuration::from_mins(5));
    cluster.run_for(SimDuration::from_secs(30));
    cluster
}

/// A minimal escalation message for the post-run zombie probe (the fence
/// inspects the epoch stamp, not the payload).
fn e12_probe_request() -> aorta_core::ActionRequest {
    aorta_core::ActionRequest {
        query_id: u32::MAX,
        action: "photo".into(),
        event_tuple: aorta_data::Tuple::empty(),
        event_binding: "s".into(),
        event_kind: aorta_device::DeviceKind::Sensor,
        device_binding: None,
        args: Vec::new(),
        candidates: Default::default(),
        created_at: aorta_sim::SimTime::ZERO,
        deadline: aorta_sim::SimTime::MAX,
        degraded: false,
        attempts: 0,
        hops: 0,
    }
}

/// Every single-byte corruption of an encoded snapshot image must be
/// refused by the receiver's decode gate — manifest, checksum slot, and
/// payload alike.
fn e12_corruption_sweep() -> bool {
    use aorta_sim::SimTime;
    use aorta_wal::{SnapshotImage, WalRecord};

    let image = SnapshotImage {
        shard: 3,
        epoch: 7,
        fingerprint: 0xFEED_F00D_DEAD_BEEF,
        prefix: vec![WalRecord::Genesis {
            fingerprint: 0xFEED_F00D_DEAD_BEEF,
        }],
        suffix: vec![WalRecord::RunUntil {
            deadline: SimTime::from_micros(123_456),
        }],
    };
    let bytes = image.encode();
    (0..bytes.len()).all(|i| {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x01;
        SnapshotImage::decode(&corrupt).is_err()
    })
}

/// **E12 (extension)** — cross-host shard failover: kill shards mid-wave
/// under asymmetric partition windows, rebuild each on a *fresh host* from
/// a CRC-framed snapshot image shipped over a lossy link, and prove the
/// degraded window loses nothing: conservation holds, no success lands
/// past its deadline, a stale-epoch zombie message is fenced, and the whole
/// scenario is byte-identical across repetitions. See `DESIGN.md` §12.
pub fn e12_failover(seed: u64, full: bool) -> E12Report {
    // (shards, crashes, image-transfer loss rate)
    let mut arms: Vec<(usize, usize, f64)> = vec![(2, 1, 0.0)];
    if full {
        arms.push((4, 2, 0.05));
        arms.push((4, 1, 0.25));
    }

    let mut rows = Vec::new();
    for (i, &(shards, crashes, loss)) in arms.iter().enumerate() {
        let arm_seed = seed ^ (i as u64) << 8;
        let mut cluster = e12_cluster(arm_seed, shards, crashes, loss);
        let stats = cluster.stats();
        let events = cluster.failover_report();
        // Zombie probe: replay a message from the fenced-off incarnation.
        let zombie_probe_rejected = events.first().is_some_and(|ev| {
            let rejected = !cluster.inject_escalation(ev.shard, ev.epoch - 1, e12_probe_request());
            rejected && cluster.zombie_rejects() == 1
        });
        rows.push(E12Row {
            shards,
            crashes,
            ship_loss: loss,
            requests: stats.requests(),
            executed: stats.executed(),
            degraded: stats.degraded(),
            shed: stats.shed(),
            rerouted: stats.rerouted,
            gateway_dropped: stats.gateway_dropped,
            gateway_expired: stats.gateway_expired,
            failovers: stats.failovers,
            degraded_window_us: events
                .iter()
                .map(|ev| ev.degraded_window().as_micros())
                .collect(),
            bytes_shipped: events.iter().map(|ev| ev.bytes_shipped).sum(),
            ship_rounds: events.iter().map(|ev| u64::from(ev.ship_rounds)).sum(),
            records_replayed: events.iter().map(|ev| ev.records_replayed).sum(),
            new_hosts: events.iter().map(|ev| ev.new_host).collect(),
            zombie_probe_rejected,
            late_successes: stats.late_successes(),
            conservation_ok: stats.check_conservation().is_ok(),
        });
    }

    // Determinism: two repetitions of the first arm, compared raw.
    let (shards, crashes, loss) = arms[0];
    let rep_a = e12_cluster(seed, shards, crashes, loss);
    let rep_b = e12_cluster(seed, shards, crashes, loss);
    let trace_a = rep_a.render_trace();
    let deterministic = trace_a == rep_b.render_trace()
        && rep_a.stats() == rep_b.stats()
        && rep_a.failover_report() == rep_b.failover_report();

    E12Report {
        all_conserved: rows.iter().all(|r| r.conservation_ok),
        all_fenced: rows
            .iter()
            .all(|r| r.failovers == r.crashes as u64 && r.zombie_probe_rejected),
        no_late_successes: rows.iter().all(|r| r.late_successes == 0),
        corruption_detected: e12_corruption_sweep(),
        rows,
        deterministic,
        trace_digest: fnv1a64(&trace_a),
    }
}

/// One arm of the **E13** multicore sweep: one `(shards, threads)` cell of
/// the scaled-up live wave.
#[derive(Debug, Clone, PartialEq)]
pub struct E13Row {
    /// Shard count *k*.
    pub shards: usize,
    /// Worker threads stepping shards between synchronization windows.
    pub threads: usize,
    /// Wall-clock time of the wave, seconds (machine-dependent).
    pub wall_secs: f64,
    /// Requests admitted cluster-wide.
    pub requests: u64,
    /// Requests executed cluster-wide.
    pub executed: u64,
    /// FNV-1a digest of the full trace + stats rendering.
    pub trace_fnv: u64,
    /// Whether this arm's digest equals the 1-thread oracle's at the same
    /// shard count (trivially true for the oracle itself).
    pub matches_oracle: bool,
}

/// The full **E13** report: wall-clock (not virtual-makespan) scaling of
/// parallel shard stepping, with every threaded arm byte-checked against
/// the 1-thread run.
#[derive(Debug, Clone, PartialEq)]
pub struct E13Report {
    /// Camera fleet size.
    pub cameras: usize,
    /// Mote fleet size (each mote spikes every 30 virtual seconds).
    pub motes: usize,
    /// Registered AQ count.
    pub queries: usize,
    /// Virtual wave length per arm, seconds (plus a 30 s drain).
    pub virtual_secs: u64,
    /// Host logical core count (`std::thread::available_parallelism`) —
    /// recorded because wall-clock speedup is bounded by it.
    pub host_cores: usize,
    /// One row per `(shards, threads)` cell.
    pub rows: Vec<E13Row>,
    /// Every threaded arm matched its 1-thread oracle's digest.
    pub all_match: bool,
    /// Wall-clock ratio of 1 thread over 4 threads at the largest shard
    /// count in the sweep (8 in the full run). ≤ 1 on a single-core host.
    pub speedup_4t: f64,
}

/// E13 workload scale: the camera fleet (10× the E8 wave),
pub const E13_CAMERAS: usize = 2000;
/// … the mote fleet driving the periodic event load,
pub const E13_MOTES: usize = 240;
/// … and the registered-query count (coverage-only predicates, so every
/// mote's spike fans out to all of them and every shard stays busy).
pub const E13_QUERIES: usize = 8;

/// Runs one E13 cell and returns `(wall_secs, requests, executed, digest)`.
/// Only the wave itself is timed; lab construction and AQ registration are
/// setup. The digest covers the full trace *and* the stats snapshot, so a
/// single flipped byte anywhere in the run changes it.
fn e13_arm(seed: u64, shards: usize, threads: usize, virtual_secs: u64) -> (f64, u64, u64, u64) {
    use aorta_cluster::{ClusterConfig, ShardManager};
    use aorta_device::PervasiveLab;
    use aorta_sim::SimDuration;
    use std::time::Instant;

    // Reliable cameras keep the wave escalation-free: probe failures would
    // otherwise escalate ~7% of requests to the gateway. E13 measures the
    // scaling of shard stepping itself; the storm proptests in
    // tests/determinism.rs cover the escalating case.
    let lab = PervasiveLab::with_sizes(E13_CAMERAS, E13_MOTES, 0)
        .with_reliable_cameras()
        .with_periodic_events(SimDuration::from_secs(30), SimDuration::ZERO);
    let config = ClusterConfig::seeded(seed, shards)
        .with_imbalance_threshold(u64::MAX)
        .with_threads(threads);
    let mut cluster = ShardManager::new(config, lab);
    for sql in photo_aqs(E13_QUERIES, false) {
        cluster.execute_sql(&sql).expect("valid query");
    }
    let start = Instant::now();
    cluster.run_for(SimDuration::from_secs(virtual_secs));
    cluster.run_for(SimDuration::from_secs(30));
    let wall = start.elapsed().as_secs_f64();
    let stats = cluster.stats();
    stats.check_conservation().expect("e13 ledger");
    let digest = fnv1a64(&format!("{}\n{:?}", cluster.render_trace(), stats));
    (wall, stats.requests(), stats.executed(), digest)
}

/// **E13 (extension)** — true multicore execution: the E8 live wave scaled
/// to 2000 cameras / 240 motes, swept over shards × threads ∈ {1,2,4,8}²
/// (full) or one smoke cell (4 shards, threads {1,4}). Each threaded arm's
/// trace digest is checked against the 1-thread oracle at the same shard
/// count. See `DESIGN.md` §13.
pub fn e13_parallel(seed: u64, full: bool) -> E13Report {
    let virtual_secs: u64 = if full { 120 } else { 60 };
    let shard_arms: &[usize] = if full { &[1, 2, 4, 8] } else { &[4] };
    let thread_arms: &[usize] = if full { &[1, 2, 4, 8] } else { &[1, 4] };
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    // Untimed warm-up: without it the first measured arm alone pays the
    // process's heap growth and page-fault warm-up, which skews the very
    // 1-thread oracle every other arm is compared against.
    let _ = e13_arm(seed ^ 1, shard_arms[0], 1, 30);

    let mut rows = Vec::new();
    for &k in shard_arms {
        let mut oracle_fnv = 0u64;
        for &t in thread_arms {
            let (wall_secs, requests, executed, trace_fnv) = e13_arm(seed, k, t, virtual_secs);
            if t == 1 {
                oracle_fnv = trace_fnv;
            }
            rows.push(E13Row {
                shards: k,
                threads: t,
                wall_secs,
                requests,
                executed,
                trace_fnv,
                matches_oracle: trace_fnv == oracle_fnv,
            });
        }
    }
    let all_match = rows.iter().all(|r| r.matches_oracle);
    let k_max = *shard_arms.last().expect("non-empty sweep");
    let wall = |t: usize| {
        rows.iter()
            .find(|r| r.shards == k_max && r.threads == t)
            .map(|r| r.wall_secs)
    };
    let speedup_4t = match (wall(1), wall(4)) {
        (Some(one), Some(four)) if four > 0.0 => one / four,
        _ => 1.0,
    };
    E13Report {
        cameras: E13_CAMERAS,
        motes: E13_MOTES,
        queries: E13_QUERIES,
        virtual_secs,
        host_cores,
        rows,
        all_match,
        speedup_4t,
    }
}

/// One arm of the **E14** in-network pushdown experiment: one workload,
/// run with pushdown accounting on, byte-checked against the same seed
/// with pushdown off.
#[derive(Debug, Clone, PartialEq)]
pub struct E14Row {
    /// Workload label.
    pub workload: &'static str,
    /// Simulated minutes.
    pub minutes: u64,
    /// Registered AQ count.
    pub queries: usize,
    /// Tuples that shipped their full payload (hop-weighted units are
    /// bytes; tuple counts are raw).
    pub shipped: u64,
    /// Tuples suppressed at the device (a 1-byte marker shipped instead).
    pub suppressed: u64,
    /// Share of scanned tuples suppressed, percent.
    pub suppression_pct: f64,
    /// Hop-weighted bytes the same run would ship with pushdown off.
    pub baseline_bytes: u64,
    /// Hop-weighted bytes actually on the wire (replies + markers).
    pub wire_bytes: u64,
    /// `baseline - wire`.
    pub saved_bytes: u64,
    /// Savings as a share of the baseline, percent.
    pub saved_pct: f64,
    /// FNV-1a digest of the pushdown run's trace + stats.
    pub trace_fnv: u64,
    /// Whether the pushdown-off oracle produced the identical digest —
    /// detections must be byte-for-byte unaffected by suppression.
    pub identical_to_oracle: bool,
}

/// The full **E14** report.
#[derive(Debug, Clone, PartialEq)]
pub struct E14Report {
    /// One row per workload arm.
    pub rows: Vec<E14Row>,
    /// Every arm's pushdown run matched its pushdown-off oracle exactly.
    pub all_identical: bool,
    /// Two repetitions of the first arm rendered identical digests.
    pub deterministic: bool,
    /// The best savings across arms, percent of baseline bytes.
    pub best_saved_pct: f64,
}

/// Parses and plans one photo-on-camera AQ per predicate: the event part
/// is the sensor fleet (suppressible — no query targets sensors as
/// devices), the device part the camera fleet (never suppressed: camera
/// tuples feed the candidate join).
fn e14_templates(preds: &[&str]) -> Vec<aorta_core::AqPlan> {
    preds
        .iter()
        .map(|pred| {
            plan_template(&format!(
                r#"SELECT photo(c.ip, s.loc, "p")
                   FROM sensor s, camera c
                   WHERE {pred} AND coverage(c.id, s.loc)"#
            ))
        })
        .collect()
}

/// Runs one E14 arm and returns the pushdown ledger plus the trace + stats
/// digest. The digest covers every observable of the run, so a single
/// detection or counter perturbed by suppression would flip it.
fn e14_arm(
    seed: u64,
    preds: &[&str],
    minutes: u64,
    pushdown: bool,
) -> (aorta_core::PushdownStats, u64) {
    use aorta_core::{Aorta, EngineConfig};
    use aorta_device::PervasiveLab;
    use aorta_sim::SimDuration;

    let lab = PervasiveLab::standard()
        .with_periodic_events(SimDuration::from_secs(30), SimDuration::from_secs(3));
    let mut config = EngineConfig::seeded(seed);
    if pushdown {
        config = config.with_pushdown();
    }
    let mut aorta = Aorta::with_lab(config, lab);
    for (i, plan) in e14_templates(preds).into_iter().enumerate() {
        let mut plan = plan;
        plan.name = format!("pq{i:02}");
        aorta.register_query_plan(plan).expect("e14 plans register");
    }
    aorta.run_for(SimDuration::from_mins(minutes));
    let digest = fnv1a64(&format!("{}\n{:?}", aorta.trace().render(), aorta.stats()));
    (aorta.pushdown_stats(), digest)
}

/// **E14 (extension)** — in-network operator pushdown: sliding-window
/// aggregates and indexable filters are pushed onto the sensor side, and
/// samples that no watching query can use ship a 1-byte marker instead of
/// a full reply. Three workloads bound the savings: sparse thresholds
/// (most samples suppressed), windowed aggregates (device-resident
/// windows keep smoothing exact), and a mixed set whose erroring and
/// non-pushable predicates force conservative shipping. Every arm's
/// pushdown run is byte-checked against the same seed with pushdown off
/// — suppression is accounting, never behaviour. See `DESIGN.md` §14.
pub fn e14_pushdown(seed: u64, full: bool) -> E14Report {
    // Sparse alerts: spikes are ~1 scan in 30 per mote, so almost every
    // sample fails every prefix and ships a marker.
    let threshold: &[&str] = &["s.accel_x > 500", "s.accel_x >= 520", "s.light > 100000"];
    // Windowed smoothing: suppression must consult the device-resident
    // window, not just the current sample.
    let windowed: &[&str] = &[
        "AVG(s.accel_x) OVER LAST 4 > 450",
        "MAX(s.accel_x) OVER LAST 3 >= 500",
        "COUNT(s.temp) OVER LAST 8 < 1",
    ];
    // Adversarial mix: an erroring comparison (`s.loc > 500`) must ship
    // every tuple it cannot decide, and a leading call conjunct is not
    // pushable at all — savings should collapse, correctness must not.
    let mixed: &[&str] = &[
        "s.accel_x > 500",
        "AVG(s.accel_x) OVER LAST 4 > 450",
        "s.loc > 500",
        "distance(s.loc, s.loc) < 1.0 AND s.accel_x > 480",
    ];
    let arms: Vec<(&'static str, &[&str])> = if full {
        vec![
            ("threshold", threshold),
            ("windowed", windowed),
            ("mixed", mixed),
        ]
    } else {
        vec![("threshold", threshold)]
    };
    let minutes: u64 = if full { 10 } else { 3 };

    let mut rows = Vec::new();
    for (i, (workload, preds)) in arms.iter().enumerate() {
        let arm_seed = seed ^ (i as u64) << 8;
        let (push, on_fnv) = e14_arm(arm_seed, preds, minutes, true);
        let (off_push, off_fnv) = e14_arm(arm_seed, preds, minutes, false);
        assert_eq!(
            off_push,
            aorta_core::PushdownStats::default(),
            "oracle arm must not account"
        );
        let total = push.shipped_tuples + push.suppressed_tuples;
        let pct = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                100.0 * part as f64 / whole as f64
            }
        };
        rows.push(E14Row {
            workload,
            minutes,
            queries: preds.len(),
            shipped: push.shipped_tuples,
            suppressed: push.suppressed_tuples,
            suppression_pct: pct(push.suppressed_tuples, total),
            baseline_bytes: push.baseline_bytes,
            wire_bytes: push.wire_bytes(),
            saved_bytes: push.saved_bytes(),
            saved_pct: pct(push.saved_bytes(), push.baseline_bytes),
            trace_fnv: on_fnv,
            identical_to_oracle: on_fnv == off_fnv,
        });
    }
    let (_, first_preds) = arms[0];
    let (_, repeat_fnv) = e14_arm(seed, first_preds, minutes, true);
    E14Report {
        all_identical: rows.iter().all(|r| r.identical_to_oracle),
        deterministic: repeat_fnv == rows[0].trace_fnv,
        best_saved_pct: rows.iter().map(|r| r.saved_pct).fold(0.0, f64::max),
        rows,
    }
}

#[cfg(test)]
mod pushdown_experiment_tests {
    use super::*;

    #[test]
    fn e14_smoke_saves_bytes_without_changing_a_byte() {
        let report = e14_pushdown(0xE14, false);
        assert!(report.all_identical, "{report:?}");
        assert!(report.deterministic, "{report:?}");
        let row = &report.rows[0];
        assert!(row.suppressed > 0, "nothing suppressed: {row:?}");
        assert!(row.shipped > 0, "nothing shipped: {row:?}");
        assert!(row.saved_bytes > 0, "no wire savings: {row:?}");
        assert!(row.wire_bytes <= row.baseline_bytes, "{row:?}");
    }
}

#[cfg(test)]
mod parallel_experiment_tests {
    use super::*;

    #[test]
    fn e13_smoke_threaded_arm_matches_oracle() {
        let report = e13_parallel(0xE13, false);
        assert!(report.all_match, "{report:?}");
        assert!(
            report.rows.iter().all(|r| r.requests > 0),
            "wave starved: {report:?}"
        );
        assert!(
            report.rows.iter().all(|r| r.executed > 0),
            "nothing executed: {report:?}"
        );
    }
}

#[cfg(test)]
mod failover_experiment_tests {
    use super::*;

    #[test]
    fn e12_smoke_fails_over_without_losing_work() {
        let report = e12_failover(0xE12, false);
        assert!(report.all_conserved, "{report:?}");
        assert!(report.all_fenced, "{report:?}");
        assert!(report.no_late_successes, "{report:?}");
        assert!(report.corruption_detected, "{report:?}");
        assert!(report.deterministic, "{report:?}");
        let row = &report.rows[0];
        assert_eq!(row.failovers, row.crashes as u64, "{row:?}");
        assert!(row.bytes_shipped > 0 && row.records_replayed > 0, "{row:?}");
        assert!(
            row.degraded_window_us.iter().all(|&w| w >= 100_000),
            "window shorter than the rebuild delay: {row:?}"
        );
        assert!(
            row.new_hosts.iter().all(|&h| h >= row.shards as u32),
            "adoption must land on a fresh host: {row:?}"
        );
    }
}

#[cfg(test)]
mod wal_experiment_tests {
    use super::*;

    #[test]
    fn e11_smoke_recovers_invisibly() {
        let report = e11_wal(0xE11, false);
        assert!(report.all_conserved, "{report:?}");
        assert!(report.all_identical, "{report:?}");
        assert!(report.deterministic, "{report:?}");
        let row = &report.rows[0];
        assert_eq!(row.recoveries, row.crashes as u64, "{row:?}");
        assert!(row.records_replayed > 0, "{row:?}");
        assert!(row.wal_appends > 0 && row.wal_bytes > 0, "{row:?}");
    }
}

#[cfg(test)]
mod detect_experiment_tests {
    use super::*;

    #[test]
    fn e10_smoke_index_shares_and_scales_sublinearly() {
        let report = e10_detect(0xE10, false);
        assert!(report.shares(), "{report:?}");
        assert!(
            !report.sublinear_ratios.is_empty() && report.sublinear_ok,
            "{report:?}"
        );
    }
}

#[cfg(test)]
mod overload_experiment_tests {
    use super::*;

    #[test]
    fn e9_p99_is_bounded_and_nothing_succeeds_late() {
        let report = e9_overload(0x0E9);
        assert!(report.rows.iter().all(|r| r.conservation_ok), "{report:?}");
        assert!(report.zero_late_successes, "{report:?}");
        assert!(
            report.max_p99_secs <= report.deadline_secs,
            "p99 {:.3}s exceeds the {:.0}s deadline bound",
            report.max_p99_secs,
            report.deadline_secs
        );
        // The saturated cells really shed/degrade rather than queueing.
        let saturated = report
            .rows
            .iter()
            .find(|r| r.period_secs == 5 && r.crash_rate > 0.0)
            .expect("sweep covers the saturated cell");
        assert!(
            saturated.shed + saturated.expired + saturated.degraded > 0,
            "{saturated:?}"
        );
        assert!(report.deterministic, "{report:?}");
    }
}

#[cfg(test)]
mod cluster_experiment_tests {
    use super::*;

    #[test]
    fn e8_uniform_speedup_meets_the_cluster_claim() {
        // The headline cluster claim: the uniform arm's makespan on 1 shard
        // over 8 shards is at least 1.5.
        let makespan = |shards| e8_batch(0xE8, shards, 0).makespan.as_secs_f64();
        let speedup = makespan(1) / makespan(8);
        assert!(
            speedup >= 1.5,
            "1→8 shard speedup {speedup:.3}x fell below the 1.5x claim"
        );
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;

    #[test]
    fn sequence_dependence_is_what_srfe_exploits() {
        let rows = ablation_sequence_dependence(8, 7000);
        let get = |label_prefix: &str, alg: &str| {
            rows.iter()
                .find(|r| r.label.starts_with(label_prefix) && r.label.ends_with(alg))
                .unwrap_or_else(|| panic!("missing {label_prefix}/{alg}"))
                .service_secs
        };
        let kin_gap = get("kinematic", "LERFA + SRFE") / get("kinematic", "LS");
        let tab_gap = get("table", "LERFA + SRFE") / get("table", "LS");
        // Under the kinematic model the proposed algorithm wins big; with
        // sequence-independent costs the reordering advantage shrinks.
        assert!(kin_gap < 0.75, "kinematic gap {kin_gap:.2}");
        assert!(
            tab_gap > kin_gap,
            "table gap {tab_gap:.2} should be closer to 1 than kinematic {kin_gap:.2}"
        );
    }

    #[test]
    fn batch_dispatch_beats_independent_min_cost() {
        let rows = ablation_dispatch_policy(10, 7100);
        assert_eq!(rows.len(), 2);
        // service_secs holds the mean event-to-completion latency here:
        // SRFE's nearest-target sequencing should shave it versus FIFO.
        assert!(
            rows[0].service_secs < rows[1].service_secs,
            "scheduled dispatch should reduce latency: {rows:?}"
        );
    }

    #[test]
    fn scale_sweep_stays_ratio_stable() {
        let rows = e7_scale(2, 7200);
        // Ratio n/m = 4 everywhere: LERFA+SRFE makespans stay in a band
        // across a 4x fleet-size range.
        let vals: Vec<f64> = rows
            .iter()
            .filter(|r| r.algorithm == "LERFA + SRFE")
            .map(|r| r.service_secs)
            .collect();
        assert_eq!(vals.len(), 3);
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        let max = vals.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 1.5, "{vals:?}");
    }
}
