//! The seeded input generator.
//!
//! The generator owns all randomness: the engine/cluster seed, the palette
//! order and threshold offsets, the fault plan, and which predicates churn.
//! The engine receives only generated inputs. Sizes are constants, never
//! calibrated at run time, so a number means the same thing on every host.

use aorta_device::DeviceId;
use aorta_sim::{FaultConfig, FaultEvent, FaultPlan, SimDuration, SimTime};

/// The four workloads. Names are final; later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DetectFleet,
    ClusterWave,
    DurableStorm,
    AqChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DetectFleet,
        Workload::ClusterWave,
        Workload::DurableStorm,
        Workload::AqChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DetectFleet => "detect_fleet",
            Workload::ClusterWave => "cluster_wave",
            Workload::DurableStorm => "durable_storm",
            Workload::AqChurn => "aq_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fixed sizes of the workload.
    pub fn shape(self) -> Shape {
        match self {
            Workload::DetectFleet => Shape {
                cameras: 2,
                motes: 2000,
                phones: 1,
                shards: 0,
                spike_period_s: 10,
                stagger_ms: 0,
                base_aqs: 100_000,
                run_s: 15,
                drain_s: 0,
            },
            Workload::ClusterWave => Shape {
                cameras: 2000,
                motes: 240,
                phones: 0,
                shards: 4,
                spike_period_s: 30,
                stagger_ms: 0,
                base_aqs: 8,
                run_s: 30,
                drain_s: 30,
            },
            Workload::DurableStorm => Shape {
                cameras: 48,
                motes: 64,
                phones: 0,
                shards: 4,
                spike_period_s: 30,
                stagger_ms: 100,
                base_aqs: 8,
                run_s: 2400,
                drain_s: 30,
            },
            Workload::AqChurn => Shape {
                cameras: 2,
                motes: 200,
                phones: 1,
                shards: 0,
                spike_period_s: 3,
                stagger_ms: 0,
                base_aqs: 3000,
                run_s: CHURN_ROUNDS as u64 * CHURN_EPOCHS_PER_ROUND,
                drain_s: 0,
            },
        }
    }
}

/// Fixed sizes of one workload. `shards == 0` means a single engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub cameras: usize,
    pub motes: usize,
    pub phones: usize,
    pub shards: usize,
    pub spike_period_s: u64,
    pub stagger_ms: u64,
    /// AQs registered during set-up (the canary not included).
    pub base_aqs: usize,
    /// Virtual seconds advanced by the timed section, then drained.
    pub run_s: u64,
    pub drain_s: u64,
}

/// Distinct predicate templates (E10's palette size).
pub const PALETTE: usize = 256;
/// Motes `0..CANARY_SOURCES` fire the one canary AQ of a single-engine
/// workload at every spike. Four photos per spike are what the lab's two
/// cameras serve before the next one.
pub const CANARY_SOURCES: usize = 4;
pub const CHURN_ROUNDS: usize = 3;
pub const CHURN_STATEMENTS_PER_ROUND: usize = 100;
pub const CHURN_EPOCHS_PER_ROUND: u64 = 4;
/// Every this-many-th `aq_churn` AQ is a windowed aggregate.
const WINDOWED_EVERY: usize = 7;
/// Virtual seconds the sensors run before the timed section (one warm-up
/// epoch on the single-engine workloads fills the lazy scan-kind caches).
pub const WARMUP_S: u64 = 1;

/// splitmix64: the generator's own stream, independent of `aorta-sim`'s RNG
/// so an engine change can never alter the inputs it is measured on.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One `aq_churn` round: statements executed before its epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    pub creates: Vec<String>,
    pub drops: Vec<String>,
}

/// Everything a workload run consumes, derived from the seed alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Seed handed to `EngineConfig::seeded` / `ClusterConfig::seeded`.
    pub engine_seed: u64,
    /// Never-matching predicates, in seeded order (E10's template mix).
    pub palette: Vec<String>,
    /// `CREATE AQ` statements executed during set-up, in order.
    pub setup_sql: Vec<String>,
    /// `aq_churn` only.
    pub rounds: Vec<Round>,
    /// `durable_storm` only.
    pub faults: Option<FaultPlan<DeviceId>>,
}

/// E10's 256-template never-matching palette — thresholds, equality,
/// 2-conjunct chains, shared duplicates, a non-indexable `distance()`
/// fallback — with the order and the threshold offset drawn from `rng`.
///
/// `fallback_first` puts the `distance()` call ahead of its indexable
/// partner, as E10 does, so the short-circuit AND cannot skip it. With the
/// call second the indexable conjunct is a pushable prefix, which is what
/// lets `aq_churn`'s device-side filter suppress anything at all: one
/// watching query with an empty prefix ships every sample.
fn palette(rng: &mut Rng, fallback_first: bool) -> Vec<String> {
    let attrs = ["accel_x", "accel_y", "light", "battery", "temp"];
    let offset = rng.below(100_000);
    let mut preds: Vec<String> = (0..PALETTE)
        .map(|k| {
            let attr = attrs[k % attrs.len()];
            let attr2 = attrs[(k + 2) % attrs.len()];
            let hi = 1_000_000 + offset + k;
            match k % 8 {
                0 | 1 => format!("s.{attr} > {hi}"),
                2 | 3 => format!("s.{attr} >= {hi}"),
                4 => format!("s.{attr} = {}", hi + 1_000_000),
                5 => format!("s.{attr} > {hi} AND s.{attr2} >= {}", hi + 2_000_000),
                // Motes report depth >= 1 and temp ~22 °C: indexable `<`
                // comparisons that never match, shared by many queries.
                6 if k % 16 == 6 => "s.depth < 1".to_string(),
                6 => "s.temp <= 0".to_string(),
                // distance(x, x) = 0: a guaranteed-false call conjunct that
                // cannot be indexed — the per-group fallback path.
                _ if fallback_first => {
                    format!("distance(s.loc, s.loc) >= 1.5 AND s.{attr} > {hi}")
                }
                _ => format!("s.{attr} > {hi} AND distance(s.loc, s.loc) >= 1.5"),
            }
        })
        .collect();
    rng.shuffle(&mut preds);
    preds
}

/// A photo of the event's location by a covering camera (E13's and E14's
/// form). Sensors are the event table only, which is what makes their
/// samples suppressible by the device-side filter.
fn photo_select(pred: &str) -> String {
    format!(
        "SELECT photo(c.ip, s.loc, \"p\") FROM sensor s, camera c \
         WHERE {pred} AND coverage(c.id, s.loc)"
    )
}

/// The `SELECT` a workload wraps a never-matching palette predicate in.
pub fn palette_select(workload: Workload, pred: &str) -> String {
    match workload {
        Workload::AqChurn => photo_select(pred),
        // E10's form: sensors are both the event table and the device table.
        _ => format!("SELECT beep(t.id) FROM sensor t, sensor s WHERE {pred}"),
    }
}

fn create_aq(name: &str, select: &str) -> String {
    format!("CREATE AQ {name} AS {select}")
}

/// The firing AQ of a single-engine workload: what proves that detection
/// still runs (a "speed-up" that skips it loses its events). A photo on the
/// lab's reliable cameras, because a `beep` back to the mote crosses the
/// lossy sensor link and fails a few percent of the time — too few samples
/// here for that share to be steady across seeds.
fn canary() -> String {
    let pred = format!("s.accel_x > 500 AND s.id < {CANARY_SOURCES}");
    create_aq("canary", &photo_select(&pred))
}

/// Name of the `i`-th base AQ of `aq_churn`.
fn base_name(i: usize) -> String {
    format!("a{i:06}")
}

/// The `i`-th `aq_churn` predicate: every seventh a windowed aggregate
/// (never true: motes report ~22 °C), the rest the palette in its seeded
/// order, round robin. The seed decides *which* predicates are registered,
/// dropped and created when; the mix of predicate shapes — and with it the
/// work an epoch does — is the same on every seed.
fn churn_select(i: usize, palette: &[String], rng: &mut Rng) -> String {
    if i % WINDOWED_EVERY == WINDOWED_EVERY - 1 {
        photo_select(&format!(
            "AVG(s.temp) OVER LAST 8 > {}",
            1_000 + rng.below(64)
        ))
    } else {
        photo_select(&palette[i % palette.len()])
    }
}

/// True when the statement registers a windowed aggregate.
pub fn is_windowed(sql: &str) -> bool {
    sql.contains(" OVER LAST ")
}

/// `durable_storm`'s fault plan: device crashes at 30 % per 10 s period
/// over the run, plus two process crashes on distinct shards. Region
/// stripes put camera `i` of 48 on shard `i / 12`, so cameras 0 and 12
/// address shards 0 and 1. The victims are fixed, not drawn: which shard
/// dies decides how long a log the failover replays, and that would make
/// one seed a different amount of work from the next.
fn storm_faults(shape: Shape, seed: u64) -> FaultPlan<DeviceId> {
    let devices: Vec<DeviceId> = (0..shape.cameras as u32)
        .map(DeviceId::camera)
        .chain((0..shape.motes as u32).map(DeviceId::sensor))
        .collect();
    let config = FaultConfig {
        crash_rate: 0.3,
        ..FaultConfig::default()
    };
    let horizon = SimDuration::from_secs(shape.run_s);
    let mut plan = FaultPlan::generate(seed ^ 0x57, horizon, &devices, &config);
    let per_shard = (shape.cameras / shape.shards) as u32;
    for (victim_shard, at_s) in [(0, shape.run_s / 3), (1, shape.run_s / 3 + 37)] {
        plan.schedule(
            SimTime::ZERO + SimDuration::from_secs(at_s),
            FaultEvent::ProcessCrash(DeviceId::camera(victim_shard * per_shard)),
        );
    }
    plan
}

/// Builds a workload's inputs. The same seed gives the same inputs.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let shape = workload.shape();
    // Decorrelate the workloads' streams: the same seed must not hand two
    // workloads the same palette order.
    let mut rng = Rng::new(seed ^ (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let engine_seed = rng.next_u64();
    let palette = palette(&mut rng, workload != Workload::AqChurn);
    let mut rounds = Vec::new();
    let mut faults = None;
    let setup_sql = match workload {
        // The 100 000 palette clones go through `register_query_plan`, not
        // SQL; only the canary is a statement.
        Workload::DetectFleet => vec![canary()],
        Workload::ClusterWave => (0..shape.base_aqs)
            .map(|i| create_aq(&format!("q{i}"), &photo_select("s.accel_x > 500")))
            .collect(),
        Workload::DurableStorm => {
            faults = Some(storm_faults(shape, seed));
            let share = shape.motes / shape.base_aqs;
            (0..shape.base_aqs)
                .map(|i| {
                    let (lo, hi) = (i * share, (i + 1) * share);
                    let pred = format!("s.accel_x > 500 AND s.id >= {lo} AND s.id < {hi}");
                    create_aq(&format!("q{i}"), &photo_select(&pred))
                })
                .collect()
        }
        Workload::AqChurn => {
            let mut setup_sql = vec![canary()];
            for i in 0..shape.base_aqs {
                let select = churn_select(i, &palette, &mut rng);
                setup_sql.push(create_aq(&base_name(i), &select));
            }
            for round in 0..CHURN_ROUNDS {
                let first = round * CHURN_STATEMENTS_PER_ROUND;
                let slots = first..first + CHURN_STATEMENTS_PER_ROUND;
                rounds.push(Round {
                    creates: slots
                        .clone()
                        .map(|i| {
                            // Carry on where the base AQs stopped.
                            let select = churn_select(shape.base_aqs + i, &palette, &mut rng);
                            create_aq(&format!("c{i:06}"), &select)
                        })
                        .collect(),
                    // Oldest first: the base AQs, in registration order.
                    drops: slots.map(|i| format!("DROP AQ {}", base_name(i))).collect(),
                });
            }
            setup_sql
        }
    };
    Inputs {
        workload,
        seed,
        engine_seed,
        palette,
        setup_sql,
        rounds,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every byte of generated text, for equality checks.
    fn text(inputs: &Inputs) -> String {
        format!("{inputs:?}")
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for workload in Workload::ALL {
            assert_eq!(
                text(&generate(workload, 1)),
                text(&generate(workload, 1)),
                "{workload:?}"
            );
        }
    }

    #[test]
    fn different_seeds_give_different_sql_and_fault_plans() {
        for workload in Workload::ALL {
            let (a, b) = (generate(workload, 1), generate(workload, 2));
            assert_ne!(a.engine_seed, b.engine_seed, "{workload:?}");
            assert_ne!(a.palette, b.palette, "{workload:?}");
        }
        let (a, b) = (
            generate(Workload::AqChurn, 1),
            generate(Workload::AqChurn, 2),
        );
        assert_ne!(a.setup_sql, b.setup_sql);
        assert_ne!(a.rounds, b.rounds);
        let (a, b) = (
            generate(Workload::DurableStorm, 1),
            generate(Workload::DurableStorm, 2),
        );
        assert!(a.faults.is_some());
        assert_ne!(a.faults, b.faults);
    }

    #[test]
    fn workloads_draw_from_separate_streams() {
        let a = generate(Workload::DetectFleet, 1);
        let b = generate(Workload::AqChurn, 1);
        assert_ne!(a.palette, b.palette);
    }

    #[test]
    fn churn_has_the_declared_shape() {
        let inputs = generate(Workload::AqChurn, 1);
        let shape = Workload::AqChurn.shape();
        assert_eq!(inputs.setup_sql.len(), shape.base_aqs + 1);
        assert_eq!(inputs.rounds.len(), CHURN_ROUNDS);
        let windowed = inputs.setup_sql.iter().filter(|s| is_windowed(s)).count();
        assert_eq!(windowed, shape.base_aqs / WINDOWED_EVERY);
        for round in &inputs.rounds {
            assert_eq!(round.creates.len(), CHURN_STATEMENTS_PER_ROUND);
            assert_eq!(round.drops.len(), CHURN_STATEMENTS_PER_ROUND);
        }
        assert_eq!(inputs.rounds[0].drops[0], "DROP AQ a000000");
        assert_eq!(inputs.rounds[2].drops[99], "DROP AQ a000299");
    }

    #[test]
    fn storm_crashes_two_distinct_shards() {
        for seed in 0..20 {
            let inputs = generate(Workload::DurableStorm, seed);
            let shards: Vec<u32> = inputs
                .faults
                .as_ref()
                .unwrap()
                .iter()
                .filter_map(|(_, e)| match e {
                    FaultEvent::ProcessCrash(id) => Some(id.index() / 12),
                    _ => None,
                })
                .collect();
            assert_eq!(shards.len(), 2, "seed {seed}");
            assert_ne!(shards[0], shards[1], "seed {seed}");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
