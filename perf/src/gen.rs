//! Seeded input generators: everything the program under test receives
//! is derived from `--seed` here (or by the seeded generators of
//! `co-workloads`), so one seed always gives one set of inputs.

use co_core::Script;
use co_dataframe::ops::MapFn;
use co_dataframe::ColumnData;
use co_graph::WorkloadDag;
use co_ml::linear::LogisticParams;
use co_serve::{AggSpec, MapFnSpec, SpecStep, WorkloadSpec};
use co_workloads::data::CreditG;
use std::time::Duration;

/// SplitMix64: a tiny, well-mixed generator for stream choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed. Seed and stream are
    /// mixed separately first: SplitMix64 states a few steps apart give
    /// the same sequence shifted, so `seed ^ stream` would not do.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let seed = Rng(seed).next_u64();
        let stream = Rng(!stream).next_u64();
        Rng(seed ^ stream.rotate_left(32))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)] // 53 random bits fit the mantissa
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

// ---------------------------------------------------------------------
// durable_publish
// ---------------------------------------------------------------------

/// Base learning rate of a seed's `durable_publish` workloads; each
/// serial adds its own offset, so every training op is unique.
#[must_use]
pub fn publish_lr_base(seed: u64) -> f64 {
    0.05 + 0.01 * Rng::new(seed, 0xd0_7ab1e).next_f64()
}

/// A cheap workload over credit-g: the `abs(a0)` prefix is shared by
/// every serial (warm after the first), the logistic regression's
/// learning rate is unique to `serial`, so each publish adds one new
/// model vertex.
///
/// # Errors
///
/// A DSL error (missing column), which generated credit-g never causes.
pub fn publish_workload(
    data: &CreditG,
    lr_base: f64,
    serial: usize,
) -> co_graph::Result<WorkloadDag> {
    #[allow(clippy::cast_precision_loss)] // serials stay far below 2^52
    let lr = lr_base + 1e-7 * serial as f64;
    let mut s = Script::new();
    let train = s.load("creditg_train", data.train.clone());
    let mapped = s.map(train, "a0", MapFn::Abs, "a0_abs")?;
    let model = s.train_logistic(
        mapped,
        "class",
        LogisticParams {
            lr,
            tol: 0.0,
            max_iter: 3,
            ..LogisticParams::default()
        },
    )?;
    s.output(model)?;
    Ok(s.into_dag())
}

// ---------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------

/// Recurring specs both connections draw from.
pub const SPEC_POOL: u64 = 32;

/// Session-local name the serve workload registers its dataset under.
pub const SERVE_DATASET: &str = "credit";

/// The numeric, gap-free credit-g columns plus the label, in wire form.
#[must_use]
pub fn serve_columns(data: &CreditG) -> Vec<(String, ColumnData)> {
    data.train
        .columns()
        .iter()
        .filter(|c| {
            matches!(
                c.name(),
                "a0" | "a1" | "a2" | "a3" | "a4" | "a5" | "a6" | "a7" | "class"
            )
        })
        .map(|c| (c.name().to_owned(), c.to_data()))
        .collect()
}

/// filter → map → (train, aggregate) over the registered dataset.
#[must_use]
pub fn serve_spec(threshold: f64, lr: f64) -> WorkloadSpec {
    WorkloadSpec {
        steps: vec![
            SpecStep::Load {
                dataset: SERVE_DATASET.to_owned(),
            },
            SpecStep::FilterGt {
                input: 0,
                column: "a0".to_owned(),
                value: threshold,
            },
            SpecStep::Map {
                input: 1,
                column: "a1".to_owned(),
                f: MapFnSpec::Abs,
                out: "a1_abs".to_owned(),
            },
            SpecStep::TrainLogistic {
                input: 2,
                label: "class".to_owned(),
                lr,
                max_iter: 10,
            },
            SpecStep::Agg {
                input: 2,
                column: "a2".to_owned(),
                f: AggSpec::Mean,
            },
        ],
        outputs: vec![3, 4],
    }
}

/// Filter threshold of pool member `k` (`a0` is uniform in `(-1, 1)`, so
/// every member keeps more than half the rows).
fn pool_threshold(k: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)] // k < SPEC_POOL
    let step = k as f64;
    -0.8 + 0.02 * step
}

/// Learning rate of every pool member (novel ones stay below it).
const POOL_LR: f64 = 0.1;

/// Pool member `k`.
#[must_use]
pub fn pool_spec(k: u64) -> WorkloadSpec {
    serve_spec(pool_threshold(k % SPEC_POOL), POOL_LR)
}

/// `n` specs for one connection: four recurring pool members, then one
/// novel spec, and so on — 80 % / 20 %. Nine of ten novel specs train
/// with a fresh learning rate on a pool member's (warm) features — one
/// new vertex; the tenth also filters at a fresh threshold, so all four
/// of its artifacts are new. The pattern is fixed so that every seed
/// grows the graph by the same number of vertices; the seed picks the
/// pool members, thresholds and learning rates.
#[must_use]
pub fn spec_stream(seed: u64, stream: u64, n: usize) -> Vec<WorkloadSpec> {
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|i| {
            let member = pool_threshold(rng.below(SPEC_POOL));
            if i % 5 != 4 {
                serve_spec(member, POOL_LR)
            } else if i % 50 == 49 {
                serve_spec(-0.9 + 0.8 * rng.next_f64(), POOL_LR)
            } else {
                serve_spec(member, 0.05 + 0.04 * rng.next_f64())
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// open loop
// ---------------------------------------------------------------------

/// When each of `n` requests of an open loop at `rate` per second is due,
/// as an offset from the loop's start. The schedule never looks at
/// completions: a stalled server does not slow the arrivals down.
#[must_use]
pub fn due_offsets(rate: f64, n: usize) -> Vec<Duration> {
    #[allow(clippy::cast_precision_loss)] // request counts are small
    (0..n)
        .map(|k| Duration::from_secs_f64(k as f64 / rate))
        .collect()
}

/// One open-loop request, as offsets from the loop's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopSample {
    /// When the schedule said to send.
    pub due: Duration,
    /// When the generator actually sent.
    pub sent: Duration,
    /// When the reply arrived.
    pub done: Duration,
}

impl OpenLoopSample {
    /// Latency from the *due* time, in milliseconds: a request that had
    /// to wait for its connection because an earlier reply was slow is
    /// charged that wait.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent, in milliseconds.
    #[must_use]
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_workloads::data::creditg;

    #[test]
    fn rng_is_a_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 2), draw(1, 2));
        assert_ne!(draw(1, 2), draw(1, 3));
        assert_ne!(draw(1, 2), draw(2, 2));
        // Neighbouring streams are not one sequence at two offsets.
        let (a, b) = (draw(1, 0), draw(1, 1));
        assert!(a.iter().all(|x| !b.contains(x)));
        let mut r = Rng::new(9, 9);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.next_f64())));
        assert!((0..1000).all(|_| r.below(7) < 7));
    }

    #[test]
    fn spec_streams_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(spec_stream(5, 0, 200), spec_stream(5, 0, 200));
        assert_ne!(spec_stream(5, 0, 200), spec_stream(6, 0, 200));
        assert_ne!(spec_stream(5, 0, 200), spec_stream(5, 1, 200));
        // Exactly four in five specs come from the pool, whatever the seed.
        let pool: Vec<WorkloadSpec> = (0..SPEC_POOL).map(pool_spec).collect();
        for seed in [5, 6] {
            let stream = spec_stream(seed, 0, 2000);
            assert_eq!(stream.iter().filter(|s| pool.contains(s)).count(), 1600);
        }
    }

    fn op_hashes(seed: u64, n: usize) -> Vec<u64> {
        let data = creditg(200, seed);
        let base = publish_lr_base(seed);
        let mut hashes: Vec<u64> = (0..n)
            .flat_map(|serial| {
                let dag = publish_workload(&data, base, serial).unwrap();
                dag.edges()
                    .iter()
                    .map(|e| e.op.op_hash())
                    .collect::<Vec<_>>()
            })
            .collect();
        hashes.sort_unstable();
        hashes
    }

    #[test]
    fn publish_workloads_repeat_per_seed_and_are_unique_per_serial() {
        assert_eq!(op_hashes(3, 50), op_hashes(3, 50));
        assert_ne!(op_hashes(3, 50), op_hashes(4, 50));
        // One shared map op plus one distinct training op per serial.
        let mut distinct = op_hashes(3, 50);
        distinct.dedup();
        assert_eq!(distinct.len(), 51);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let due = due_offsets(100.0, 4);
        assert_eq!(due[0], Duration::ZERO);
        assert_eq!(due[3], Duration::from_millis(30));
        // The connection was busy until 25 ms, so the request due at
        // 10 ms went out 15 ms late and its 5 ms of service cost 20 ms.
        let sample = OpenLoopSample {
            due: Duration::from_millis(10),
            sent: Duration::from_millis(25),
            done: Duration::from_millis(30),
        };
        assert!((sample.latency_ms() - 20.0).abs() < 1e-9);
        assert!((sample.late_ms() - 15.0).abs() < 1e-9);
        // A generator that is early (clock skew) is never negative.
        let early = OpenLoopSample {
            due: Duration::from_millis(10),
            sent: Duration::from_millis(9),
            done: Duration::from_millis(12),
        };
        assert!(early.late_ms().abs() < 1e-12);
    }
}
