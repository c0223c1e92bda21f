//! CPU-speed reference. The boxes this benchmark runs on change their
//! core speed by a quarter for seconds at a time (shared hosts, turbo),
//! which moves every wall-clock number by as much and would drown any
//! regression bound. So each client thread interleaves short, fixed spin
//! slices with its timed work, outside every request timer, and the
//! end-to-end timings are reported as *reference seconds*: wall seconds
//! multiplied by the speed measured around the same moment over
//! [`REFERENCE_STEPS_PER_S`]. On a steady machine that is a constant
//! factor close to 1. Per-layer timings stay raw wall clock, and the
//! factor itself is printed as `perf.cpu_speed_ratio`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Steps per second of a slice in the usual (slower) speed regime of the
/// box the sizes were frozen on; reference seconds equal wall seconds
/// there.
pub const REFERENCE_STEPS_PER_S: f64 = 1.06e9;

/// Dependent multiply-add steps per slice (about 0.4 ms).
const STEPS: u32 = 400_000;

/// Least time between two slices of one speedometer.
const INTERVAL: Duration = Duration::from_millis(20);

/// Slices on each side of a moment whose median gives the speed there:
/// enough to outvote a slice that was preempted, few enough (0.1 s of
/// closed-loop work) to follow a change of regime.
const NEIGHBOURS: usize = 2;

/// One spin slice: when it started and how long it took (seconds since
/// the speedometer's origin), and the steps per second it reached.
#[derive(Debug, Clone, Copy)]
struct Slice {
    at: f64,
    took: f64,
    speed: f64,
}

/// Collects slice speeds on one thread and turns wall time on that
/// thread into reference seconds.
#[derive(Debug)]
pub struct Speedometer {
    origin: Instant,
    slices: Vec<Slice>,
    last: Instant,
}

impl Speedometer {
    /// Start measuring with one slice.
    #[must_use]
    pub fn start() -> Self {
        let origin = Instant::now();
        let mut meter = Speedometer {
            origin,
            slices: Vec::new(),
            last: origin,
        };
        meter.sample();
        meter
    }

    /// Seconds since the speedometer started: the clock its other methods
    /// take moments in.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run one slice now: a chain of dependent integer operations, so it
    /// times the core's clock and little else.
    pub fn sample(&mut self) {
        let at = self.now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..STEPS {
            x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        black_box(x);
        self.last = Instant::now();
        let took = self.now() - at;
        self.slices.push(Slice {
            at,
            took,
            speed: f64::from(STEPS) / took,
        });
    }

    /// Run one slice if the last one is at least [`INTERVAL`] old. Call
    /// between requests, outside any request timer.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.sample();
        }
    }

    /// Median speed of the slices around index `i`, over the reference.
    fn ratio_near(&self, i: usize) -> f64 {
        let lo = i.saturating_sub(NEIGHBOURS);
        let hi = (i + NEIGHBOURS + 1).min(self.slices.len());
        let speeds: Vec<f64> = self.slices[lo..hi].iter().map(|s| s.speed).collect();
        crate::stats::median(&speeds).map_or(1.0, |s| s / REFERENCE_STEPS_PER_S)
    }

    /// The factor that turns wall time around moment `t` into reference
    /// time.
    #[must_use]
    pub fn ratio_at(&self, t: f64) -> f64 {
        let after = self.slices.partition_point(|s| s.at <= t);
        self.ratio_near(after.saturating_sub(1))
    }

    /// Wall seconds between two moments without the slices taken in
    /// between, and the same stretch in reference seconds: each gap
    /// between two slices counts at the speed measured around it.
    #[must_use]
    pub fn between(&self, from: f64, to: f64) -> (f64, f64) {
        let (mut wall, mut reference) = (0.0, 0.0);
        for (i, slice) in self.slices.iter().enumerate() {
            // The work that followed slice `i`, up to the next slice.
            let start = (slice.at + slice.took).max(from);
            let end = self.slices.get(i + 1).map_or(to, |next| next.at.min(to));
            if end > start {
                wall += end - start;
                reference += (end - start) * self.ratio_near(i);
            }
        }
        (wall, reference)
    }

    /// Cut what this thread did from `starts[0]` to `end` (`starts`: the
    /// moment each request began) into consecutive blocks of `per_block`
    /// requests and return the requests in a block and the reference
    /// seconds of the median block. Fewer requests than two blocks' worth
    /// are one block; requests after the last whole block are left out.
    /// Requests per second are the first over the second; a stall or a
    /// burst of noise that covers less than half the blocks does not move
    /// either.
    #[must_use]
    pub fn median_block(&self, starts: &[f64], end: f64, per_block: usize) -> Option<(usize, f64)> {
        let n = starts.len();
        let size = if n >= 2 * per_block.max(1) {
            per_block
        } else {
            n
        };
        if size == 0 {
            return None;
        }
        let seconds: Vec<f64> = (0..n / size)
            .map(|b| {
                let to = starts.get((b + 1) * size).copied().unwrap_or(end);
                self.between(starts[b * size], to).1
            })
            .collect();
        crate::stats::median(&seconds).map(|s| (size, s))
    }

    /// Median speed of every slice, over the reference.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        let speeds: Vec<f64> = self.slices.iter().map(|s| s.speed).collect();
        crate::stats::median(&speeds).map_or(1.0, |s| s / REFERENCE_STEPS_PER_S)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter(slices: &[(f64, f64, f64)]) -> Speedometer {
        let origin = Instant::now();
        Speedometer {
            origin,
            slices: slices
                .iter()
                .map(|&(at, took, ratio)| Slice {
                    at,
                    took,
                    speed: ratio * REFERENCE_STEPS_PER_S,
                })
                .collect(),
            last: origin,
        }
    }

    #[test]
    fn local_ratio_outvotes_one_preempted_slice() {
        let m = meter(&[
            (0.0, 0.1, 1.0),
            (1.0, 0.1, 1.0),
            (2.0, 0.1, 0.2), // preempted: reads slow
            (3.0, 0.1, 1.0),
            (4.0, 0.1, 1.0),
        ]);
        assert!((m.ratio_at(2.5) - 1.0).abs() < 1e-12);
        assert!((m.ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reference_seconds_follow_a_change_of_speed() {
        // Ten slices a second apart, 0.1 s each; the machine runs 25 %
        // faster from the sixth on.
        let slices: Vec<(f64, f64, f64)> = (0..10)
            .map(|i| (f64::from(i), 0.1, if i < 5 { 1.0 } else { 1.25 }))
            .collect();
        let m = meter(&slices);
        assert!((m.ratio_at(0.5) - 1.0).abs() < 1e-12);
        assert!((m.ratio_at(9.5) - 1.25).abs() < 1e-12);
        let (wall, reference) = m.between(0.0, 10.0);
        assert!((wall - 9.0).abs() < 1e-9, "ten gaps of 0.9 s: {wall}");
        // Work done at 1.25× speed is worth 1.25× as long at reference
        // speed: between 9 × 1.0 and 9 × 1.25.
        assert!(
            reference > 9.0 * 1.1 && reference < 9.0 * 1.15,
            "{reference}"
        );
        // A sub-interval only counts the gaps inside it.
        let (wall, reference) = m.between(7.5, 8.0);
        assert!((wall - 0.5).abs() < 1e-9 && (reference - 0.625).abs() < 1e-9);
    }

    #[test]
    fn median_block_ignores_a_stall() {
        // One slice at the start, reference speed throughout: reference
        // seconds are wall seconds after the slice.
        let m = meter(&[(0.0, 0.0, 1.0)]);
        // Twelve requests a second apart, except that the fifth stalls for
        // ten seconds.
        let mut starts: Vec<f64> = (0..12).map(f64::from).collect();
        for s in &mut starts[5..] {
            *s += 10.0;
        }
        let end = 22.0;
        // Blocks of 3: 3 s, 13 s (the stall), 3 s, 3 s.
        let (size, seconds) = m.median_block(&starts, end, 3).unwrap();
        assert_eq!(size, 3);
        assert!((seconds - 3.0).abs() < 1e-9, "{seconds}");
        // Fewer than two blocks' worth: one block, stall and all.
        let (size, seconds) = m.median_block(&starts, end, 7).unwrap();
        assert_eq!(size, 12);
        assert!((seconds - 22.0).abs() < 1e-9, "{seconds}");
        // Left-over requests are not counted: blocks of 5 are 0..5 and 5..10.
        let (size, seconds) = m.median_block(&starts, end, 5).unwrap();
        assert_eq!(size, 5);
        assert!(
            (seconds - 10.0).abs() < 1e-9,
            "median of 15 and 5: {seconds}"
        );
        assert!(m.median_block(&[], end, 3).is_none());
    }

    #[test]
    fn a_real_speedometer_ticks() {
        let mut m = Speedometer::start();
        m.tick(); // too soon after the first slice
        assert_eq!(m.slices.len(), 1);
        m.sample();
        assert_eq!(m.slices.len(), 2);
        let (wall, reference) = m.between(0.0, m.now());
        assert!(wall >= 0.0 && reference >= 0.0 && m.ratio() > 0.0);
    }
}
