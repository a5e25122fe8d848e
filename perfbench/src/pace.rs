//! Host-speed reference for the end-to-end timings.
//!
//! The benchmark runs on a few virtual CPUs of a shared host, whose speed
//! drifts by up to 2x over seconds to minutes as other tenants load its
//! cores. A fixed reference workload, which is part of the benchmark and
//! never of the program under test, is timed before and after every timed
//! run; the run's host time is then rescaled to the speed at which the
//! reference takes [`NOMINAL_REF_S`], with the simulator's measured
//! [`SENSITIVITY`] to host speed. A change to the program moves the
//! rescaled time as it moves the raw time; a change in host speed moves
//! both the run and the reference and mostly cancels out.
//!
//! The reference is the simulator's kind of work in miniature: a CLOCK
//! page-replacement loop (unpredictable branches and dependent loads) over
//! tables that, like the simulator's at the benchmark's scales, fit in L2.
//! A pointer chase over a few MiB was tried beside it and left out: it
//! tracks contention for the shared last-level cache, which moves the
//! simulator far less.

use std::hint::black_box;
use std::time::Instant;

/// Reference time, in seconds, of a host at the nominal speed: about the
/// median measured on the 2-vCPU Xeon VM the bounds were set on.
pub const NOMINAL_REF_S: f64 = 0.010;

/// How far the simulator's run times move with the reference's, as an
/// exponent: between a fast and a slow host phase on that VM, the times of
/// paper-campaign, timeline-export and fleet-serving changed by the
/// reference's ratio to the power 1.4-1.8, and leakage-observatory's to
/// the power 0.7. Rescaling by the plain ratio left about half the drift
/// in the first three.
pub const SENSITIVITY: f64 = 1.4;

/// Pages of the CLOCK loop's page table.
const CLOCK_PAGES: usize = 65_536;
/// Frames of the CLOCK loop's memory.
const CLOCK_FRAMES: usize = 4_096;
/// Accesses the CLOCK loop makes per measurement.
const CLOCK_ACCESSES: usize = 1_000_000;

/// The reference workload and the host time of its last measurement.
pub struct Pace {
    /// The CLOCK loop's tables, allocated once so that a measurement
    /// allocates nothing.
    clock: Clock,
    last: f64,
}

impl Pace {
    /// Builds the reference and takes a first measurement.
    pub fn new() -> Self {
        let mut p = Pace {
            clock: Clock {
                frame_of: vec![0; CLOCK_PAGES],
                page_in: vec![0; CLOCK_FRAMES],
                referenced: vec![false; CLOCK_FRAMES],
            },
            last: 0.0,
        };
        p.last = p.measure();
        p
    }

    /// Times the reference once.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.clock.run(black_box(CLOCK_ACCESSES)));
        t.elapsed().as_secs_f64()
    }

    /// Runs `f` and returns its value, its host seconds, and its host
    /// seconds rescaled to the nominal host speed by the reference times
    /// measured just before and just after it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.last;
        let t = Instant::now();
        let v = f();
        let raw = t.elapsed().as_secs_f64();
        self.last = self.measure();
        (v, raw, raw * self.scale(before))
    }

    /// The factor from host seconds to nominal seconds, given the
    /// reference time measured before a run and the last one since.
    fn scale(&self, before: f64) -> f64 {
        (NOMINAL_REF_S / (before * self.last).sqrt()).powf(SENSITIVITY)
    }

    /// The last reference time, in seconds.
    pub fn last(&self) -> f64 {
        self.last
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Tables of a CLOCK replacement loop.
struct Clock {
    frame_of: Vec<u32>,
    page_in: Vec<u32>,
    referenced: Vec<bool>,
}

impl Clock {
    const NONE: u32 = u32::MAX;

    /// CLOCK replacement over [`CLOCK_FRAMES`] frames, from empty, for an
    /// access stream that is mostly sequential with random jumps; returns
    /// the faults.
    fn run(&mut self, accesses: usize) -> u64 {
        self.frame_of.fill(Self::NONE);
        self.page_in.fill(Self::NONE);
        self.referenced.fill(false);
        let mut hand = 0usize;
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut page = 0usize;
        let mut faults = 0u64;
        for _ in 0..accesses {
            let r = xorshift(&mut x);
            page = if r & 7 == 0 {
                (r >> 20) as usize % CLOCK_PAGES
            } else {
                (page + 1) % CLOCK_PAGES
            };
            let f = self.frame_of[page];
            if f != Self::NONE {
                self.referenced[f as usize] = true;
                continue;
            }
            faults += 1;
            while self.referenced[hand] {
                self.referenced[hand] = false;
                hand = (hand + 1) % CLOCK_FRAMES;
            }
            let old = self.page_in[hand];
            if old != Self::NONE {
                self.frame_of[old as usize] = Self::NONE;
            }
            self.page_in[hand] = page as u32;
            self.frame_of[page] = hand as u32;
            self.referenced[hand] = true;
            hand = (hand + 1) % CLOCK_FRAMES;
        }
        faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_loop_is_deterministic_and_faults() {
        let mut p = Pace::new();
        let a = p.clock.run(100_000);
        let b = p.clock.run(100_000);
        assert_eq!(a, b);
        assert!(a > CLOCK_FRAMES as u64 && a < 100_000);
    }

    #[test]
    fn rescaling_uses_both_neighbouring_reference_times() {
        let mut p = Pace::new();
        p.last = NOMINAL_REF_S * 2.0;
        // Before 2x nominal, after 2x nominal: a host at half speed.
        let half = 0.5f64.powf(SENSITIVITY);
        assert!((p.scale(NOMINAL_REF_S * 2.0) - half).abs() < 1e-12);
        // Before 0.5x, after 2x: the mean speed is nominal.
        assert!((p.scale(NOMINAL_REF_S * 0.5) - 1.0).abs() < 1e-12);
        let (v, raw, nominal) = p.time(|| 7);
        assert_eq!(v, 7);
        assert!(raw >= 0.0 && nominal >= 0.0);
    }
}
