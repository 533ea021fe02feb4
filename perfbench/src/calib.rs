//! Correction for the speed of a shared host.
//!
//! Other tenants of the host slow this machine's cores by up to 2× for
//! minutes at a time, and by tens of percent from one second to the
//! next, with no steal time: thread CPU time moves with wall time, so
//! neither can be compared between runs. The benchmark therefore times
//! short probes of a fixed kernel, which does not depend on the
//! simulator, between chunks of each measured phase, and divides the
//! phase's host time by the host's slowdown: the probes' mean time over
//! [`QUIET_PROBE_S`], raised to the workload's exponent. Probe time is
//! left out of every timing. Corrected values read as seconds on a quiet
//! host and are compared in place of the raw ones. Runs of two commits
//! under the same contention get the same correction, so it never
//! favours either.
//!
//! The kernel is integer arithmetic and branches over a 4 KiB table, so
//! it barely touches the simulator's cached state. Probe and simulator
//! slow down together, but each workload by its own power of the probe's
//! slowdown; the exponents and the fits behind them are in
//! `perfbench/README.md`.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Kernel iterations of one probe.
const PROBE_ITERATIONS: u32 = 16_384;
/// About the fastest mean probe time of a phase seen on the 2-vCPU Xeon
/// VM the bounds in `BENCHMARK.json` were set on, seconds. Changing it
/// rescales every corrected value.
const QUIET_PROBE_S: f64 = 45e-6;

fn mix(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn table() -> &'static [u64; 512] {
    static TABLE: OnceLock<[u64; 512]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|i| mix(i as u64)))
}

/// Host seconds of one probe.
#[inline(never)]
fn probe_s() -> f64 {
    let table = table();
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..u64::from(PROBE_ITERATIONS) {
        let z = mix(i);
        let e = black_box(table[(z & 511) as usize]);
        if (e ^ z) & 3 == 0 {
            acc = acc.wrapping_add(e % 1009);
        } else {
            acc ^= e.rotate_left(13);
        }
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Probes taken over one phase. Probes are only taken while no other
/// benchmark thread is busy: a second busy thread can share the probe's
/// core and inflate its time.
#[derive(Clone, Default)]
pub struct Meter {
    probe_s: f64,
    probes: u32,
}

impl Meter {
    /// A meter holding `n` probes taken back to back.
    pub fn sampled(n: u32) -> Meter {
        let mut m = Meter::default();
        for _ in 0..n {
            m.probe();
        }
        m
    }

    /// Takes one probe.
    pub fn probe(&mut self) {
        self.probe_s += probe_s();
        self.probes += 1;
    }

    /// Both meters' probes together.
    pub fn merged(&self, other: &Meter) -> Meter {
        Meter {
            probe_s: self.probe_s + other.probe_s,
            probes: self.probes + other.probes,
        }
    }

    /// The host's slowdown over the probes for a workload whose host time
    /// moves as the probe's to the power `exponent`: 1 on a quiet host,
    /// 2^`exponent` when a probe takes twice as long.
    pub fn slowdown(&self, exponent: f64) -> f64 {
        (self.probe_s / f64::from(self.probes.max(1)) / QUIET_PROBE_S).powf(exponent)
    }
}
