//! Driving one machine through a workload from outside, with or without
//! per-layer timers.
//!
//! The loop is the one `Machine::run_spec_measured` runs (generate an
//! event, apply it with `Machine::run_event`, open the measurement window
//! once the warm-up accesses are done), so the statistics it leaves are
//! the ones the simulator's own entry points produce. Host-speed probes
//! (see `calib`) run between chunks of events and are left out of every
//! timing. The traced variant times every call into `Workload::next` and
//! `Machine::run_event` and charges each call to one layer. An access is
//! classified by the public counter deltas around it: a guest fault beats
//! a VMM trap, a trap beats a walk, and an access that neither missed nor
//! trapped was a TLB hit.

use crate::calib::Meter;
use agile_core::{
    Event, Machine, RunStats, SystemConfig, Technique, VmtrapKind, Workload, WorkloadSpec,
};
use std::time::Instant;

/// The five translation techniques, in report order.
pub const TECHNIQUES: [&str; 5] = ["native", "nested", "shadow", "agile", "shsp"];

/// Index into [`TECHNIQUES`] for a configuration.
pub fn technique_index(cfg: &SystemConfig) -> usize {
    match cfg.technique {
        Technique::Native => 0,
        Technique::Nested => 1,
        Technique::Shadow => 2,
        Technique::Agile(_) => 3,
        Technique::Shsp(_) => 4,
    }
}

/// Layers host time is charged to. A slot is one boundary the benchmark
/// can time from outside.
#[derive(Clone, Copy)]
enum Slot {
    Gen,
    TlbHit,
    WalkMiss,
    GuestFault,
    VmmTrap,
    Mmap,
    Munmap,
    CowMark,
    ClockScan,
    CtxSwitch,
    Tick,
}

/// Metric name of each [`Slot`], in declaration order.
pub const SLOT_NAMES: [&str; 11] = [
    "workloads.gen_s",
    "tlb.hit_s",
    "walk.miss_s",
    "guest.fault_s",
    "vmm.trap_s",
    "guest.mmap_s",
    "guest.munmap_s",
    "guest.cow_mark_s",
    "guest.clock_scan_s",
    "guest.ctx_switch_s",
    "vmm.tick_s",
];

/// Deterministic lifetime counters read through the layers' public
/// accessors. Named by [`count_names`]; eight trap kinds follow the fixed
/// part.
const FIXED_COUNTS: [&str; 11] = [
    "tlb.lookups",
    "tlb.misses",
    "guest.minor_faults",
    "guest.cow_breaks",
    "vmm.unsyncs",
    "vmm.resyncs",
    "vmm.to_nested",
    "vmm.to_shadow",
    "flush.requests",
    "flush.eliminated",
    "flush.pages_swept",
];
pub const N_COUNTS: usize = FIXED_COUNTS.len() + VmtrapKind::ALL.len();

/// Names of the entries of a [`totals`] array.
pub fn count_names() -> Vec<String> {
    FIXED_COUNTS
        .iter()
        .map(|s| (*s).to_string())
        .chain(
            VmtrapKind::ALL
                .iter()
                .map(|k| format!("traps.{}", k.label())),
        )
        .collect()
}

/// Snapshot of the lifetime counters behind [`count_names`].
fn totals(m: &Machine) -> [u64; N_COUNTS] {
    let tlb = m.tlb().stats();
    let os = m.os().stats();
    let vmm = m.vmm().counters();
    let flush = m.profile().flush;
    let traps = m.vmm().trap_stats();
    let mut out = [0; N_COUNTS];
    let fixed = [
        tlb.lookups,
        tlb.misses,
        os.minor_faults,
        os.cow_breaks,
        vmm.unsyncs,
        vmm.resyncs,
        vmm.to_nested,
        vmm.to_shadow,
        flush.requests,
        flush.eliminated(),
        flush.pages_swept,
    ];
    out[..fixed.len()].copy_from_slice(&fixed);
    for (i, kind) in VmtrapKind::ALL.into_iter().enumerate() {
        out[fixed.len() + i] = traps.count(kind);
    }
    out
}

/// Counters read around each traced event to classify it.
#[derive(Clone, Copy)]
struct Probe {
    misses: u64,
    faults: u64,
    traps: u64,
    refs: u64,
    pwc: (u64, u64),
    ntlb: (u64, u64),
}

fn probe(m: &Machine) -> Probe {
    let p = m.profile();
    let os = m.os().stats();
    Probe {
        misses: p.tlb.misses,
        faults: os.minor_faults + os.cow_breaks,
        traps: m.vmm().trap_stats().total_traps(),
        refs: p.walks.memory_refs,
        pwc: (p.pwc.hits, p.pwc.misses),
        ntlb: (p.ntlb.hits, p.ntlb.misses),
    }
}

/// Per-layer host time and counts accumulated by traced runs.
#[derive(Clone)]
pub struct LayerTrace {
    /// Self time per slot and technique, seconds.
    pub secs: [[f64; 5]; SLOT_NAMES.len()],
    /// Host time of the traced phases, seconds.
    pub traced_s: f64,
    /// Accesses that missed and completed a walk without fault or trap.
    pub walk_accesses: u64,
    /// Walk memory references of those accesses.
    pub walk_refs: u64,
    /// PWC hits and misses of those accesses.
    pub pwc: (u64, u64),
    /// Nested-TLB hits and misses of those accesses.
    pub ntlb: (u64, u64),
    /// Lifetime-counter deltas over the traced phases.
    pub counts: [u64; N_COUNTS],
}

impl Default for LayerTrace {
    fn default() -> Self {
        LayerTrace {
            secs: [[0.0; 5]; SLOT_NAMES.len()],
            traced_s: 0.0,
            walk_accesses: 0,
            walk_refs: 0,
            pwc: (0, 0),
            ntlb: (0, 0),
            counts: [0; N_COUNTS],
        }
    }
}

impl LayerTrace {
    /// Sum of all slot times.
    pub fn layer_sum(&self) -> f64 {
        self.secs.iter().flatten().sum()
    }

    /// The deterministic part, for the repeat check.
    pub fn count_vector(&self) -> Vec<u64> {
        let mut v = self.counts.to_vec();
        v.extend([
            self.walk_accesses,
            self.walk_refs,
            self.pwc.0,
            self.pwc.1,
            self.ntlb.0,
            self.ntlb.1,
        ]);
        v
    }

    fn charge(&mut self, slot: Slot, tech: usize, secs: f64) {
        self.secs[slot as usize][tech] += secs;
    }

    /// The layer one access ran in, from the counters around it; a walk
    /// also adds its reference and walk-cache deltas.
    fn classify_access(&mut self, before: Probe, after: Probe) -> Slot {
        if after.faults > before.faults {
            Slot::GuestFault
        } else if after.traps > before.traps {
            Slot::VmmTrap
        } else if after.misses > before.misses {
            self.walk_accesses += 1;
            self.walk_refs += after.refs - before.refs;
            self.pwc.0 += after.pwc.0 - before.pwc.0;
            self.pwc.1 += after.pwc.1 - before.pwc.1;
            self.ntlb.0 += after.ntlb.0 - before.ntlb.0;
            self.ntlb.1 += after.ntlb.1 - before.ntlb.1;
            Slot::WalkMiss
        } else {
            Slot::TlbHit
        }
    }
}

/// What one driven machine run measured.
pub struct Driven {
    /// Machine construction plus every event before the measurement
    /// window opened, seconds.
    pub setup_s: f64,
    /// Host-speed probes taken during set-up.
    pub setup_meter: Meter,
    /// Events inside the measurement window, seconds.
    pub timed_s: f64,
    /// Host-speed probes taken during the measurement window.
    pub timed_meter: Meter,
    /// Data accesses inside the measurement window.
    pub timed_accesses: u64,
    /// Events applied inside the measurement window.
    pub timed_events: u64,
    /// Statistics of the measurement window.
    pub stats: RunStats,
    /// `HotPathProfile::render` of the whole run.
    pub profile: String,
    /// Degradation events (skipped or aborted accesses).
    pub degraded: u64,
    /// Oracle and `verify::check_stats` findings.
    pub violations: u64,
}

/// Which phases a run times per layer.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    Off,
    /// Only the measurement window.
    Timed,
    /// Warm-up and measurement window alike.
    Whole,
}

/// Runs `spec` on a fresh machine built from `cfg`, opening the
/// measurement window once `warmup` accesses have executed (the
/// `run_spec_measured` rule), and times it.
pub fn drive(
    cfg: SystemConfig,
    spec: &WorkloadSpec,
    warmup: u64,
    tracing: Tracing,
    trace: &mut LayerTrace,
) -> Driven {
    let t0 = Instant::now();
    let mut s = Stepper {
        machine: Machine::new(cfg),
        events: Workload::new(spec.clone()),
        tech: technique_index(&cfg),
        trace,
        last: None,
    };
    let whole = tracing == Tracing::Whole;
    let mut before = whole.then(|| totals(&s.machine));
    let build_s = t0.elapsed().as_secs_f64();
    let mut setup_meter = Meter::default();
    let warm_s = run_probed(&mut setup_meter, || {
        s.machine.accesses() < warmup && s.step(whole)
    });
    let t = Instant::now();
    s.machine.begin_measurement();
    let setup_s = build_s + warm_s + t.elapsed().as_secs_f64();
    let accesses0 = s.machine.accesses();
    if tracing == Tracing::Timed {
        before = Some(totals(&s.machine));
    }
    let on = tracing != Tracing::Off;
    let mut timed_events = 0u64;
    let mut timed_meter = Meter::default();
    let timed_s = run_probed(&mut timed_meter, || {
        let more = s.step(on);
        timed_events += u64::from(more);
        more
    });
    let Stepper {
        mut machine, trace, ..
    } = s;
    let stats = machine.stats(&spec.name);
    let mut violations = machine.take_violations().len() as u64;
    if !cfg.paranoia {
        // With paranoia on, the machine already ran this check.
        violations += agile_core::verify::check_stats(&stats, &cfg).len() as u64;
    }
    if let Some(before) = before {
        let after = totals(&machine);
        for (acc, (a, b)) in trace.counts.iter_mut().zip(after.iter().zip(before)) {
            *acc += a - b;
        }
        trace.traced_s += timed_s + if whole { warm_s } else { 0.0 };
    }
    Driven {
        setup_s,
        setup_meter,
        timed_s,
        timed_meter,
        timed_accesses: machine.accesses() - accesses0,
        timed_events,
        stats,
        profile: machine.profile().render(&cfg.label()),
        degraded: machine.degradation_events().len() as u64,
        violations,
    }
}

/// Events between two host-speed probes.
const PROBE_EVERY: u32 = 2_048;

/// Calls `step` until it returns false, [`PROBE_EVERY`] calls at a time,
/// probing the host's speed into `meter` before each chunk. Returns the
/// host seconds of the calls alone.
fn run_probed(meter: &mut Meter, mut step: impl FnMut() -> bool) -> f64 {
    let mut secs = 0.0;
    loop {
        meter.probe();
        let t = Instant::now();
        let done = (0..PROBE_EVERY).any(|_| !step());
        secs += t.elapsed().as_secs_f64();
        if done {
            return secs;
        }
    }
}

/// One machine and its event stream.
struct Stepper<'a> {
    machine: Machine,
    events: Workload,
    tech: usize,
    trace: &'a mut LayerTrace,
    /// Counters after the previous event when it was an access. The next
    /// access starts from them: generating an event touches no machine
    /// state.
    last: Option<Probe>,
}

impl Stepper<'_> {
    /// Generates and applies one event, timing and classifying both when
    /// `timed`. False once the stream is exhausted.
    fn step(&mut self, timed: bool) -> bool {
        if !timed {
            let Some(event) = self.events.next() else {
                return false;
            };
            self.machine.run_event(event);
            return true;
        }
        let t = Instant::now();
        let next = self.events.next();
        self.trace
            .charge(Slot::Gen, self.tech, t.elapsed().as_secs_f64());
        let Some(event) = next else {
            return false;
        };
        let before = match (event.is_access(), self.last.take()) {
            (true, Some(last)) => Some(last),
            (true, None) => Some(probe(&self.machine)),
            (false, _) => None,
        };
        let t = Instant::now();
        self.machine.run_event(event);
        let secs = t.elapsed().as_secs_f64();
        let slot = match (event, before) {
            (Event::Access { .. }, Some(before)) => {
                let after = probe(&self.machine);
                self.last = Some(after);
                self.trace.classify_access(before, after)
            }
            (Event::Access { .. }, None) => unreachable!("accesses are probed first"),
            (Event::Mmap { .. }, _) => Slot::Mmap,
            (Event::Munmap { .. }, _) => Slot::Munmap,
            (Event::MarkCow { .. }, _) => Slot::CowMark,
            (Event::ClockScan { .. }, _) => Slot::ClockScan,
            (Event::ContextSwitch { .. }, _) => Slot::CtxSwitch,
            (Event::Tick, _) => Slot::Tick,
        };
        self.trace.charge(slot, self.tech, secs);
        true
    }
}
