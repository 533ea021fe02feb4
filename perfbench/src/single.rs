//! `walk_bound` and `churn_bound`: one spec run on one machine per
//! technique, the five techniques one after another in one thread. Each
//! technique's set-up and timed phase are corrected by the host slowdown
//! probed during them.

use crate::layers::{drive, technique_index, LayerTrace, Tracing, TECHNIQUES};
use crate::report::{Rep, RepTrace};
use agile_core::runner::stats_json;
use agile_core::types::SplitMix64;
use agile_core::{
    profile, AgileOptions, ChurnSpec, Pattern, Profile, ShspOptions, SystemConfig, Technique,
    WorkloadSpec,
};

/// Data accesses per technique and repetition on `walk_bound`.
const WALK_ACCESSES: u64 = 300_000;
/// Data accesses per technique and repetition on `churn_bound`.
const CHURN_ACCESSES: u64 = 150_000;

/// The five techniques, in [`TECHNIQUES`] order, with paranoia pinned
/// off: these workloads measure the simulator's fast path whatever
/// `AGILE_PARANOIA` says.
fn configs() -> [SystemConfig; 5] {
    [
        Technique::Native,
        Technique::Nested,
        Technique::Shadow,
        Technique::Agile(AgileOptions::default()),
        Technique::Shsp(ShspOptions::default()),
    ]
    .map(|t| SystemConfig::new(t).with_paranoia(false))
}

/// One spec and how to measure it.
pub struct Single {
    pub spec: WorkloadSpec,
    /// Accesses before the measurement window opens.
    pub warmup: u64,
    /// How this workload's host time follows the host-speed probe's
    /// (see `calib` and the README).
    pub host_exponent: f64,
}

/// The calibrated Graph500 profile: 96 MiB, uniform, no churn,
/// prefaulted. Warm-up covers the prefault plus a tenth of the accesses.
pub fn walk_bound(seed: u64) -> Single {
    let mut spec = profile(Profile::Graph500, WALK_ACCESSES);
    spec.seed = SplitMix64::derive(seed, 0);
    Single {
        warmup: prefault_accesses(&spec) + WALK_ACCESSES / 10,
        spec,
        host_exponent: 1.0,
    }
}

/// The churn-heavy spec of `agile-bench --bin prof` (16 MiB zipf 0.8,
/// remap every 100, COW every 150, clock scan every 400, context switch
/// every 2,500, two processes), with more accesses and prefaulted.
pub fn churn_bound(seed: u64) -> Single {
    let spec = WorkloadSpec {
        name: "churn".into(),
        footprint: 16 << 20,
        pattern: Pattern::Zipf { theta: 0.8 },
        write_fraction: 0.3,
        accesses: CHURN_ACCESSES,
        accesses_per_tick: 1_000,
        churn: ChurnSpec {
            remap_every: Some(100),
            remap_pages: 8,
            cow_every: Some(150),
            cow_pages: 8,
            clock_scan_every: Some(400),
            scan_pages: 32,
            churn_zone: 0.25,
            ctx_switch_every: Some(2_500),
            processes: 2,
        },
        prefault: true,
        prefault_writes: true,
        seed: SplitMix64::derive(seed, 0),
    };
    Single {
        warmup: prefault_accesses(&spec) + CHURN_ACCESSES / 10,
        spec,
        host_exponent: 1.5,
    }
}

/// Accesses the generator emits before the first generated one.
fn prefault_accesses(spec: &WorkloadSpec) -> u64 {
    if spec.prefault {
        spec.pages() * spec.churn.processes.max(1) as u64
    } else {
        0
    }
}

/// One repetition: every technique once, in order.
pub fn rep(w: &Single, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let mut digest_input = String::new();
    let mut trace = LayerTrace::default();
    for cfg in configs() {
        let tracing = if traced { Tracing::Timed } else { Tracing::Off };
        let run = drive(cfg, &w.spec, w.warmup, tracing, &mut trace);
        let timed_s = run.timed_s / run.timed_meter.slowdown(w.host_exponent);
        let t = technique_index(&cfg);
        rep.setup_s += run.setup_s / run.setup_meter.slowdown(w.host_exponent);
        rep.wall_s += timed_s;
        rep.raw_wall_s += run.timed_s;
        rep.accesses += run.timed_accesses;
        rep.per_technique[t] = Some((run.timed_accesses, timed_s));
        rep.attempted += run.timed_events;
        rep.failed += run.degraded + run.violations;
        rep.violations += run.violations;
        digest_input.push_str(TECHNIQUES[t]);
        digest_input.push_str(&stats_json(&run.stats).render());
        digest_input.push_str(&run.profile);
    }
    rep.digest = agile_core::digest(digest_input.as_bytes());
    if traced {
        rep.trace = Some(RepTrace {
            layers: trace,
            ..RepTrace::default()
        });
    }
    rep
}
