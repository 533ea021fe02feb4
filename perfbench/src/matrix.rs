//! `paranoid_matrix`: the Figure 5 job matrix submitted as one batch to
//! a sharded `Service`, with paranoia on.

use crate::calib::Meter;
use crate::layers::{drive, technique_index, LayerTrace, Tracing};
use crate::report::{median, Rep, RepTrace, ServiceTrace};
use agile_core::runner::stats_json;
use agile_core::types::SplitMix64;
use agile_core::{
    profile, AgileOptions, Machine, PlanOptions, Profile, RunOutcome, RunRequest, Service,
    ShspOptions, SystemConfig, Technique,
};
use std::time::Instant;

/// Data accesses per job: the `fig5 --quick` preset.
const ACCESSES: u64 = 100_000;
/// Set-up samples per repetition for `setup_s`.
const SETUP_SAMPLES: usize = 5;
/// Host-speed probes taken between two phases.
const BOUNDARY_PROBES: u32 = 100;
/// How the matrix's host time follows the host-speed probe's (see `calib`
/// and the README).
const HOST_EXPONENT: f64 = 0.5;

fn request(
    wl: Profile,
    index: usize,
    technique: Technique,
    thp: bool,
    seed: u64,
    paranoia: bool,
) -> RunRequest {
    let mut cfg = SystemConfig::new(technique).with_paranoia(paranoia);
    if thp {
        cfg = cfg.with_thp();
    }
    let mut spec = profile(wl, ACCESSES);
    spec.seed = SplitMix64::derive(seed, index as u64);
    // Figure 5's warm-up exclusion: the first third of the run.
    RunRequest::new(cfg, spec).with_warmup(ACCESSES / 3)
}

/// The 64 Figure 5 jobs: 8 profiles × {4K, 2M} × {native, nested,
/// shadow, agile}, in fig5's order.
pub fn matrix(seed: u64, paranoia: bool) -> Vec<RunRequest> {
    let mut out = Vec::new();
    for (i, wl) in Profile::ALL.into_iter().enumerate() {
        for thp in [false, true] {
            for t in [
                Technique::Native,
                Technique::Nested,
                Technique::Shadow,
                Technique::Agile(AgileOptions::default()),
            ] {
                out.push(request(wl, i, t, thp, seed, paranoia));
            }
        }
    }
    out
}

/// Figure 5 has no SHSP bar; these 16 jobs (every profile at both page
/// sizes) run after the matrix, outside `wall_s`, so that
/// `accesses_per_s.shsp` has a value on this workload too.
pub fn shsp_sidecar(seed: u64) -> Vec<RunRequest> {
    let mut out = Vec::new();
    for (i, wl) in Profile::ALL.into_iter().enumerate() {
        for thp in [false, true] {
            out.push(request(
                wl,
                i,
                Technique::Shsp(ShspOptions::default()),
                thp,
                seed,
                true,
            ));
        }
    }
    out
}

/// One batch through a service.
struct Pass {
    outcomes: Vec<RunOutcome>,
    submit_s: f64,
    wall_s: f64,
    /// Seconds from submission to each result, in finish order.
    arrivals: Vec<f64>,
}

fn run_pass(service: &Service, requests: Vec<RunRequest>) -> Pass {
    let n = requests.len();
    let t0 = Instant::now();
    let ids = service.submit_all(requests);
    let submit_s = t0.elapsed().as_secs_f64();
    let first = ids.first().map_or(0, |id| id.index());
    let mut outcomes: Vec<Option<RunOutcome>> = vec![None; n];
    let mut arrivals = Vec::with_capacity(n);
    while let Some((id, outcome)) = service.next_result() {
        arrivals.push(t0.elapsed().as_secs_f64());
        outcomes[id.index() - first] = Some(outcome);
    }
    Pass {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every submitted job yields one result"))
            .collect(),
        submit_s,
        wall_s: t0.elapsed().as_secs_f64(),
        arrivals,
    }
}

/// One repetition. Untraced, it times the matrix makespan and the SHSP
/// sidecar. Traced, it also re-runs the matrix with paranoia off (for
/// the oracle's cost) and drives every job again on this thread with
/// per-layer timers, checking that each reproduces its service artifact.
pub fn rep(seed: u64, threads: usize, traced: bool) -> Rep {
    let opts = PlanOptions::with_threads(threads);
    let jobs = matrix(seed, true);
    let sidecar = shsp_sidecar(seed);
    let all: Vec<RunRequest> = jobs.iter().chain(&sidecar).cloned().collect();
    // Set-up is what a batch pays before its first access: starting the
    // service, and building each job's machine (which every job does
    // again inside the service).
    let probes_start = Meter::sampled(BOUNDARY_PROBES);
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    let mut service = None;
    for _ in 0..SETUP_SAMPLES {
        // Dropping the previous sample's service joins its workers.
        drop(service.take());
        let t = Instant::now();
        service = Some(Service::new(opts.clone()));
        for request in &all {
            drop(std::hint::black_box(Machine::new(request.config)));
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let service = service.expect("at least one set-up sample");

    // The service's workers cannot be probed while they run, so the host
    // slowdown of each phase comes from probes just before and after it,
    // while the workers wait for jobs.
    let probes_setup = Meter::sampled(BOUNDARY_PROBES);
    let main = run_pass(&service, jobs);
    let probes_main = Meter::sampled(BOUNDARY_PROBES);
    let metrics = service.metrics();
    let side = run_pass(&service, sidecar);
    let probes_side = Meter::sampled(BOUNDARY_PROBES);
    service.shutdown();
    let main_slowdown = probes_setup.merged(&probes_main).slowdown(HOST_EXPONENT);

    let mut rep = Rep {
        setup_s: median(&setups) / probes_start.merged(&probes_setup).slowdown(HOST_EXPONENT),
        wall_s: main.wall_s / main_slowdown,
        raw_wall_s: main.wall_s,
        attempted: all.len() as u64,
        ..Rep::default()
    };
    let mut fingerprints = String::new();
    let passes = [
        (&main, main_slowdown),
        (
            &side,
            probes_main.merged(&probes_side).slowdown(HOST_EXPONENT),
        ),
    ];
    for (pass, slowdown) in passes {
        for outcome in &pass.outcomes {
            let RunOutcome::Completed(a) = outcome else {
                rep.failed += 1;
                continue;
            };
            // Figure 5 counts warm-up accesses too: the window opens at
            // the access that reaches `warmup`.
            let accesses = a.stats.accesses + a.warmup;
            let t = technique_index(&a.config);
            let (acc, secs) = rep.per_technique[t].get_or_insert((0, 0.0));
            *acc += accesses;
            *secs += a.wall_nanos as f64 / 1e9 / slowdown;
            fingerprints.push_str(&a.fingerprint());
        }
    }
    rep.accesses = main
        .outcomes
        .iter()
        .filter_map(RunOutcome::artifact)
        .map(|a| a.stats.accesses + a.warmup)
        .sum();
    rep.digest = agile_core::digest(fingerprints.as_bytes());
    if !traced {
        return rep;
    }

    let plain = Service::new(opts);
    let plain_pass = run_pass(&plain, matrix(seed, false));
    let plain_run_s = plain.shutdown().run_nanos as f64 / 1e9;
    rep.failed += plain_pass
        .outcomes
        .iter()
        .filter(|o| o.artifact().is_none())
        .count() as u64;

    let run_s = metrics.run_nanos as f64 / 1e9;
    let n = main.arrivals.len();
    let idle_from = n.saturating_sub(threads);
    let service_trace = ServiceTrace {
        submit_s: main.submit_s,
        queue_s: metrics.queue_nanos as f64 / 1e9,
        run_s,
        steals: metrics.steals,
        idle_frac: 1.0 - run_s / (threads as f64 * main.wall_s),
        tail_s: main.wall_s - main.arrivals.get(idle_from).copied().unwrap_or(main.wall_s),
        verify_overhead_s: run_s - plain_run_s,
    };

    let mut layers = LayerTrace::default();
    let mut direct_s = 0.0;
    let mut service_job_s = 0.0;
    for (request, outcome) in all.iter().zip(main.outcomes.iter().chain(&side.outcomes)) {
        let run = drive(
            request.config,
            &request.spec,
            request.warmup,
            Tracing::Whole,
            &mut layers,
        );
        direct_s += run.setup_s + run.timed_s;
        rep.violations += run.violations;
        rep.failed += run.violations + run.degraded;
        match outcome.artifact() {
            Some(a) if stats_json(&a.stats).render() == stats_json(&run.stats).render() => {
                service_job_s += a.wall_nanos as f64 / 1e9;
            }
            _ => {
                rep.failed += 1;
                rep.problems.push(format!(
                    "{}: driving the job from outside did not reproduce its service artifact",
                    request.label
                ));
            }
        }
    }
    rep.trace = Some(RepTrace {
        layers,
        service: Some(service_trace),
        overhead_frac: Some(direct_s / service_job_s - 1.0),
    });
    rep
}
