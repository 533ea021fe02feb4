//! Repetition records and their reduction to named metrics.

use crate::layers::{count_names, LayerTrace, SLOT_NAMES, TECHNIQUES};

/// What one repetition of a workload measured.
#[derive(Default)]
pub struct Rep {
    /// Set-up host seconds, corrected for host speed (see `calib`).
    pub setup_s: f64,
    /// Host seconds of the timed phase, corrected for host speed.
    pub wall_s: f64,
    /// Host seconds of the timed phase as measured.
    pub raw_wall_s: f64,
    /// Data accesses of the timed phase.
    pub accesses: u64,
    /// Accesses and corrected host seconds per technique.
    pub per_technique: [Option<(u64, f64)>; 5],
    /// Operations attempted: events, or jobs on the matrix.
    pub attempted: u64,
    /// Operations that failed, plus oracle and stats-check findings.
    pub failed: u64,
    /// Oracle and stats-check findings alone.
    pub violations: u64,
    /// Digest of the simulated statistics.
    pub digest: u64,
    /// Inconsistencies found inside the repetition.
    pub problems: Vec<String>,
    /// Per-layer record of a traced repetition.
    pub trace: Option<RepTrace>,
}

/// Per-layer record of one traced repetition.
#[derive(Default)]
pub struct RepTrace {
    pub layers: LayerTrace,
    /// Service-layer timings (matrix only).
    pub service: Option<ServiceTrace>,
    /// Traced over untraced host time, minus one, when the repetition
    /// measures both itself.
    pub overhead_frac: Option<f64>,
}

/// Service-layer timings of one matrix pass.
#[derive(Default, Clone, Copy)]
pub struct ServiceTrace {
    pub submit_s: f64,
    pub queue_s: f64,
    pub run_s: f64,
    pub steals: u64,
    pub idle_frac: f64,
    pub tail_s: f64,
    pub verify_overhead_s: f64,
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One named metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// End-to-end metrics: medians over the untraced repetitions.
pub fn end_to_end(reps: &[&Rep], peak_rss_mb: f64) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>());
    let mut out = vec![metric(
        "accesses_per_s",
        med(&|r| r.accesses as f64 / r.wall_s),
        "1/s",
    )];
    for (t, name) in TECHNIQUES.iter().enumerate() {
        let rates: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.per_technique[t])
            .map(|(acc, secs)| acc as f64 / secs)
            .collect();
        out.push(metric(
            format!("accesses_per_s.{name}"),
            median(&rates),
            "1/s",
        ));
    }
    out.push(metric("wall_s", med(&|r| r.wall_s), "s"));
    out.push(metric("setup_s", med(&|r| r.setup_s), "s"));
    out.push(metric("peak_rss_mb", peak_rss_mb, "MB"));
    out
}

/// Per-layer metrics of the representative traced repetition (the one
/// with the median traced time, so its layer times and `unattributed_s`
/// sum exactly to its traced phase). `overhead_frac` is the traced run's
/// host time over the untraced run's, minus one.
pub fn per_layer(rep: &RepTrace, overhead_frac: f64, violations: u64) -> Vec<Metric> {
    let l = &rep.layers;
    let mut out = Vec::new();
    for (slot, name) in SLOT_NAMES.iter().enumerate() {
        out.push(metric(*name, l.secs[slot].iter().sum(), "s"));
        for (t, tech) in TECHNIQUES.iter().enumerate() {
            out.push(metric(format!("{name}.{tech}"), l.secs[slot][t], "s"));
        }
    }
    let walk_s: f64 = l.secs[2].iter().sum();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.push(metric(
        "walk.ns_per_miss",
        if l.walk_accesses == 0 {
            0.0
        } else {
            walk_s * 1e9 / l.walk_accesses as f64
        },
        "ns",
    ));
    out.push(metric(
        "walk.refs_per_miss",
        ratio(l.walk_refs, l.walk_accesses),
        "refs",
    ));
    out.push(metric("walk.memory_refs", l.walk_refs as f64, "count"));
    out.push(metric(
        "pwc.hit_ratio",
        ratio(l.pwc.0, l.pwc.0 + l.pwc.1),
        "ratio",
    ));
    out.push(metric(
        "ntlb.hit_ratio",
        ratio(l.ntlb.0, l.ntlb.0 + l.ntlb.1),
        "ratio",
    ));
    let names = count_names();
    let count = |n: &str| l.counts[names.iter().position(|x| x == n).expect("known count")];
    for (i, name) in names.iter().enumerate() {
        if name != "flush.eliminated" {
            out.push(metric(name.clone(), l.counts[i] as f64, "count"));
        }
    }
    out.push(metric(
        "flush.eliminated_ratio",
        ratio(count("flush.eliminated"), count("flush.requests")),
        "ratio",
    ));
    let s = rep.service.unwrap_or_default();
    out.push(metric("service.submit_s", s.submit_s, "s"));
    out.push(metric("service.queue_s", s.queue_s, "s"));
    out.push(metric("service.run_s", s.run_s, "s"));
    out.push(metric("service.steals", s.steals as f64, "count"));
    out.push(metric("service.idle_frac", s.idle_frac, "ratio"));
    out.push(metric("service.tail_s", s.tail_s, "s"));
    out.push(metric("verify.overhead_s", s.verify_overhead_s, "s"));
    out.push(metric("verify.violations", violations as f64, "count"));
    out.push(metric("trace.phase_s", l.traced_s, "s"));
    out.push(metric("unattributed_s", l.traced_s - l.layer_sum(), "s"));
    out.push(metric("trace.overhead_frac", overhead_frac, "ratio"));
    out
}
