//! The metric tables and how each metric is computed from the runs of
//! the measuring processes.

use crate::measure::{quantile, ratio, us, Run, Tally, PHASES, PROBES};

/// End-to-end metrics declared in `BENCHMARK.json`, reported with
/// `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("run_p90_us", "us"),
    ("peak_rss_kib", "KiB"),
    ("setup_s", "s"),
];

/// End-to-end metrics printed beside [`END_TO_END`] but not declared, so
/// no bound applies to them. On a shared host, runs intermittently
/// speed up by about a quarter (the share of fast runs changes from
/// second to second), which moves these across invocations by more than
/// the largest bound allowed; the p90 stays on the slow runs.
pub const UNBOUNDED: [(&str, &str); 4] = [
    ("runs_per_s", "1/s"),
    ("run_p50_us", "us"),
    ("run_p99_us", "us"),
    ("syscalls_per_s", "1/s"),
];

/// Per-layer metrics, reported with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("wasm.decode_us", "us"),
    ("wasm.validate_us", "us"),
    ("wasm.link_us", "us"),
    ("wali.linker_us", "us"),
    ("vkernel.new_us", "us"),
    ("wali.runner_new_us", "us"),
    ("wali.register_us", "us"),
    ("wali.spawn_us", "us"),
    ("wali.teardown_us", "us"),
    ("wali.run_us", "us"),
    ("wasm.steps", "count"),
    ("wasm.reg_step_ratio", "ratio"),
    ("wasm.ns_per_step", "ns"),
    ("wali.syscalls", "count"),
    ("wali.ns_per_syscall", "ns"),
    ("vkernel.ns_per_syscall", "ns"),
    ("sched.parks", "count"),
    ("sched.wakeups", "count"),
    ("sched.blocked_retries", "count"),
    ("sched.idle_advances", "count"),
    ("sched.retry_waste_ratio", "ratio"),
    ("wasm.peak_resident_pages", "pages"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_us", "us"),
];

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value is computed from.
    pub n: usize,
}

fn table(names: &[(&'static str, &'static str)], values: Vec<(f64, usize)>) -> Vec<Metric> {
    names
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, n))| Metric {
            name,
            unit,
            value,
            n,
        })
        .collect()
}

fn walls_us(runs: &[&Run]) -> Vec<f64> {
    runs.iter().map(|r| us(r.wall)).collect()
}

/// The median over measuring processes of `stat` on each one's untraced
/// runs. A burst of host interference that hits a minority of the
/// processes leaves it unchanged.
fn per_process(procs: &[Tally], stat: impl Fn(&[&Run]) -> f64) -> f64 {
    let values: Vec<f64> = procs
        .iter()
        .filter(|p| !p.untraced.is_empty())
        .map(|p| stat(&p.untraced.iter().collect::<Vec<_>>()))
        .collect();
    quantile(&values, 0.5)
}

/// The declared and the unbounded end-to-end metrics.
pub fn end_to_end(procs: &[Tally]) -> (Vec<Metric>, Vec<Metric>) {
    let n: usize = procs.iter().map(|p| p.untraced.len()).sum();
    let busy_s = |b: &[&Run]| walls_us(b).iter().sum::<f64>() / 1e6;
    let rate = |b: &[&Run]| ratio(b.len() as f64, busy_s(b));
    let sys_rate = |b: &[&Run]| ratio(b.iter().map(|r| r.syscalls).sum::<u64>() as f64, busy_s(b));
    let q = |p: f64| move |b: &[&Run]| quantile(&walls_us(b), p);
    let rss: Vec<f64> = procs.iter().map(|p| p.rss_kib).collect();
    let setup: Vec<f64> = procs
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    let declared = table(
        &END_TO_END,
        vec![
            (per_process(procs, q(0.90)), n),
            (quantile(&rss, 0.5), rss.len()),
            (quantile(&setup, 0.5), setup.len()),
        ],
    );
    let unbounded = table(
        &UNBOUNDED,
        vec![
            (per_process(procs, rate), n),
            (per_process(procs, q(0.50)), n),
            (per_process(procs, q(0.99)), n),
            (per_process(procs, sys_rate), n),
        ],
    );
    (declared, unbounded)
}

pub fn per_layer(procs: &[Tally], notes: &mut Vec<String>, launch: bool) -> Vec<Metric> {
    let runs: Vec<&Run> = procs.iter().flat_map(|p| &p.traced).collect();
    let untraced: Vec<&Run> = procs.iter().flat_map(|p| &p.untraced).collect();
    let n = runs.len();
    let phases = |r: &Run| r.phases.expect("traced run");
    let probes = |r: &Run| r.probes.expect("traced run");
    let med =
        |f: &dyn Fn(&Run) -> f64| quantile(&runs.iter().map(|r| f(r)).collect::<Vec<_>>(), 0.5);
    let sum = |f: &dyn Fn(&Run) -> f64| runs.iter().map(|r| f(r)).sum::<f64>();
    let mean = |f: &dyn Fn(&Run) -> f64| ratio(sum(f), n as f64);
    let ns = |d: std::time::Duration| d.as_secs_f64() * 1e9;

    let steps = sum(&|r| r.steps as f64);
    let syscalls = sum(&|r| r.syscalls as f64);
    let wakeups = sum(&|r| r.sched.wakeups as f64);
    let retries = sum(&|r| r.sched.blocked_retries as f64);
    let host = sum(&|r| ns(r.host));
    let kernel = sum(&|r| ns(r.kernel));
    let run_ns = sum(&|r| ns(phases(r)[4]));
    let spans_us = sum(&|r| phases(r).iter().map(|d| us(*d)).sum());
    let wall_us = sum(&|r| us(r.wall));
    let traced_p50 = quantile(&walls_us(&runs), 0.5);
    let untraced_p50 = quantile(&walls_us(&untraced), 0.5);
    let overhead = traced_p50 - untraced_p50;

    let [decode, runner_new, register, spawn, run, teardown]: [f64; 6] =
        std::array::from_fn(|i| med(&|r| us(phases(r)[i])));
    let [validate, linker, link, kernel_new]: [f64; 4] =
        std::array::from_fn(|i| med(&|r| us(probes(r)[i])));

    notes.push(format!(
        "coverage: the {} spans cover {:.2}% of traced run wall time \
         ({spans_us:.0} us of {wall_us:.0} us over {n} runs; the rest is input staging)",
        PHASES.join("+"),
        100.0 * ratio(spans_us, wall_us),
    ));
    notes.push(format!(
        "tracing overhead: {overhead:.3} us = traced run_p50_us {traced_p50:.3} \
         - untraced run_p50_us {untraced_p50:.3} (n={n} traced, {} untraced, interleaved)",
        untraced.len()
    ));
    notes.push(format!(
        "launch split (p50 us): decode {decode:.1}, runner_new {runner_new:.1} \
         [build_linker {linker:.1}, Kernel::new {kernel_new:.1}], register {register:.1} \
         [link_tiered {link:.1}, of which validate {validate:.1}], spawn {spawn:.1}, \
         run {run:.1}, teardown {teardown:.1}; [] entry points are timed on their own ({})",
        PROBES.join(", ")
    ));
    notes.push(format!(
        "shape: runtime construction + registration = {:.1}% of traced run_p50_us",
        100.0 * ratio(runner_new + register, traced_p50)
    ));
    if launch {
        let largest = [decode, register, spawn, run, teardown]
            .iter()
            .all(|&p| runner_new > p);
        notes.push(format!(
            "shape: runner_new is the largest launch phase: {}; build_linker = {:.0}% of it; \
             register / link_tiered = {:.2}x",
            if largest { "yes" } else { "no" },
            100.0 * ratio(linker, runner_new),
            ratio(register, link)
        ));
    }

    let values = [
        decode,
        validate,
        link,
        linker,
        kernel_new,
        runner_new,
        register,
        spawn,
        teardown,
        run,
        mean(&|r| r.steps as f64),
        ratio(sum(&|r| r.reg_steps as f64), steps),
        ratio(run_ns - host, steps),
        mean(&|r| r.syscalls as f64),
        ratio(host - kernel, syscalls),
        ratio(kernel, syscalls),
        mean(&|r| r.sched.parks as f64),
        mean(&|r| r.sched.wakeups as f64),
        mean(&|r| r.sched.blocked_retries as f64),
        mean(&|r| r.sched.idle_advances as f64),
        ratio(retries, retries + wakeups),
        mean(&|r| r.resident_pages as f64),
        ratio(spans_us, wall_us),
        overhead,
    ];
    table(&PER_LAYER, values.iter().map(|&v| (v, n)).collect())
}
