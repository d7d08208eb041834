//! End-to-end scenario benchmark for the photonic-rails workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <train-10k-steady|serve-4k-mixed|fleet-1k-sweep> \
//!     --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! Repeats set-up → measured call → output check for `--seconds`, then prints one
//! JSON line: with `--trace 0` the end-to-end metrics (medians over repetitions),
//! with `--trace 1` the per-layer metrics of the traced repetitions, which
//! alternate with untraced ones so the tracing overhead can be reported. See
//! `e2ebench/README.md` for the workloads and the layer → metric → workload map.

mod digest;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Checked, Observed, Probe, Sizes, Workload};

const USAGE: &str = "\
usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]

  --workload   train-10k-steady | serve-4k-mixed | fleet-1k-sweep
  --seed       workload seed (u64); feeds the arrival processes and the sweep's base seed
  --seconds    how long to keep repeating the workload (at least 3 repetitions run)
  --trace      0: end-to-end metrics; 1: per-layer metrics from traced repetitions
  --trace-out  Chrome trace-event JSON of the traced run
               (default: e2ebench/traces/<workload>-seed<n>.json)";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err("help requested".to_string());
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            "--trace-out" => trace_out = Some(value.to_string()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out: trace_out
            .unwrap_or_else(|| format!("e2ebench/traces/{}-seed{seed}.json", workload.name())),
    })
}

/// One successful repetition.
struct Rep {
    traced: bool,
    run_id: u32,
    setup_s: f64,
    run_s: f64,
    peak_rss_mib: f64,
    digest_s: f64,
    requests_injected: u64,
    dag_tasks: u64,
    checked: Checked,
}

/// Spans whose time is attributed to a layer (all nest inside `setup` or `run`).
const LAYER_SPANS: [&str; 6] = [
    "workload.dag_build",
    "serving.arrivals",
    "fleet.variant_spec",
    "scenario.run",
    "window.extract",
    "fleet.evaluate",
];

fn one_rep(workload: Workload, seed: u64, tracer: &mut Tracer, run_id: u32) -> Rep {
    railsim_workload::release_free_heap();
    railsim_bench::reset_peak_rss();
    tracer.set_run(run_id);
    let t = Instant::now();
    let span = tracer.enter("setup");
    let (setup, counts) = workloads::setup(workload, Sizes::FULL, true, seed, tracer);
    tracer.exit(span);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let span = tracer.enter("run");
    let output = workloads::run(setup, tracer);
    tracer.exit(span);
    let run_s = t.elapsed().as_secs_f64();
    let peak_rss_mib = railsim_bench::peak_rss_mib().unwrap_or(0.0);
    let t = Instant::now();
    let checked = tracer.span("check.digest", || workloads::check(&output));
    let digest_s = t.elapsed().as_secs_f64();
    Rep {
        traced: tracer.enabled(),
        run_id,
        setup_s,
        run_s,
        peak_rss_mib,
        digest_s,
        requests_injected: counts.requests_injected,
        dag_tasks: counts.dag_tasks,
        checked,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// A metric line of the result object.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `-1` marks a value the public API does not expose on this workload.
fn or_unobserved(v: Option<u64>) -> f64 {
    v.map_or(-1.0, |n| n as f64)
}

fn ratio(num: Option<u64>, den: Option<u64>) -> f64 {
    match (num, den) {
        (Some(n), Some(d)) if d > 0 => n as f64 / d as f64,
        (Some(_), Some(_)) => 0.0,
        _ => -1.0,
    }
}

fn per_layer_metrics(
    traced: &[&Rep],
    tracer: &Tracer,
    overhead_s: f64,
    probe: Option<Probe>,
) -> Vec<Metric> {
    let first = traced[0];
    let mut o: Observed = first.checked.observed;
    if let Some(p) = probe {
        o.memoized_iterations = Some(p.memoized_iterations);
        o.controller_requests = Some(p.controller_requests);
        o.controller_noops = Some(p.controller_noops);
    }
    let layer = |name: &str| {
        median(
            traced
                .iter()
                .map(|r| tracer.seconds(r.run_id, name))
                .collect(),
        )
    };
    let evaluate_s = layer("fleet.evaluate");
    let injected = first.requests_injected;
    vec![
        metric("workload.dag_build_s", layer("workload.dag_build"), "s"),
        metric("workload.dag_tasks", first.dag_tasks as f64, "count"),
        metric("serving.arrivals_s", layer("serving.arrivals"), "s"),
        metric("serving.requests_injected", injected as f64, "count"),
        metric(
            "serving.requests_completed",
            o.requests_completed as f64,
            "count",
        ),
        metric(
            "serving.completed_ratio",
            // Vacuously complete when no tenant was offered a request.
            if injected == 0 {
                1.0
            } else {
                o.requests_completed as f64 / injected as f64
            },
            "ratio",
        ),
        metric("scenario.run_s", layer("scenario.run"), "s"),
        metric("scenario.calls", o.scenario_calls as f64, "count"),
        metric(
            "scenario.memoized_iterations",
            or_unobserved(o.memoized_iterations),
            "count",
        ),
        metric(
            "controller.requests",
            or_unobserved(o.controller_requests),
            "count",
        ),
        metric(
            "controller.noop_requests",
            or_unobserved(o.controller_noops),
            "count",
        ),
        metric(
            "controller.noop_ratio",
            ratio(o.controller_noops, o.controller_requests),
            "ratio",
        ),
        metric("controller.reconfigs", o.reconfigs as f64, "count"),
        metric(
            "ocs.circuits_set_up",
            or_unobserved(o.circuits_set_up),
            "count",
        ),
        metric(
            "ocs.circuits_torn_down",
            or_unobserved(o.circuits_torn_down),
            "count",
        ),
        metric(
            "controller.circuits_evicted",
            or_unobserved(o.circuits_evicted),
            "count",
        ),
        metric("window.extract_s", layer("window.extract"), "s"),
        metric("window.windows", o.windows as f64, "count"),
        metric("fleet.evaluate_s", evaluate_s, "s"),
        metric("fleet.variant_spec_s", layer("fleet.variant_spec"), "s"),
        metric("fleet.variants", o.fleet_variants as f64, "count"),
        metric(
            "fleet.variants_per_s",
            if evaluate_s > 0.0 {
                o.fleet_variants as f64 / evaluate_s
            } else {
                0.0
            },
            "1/s",
        ),
        metric(
            "fleet.memoized_iterations",
            o.fleet_memoized as f64,
            "count",
        ),
        metric(
            "check.digest_s",
            median(traced.iter().map(|r| r.digest_s).collect()),
            "s",
        ),
        metric("trace.overhead_s", overhead_s, "s"),
        metric("sim_iteration_s", o.sim_iteration_s.unwrap_or(-1.0), "s"),
        metric(
            "sim_circuit_wait_s",
            o.sim_circuit_wait_s.unwrap_or(-1.0),
            "s",
        ),
        metric(
            "sim_p99_request_s",
            o.sim_p99_request_s.unwrap_or(-1.0),
            "s",
        ),
        metric("sim_p99_samples", or_unobserved(o.sim_p99_samples), "count"),
    ]
}

/// Layers the benchmark cannot observe from outside on `workload`, and why.
fn unobserved_notes(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::Train => &[
            "scenario.memoized_iterations and controller.requests/noop_requests come from a \
             single-job OpusSimulator probe run after the repetitions; ScenarioResult does not \
             carry them",
        ],
        Workload::Serve => &[
            "scenario.memoized_iterations, controller.requests, controller.noop_requests: -1, \
             a multi-job ScenarioResult does not expose them and OpusSimulator holds one job",
        ],
        Workload::Fleet => &[
            "controller.requests/noop_requests, ocs.circuits_*, controller.circuits_evicted: -1, \
             FleetService::evaluate returns only VariantResult rows",
            "sim_*: -1, the sweep has no single training job or tenant",
        ],
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("e2ebench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    println!(
        "e2ebench {} seed={} seconds={} trace={} threads={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let mut on = Tracer::new(true);
    let mut off = Tracer::new(false);
    // Traced runs alternate untraced and traced repetitions, ending on a traced one.
    let min_reps: u32 = if args.trace { 4 } else { 3 };
    let probing = args.trace && workload == Workload::Train;
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut rep_walls: Vec<f64> = Vec::new();
    let mut attempted: u32 = 0;
    let mut failed: u32 = 0;
    let mut problems: Vec<String> = Vec::new();
    loop {
        let traced = args.trace && !attempted.is_multiple_of(2);
        let tracer = if traced { &mut on } else { &mut off };
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            one_rep(workload, args.seed, tracer, attempted)
        }));
        rep_walls.push(t.elapsed().as_secs_f64());
        attempted += 1;
        match outcome {
            Ok(rep) => {
                println!(
                    "rep {:2}{}: setup {:.4} s  run {:.4} s  peak {:.1} MiB  digest {:#018x}",
                    rep.run_id,
                    if rep.traced { " traced" } else { "       " },
                    rep.setup_s,
                    rep.run_s,
                    rep.peak_rss_mib,
                    rep.checked.digest
                );
                if rep.checked.problems.is_empty() {
                    reps.push(rep);
                } else {
                    failed += 1;
                    problems.extend(rep.checked.problems.iter().cloned());
                }
            }
            Err(payload) => {
                on.close_all();
                failed += 1;
                problems.push(format!(
                    "rep {} panicked: {}",
                    attempted - 1,
                    panic_message(&*payload)
                ));
            }
        }
        // Stop before a repetition would overrun `--seconds`; a traced train run
        // also keeps room for its probe, which costs about one repetition.
        let next = median(rep_walls.clone());
        let reserve = if probing { next } else { 0.0 };
        let done = attempted >= min_reps && (!args.trace || attempted.is_multiple_of(2));
        if done && started.elapsed().as_secs_f64() + next + reserve > args.seconds {
            break;
        }
    }

    // Output checks across repetitions: one digest, one set of counts.
    if let Some(first) = reps.first() {
        for rep in &reps[1..] {
            if rep.checked.digest != first.checked.digest {
                problems.push(format!(
                    "rep {} digest {:#018x} differs from rep {} digest {:#018x}",
                    rep.run_id, rep.checked.digest, first.run_id, first.checked.digest
                ));
            }
            if rep.checked.observed != first.checked.observed {
                problems.push(format!(
                    "rep {} counts differ from rep {}",
                    rep.run_id, first.run_id
                ));
            }
        }
        println!("digest {} {:#018x}", workload.name(), first.checked.digest);
        let o = &first.checked.observed;
        let show = |v: Option<f64>| v.map_or("n/a".to_string(), |s| format!("{s:.6} s"));
        println!(
            "sim: sim_iteration_s {}  sim_circuit_wait_s {}  sim_p99_request_s {}  sim_p99_samples {}",
            show(o.sim_iteration_s),
            show(o.sim_circuit_wait_s),
            show(o.sim_p99_request_s),
            o.sim_p99_samples
                .map_or("n/a".to_string(), |n| n.to_string())
        );
    }

    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let metrics = if args.trace {
        let probe = probing.then(|| {
            let out = catch_unwind(AssertUnwindSafe(|| {
                on.set_run(attempted);
                on.span("probe.opus_simulator", || {
                    workloads::train_probe(Sizes::FULL, true, args.seed)
                })
            }));
            match out {
                Ok(p) => {
                    if let Some(first) = reps.first() {
                        if first.checked.job_digest != Some(p.job_digest) {
                            problems.push(
                                "OpusSimulator probe disagrees with ScenarioSpec::run".to_string(),
                            );
                        }
                    }
                    Some(p)
                }
                Err(payload) => {
                    on.close_all();
                    problems.push(format!("probe panicked: {}", panic_message(&*payload)));
                    None
                }
            }
        });
        for rep in &traced {
            let layers: f64 = LAYER_SPANS.iter().map(|s| on.seconds(rep.run_id, s)).sum();
            let whole = on.seconds(rep.run_id, "setup") + on.seconds(rep.run_id, "run");
            if layers > whole {
                problems.push(format!(
                    "rep {}: layer spans {layers:.6} s exceed setup+run {whole:.6} s",
                    rep.run_id
                ));
            }
        }
        for note in unobserved_notes(workload) {
            println!("note: {note}");
        }
        if let Some(parent) = std::path::Path::new(&args.trace_out).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(&args.trace_out, on.chrome_json(workload.name())) {
            Ok(()) => println!("trace: {} spans -> {}", on.spans().len(), args.trace_out),
            Err(e) => eprintln!("e2ebench: could not write {}: {e}", args.trace_out),
        }
        if traced.is_empty() || untraced.is_empty() {
            Vec::new()
        } else {
            let overhead = median(traced.iter().map(|r| r.run_s).collect())
                - median(untraced.iter().map(|r| r.run_s).collect());
            per_layer_metrics(&traced, &on, overhead, probe.flatten())
        }
    } else if untraced.is_empty() {
        Vec::new()
    } else {
        vec![
            metric(
                "setup_s",
                median(untraced.iter().map(|r| r.setup_s).collect()),
                "s",
            ),
            metric(
                "run_s",
                median(untraced.iter().map(|r| r.run_s).collect()),
                "s",
            ),
            metric(
                "peak_rss_mib",
                median(untraced.iter().map(|r| r.peak_rss_mib).collect()),
                "MiB",
            ),
        ]
    };

    for p in &problems {
        println!("problem: {p}");
    }
    if metrics.is_empty() {
        eprintln!("e2ebench: no successful repetition to report");
        return ExitCode::FAILURE;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&args(
            "--workload serve-4k-mixed --seed 9 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, Workload::Serve);
        assert_eq!(a.seed, 9);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert_eq!(a.trace_out, "e2ebench/traces/serve-4k-mixed-seed9.json");
    }

    #[test]
    fn rejects_help_unknown_and_incomplete_command_lines() {
        for bad in [
            "--help",
            "--workload train-10k-steady --seed 1 --seconds 5 --trace 0 --bogus 1",
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload train-10k-steady --seconds 5 --trace 0",
            "--workload train-10k-steady --seed 1 --seconds 0 --trace 0",
            "--workload train-10k-steady --seed 1 --seconds 5 --trace 2",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
    }
}
