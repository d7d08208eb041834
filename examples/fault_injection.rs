//! Fault injection: what a mid-iteration rail failure costs on electrical vs photonic
//! rails.
//!
//! One Llama3-8B training job runs three iterations; a `RailDown` → `RailUp` pulse
//! knocks rail 0 out for half an iteration, a quarter of the way into iteration 1.
//! The example prints the per-iteration inflation against a clean run of the same
//! policy: the electrical fabric only waits out the outage, while the photonic fabric
//! additionally pays a fresh circuit install for every group the failure tore down.
//! A third run flips the photonic fabric to `RecoveryPolicy::Replan`, which
//! re-stripes the dead rail's circuits onto the surviving rails instead of stalling.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use photonic_rails::prelude::*;
use std::sync::Arc;

fn build_dag() -> TrainingDag {
    let model = ModelConfig::llama3_8b();
    let parallel = ParallelismConfig::paper_llama3_8b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    DagBuilder::new(model, parallel, compute).build()
}

fn cluster() -> Cluster {
    ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build()
}

fn main() {
    let replanned = {
        let mut config = OpusConfig::provisioned(SimDuration::from_millis(25));
        config.recovery_policy = RecoveryPolicy::Replan;
        config
    };
    let policies = [
        ("electrical rail switches", OpusConfig::electrical()),
        (
            "photonic rails, 25 ms OCS, provisioned",
            OpusConfig::provisioned(SimDuration::from_millis(25)),
        ),
        ("photonic rails, 25 ms OCS, provisioned + replan", replanned),
    ];

    println!("fault injection: RailDown(rail0) pulse during iteration 1, 3-iteration job\n");
    for (name, config) in policies {
        let mut config = config;
        config.iterations = 3;
        config.compute_jitter = 0.0;
        config.seed = 7;

        // Clean reference run.
        let clean = ScenarioSpec::new(cluster())
            .job(Arc::new(build_dag()), config)
            .run()
            .jobs
            .remove(0)
            .result;

        // Place the pulse relative to the clean run's own timeline: down a quarter
        // into iteration 1, back up half an iteration later.
        let t1 = clean.iterations[1].started_at;
        let dur = clean.iterations[1].iteration_time;
        let down = t1 + dur.mul_f64(0.25);
        let up = down + dur.mul_f64(0.5);

        let faulted = ScenarioSpec::new(cluster())
            .job(Arc::new(build_dag()), config)
            .inject(down, ScenarioEvent::RailDown(RailId(0)))
            .inject(up, ScenarioEvent::RailUp(RailId(0)))
            .run();
        let fleet = &faulted.fleet;
        let job = &faulted.jobs[0];
        let faulted = &job.result;

        println!("{name}");
        println!(
            "  outage: {down} -> {up} ({} down)",
            up.duration_since(down)
        );
        for (clean_it, fault_it) in clean.iterations.iter().zip(faulted.iterations.iter()) {
            let inflation =
                fault_it.iteration_time.as_secs_f64() / clean_it.iteration_time.as_secs_f64();
            println!(
                "  iteration {}: clean {} | faulted {} | x{:.3}{}",
                clean_it.iteration,
                clean_it.iteration_time,
                fault_it.iteration_time,
                inflation,
                if inflation > 1.001 { "  <- outage" } else { "" },
            );
        }
        println!(
            "  extra circuit wait (iter 1)  : {}",
            fault_it_wait(faulted, 1).saturating_sub(fault_it_wait(&clean, 1))
        );
        println!(
            "  rail 0 failures / downtime   : {} / {}",
            fleet.rail_failures[0], fleet.rail_downtime[0]
        );
        println!(
            "  reconfigs clean vs faulted   : {} vs {}",
            clean.total_reconfigs(),
            faulted.total_reconfigs()
        );
        if job.replan_reconfigs > 0 {
            println!(
                "  replan swaps / degraded time : {} / {}",
                job.replan_reconfigs, job.time_under_degraded_plan
            );
        }
        println!();
    }

    println!("The photonic fabric loses its circuits with the rail and reinstalls them on");
    println!("recovery; with provisioning, everything outside the outage window stays hidden.");
    println!("Under RecoveryPolicy::Replan the job never waits for the rail at all: it");
    println!("re-stripes the lost circuits onto surviving rails and swaps back on RailUp.");
}

fn fault_it_wait(result: &SimulationResult, iteration: usize) -> SimDuration {
    result.iterations[iteration].total_circuit_wait
}
