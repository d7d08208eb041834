//! Inference serving next to training: tenant-aware eviction on shared photonic
//! rails.
//!
//! One optical rail cluster (5 Perlmutter nodes, 25 ms OCS, on-demand circuits)
//! hosts two tenants: a Llama3-8B training job packed at GPU 0, and an elastic
//! inference deployment one node over. The shifted placement makes the serving
//! job's pipeline hops *conflict* with the trainer's rings — same rail ports,
//! different circuits — so every burst of requests contends for circuit setup.
//!
//! A seeded [`ArrivalProcess`] drives an open-loop burst timeline, and a
//! `JobGrow`/`JobShrink` pair resizes the active replica set mid-run. The same
//! scenario runs twice: under [`EvictionPolicy::Never`] (today's behaviour — the
//! trainer's long-lived circuit holds make the inference tenant queue behind
//! them) and under [`EvictionPolicy::FairShare`] (the tenant with the larger
//! accumulated circuit wait may evict the other's idle port holds). The example
//! prints each tenant's fairness metrics — evictions suffered/inflicted, share of
//! the total circuit wait, and the p99 request latency — side by side.
//!
//! ```sh
//! cargo run --release --example inference_serving
//! ```

use photonic_rails::prelude::*;
use std::sync::Arc;

fn run(eviction: EvictionPolicy) -> ScenarioResult {
    // 5 nodes = 20 GPUs: the 16-rank trainer at GPU 0, the 16-GPU serving
    // deployment at GPU 4. The one-node shift overlaps them on rails 0-3 with
    // *different* circuits per rail — the contention the eviction policy is for.
    let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 5).build();

    let model = ModelConfig::llama3_8b();
    let parallel = ParallelismConfig::paper_llama3_8b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    let train_dag = DagBuilder::new(model, parallel, compute).build();

    let mut config = OpusConfig::on_demand(SimDuration::from_millis(25));
    config.iterations = 4;
    config.compute_jitter = 0.0;
    config.seed = 1;
    config.eviction = eviction; // both tenants share one controller, so both agree

    // 2 replicas x (tensor 4 x pipeline 2) = 16 GPUs; one replica active at start.
    let inference = InferenceConfig::tiny_test(4, 2, 2);
    let serving = ServingSpec::for_inference(&inference, 1);
    let serve_dag = InferenceDagBuilder::new(inference, GpuSpec::a100()).build();

    // Open-loop arrivals: bursts of 1-6 requests, ~15 ms apart, for 150 ms.
    // Seeded, so the timeline is identical under both policies.
    let bursts = ArrivalProcess::new(11, SimDuration::from_millis(15), 6).bursts(
        JobId(1),
        SimTime::ZERO,
        SimTime::from_millis(150),
    );

    ScenarioSpec::new(cluster)
        .job(Arc::new(train_dag), config)
        .serving_job(Arc::new(serve_dag), config, JobPlacement::AtGpu(4), serving)
        .inject_all(bursts)
        .inject(
            SimTime::from_millis(40),
            ScenarioEvent::JobGrow { job: JobId(1) },
        )
        .inject(
            SimTime::from_millis(100),
            ScenarioEvent::JobShrink { job: JobId(1) },
        )
        .run()
}

fn print_tenants(result: &ScenarioResult) {
    for job in &result.jobs {
        let role = if job.requests_completed > 0 {
            "inference"
        } else {
            "training "
        };
        let p99 = job
            .p99_request_latency
            .map(|l| format!("{l}"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "  {role} {}: wait share {:.3} | evictions suffered {} / inflicted {} | requests {} | p99 {}",
            job.job,
            job.circuit_wait_share,
            job.evictions_suffered,
            job.evictions_inflicted,
            job.requests_completed,
            p99,
        );
    }
    if !result.fleet.circuits_evicted_by_rail.is_empty() {
        println!(
            "  circuits evicted by rail: {:?}",
            result.fleet.circuits_evicted_by_rail
        );
    }
    println!("  makespan: {}\n", result.fleet.makespan);
}

fn main() {
    println!("inference serving vs training on one optical rail cluster\n");

    println!("EvictionPolicy::Never (tenancy ledgers off; today's behaviour)");
    let never = run(EvictionPolicy::Never);
    print_tenants(&never);

    println!("EvictionPolicy::FairShare (larger accumulated wait may evict idle holds)");
    let fair = run(EvictionPolicy::FairShare);
    print_tenants(&fair);

    let p99_never = never.jobs[1].p99_request_latency.expect("serving tenant");
    let p99_fair = fair.jobs[1].p99_request_latency.expect("serving tenant");
    println!(
        "inference p99: {p99_never} under Never -> {p99_fair} under FairShare ({:.2}x)",
        p99_never.as_secs_f64() / p99_fair.as_secs_f64().max(1e-12)
    );
    println!("\nUnder Never the serving tenant queues behind the trainer's idle circuit");
    println!("holds on the shared rails; FairShare lets whichever tenant has waited");
    println!("longer claim the ports immediately, trading a handful of trainer circuit");
    println!("re-installs for a large cut in inference tail latency.");
}
