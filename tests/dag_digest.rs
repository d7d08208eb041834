//! DAG digest pins: the training-DAG builder must produce the same tasks, in the same
//! order, with the same dependencies and labels, for every parallelism branch it has.
//!
//! Each pin is an FNV-1a hash over the tasks in id order (id, kind, label string,
//! participant ranks, dependencies in order, micro-batch, layer) followed by the
//! communication groups (task kinds and group axes enter through their `Debug` text).
//! The scenario seed pins only see a DAG through the simulated
//! output of the shapes they run; these pins see every task of every DAG shape,
//! including the branches the scaled DAG never reaches (expert parallelism, context
//! parallelism, plain-DP AllReduce, the GPipe schedule).
//!
//! The 10k-GPU pin is `#[ignore]`d (release-mode CI runs it explicitly; a debug build
//! of a 900k-task DAG is needlessly slow for the default suite).

use photonic_rails::prelude::*;

/// Streaming FNV-1a over length-prefixed fields.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    fn opt(&mut self, v: Option<u32>) {
        match v {
            Some(v) => {
                self.bytes(&[1]);
                self.u32(v);
            }
            None => self.bytes(&[0]),
        }
    }

    fn ranks(&mut self, ranks: &[GpuId]) {
        self.u32(ranks.len() as u32);
        for r in ranks {
            self.u32(r.0);
        }
    }
}

fn dag_digest(dag: &TrainingDag) -> u64 {
    let mut h = Fnv::new();
    h.u32(dag.len() as u32);
    for task in &dag.tasks {
        h.u32(task.id.0);
        h.str(&format!("{:?}", task.kind));
        h.str(task.label_str());
        h.ranks(task.ranks());
        h.u32(task.deps.len() as u32);
        for dep in &task.deps {
            h.u32(dep.0);
        }
        h.opt(task.microbatch);
        h.opt(task.layer);
    }
    h.u32(dag.groups.len() as u32);
    for group in dag.groups.values() {
        h.u32(group.id.0);
        h.str(&format!("{:?}", group.axis));
        h.ranks(&group.ranks);
    }
    h.0
}

/// No task depends on itself or names the same dependency twice.
fn assert_deps_distinct(dag: &TrainingDag) {
    let mut seen = vec![u32::MAX; dag.len()];
    for task in &dag.tasks {
        for dep in &task.deps {
            assert_ne!(*dep, task.id, "task {} depends on itself", task.label);
            assert_ne!(
                seen[dep.0 as usize], task.id.0,
                "task {} lists dependency {} twice",
                task.label, dep.0
            );
            seen[dep.0 as usize] = task.id.0;
        }
    }
}

fn build(model: ModelConfig, parallel: ParallelismConfig, gpu: GpuSpec) -> TrainingDag {
    let compute = ComputeModel::derive(&model, &parallel, &gpu);
    DagBuilder::new(model, parallel, compute).build()
}

/// The paper's Llama3-8B testbed DAG: PP2 / DP2 (FSDP) / TP4.
fn paper_dag() -> TrainingDag {
    build(
        ModelConfig::llama3_8b(),
        ParallelismConfig::paper_llama3_8b(),
        GpuSpec::a100(),
    )
}

/// Mixtral under TP2 / EP2 / FSDP2: the expert-parallel AllToAll branch.
fn moe_dag() -> TrainingDag {
    let parallel = ParallelismConfig {
        tensor: 2,
        sequence_parallel: false,
        context: 1,
        expert: 2,
        data: 2,
        data_kind: DataParallelKind::FullySharded,
        pipeline: 1,
        num_microbatches: 1,
        microbatch_size: 1,
        seq_len: 2048,
    };
    build(ModelConfig::mixtral_8x7b(), parallel, GpuSpec::a100())
}

/// The paper testbed with context parallelism 2: the CP KV-AllGather branch.
fn context_dag() -> TrainingDag {
    let parallel = ParallelismConfig {
        context: 2,
        ..ParallelismConfig::paper_llama3_8b()
    };
    build(ModelConfig::tiny_test(), parallel, GpuSpec::a100())
}

/// Plain data parallelism over 4 ranks: the DP AllReduce branch.
fn data_only_dag() -> TrainingDag {
    build(
        ModelConfig::tiny_test(),
        ParallelismConfig::data_only(4),
        GpuSpec::a100(),
    )
}

/// PP2 / TP2 with four micro-batches under the GPipe schedule.
fn gpipe_dag() -> TrainingDag {
    let model = ModelConfig::tiny_test();
    let parallel = ParallelismConfig {
        pipeline: 2,
        data: 1,
        tensor: 2,
        num_microbatches: 4,
        ..ParallelismConfig::paper_llama3_8b()
    };
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    DagBuilder::new(model, parallel, compute)
        .with_schedule(PipelineSchedule::GPipe)
        .build()
}

/// The TP8/PP8/FSDP Llama3-8B DAG of a `num_gpus`-GPU job (a multiple of 64), as
/// the datacenter-scale runs build it.
fn scaled_dag(num_gpus: u32) -> TrainingDag {
    let parallel = ParallelismConfig {
        tensor: 8,
        sequence_parallel: true,
        context: 1,
        expert: 1,
        data: num_gpus / 64,
        data_kind: DataParallelKind::FullySharded,
        pipeline: 8,
        num_microbatches: 8,
        microbatch_size: 1,
        seq_len: 8192,
    };
    build(ModelConfig::llama3_8b(), parallel, GpuSpec::h200())
}

fn assert_pinned(name: &str, dag: &TrainingDag, pin: u64) {
    let digest = dag_digest(dag);
    assert_eq!(
        digest, pin,
        "{name} DAG digest diverged from the captured pin: got {digest:#018x}"
    );
}

#[test]
fn paper_dag_is_pinned() {
    assert_pinned("paper Llama3-8B", &paper_dag(), 0x72f2d3baecfd2bdb);
}

#[test]
fn moe_dag_is_pinned() {
    assert_pinned("Mixtral EP", &moe_dag(), 0x843b8c12f3b55c6f);
}

#[test]
fn context_parallel_dag_is_pinned() {
    assert_pinned("context-parallel", &context_dag(), 0x2b0bc9bfc977447c);
}

#[test]
fn data_only_dag_is_pinned() {
    assert_pinned("data-only", &data_only_dag(), 0x014213cf1001c9c5);
}

#[test]
fn gpipe_dag_is_pinned() {
    assert_pinned("GPipe", &gpipe_dag(), 0xeca8845e4b990a7d);
}

#[test]
fn scaled_dag_1k_is_pinned() {
    assert_pinned("1k-GPU scaled", &scaled_dag(1024), 0x51beba131a668818);
}

#[test]
#[ignore = "900k-task build; release-mode CI runs it"]
fn scaled_dag_10k_is_pinned() {
    let dag = scaled_dag(10240);
    assert_deps_distinct(&dag);
    assert_pinned("10k-GPU scaled", &dag, 0x6ffcca8b2afcd72a);
}

#[test]
fn no_task_repeats_a_dependency_or_depends_on_itself() {
    for dag in [
        paper_dag(),
        moe_dag(),
        context_dag(),
        data_only_dag(),
        gpipe_dag(),
        scaled_dag(1024),
    ] {
        assert_deps_distinct(&dag);
    }
}
