//! Per-layer probes. Each one times a public entry point of one crate from
//! outside and records the result under the metric name `BENCHMARK.json`
//! lists. Probes that can check a result do: a mismatch is recorded in
//! [`Probe::failures`] and makes the traced run incorrect.

use crate::stacks::{self, Model, Stack};
use crate::{median, median_time, now, quantile, timed};
use detrand::Philox;
use hwsim::{Device, ExecutionContext, ExecutionMode, OpClass};
use nnet::loss::softmax_cross_entropy;
use nnet::optim::{Sgd, SgdConfig};
use nnet::{Checkpoint, Network};
use noisescope::fleet::{encode_frame, Frame, FrameDecoder, ReplicaSpec};
use noisescope::prelude::*;
use noisescope::runner::{run_replica_with, ReplicaOptions, VariantRuns};
use nstensor::{
    conv2d_backward_ws, conv2d_forward_ws, matmul_ws, ConvGeometry, ReduceOrder, Reducer, Shape,
    Tensor, Workspace,
};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Batch size of the nn and conv probes: the training batch of every
/// workload's SmallCNN and MicroResNet18 cells.
const BATCH: usize = 32;

/// Repetitions of the whole-cell comparisons (resume and fleet), each
/// with fresh stores; the medians are reported.
const CELL_REPS: usize = 3;

/// The two reduction orders a V100 runs, by execution mode.
const ORDERS: [(&str, ExecutionMode); 2] = [
    ("fixed_tree", ExecutionMode::Deterministic),
    ("permuted", ExecutionMode::Default),
];

/// State shared by the probes of one traced run.
#[derive(Debug)]
pub struct Probe {
    /// The workload settings (`ExperimentSettings::from_env`).
    pub settings: ExperimentSettings,
    /// The `repro` executable, for fleet workers.
    pub repro: PathBuf,
    /// A directory the probes may fill with stores and cells.
    pub scratch: PathBuf,
    /// Everything measured so far.
    pub metrics: Metrics,
    /// Checks that failed.
    pub failures: Vec<String>,
}

fn labels(n: usize, classes: usize) -> Vec<u32> {
    (0..n).map(|i| (i % classes) as u32).collect()
}

fn exec_for(
    device: Device,
    mode: ExecutionMode,
    settings: &ExperimentSettings,
) -> ExecutionContext {
    ExecutionContext::builder(device)
        .mode(mode)
        .entropy(settings.entropy_for(0))
        .amp_ulps(settings.amp_ulps)
        .threads(settings.exec_threads)
        .build()
}

fn sgd() -> Sgd {
    Sgd::new(SgdConfig {
        momentum: 0.9,
        weight_decay: 1e-4,
    })
}

/// One optimizer step of a zoo network: forward, loss, backward, SGD.
fn train_step(
    net: &mut Network,
    opt: &mut Sgd,
    x: &Tensor,
    y: &[u32],
    exec: &mut ExecutionContext,
    root: &Philox,
    step: u64,
) {
    let logits = net.forward(x.clone(), exec, root, step, true);
    let (_, dl) = softmax_cross_entropy(&logits, y);
    net.backward(dl, exec);
    opt.step(net, 0.01);
}

fn same_bits(a: &VariantRuns, b: &VariantRuns) -> bool {
    let bits = |r: &VariantRuns| -> Vec<Vec<u32>> {
        r.weight_sets()
            .iter()
            .map(|w| w.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    a.statuses == b.statuses && bits(a) == bits(b)
}

fn fresh_dir(path: &Path) -> io::Result<()> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)
}

impl Probe {
    /// A probe set for one traced run.
    pub fn new(settings: ExperimentSettings, repro: PathBuf, scratch: PathBuf) -> Self {
        Self {
            settings,
            repro,
            scratch,
            metrics: Metrics::new(),
            failures: Vec::new(),
        }
    }

    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    fn seed(&self) -> u64 {
        self.settings.base_seed
    }

    /// `nsdata`, through `PreparedTask::prepare`.
    pub fn data(&mut self) {
        for (name, task) in [
            ("small_cnn_cifar10", TaskSpec::small_cnn_cifar10()),
            ("resnet18_cifar100", TaskSpec::resnet18_cifar100()),
        ] {
            let s = median_time(1, 7, || {
                std::hint::black_box(PreparedTask::prepare(&task));
            });
            self.put(format!("data.prepare_ms.{name}"), s * 1e3, "ms");
        }
    }

    /// `nstensor`: the blocked GEMM and the SmallCNN first-layer conv.
    pub fn tensor(&mut self) {
        let seed = self.seed();
        let a = stacks::filled(Shape::of(&[96, 96]), seed);
        let b = stacks::filled(Shape::of(&[96, 96]), seed ^ 1);
        for (name, order, reps) in [
            ("sequential", ReduceOrder::Sequential, 60),
            ("fixed_tree", ReduceOrder::FixedTree, 60),
            ("permuted", ReduceOrder::Permuted, 20),
        ] {
            let mut red = Reducer::new(order, 40, seed);
            let mut ws = Workspace::new();
            let s = median_time(3, reps, || {
                std::hint::black_box(matmul_ws(&a, &b, &mut red, 1, &mut ws).expect("96x96 GEMM"));
            });
            self.put(format!("tensor.gemm96.{name}.us"), s * 1e6, "us");
        }

        let geom = ConvGeometry::new(3, 16, 3, 1, 1, 12, 12);
        let lanes = Device::v100().lanes();
        let x = stacks::filled(Shape::of(&[BATCH, 3, 12, 12]), seed ^ 2);
        let w = stacks::filled(Shape::of(&[geom.out_c, geom.patch_len()]), seed ^ 3);
        let bias = stacks::filled(Shape::of(&[geom.out_c]), seed ^ 4);
        let dy = stacks::filled(Shape::of(&[BATCH, 16, 12, 12]), seed ^ 5);
        for (name, order) in [
            ("fixed_tree", ReduceOrder::FixedTree),
            ("permuted", ReduceOrder::Permuted),
        ] {
            let mut red = Reducer::new(order, lanes, seed);
            let mut ws = Workspace::new();
            let fwd = median_time(2, 15, || {
                std::hint::black_box(
                    conv2d_forward_ws(&x, &w, &bias, &geom, &mut red, 1, &mut ws)
                        .expect("conv forward"),
                );
            });
            let bwd = median_time(2, 15, || {
                std::hint::black_box(
                    conv2d_backward_ws(&x, &w, &dy, &geom, &mut red, 1, &mut ws)
                        .expect("conv backward"),
                );
            });
            self.put(
                format!("tensor.conv_fwd.small_cnn_l0.{name}.us"),
                fwd * 1e6,
                "us",
            );
            self.put(
                format!("tensor.conv_bwd.small_cnn_l0.{name}.us"),
                bwd * 1e6,
                "us",
            );
        }
    }

    /// `hwsim`: reducer invocations per training step, by op class, on a
    /// V100 in default (Permuted) mode. Two consecutive steps must count
    /// the same.
    pub fn reducer_calls(&mut self) {
        let seed = self.seed();
        for model in Model::ALL {
            let root = Philox::from_seed(seed);
            let mut net = model.network(&root);
            let mut opt = sgd();
            let mut exec = exec_for(Device::v100(), ExecutionMode::Default, &self.settings);
            let x = model.batch(BATCH, seed);
            let y = labels(BATCH, model.classes());
            let mut per_step = Vec::new();
            for step in 0..2 {
                let before: Vec<u64> = OpClass::ALL
                    .iter()
                    .map(|&c| exec.reducer(c).invocations())
                    .collect();
                train_step(&mut net, &mut opt, &x, &y, &mut exec, &root, step);
                let counts: Vec<u64> = OpClass::ALL
                    .iter()
                    .zip(&before)
                    .map(|(&c, b)| exec.reducer(c).invocations() - b)
                    .collect();
                per_step.push(counts);
            }
            if per_step[0] != per_step[1] {
                self.failures.push(format!(
                    "{}: reducer calls differ between two steps: {:?}",
                    model.name(),
                    per_step
                ));
            }
            for (class, n) in [
                "matmul_forward",
                "input_grad",
                "weight_grad",
                "statistics",
                "misc",
            ]
            .iter()
            .zip(&per_step[0])
            {
                let name = format!("hwsim.reducer_calls_per_step.{}.{class}", model.name());
                self.put(name, *n as f64, "count");
            }
        }
    }

    /// `nnet` layers: forward and backward of each probed layer, timed
    /// around `Layer::forward`/`Layer::backward` on the fidelity-checked
    /// stacks, under both V100 orders.
    pub fn nn_layers(&mut self) {
        let seed = self.seed();
        for model in Model::ALL {
            if let Err(e) = stacks::check_fidelity(model, seed) {
                self.failures.push(e);
            }
            for (order, mode) in ORDERS {
                let root = Philox::from_seed(seed);
                let mut stack = model.stack(&root);
                let mut exec = exec_for(Device::v100(), mode, &self.settings);
                let x = model.batch(BATCH, seed);
                let y = labels(BATCH, model.classes());
                let (fwd, bwd) = time_layers(&mut stack, &x, &y, &mut exec, &root, 2, 9);
                for &(idx, layer) in model.probed_layers() {
                    let base = format!("nn.{}.{layer}.{order}", model.name());
                    self.put(format!("{base}.fwd_us"), fwd[idx] * 1e6, "us");
                    self.put(format!("{base}.bwd_us"), bwd[idx] * 1e6, "us");
                }
            }
        }
    }

    /// `nnet` training: one whole optimizer step on each device class the
    /// workloads use, and the SGD update alone.
    pub fn nn_train_step(&mut self) {
        let seed = self.seed();
        for model in Model::ALL {
            let x = model.batch(BATCH, seed);
            let y = labels(BATCH, model.classes());
            for (name, device, mode) in [
                ("cpu", Device::cpu(), ExecutionMode::Default),
                ("v100_det", Device::v100(), ExecutionMode::Deterministic),
                ("v100_default", Device::v100(), ExecutionMode::Default),
                ("tpu", Device::tpu_v2(), ExecutionMode::Default),
            ] {
                let root = Philox::from_seed(seed);
                let mut net = model.network(&root);
                let mut opt = sgd();
                let mut exec = exec_for(device, mode, &self.settings);
                let mut step = 0u64;
                let s = median_time(2, 9, || {
                    train_step(&mut net, &mut opt, &x, &y, &mut exec, &root, step);
                    step += 1;
                });
                self.put(
                    format!("nn.train_step_ms.{}.{name}", model.name()),
                    s * 1e3,
                    "ms",
                );
            }
            let root = Philox::from_seed(seed);
            let mut net = model.network(&root);
            let mut opt = sgd();
            let mut exec = exec_for(Device::v100(), ExecutionMode::Deterministic, &self.settings);
            train_step(&mut net, &mut opt, &x, &y, &mut exec, &root, 0);
            let s = median_time(3, 41, || {
                std::hint::black_box(opt.step(&mut net, 0.01));
            });
            self.put(format!("nn.sgd_step_us.{}", model.name()), s * 1e6, "us");
        }
    }

    /// Trains one replica of a cell with a progress hook at every step.
    /// Returns the replica's wall time, its step-to-step intervals and its
    /// first epoch checkpoint.
    fn traced_replica(
        &mut self,
        prepared: &PreparedTask,
        device: &Device,
        variant: NoiseVariant,
        replica: u32,
    ) -> (f64, Vec<f64>, Option<Checkpoint>) {
        let mut marks = Vec::new();
        let mut first_ckpt = None;
        let mut progress = |_: u64| marks.push(now());
        let mut sink = |c: &Checkpoint| {
            if first_ckpt.is_none() {
                first_ckpt = Some(c.clone());
            }
        };
        let (outcome, wall) = timed(|| {
            run_replica_with(
                prepared,
                device,
                variant,
                &self.settings,
                replica,
                ReplicaOptions {
                    checkpoint_every_epochs: 1,
                    sink: Some(&mut sink),
                    progress_every_steps: 1,
                    progress: Some(&mut progress),
                    ..ReplicaOptions::default()
                },
            )
        });
        if let Err(e) = outcome {
            self.failures.push(format!(
                "{} {variant:?} replica {replica}: {e}",
                prepared.spec.name
            ));
        }
        let steps = marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        (wall, steps, first_ckpt)
    }

    /// `noisescope::runner`: every replica of one IMPL and one ALGO cell
    /// of the workload's first task, with per-step intervals. The replica
    /// time is the median over the cell's replicas.
    fn runner(
        &mut self,
        workload: &str,
        prepared: &PreparedTask,
        device: &Device,
    ) -> Option<Checkpoint> {
        let mut steps = Vec::new();
        let mut ckpt = None;
        for (name, variant) in [("impl", NoiseVariant::Impl), ("algo", NoiseVariant::Algo)] {
            let mut walls = Vec::new();
            for replica in 0..self.settings.replicas {
                let (wall, mut s, c) = self.traced_replica(prepared, device, variant, replica);
                walls.push(wall);
                steps.append(&mut s);
                ckpt = ckpt.or(c);
            }
            self.put(
                format!("runner.replica_s.{workload}.{name}"),
                median(&mut walls),
                "s",
            );
        }
        if steps.is_empty() {
            self.failures
                .push(format!("{workload}: no step intervals recorded"));
            return ckpt;
        }
        let n = steps.len() as f64;
        self.put(format!("runner.step_samples.{workload}"), n, "count");
        self.put(
            format!("runner.step_ms.{workload}.p50"),
            median(&mut steps) * 1e3,
            "ms",
        );
        self.put(
            format!("runner.step_ms.{workload}.p90"),
            quantile(&mut steps, 0.9) * 1e3,
            "ms",
        );
        ckpt
    }

    /// `nnet::checkpoint`: encode and decode of a real MicroResNet18
    /// epoch checkpoint; the decode must round-trip.
    fn checkpoint(&mut self, ckpt: &Checkpoint) {
        let bytes = ckpt.to_bytes();
        let enc = median_time(3, 31, || {
            std::hint::black_box(ckpt.to_bytes());
        });
        let dec = median_time(3, 31, || {
            std::hint::black_box(Checkpoint::from_bytes(&bytes).expect("round trip"));
        });
        if Checkpoint::from_bytes(&bytes).as_ref() != Ok(ckpt) {
            self.failures.push("checkpoint does not round-trip".into());
        }
        self.put("nn.checkpoint_encode_us.micro_resnet18", enc * 1e6, "us");
        self.put("nn.checkpoint_decode_us.micro_resnet18", dec * 1e6, "us");
        self.put(
            "nn.checkpoint_bytes.micro_resnet18",
            bytes.len() as f64,
            "bytes",
        );
    }

    /// `noisescope::resume` on the first fig2 cell: cold overhead over
    /// the plain in-process runner, and harvest of the completed cell.
    /// Medians of [`CELL_REPS`] repetitions, each with a fresh store.
    fn resume_fig2(&mut self, prepared: &PreparedTask) -> io::Result<()> {
        let (device, variant) = (Device::v100(), NoiseVariant::AlgoImpl);
        let (mut plain_s, mut cold_s, mut warm_s) = (Vec::new(), Vec::new(), Vec::new());
        for rep in 0..CELL_REPS {
            let root = self.scratch.join(format!("resume-fig2-{rep}"));
            let store = CheckpointStore::for_settings(root, &self.settings);
            let (plain, p) = timed(|| run_variant(prepared, &device, variant, &self.settings));
            let (cold, c) = timed(|| {
                run_variant_resumable(prepared, &device, variant, &self.settings, &store, 1)
            });
            let (warm, w) = timed(|| {
                run_variant_resumable(prepared, &device, variant, &self.settings, &store, 1)
            });
            let (cold, warm) = (cold?, warm?);
            if !same_bits(&plain, &cold) || !same_bits(&cold, &warm) {
                self.failures.push(
                    "fig2 cell: resumable or harvested replicas differ from in-process".into(),
                );
            }
            plain_s.push(p);
            cold_s.push(c);
            warm_s.push(w);
        }
        let plain = median(&mut plain_s);
        self.put(
            "resume.cold_overhead_pct.fig2-quick",
            (median(&mut cold_s) - plain) / plain * 100.0,
            "%",
        );
        self.put(
            "resume.harvest_ms.fig2-quick",
            median(&mut warm_s) * 1e3,
            "ms",
        );
        Ok(())
    }

    /// `noisescope::fleet` on the first fig5 cell: dispatch cost per
    /// replica over the in-process resumable runner, plus harvest.
    /// Medians of [`CELL_REPS`] repetitions, each with fresh stores.
    fn fleet_fig5(&mut self, prepared: &PreparedTask) -> io::Result<()> {
        let (device, variant) = (Device::p100(), NoiseVariant::AlgoImpl);
        let opts = FleetOptions {
            procs: 2,
            worker_exe: Some(self.repro.clone()),
            ..FleetOptions::default()
        };
        let (mut local_s, mut fleet_s, mut warm_s) = (Vec::new(), Vec::new(), Vec::new());
        for rep in 0..CELL_REPS {
            let store = |name: &str| {
                let root = self.scratch.join(format!("fleet-{name}-{rep}"));
                CheckpointStore::for_settings(root, &self.settings)
            };
            let (local, remote) = (store("local"), store("remote"));
            let (inproc, l) = timed(|| {
                run_variant_resumable(prepared, &device, variant, &self.settings, &local, 1)
            });
            let (fleet, f) = timed(|| {
                run_variant_fleet(
                    prepared,
                    &device,
                    variant,
                    &self.settings,
                    &remote,
                    1,
                    &opts,
                )
            });
            let (warm, w) = timed(|| {
                run_variant_resumable(prepared, &device, variant, &self.settings, &local, 1)
            });
            let (inproc, fleet, warm) = (inproc?, fleet?, warm?);
            if !same_bits(&inproc, &fleet) || !same_bits(&inproc, &warm) {
                self.failures
                    .push("fig5 cell: fleet or harvested replicas differ from in-process".into());
            }
            local_s.push(l);
            fleet_s.push(f);
            warm_s.push(w);
        }
        let per_replica =
            (median(&mut fleet_s) - median(&mut local_s)) / self.settings.replicas as f64;
        self.put(
            "fleet.dispatch_ms_per_replica.fig5-fleet",
            per_replica * 1e3,
            "ms",
        );
        self.put(
            "resume.harvest_ms.fig5-fleet",
            median(&mut warm_s) * 1e3,
            "ms",
        );
        Ok(())
    }

    /// Drives one `repro --worker` process through the frame protocol.
    /// With `to_end` it reads until the result frame; otherwise it kills
    /// the worker after the first frame.
    fn drive_worker(&self, spec: &ReplicaSpec, to_end: bool) -> io::Result<WorkerRun> {
        fresh_dir(&spec.cell_dir)?;
        let t = now();
        let mut child = Command::new(&self.repro)
            .arg("--worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdin = child.stdin.take().expect("stdin is piped");
        let mut stdout = child.stdout.take().expect("stdout is piped");
        let sent = stdin.write_all(&encode_frame(&Frame::Spec(Box::new(spec.clone()))));
        drop(stdin);
        let mut run = WorkerRun::default();
        let mut dec = FrameDecoder::new();
        let mut buf = vec![0u8; 1 << 16];
        let mut done = sent.is_err();
        while !done {
            let n = stdout.read(&mut buf)?;
            if n == 0 {
                break;
            }
            run.bytes += n as u64;
            dec.push(&buf[..n]);
            while let Some(frame) = dec.next_frame() {
                run.frames += 1;
                run.first_frame_s.get_or_insert(t.elapsed().as_secs_f64());
                match frame {
                    Frame::Result(_) => run.result = true,
                    Frame::Fault(f) => run.fault = Some(f.reason),
                    _ => {}
                }
            }
            done = run.result || run.fault.is_some() || (!to_end && run.frames > 0);
        }
        if !run.result {
            child.kill().ok();
        }
        child.wait()?;
        sent?;
        if let Some(reason) = run.fault.take() {
            return Err(io::Error::other(reason));
        }
        run.skipped = dec.skipped();
        Ok(run)
    }

    /// The fleet wire protocol, driven directly: first-frame latency over
    /// five spawns and the exact IPC volume of one whole replica.
    fn fleet_wire(&mut self, prepared: &PreparedTask) -> io::Result<()> {
        let mut spec = ReplicaSpec {
            task: prepared.spec.clone(),
            device_name: Device::p100().name().to_string(),
            variant: NoiseVariant::AlgoImpl,
            settings: self.settings,
            replica: 0,
            attempt: 0,
            cell_dir: self.scratch.join("wire"),
            checkpoint_every_epochs: 1,
        };
        let mut first = Vec::new();
        let mut full = Vec::new();
        for i in 0..5 {
            spec.cell_dir = self.scratch.join(format!("wire-{i}"));
            let run = self.drive_worker(&spec, i < 2)?;
            first.push(run.first_frame_s.unwrap_or(f64::NAN));
            if i < 2 {
                full.push(run);
            }
        }
        if full.iter().any(|r| !r.result) || full[0].counts() != full[1].counts() {
            self.failures
                .push("fleet wire: two runs of one replica framed different bytes".into());
        }
        if first.iter().any(|v| v.is_nan()) {
            self.failures
                .push("fleet wire: a worker sent no frame".into());
            return Ok(());
        }
        self.put("fleet.first_frame_ms.p50", median(&mut first) * 1e3, "ms");
        self.put("fleet.ipc_bytes_per_replica", full[0].bytes as f64, "bytes");
        self.put("fleet.frames_per_replica", full[0].frames as f64, "count");
        self.put(
            "fleet.decoder_skipped_bytes",
            full[0].skipped as f64,
            "bytes",
        );
        Ok(())
    }

    /// The runner, checkpoint, resume and fleet probes, on the first
    /// cells of fig2-quick and fig5-fleet.
    pub fn cells(&mut self) -> io::Result<()> {
        let fig2 = PreparedTask::prepare(&TaskSpec::small_cnn_cifar10());
        let fig5 = PreparedTask::prepare(&TaskSpec::resnet18_cifar100());
        self.runner("fig2-quick", &fig2, &Device::v100());
        match self.runner("fig5-fleet", &fig5, &Device::p100()) {
            Some(c) => self.checkpoint(&c),
            None => self
                .failures
                .push("fig5 replica emitted no checkpoint".into()),
        }
        self.resume_fig2(&fig2)?;
        self.fleet_fig5(&fig5)?;
        self.fleet_wire(&fig5)
    }
}

/// What one directly driven worker sent.
#[derive(Debug, Default)]
struct WorkerRun {
    first_frame_s: Option<f64>,
    bytes: u64,
    frames: u64,
    skipped: u64,
    result: bool,
    fault: Option<String>,
}

impl WorkerRun {
    fn counts(&self) -> (u64, u64, u64) {
        (self.bytes, self.frames, self.skipped)
    }
}

/// Median forward and backward time of every layer of `stack`, in
/// seconds, over `reps` training-mode passes after `warmup` passes.
fn time_layers(
    stack: &mut Stack,
    x: &Tensor,
    y: &[u32],
    exec: &mut ExecutionContext,
    root: &Philox,
    warmup: usize,
    reps: usize,
) -> (Vec<f64>, Vec<f64>) {
    let n = stack.len();
    let mut fwd = vec![Vec::new(); n];
    let mut bwd = vec![Vec::new(); n];
    for rep in 0..warmup + reps {
        let mut h = x.clone();
        for (i, layer) in stack.iter_mut().enumerate() {
            let t = now();
            h = layer.forward(h, exec, root, rep as u64, true);
            fwd[i].push(t.elapsed().as_secs_f64());
        }
        let (_, mut g) = softmax_cross_entropy(&h, y);
        for (i, layer) in stack.iter_mut().enumerate().rev() {
            let t = now();
            g = layer.backward(g, exec);
            bwd[i].push(t.elapsed().as_secs_f64());
        }
    }
    let med = |v: &mut Vec<f64>| median(&mut v[warmup..]);
    (
        fwd.iter_mut().map(med).collect(),
        bwd.iter_mut().map(med).collect(),
    )
}
