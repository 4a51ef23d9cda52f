//! Process-isolated fleet execution: a supervised worker pool that runs
//! each replica in its own OS process, bit-for-bit identical to the
//! in-process [`crate::runner::run_variant`].
//!
//! The in-process supervisor recovers from everything `catch_unwind` can
//! catch — but a wedged kernel ([`hwsim::FaultKind::Hang`]) stalls the
//! thread forever, and a driver-level `abort`
//! ([`hwsim::FaultKind::Abort`]) takes the whole experiment down. Real
//! training fleets face both, so this module adds the missing isolation
//! boundary:
//!
//! - **Workers** are re-executions of the `repro` binary in a hidden
//!   `--worker` mode ([`worker_main`]). Each worker runs exactly one
//!   `(replica, attempt)`, reads its [`ReplicaSpec`] from stdin and
//!   writes [`Heartbeat`] / result / [`WorkerFault`] frames to stdout.
//! - **The supervisor** is the one replica engine,
//!   [`crate::runner::run_grid`] on [`Executor::Processes`]: its pool
//!   (one for the whole grid) and retry loop are shared with the
//!   in-process executors, and only the attempt differs. `run_attempt` spawns a worker, watches it
//!   with a heartbeat watchdog plus an absolute wall-clock deadline,
//!   kills a stalled worker, and classifies how it ended (clean exit /
//!   graceful fault / panic exit code / signal / timeout). Retries back
//!   off deterministically (`backoff_ms`).
//! - **Durability** reuses [`crate::resume::CheckpointStore`] cells
//!   verbatim: workers sink epoch checkpoints to the cell directory, so
//!   a killed worker's retry resumes from the last durable checkpoint
//!   instead of retraining from scratch; the supervisor is the single
//!   writer of result and status files.
//!
//! **Bit-identity.** A replica is a pure function of `(task, device,
//! variant, settings, replica)`; the IPC layer ships results with the
//! byte-exact result codec of [`crate::resume`] (floats as `to_bits`), and
//! supervision knobs (`worker_timeout_ms`, `heartbeat_every_steps`,
//! process count) shape only *when* workers are killed, never *what* a
//! replica computes. A fleet run — even one whose workers were killed
//! and re-dispatched — therefore reproduces the in-process fleet
//! bit-for-bit. The fleet end-to-end tests and the CI golden comparison
//! assert exactly this.
//!
//! Wire format (all integers little-endian):
//!
//! ```text
//! frame  := magic:u32 version:u32 len:u32 payload[len]
//! payload:= tag:u8 body
//! tags   : 1 spec, 2 heartbeat, 3 result, 4 fault
//! ```
//!
//! The decoder treats anything malformed — bad magic, unknown version,
//! oversized length, undecodable payload — as corruption and resynchronizes
//! by scanning forward one byte at a time, so a torn or garbled stream
//! degrades into skipped bytes, never a wedged supervisor.

use crate::resume::{self, CheckpointStore};
use crate::runner::{
    run_cell, run_replica_with, Attempt, Executor, Failure, PreparedTask, ReplicaOptions,
    ReplicaResult, VariantRuns,
};
use crate::settings::ExperimentSettings;
use crate::task::{DataSource, ModelKind, TaskSpec};
use crate::variant::NoiseVariant;
use hwsim::{ChaosConfig, Device};
use nnet::checkpoint::Checkpoint;
use nnet::codec::{Dec, Enc};
use nnet::schedule::LrSchedule;
use nnet::trainer::TrainConfig;
use std::ffi::OsString;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic prefix of every IPC frame ("NSFL").
pub const FRAME_MAGIC: u32 = 0x4E53_464C;
/// Wire-protocol version; a mismatch is treated as corruption.
pub const PROTOCOL_VERSION: u32 = 2;
/// Upper bound on a frame payload. A length above this is corruption
/// (a real result frame is a few hundred KiB), and capping it keeps a
/// garbled length field from triggering a giant allocation.
pub const MAX_FRAME_LEN: u32 = 256 << 20;

const TAG_SPEC: u8 = 1;
const TAG_HEARTBEAT: u8 = 2;
const TAG_RESULT: u8 = 3;
const TAG_FAULT: u8 = 4;

/// Supervisor event-loop poll interval.
const POLL: Duration = Duration::from_millis(25);
/// After a worker exits, how long the supervisor waits for in-flight
/// frames when the pipe has not reached EOF (an orphaned grandchild can
/// hold it open indefinitely).
const DRAIN_GRACE: Duration = Duration::from_millis(500);
/// The absolute per-attempt deadline is the watchdog window times this
/// factor — a backstop against a worker that heartbeats forever without
/// ever finishing.
const HARD_DEADLINE_FACTOR: u32 = 60;
/// First retry backoff; doubles per retry up to [`BACKOFF_CAP_MS`].
const BACKOFF_BASE_MS: u64 = 50;
/// Retry backoff ceiling.
const BACKOFF_CAP_MS: u64 = 2000;

/// Monotonic-clock shim for supervision deadlines.
///
/// Reading the wall clock in result-producing code is exactly what
/// detlint's DL003 exists to catch, but a watchdog cannot exist without
/// a clock. This module is the one sanctioned source of time in the
/// fleet layer: deadlines and stall detection only — nothing read here
/// ever feeds a replica result, a report, or any other experiment
/// artifact. Raw `Instant::now()` anywhere else in this file still
/// trips DL003 (asserted by a fixture test).
pub mod clock {
    use std::time::Instant;

    /// The current monotonic instant, for supervision deadlines only.
    pub fn now() -> Instant {
        // detlint::allow(DL003, reason = "watchdog deadlines only; never feeds replica results or reports")
        Instant::now()
    }
}

// ---------------------------------------------------------------------------
// Frame types
// ---------------------------------------------------------------------------

/// Everything a worker process needs to run one `(replica, attempt)`,
/// shipped supervisor → worker as the first (and only) stdin frame.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// The task to train.
    pub task: TaskSpec,
    /// Preset device name (see [`device_by_name`]); fleet mode does not
    /// support custom devices because [`Device`] holds a `&'static str`.
    pub device_name: String,
    /// The noise variant.
    pub variant: NoiseVariant,
    /// Full experiment settings (the worker derives every seed from
    /// these plus the replica index, exactly like the in-process path).
    pub settings: ExperimentSettings,
    /// Replica index.
    pub replica: u32,
    /// Which retry this is (0 = first execution); selects the chaos
    /// fault schedule.
    pub attempt: u32,
    /// The [`CheckpointStore`] cell directory: the worker loads/saves
    /// its durable epoch checkpoints here. Must be valid UTF-8 (checked
    /// by the supervisor before dispatch).
    pub cell_dir: PathBuf,
    /// Sink an epoch checkpoint every N completed epochs (0 disables).
    pub checkpoint_every_epochs: u32,
}

impl ReplicaSpec {
    /// Resolves the spec's device preset.
    pub fn device(&self) -> Option<Device> {
        device_by_name(&self.device_name)
    }
}

/// Worker liveness proof, emitted every
/// [`ExperimentSettings::heartbeat_every_steps`] optimizer steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// Replica index.
    pub replica: u32,
    /// Attempt number.
    pub attempt: u32,
    /// Global optimizer step reached.
    pub step: u64,
}

/// A structured training failure the worker survived long enough to
/// report (launch failure, divergence, ...). The graceful sibling of a
/// crash: the worker still exits 0 after delivering this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFault {
    /// Replica index.
    pub replica: u32,
    /// Attempt number.
    pub attempt: u32,
    /// Rendered [`nnet::trainer::TrainError`].
    pub reason: String,
}

/// One IPC frame.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Supervisor → worker: the work order.
    Spec(Box<ReplicaSpec>),
    /// Worker → supervisor: liveness.
    Heartbeat(Heartbeat),
    /// Worker → supervisor: the finished replica (byte-exact floats, the
    /// same codec [`crate::resume`] persists).
    Result(Box<ReplicaResult>),
    /// Worker → supervisor: a graceful training failure.
    Fault(WorkerFault),
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn bad(detail: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("fleet frame: {detail}"))
}

fn enc_model(e: &mut Enc, m: &ModelKind) {
    match *m {
        ModelKind::SmallCnn { with_bn } => {
            e.u8(0);
            e.flag(with_bn);
        }
        ModelKind::SmallCnnDropout { rate } => {
            e.u8(1);
            e.f32(rate);
        }
        ModelKind::MicroResNet18 => e.u8(2),
        ModelKind::MicroResNet50 => e.u8(3),
        ModelKind::LeNet5 => e.u8(5),
        // Tags 4 and 6 named retired models; they stay unassigned.
    }
}

fn dec_model(d: &mut Dec<'_>) -> io::Result<ModelKind> {
    Ok(match d.u8()? {
        0 => ModelKind::SmallCnn { with_bn: d.flag()? },
        1 => ModelKind::SmallCnnDropout { rate: d.f32()? },
        2 => ModelKind::MicroResNet18,
        3 => ModelKind::MicroResNet50,
        5 => ModelKind::LeNet5,
        t => return Err(bad(&format!("unknown model tag {t}"))),
    })
}

fn enc_data(e: &mut Enc, data: &DataSource) {
    match data {
        DataSource::Gaussian(g) => {
            e.u8(0);
            e.size(g.classes);
            e.size(g.superclasses);
            e.size(g.hw);
            e.size(g.channels);
            e.size(g.train_per_class);
            e.size(g.test_per_class);
            e.f32(g.class_sep);
            e.f32(g.super_sep);
            e.f32(g.noise_std);
            e.f32(g.label_noise);
            e.u64(g.seed);
        }
        DataSource::Celeba(c) => {
            e.u8(1);
            e.size(c.train_len);
            e.size(c.test_len);
            e.size(c.hw);
            e.size(c.channels);
            e.f32(c.signal);
            e.f32(c.noise_std);
            e.u64(c.seed);
        }
    }
}

fn dec_data(d: &mut Dec<'_>) -> io::Result<DataSource> {
    Ok(match d.u8()? {
        0 => DataSource::Gaussian(nsdata::GaussianSpec {
            classes: d.size()?,
            superclasses: d.size()?,
            hw: d.size()?,
            channels: d.size()?,
            train_per_class: d.size()?,
            test_per_class: d.size()?,
            class_sep: d.f32()?,
            super_sep: d.f32()?,
            noise_std: d.f32()?,
            label_noise: d.f32()?,
            seed: d.u64()?,
        }),
        1 => DataSource::Celeba(nsdata::CelebaSpec {
            train_len: d.size()?,
            test_len: d.size()?,
            hw: d.size()?,
            channels: d.size()?,
            signal: d.f32()?,
            noise_std: d.f32()?,
            seed: d.u64()?,
        }),
        t => return Err(bad(&format!("unknown data tag {t}"))),
    })
}

fn enc_schedule(e: &mut Enc, s: &LrSchedule) {
    match *s {
        LrSchedule::Constant { lr } => {
            e.u8(0);
            e.f32(lr);
        }
        LrSchedule::StepDecay {
            base_lr,
            factor,
            every,
        } => {
            e.u8(1);
            e.f32(base_lr);
            e.f32(factor);
            e.u32(every);
        }
        LrSchedule::WarmupCosine {
            base_lr,
            warmup_epochs,
            total_epochs,
        } => {
            e.u8(2);
            e.f32(base_lr);
            e.u32(warmup_epochs);
            e.u32(total_epochs);
        }
    }
}

fn dec_schedule(d: &mut Dec<'_>) -> io::Result<LrSchedule> {
    Ok(match d.u8()? {
        0 => LrSchedule::Constant { lr: d.f32()? },
        1 => LrSchedule::StepDecay {
            base_lr: d.f32()?,
            factor: d.f32()?,
            every: d.u32()?,
        },
        2 => LrSchedule::WarmupCosine {
            base_lr: d.f32()?,
            warmup_epochs: d.u32()?,
            total_epochs: d.u32()?,
        },
        t => return Err(bad(&format!("unknown schedule tag {t}"))),
    })
}

fn enc_train(e: &mut Enc, t: &TrainConfig) {
    e.u32(t.epochs);
    e.size(t.batch_size);
    enc_schedule(e, &t.schedule);
    e.f32(t.sgd.momentum);
    e.f32(t.sgd.weight_decay);
    e.size(t.data_parallel_workers);
}

fn dec_train(d: &mut Dec<'_>) -> io::Result<TrainConfig> {
    Ok(TrainConfig {
        epochs: d.u32()?,
        batch_size: d.size()?,
        schedule: dec_schedule(d)?,
        sgd: nnet::optim::SgdConfig {
            momentum: d.f32()?,
            weight_decay: d.f32()?,
        },
        data_parallel_workers: d.size()?,
    })
}

fn enc_settings(e: &mut Enc, s: &ExperimentSettings) {
    e.u32(s.replicas);
    e.u64(s.base_seed);
    e.u64(s.entropy_salt);
    e.f32(s.amp_ulps);
    e.f32(s.epochs_scale);
    e.size(s.exec_threads);
    e.u32(s.retry_budget);
    match &s.chaos {
        Some(c) => {
            e.u8(1);
            e.u64(c.seed);
            e.u32(c.launch_failures);
            e.u32(c.kernel_panics);
            e.u32(c.nan_poisons);
            e.u32(c.hangs);
            e.u32(c.aborts);
            e.u32(c.hang_ms);
            e.flag(c.persistent);
        }
        None => e.u8(0),
    }
    e.u64(s.worker_timeout_ms);
    e.u32(s.heartbeat_every_steps);
}

fn dec_settings(d: &mut Dec<'_>) -> io::Result<ExperimentSettings> {
    Ok(ExperimentSettings {
        replicas: d.u32()?,
        base_seed: d.u64()?,
        entropy_salt: d.u64()?,
        amp_ulps: d.f32()?,
        epochs_scale: d.f32()?,
        exec_threads: d.size()?,
        retry_budget: d.u32()?,
        chaos: if d.flag()? {
            Some(ChaosConfig {
                seed: d.u64()?,
                launch_failures: d.u32()?,
                kernel_panics: d.u32()?,
                nan_poisons: d.u32()?,
                hangs: d.u32()?,
                aborts: d.u32()?,
                hang_ms: d.u32()?,
                persistent: d.flag()?,
            })
        } else {
            None
        },
        worker_timeout_ms: d.u64()?,
        heartbeat_every_steps: d.u32()?,
    })
}

fn enc_variant(e: &mut Enc, v: NoiseVariant) {
    e.u8(match v {
        NoiseVariant::AlgoImpl => 0,
        NoiseVariant::Algo => 1,
        NoiseVariant::Impl => 2,
        NoiseVariant::Control => 3,
        NoiseVariant::InitOnly => 4,
        NoiseVariant::ShuffleOnly => 5,
        NoiseVariant::AugmentOnly => 6,
        NoiseVariant::DropoutOnly => 7,
    });
}

fn dec_variant(d: &mut Dec<'_>) -> io::Result<NoiseVariant> {
    Ok(match d.u8()? {
        0 => NoiseVariant::AlgoImpl,
        1 => NoiseVariant::Algo,
        2 => NoiseVariant::Impl,
        3 => NoiseVariant::Control,
        4 => NoiseVariant::InitOnly,
        5 => NoiseVariant::ShuffleOnly,
        6 => NoiseVariant::AugmentOnly,
        7 => NoiseVariant::DropoutOnly,
        t => return Err(bad(&format!("unknown variant tag {t}"))),
    })
}

fn enc_spec(e: &mut Enc, s: &ReplicaSpec) {
    e.str(&s.task.name);
    enc_model(e, &s.task.model);
    enc_data(e, &s.task.data);
    enc_train(e, &s.task.train);
    e.flag(s.task.augment);
    e.str(&s.device_name);
    enc_variant(e, s.variant);
    enc_settings(e, &s.settings);
    e.u32(s.replica);
    e.u32(s.attempt);
    // Checked UTF-8 before dispatch; a lossy fallback here can only hit
    // paths the supervisor already rejected.
    e.str(&s.cell_dir.to_string_lossy());
    e.u32(s.checkpoint_every_epochs);
}

fn dec_spec(d: &mut Dec<'_>) -> io::Result<ReplicaSpec> {
    Ok(ReplicaSpec {
        task: TaskSpec {
            name: d.str()?,
            model: dec_model(d)?,
            data: dec_data(d)?,
            train: dec_train(d)?,
            augment: d.flag()?,
        },
        device_name: d.str()?,
        variant: dec_variant(d)?,
        settings: dec_settings(d)?,
        replica: d.u32()?,
        attempt: d.u32()?,
        cell_dir: PathBuf::from(d.str()?),
        checkpoint_every_epochs: d.u32()?,
    })
}

fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut e = Enc::default();
    match frame {
        Frame::Spec(s) => {
            e.u8(TAG_SPEC);
            enc_spec(&mut e, s);
        }
        Frame::Heartbeat(h) => {
            e.u8(TAG_HEARTBEAT);
            e.u32(h.replica);
            e.u32(h.attempt);
            e.u64(h.step);
        }
        Frame::Result(r) => {
            e.u8(TAG_RESULT);
            // The byte-exact result codec shared with the checkpoint
            // store: what crosses the pipe is what lands on disk.
            e.bytes(&resume::encode_result(r));
        }
        Frame::Fault(f) => {
            e.u8(TAG_FAULT);
            e.u32(f.replica);
            e.u32(f.attempt);
            e.str(&f.reason);
        }
    }
    e.into_bytes()
}

fn decode_payload(payload: &[u8]) -> io::Result<Frame> {
    let mut d = Dec::new(payload);
    let frame = match d.u8()? {
        TAG_SPEC => Frame::Spec(Box::new(dec_spec(&mut d)?)),
        TAG_HEARTBEAT => Frame::Heartbeat(Heartbeat {
            replica: d.u32()?,
            attempt: d.u32()?,
            step: d.u64()?,
        }),
        TAG_RESULT => {
            // `decode_result` enforces its own trailing-bytes check.
            return Ok(Frame::Result(Box::new(resume::decode_result(
                &payload[1..],
            )?)));
        }
        TAG_FAULT => Frame::Fault(WorkerFault {
            replica: d.u32()?,
            attempt: d.u32()?,
            reason: d.str()?,
        }),
        t => return Err(bad(&format!("unknown frame tag {t}"))),
    };
    d.finish()?;
    Ok(frame)
}

/// Encodes one length-prefixed frame (header + payload).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = encode_payload(frame);
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))?;
    w.flush()
}

/// Incremental frame decoder over an arbitrarily-chunked byte stream.
///
/// Feed bytes with [`FrameDecoder::push`]; drain complete frames with
/// [`FrameDecoder::next_frame`]. Corruption — bad magic, wrong version,
/// an oversized length, an undecodable payload — is never fatal: the
/// decoder advances one byte and rescans for the next plausible header,
/// counting what it discarded in [`FrameDecoder::skipped`]. A partial
/// frame simply waits for more bytes.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    skipped: u64,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes discarded while resynchronizing past corruption.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// The next complete frame, or `None` until more bytes arrive.
    pub fn next_frame(&mut self) -> Option<Frame> {
        loop {
            let rem = &self.buf[self.pos..];
            if rem.len() < 12 {
                self.compact();
                return None;
            }
            let magic = u32::from_le_bytes(rem[0..4].try_into().expect("4 bytes"));
            let version = u32::from_le_bytes(rem[4..8].try_into().expect("4 bytes"));
            let len = u32::from_le_bytes(rem[8..12].try_into().expect("4 bytes"));
            if magic != FRAME_MAGIC || version != PROTOCOL_VERSION || len > MAX_FRAME_LEN {
                self.pos += 1;
                self.skipped += 1;
                continue;
            }
            let total = 12 + len as usize;
            if rem.len() < total {
                self.compact();
                return None;
            }
            match decode_payload(&rem[12..total]) {
                Ok(frame) => {
                    self.pos += total;
                    self.compact();
                    return Some(frame);
                }
                Err(_) => {
                    // A header-shaped prefix over garbage; a true frame
                    // may start inside it, so advance one byte, not
                    // `total`.
                    self.pos += 1;
                    self.skipped += 1;
                }
            }
        }
    }

    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Resolves a [`Device`] preset by its display name. Fleet IPC encodes
/// devices by name because [`Device`] holds a `&'static str`; custom
/// devices are therefore unsupported in fleet mode (the supervisor
/// rejects them before dispatch).
pub fn device_by_name(name: &str) -> Option<Device> {
    Some(match name {
        "P100" => Device::p100(),
        "V100" => Device::v100(),
        "RTX5000" => Device::rtx5000(),
        "RTX5000-TC" => Device::rtx5000_tensor_cores(),
        "T4" => Device::t4(),
        "TPUv2" => Device::tpu_v2(),
        "CPU" => Device::cpu(),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Entry point of the hidden `--worker` mode of the `repro` binary: runs
/// exactly one `(replica, attempt)` from a [`ReplicaSpec`] frame on
/// stdin and reports over stdout. Returns the process exit code.
///
/// Exit codes: `0` — protocol complete (a result *or* a graceful
/// [`WorkerFault`] was delivered); `2` — the worker could not even start
/// (no spec, invalid spec, unknown device). Training panics are *not*
/// caught: the process dies with the standard panic exit code (101) or a
/// signal, and the supervisor classifies that from the outside — that
/// asymmetry is the entire point of process isolation.
pub fn worker_main() -> i32 {
    match worker_run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("fleet worker: {e}");
            2
        }
    }
}

fn worker_run() -> io::Result<()> {
    let spec = read_spec_from_stdin()?;
    spec.settings
        .validate_for(&spec.task)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let device = spec
        .device()
        .ok_or_else(|| bad(&format!("unknown device preset {:?}", spec.device_name)))?;
    let prepared = PreparedTask::prepare(&spec.task);

    // Resume from the cell's durable checkpoint if one survived a prior
    // (killed) attempt.
    let ckpt = resume::ckpt_path(&spec.cell_dir, spec.replica);
    let resume_from = resume::resume_point(&spec.cell_dir, spec.replica);

    let stdout = io::stdout();
    let (replica, attempt) = (spec.replica, spec.attempt);
    // If the supervisor disappears mid-run its pipe breaks; stop
    // emitting instead of erroring out — the watchdog (or init) reaps us.
    let mut pipe_dead = false;
    let mut heartbeat = |step: u64| {
        if !pipe_dead {
            let hb = Frame::Heartbeat(Heartbeat {
                replica,
                attempt,
                step,
            });
            pipe_dead = write_frame(&mut stdout.lock(), &hb).is_err();
        }
    };
    // Checkpoint saves are best-effort: a failed save costs a retry its
    // resume point, never the attempt itself.
    let mut sink = |c: &Checkpoint| {
        c.save(&ckpt).ok();
    };

    let outcome = run_replica_with(
        &prepared,
        &device,
        spec.variant,
        &spec.settings,
        replica,
        ReplicaOptions {
            attempt,
            resume: resume_from.as_ref(),
            checkpoint_every_epochs: spec.checkpoint_every_epochs,
            sink: Some(&mut sink),
            progress_every_steps: spec.settings.heartbeat_every_steps,
            progress: Some(&mut heartbeat),
        },
    );
    let frame = match outcome {
        Ok(result) => Frame::Result(Box::new(result)),
        Err(err) => Frame::Fault(WorkerFault {
            replica,
            attempt,
            reason: err.to_string(),
        }),
    };
    write_frame(&mut stdout.lock(), &frame)
}

fn read_spec_from_stdin() -> io::Result<ReplicaSpec> {
    let mut stdin = io::stdin().lock();
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 8192];
    loop {
        if let Some(frame) = dec.next_frame() {
            match frame {
                Frame::Spec(s) => return Ok(*s),
                other => return Err(bad(&format!("expected a spec frame first, got {other:?}"))),
            }
        }
        let n = stdin.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "fleet worker: stdin closed before a spec frame arrived",
            ));
        }
        dec.push(&buf[..n]);
    }
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

/// Fleet-dispatch knobs.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Maximum concurrent worker processes (0 = host parallelism).
    pub procs: usize,
    /// Worker executable; `None` re-executes the current binary
    /// (`std::env::current_exe`), which is how the `repro` binary
    /// self-dispatches.
    pub worker_exe: Option<PathBuf>,
    /// Arguments handed to the worker executable.
    pub worker_args: Vec<OsString>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            procs: 0,
            worker_exe: None,
            worker_args: vec![OsString::from("--worker")],
        }
    }
}

/// Kills and reaps the child on every exit path — early `?` returns and
/// panics included — so the supervisor can never leak a zombie or leave
/// an orphan training replica burning CPU.
struct Reaper(std::process::Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Deterministic capped exponential backoff before retry `attempt` (≥ 1):
/// 50 ms, 100 ms, 200 ms, ... capped at 2 s. Deterministic because
/// retries must be as replayable as everything else here.
pub(crate) fn backoff_ms(attempt: u32) -> u64 {
    (BACKOFF_BASE_MS << (attempt - 1).min(16)).min(BACKOFF_CAP_MS)
}

/// Checks that a cell can run in worker processes and resolves the worker
/// executable. The device must be a preset and the cell directory UTF-8,
/// because a [`ReplicaSpec`] ships both as strings.
pub(crate) fn worker_exe(device: &Device, dir: &Path, opts: &FleetOptions) -> io::Result<PathBuf> {
    if device_by_name(device.name()).is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "device {:?} is not a preset; fleet mode ships devices by name",
                device.name()
            ),
        ));
    }
    if dir.to_str().is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "fleet mode requires a UTF-8 checkpoint-store path",
        ));
    }
    match &opts.worker_exe {
        Some(p) => Ok(p.clone()),
        None => std::env::current_exe(),
    }
}

/// Spawns one worker process for `spec`, feeds it the spec frame, and
/// supervises it to an [`Attempt`]: frames reset the watchdog, a silent
/// worker or one past the absolute deadline is killed, and an exited
/// worker is classified from its frames and exit status.
pub(crate) fn run_attempt(
    worker_exe: &Path,
    worker_args: &[OsString],
    spec: &ReplicaSpec,
) -> io::Result<Attempt> {
    use std::process::{Command, Stdio};
    use std::sync::mpsc;

    let child = Command::new(worker_exe)
        .args(worker_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut child = Reaper(child);

    // Feed the work order and close stdin. A write failure means the
    // child died on arrival; the event loop classifies that.
    if let Some(mut stdin) = child.0.stdin.take() {
        let _ = stdin.write_all(&encode_frame(&Frame::Spec(Box::new(spec.clone()))));
        let _ = stdin.flush();
    }

    // The reader thread is *detached*, never joined: a misbehaving worker
    // can leave a grandchild holding the stdout pipe open long after the
    // worker itself is dead, and a join would block on that stranger's
    // lifetime. The thread exits on its own at pipe EOF or on the first
    // send after `rx` is dropped.
    let mut child_out = child.0.stdout.take().expect("stdout piped");
    let (tx, rx) = mpsc::channel::<Frame>();
    let _reader = std::thread::spawn(move || {
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 8192];
        loop {
            match child_out.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(n) => {
                    dec.push(&buf[..n]);
                    while let Some(frame) = dec.next_frame() {
                        if tx.send(frame).is_err() {
                            return;
                        }
                    }
                }
            }
        }
    });

    let timeout = Duration::from_millis(spec.settings.worker_timeout_ms);
    let deadline = timeout.saturating_mul(HARD_DEADLINE_FACTOR);
    let start = clock::now();
    let mut last_frame = start;
    let mut result: Option<ReplicaResult> = None;
    let mut fault: Option<String> = None;
    let note = |frame: Frame, result: &mut Option<ReplicaResult>, fault: &mut Option<String>| {
        match frame {
            Frame::Heartbeat(_) => {}
            Frame::Result(r) => *result = Some(*r),
            Frame::Fault(f) => *fault = Some(f.reason),
            // A worker has no business sending a spec; ignore.
            Frame::Spec(_) => {}
        }
    };

    let exited = loop {
        match rx.recv_timeout(POLL) {
            Ok(frame) => {
                last_frame = clock::now();
                note(frame, &mut result, &mut fault);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // Reader hit EOF: the child closed stdout and is exiting (or
            // dead). recv returns instantly now, so pace the loop.
            Err(mpsc::RecvTimeoutError::Disconnected) => std::thread::sleep(POLL),
        }
        if let Some(status) = child.0.try_wait()? {
            break Some(status);
        }
        let now = clock::now();
        if now.duration_since(last_frame) >= timeout || now.duration_since(start) >= deadline {
            break None;
        }
    };

    let Some(status) = exited else {
        // Watchdog fired: kill and reap the worker.
        drop(child);
        return Ok(Err(Failure::TimedOut));
    };
    // The pipe may still hold frames the event loop never saw (e.g. the
    // result of a worker that finished between polls). The worker flushed
    // before exiting, so they arrive promptly; the grace window only
    // matters when an orphaned grandchild keeps the pipe from EOF.
    let grace = clock::now();
    loop {
        match rx.recv_timeout(POLL) {
            Ok(frame) => note(frame, &mut result, &mut fault),
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if clock::now().duration_since(grace) >= DRAIN_GRACE {
                    break;
                }
            }
        }
    }
    drop(child);

    Ok(if let Some(reason) = fault {
        Err(Failure::Faulted(reason))
    } else if status.success() {
        match result {
            Some(r) if r.replica == spec.replica => Ok(r),
            Some(r) => Err(Failure::Crashed(format!(
                "protocol violation: result for replica {} on replica {}'s pipe",
                r.replica, spec.replica
            ))),
            None => Err(Failure::Crashed(
                "exited cleanly without a result frame".into(),
            )),
        }
    } else if let Some(code) = status.code() {
        Err(Failure::Crashed(format!("exit code {code}")))
    } else {
        Err(classify_signal(&status))
    })
}

#[cfg(unix)]
fn classify_signal(status: &std::process::ExitStatus) -> Failure {
    use std::os::unix::process::ExitStatusExt;
    match status.signal() {
        Some(sig) => Failure::Crashed(format!("signal {sig}")),
        None => Failure::Crashed("killed by unknown cause".into()),
    }
}

#[cfg(not(unix))]
fn classify_signal(_status: &std::process::ExitStatus) -> Failure {
    Failure::Crashed("killed by unknown cause".into())
}

/// [`run_cell`] on [`Executor::Processes`]: each pending replica runs in
/// its own worker process under a heartbeat watchdog, so hangs and
/// process-fatal faults (aborts, signals) degrade into supervised retries
/// instead of a wedged or dead experiment. Progress lives in the same
/// [`CheckpointStore`] cells as [`Executor::Durable`] runs, which are
/// interchangeable and bit-identical.
///
/// # Errors
///
/// As [`run_cell`]. Worker deaths are *not* errors: they degrade into
/// [`crate::runner::ReplicaStatus`] entries.
pub fn run_variant_fleet(
    prepared: &PreparedTask,
    device: &Device,
    variant: NoiseVariant,
    settings: &ExperimentSettings,
    store: &CheckpointStore,
    checkpoint_every_epochs: u32,
    opts: &FleetOptions,
) -> io::Result<VariantRuns> {
    run_cell(
        prepared,
        device,
        variant,
        settings,
        &Executor::Processes {
            store: store.clone(),
            checkpoint_every_epochs,
            fleet: opts.clone(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Preds, ReplicaStatus};
    use detrand::SplitMix64;
    use proptest::prelude::*;

    fn sample_spec() -> ReplicaSpec {
        ReplicaSpec {
            task: TaskSpec::small_cnn_cifar10(),
            device_name: "V100".into(),
            variant: NoiseVariant::Impl,
            settings: ExperimentSettings {
                chaos: Some(ChaosConfig::parse("7:1,0,2,1,1@250!").expect("chaos parses")),
                ..ExperimentSettings::default()
            },
            replica: 3,
            attempt: 1,
            cell_dir: PathBuf::from("/tmp/ns-cell"),
            checkpoint_every_epochs: 2,
        }
    }

    fn assert_spec_round_trips(spec: &ReplicaSpec) {
        let bytes = encode_frame(&Frame::Spec(Box::new(spec.clone())));
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        let Some(Frame::Spec(back)) = dec.next_frame() else {
            panic!("spec frame did not decode");
        };
        assert_eq!(back.task.name, spec.task.name);
        assert_eq!(back.task.model, spec.task.model);
        assert_eq!(back.task.data, spec.task.data);
        assert_eq!(back.task.train, spec.task.train);
        assert_eq!(back.task.augment, spec.task.augment);
        assert_eq!(back.device_name, spec.device_name);
        assert_eq!(back.variant, spec.variant);
        assert_eq!(back.settings, spec.settings);
        assert_eq!(back.replica, spec.replica);
        assert_eq!(back.attempt, spec.attempt);
        assert_eq!(back.cell_dir, spec.cell_dir);
        assert_eq!(back.checkpoint_every_epochs, spec.checkpoint_every_epochs);
        assert_eq!(dec.skipped(), 0);
    }

    #[test]
    fn spec_frames_round_trip() {
        assert_spec_round_trips(&sample_spec());
        // Every preset task exercises a different codec path (models,
        // schedules, data sources), and every variant its own tag.
        let tasks = [
            TaskSpec::small_cnn_bn_cifar10(),
            TaskSpec::resnet18_cifar100(),
            TaskSpec::resnet50_imagenet(),
            TaskSpec::celeba(),
        ];
        let variants = [
            NoiseVariant::AlgoImpl,
            NoiseVariant::Algo,
            NoiseVariant::Impl,
            NoiseVariant::Control,
            NoiseVariant::InitOnly,
            NoiseVariant::ShuffleOnly,
            NoiseVariant::AugmentOnly,
            NoiseVariant::DropoutOnly,
        ];
        for (task, variant) in tasks.into_iter().cycle().zip(variants) {
            let mut spec = sample_spec();
            spec.task = task;
            spec.variant = variant;
            spec.settings.chaos = None;
            assert_spec_round_trips(&spec);
        }
        // Every model kind, walked through an exhaustive `match`: a new
        // kind does not compile here until it joins the chain.
        let mut model = Some(ModelKind::SmallCnn { with_bn: false });
        while let Some(m) = model {
            let mut spec = sample_spec();
            spec.task.model = m;
            assert_spec_round_trips(&spec);
            model = match m {
                ModelKind::SmallCnn { with_bn: false } => {
                    Some(ModelKind::SmallCnn { with_bn: true })
                }
                ModelKind::SmallCnn { with_bn: true } => {
                    Some(ModelKind::SmallCnnDropout { rate: 0.25 })
                }
                ModelKind::SmallCnnDropout { .. } => Some(ModelKind::MicroResNet18),
                ModelKind::MicroResNet18 => Some(ModelKind::MicroResNet50),
                ModelKind::MicroResNet50 => Some(ModelKind::LeNet5),
                ModelKind::LeNet5 => None,
            };
        }
    }

    /// A spec frame naming a retired model tag (4: bottleneck ResNet,
    /// 6: medium CNN with its filter size) decodes to no frame: its bytes
    /// are skipped, and the next frame in the stream still arrives.
    #[test]
    fn retired_model_tags_are_skipped() {
        let mut spec = sample_spec();
        spec.task.model = ModelKind::MicroResNet18;
        let bytes = encode_frame(&Frame::Spec(Box::new(spec.clone())));
        // Header (12 bytes), frame tag, then the task name's length and bytes.
        let at = 12 + 1 + 8 + spec.task.name.len();
        assert_eq!(bytes[at], 2, "MicroResNet18's model tag");
        let hb = encode_frame(&Frame::Heartbeat(Heartbeat {
            replica: 0,
            attempt: 0,
            step: 1,
        }));
        for retired in [vec![4u8], [&[6u8][..], &3u64.to_le_bytes()].concat()] {
            let mut frame = bytes[..at].to_vec();
            frame.extend_from_slice(&retired);
            frame.extend_from_slice(&bytes[at + 1..]);
            let len = (frame.len() - 12) as u32;
            frame[8..12].copy_from_slice(&len.to_le_bytes());
            let mut dec = FrameDecoder::new();
            dec.push(&frame);
            dec.push(&hb);
            assert!(
                matches!(dec.next_frame(), Some(Frame::Heartbeat(h)) if h.step == 1),
                "tag {}: the retired spec must be skipped",
                retired[0]
            );
            assert_eq!(dec.skipped(), frame.len() as u64, "tag {}", retired[0]);
            assert!(dec.next_frame().is_none());
        }
    }

    #[test]
    fn heartbeat_fault_and_result_frames_round_trip() {
        let mut dec = FrameDecoder::new();
        let hb = Heartbeat {
            replica: 5,
            attempt: 2,
            step: 1 << 40,
        };
        dec.push(&encode_frame(&Frame::Heartbeat(hb)));
        assert!(matches!(dec.next_frame(), Some(Frame::Heartbeat(h)) if h == hb));

        let fault = WorkerFault {
            replica: 1,
            attempt: 0,
            reason: "kernel launch failure at step 12".into(),
        };
        dec.push(&encode_frame(&Frame::Fault(fault.clone())));
        assert!(matches!(dec.next_frame(), Some(Frame::Fault(f)) if f == fault));

        let result = ReplicaResult {
            replica: 9,
            accuracy: 0.71,
            preds: Preds::Classes(vec![1, 2, 0]),
            weights: vec![0.5, -1.25e-30, f32::MIN_POSITIVE],
            final_train_loss: 0.03,
        };
        dec.push(&encode_frame(&Frame::Result(Box::new(result.clone()))));
        let Some(Frame::Result(back)) = dec.next_frame() else {
            panic!("result frame did not decode");
        };
        assert_eq!(back.replica, result.replica);
        assert_eq!(back.accuracy.to_bits(), result.accuracy.to_bits());
        assert_eq!(back.preds, result.preds);
        let bits = |ws: &[f32]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.weights), bits(&result.weights));
        assert_eq!(dec.skipped(), 0);
    }

    #[test]
    fn decoder_reassembles_byte_by_byte() {
        let frames = [
            encode_frame(&Frame::Heartbeat(Heartbeat {
                replica: 0,
                attempt: 0,
                step: 4,
            })),
            encode_frame(&Frame::Fault(WorkerFault {
                replica: 0,
                attempt: 0,
                reason: "x".into(),
            })),
        ];
        let mut dec = FrameDecoder::new();
        let mut got = 0;
        for byte in frames.iter().flatten() {
            dec.push(&[*byte]);
            while dec.next_frame().is_some() {
                got += 1;
            }
        }
        assert_eq!(got, 2);
        assert_eq!(dec.skipped(), 0);
    }

    #[test]
    fn decoder_resyncs_past_garbage_and_corrupt_headers() {
        let hb = encode_frame(&Frame::Heartbeat(Heartbeat {
            replica: 7,
            attempt: 1,
            step: 99,
        }));
        let mut stream = b"not a frame at all".to_vec();
        // A plausible header whose length field is absurd: must be
        // skipped, not allocated or waited for.
        stream.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        stream.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        // A real header over a garbage payload (bad tag).
        stream.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        stream.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        stream.extend_from_slice(&2u32.to_le_bytes());
        stream.extend_from_slice(&[0xEE, 0xEE]);
        // A wrong-version frame.
        stream.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        stream.extend_from_slice(&99u32.to_le_bytes());
        stream.extend_from_slice(&0u32.to_le_bytes());
        stream.extend_from_slice(&hb);
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        let Some(Frame::Heartbeat(h)) = dec.next_frame() else {
            panic!("heartbeat not recovered after garbage");
        };
        assert_eq!(h.step, 99);
        assert!(dec.skipped() > 0, "corruption must be counted");
        assert!(dec.next_frame().is_none());
    }

    /// Every truncation of each valid frame, and every single-byte
    /// overwrite from a fixed SplitMix64 sequence, either yields no frame
    /// or a frame that re-encodes to exactly those bytes.
    #[test]
    fn mangled_frames_never_decode_to_a_different_encoding() {
        let frames = [
            Frame::Spec(Box::new(sample_spec())),
            Frame::Heartbeat(Heartbeat {
                replica: 1,
                attempt: 2,
                step: 3,
            }),
            Frame::Result(Box::new(ReplicaResult {
                replica: 4,
                accuracy: 0.5,
                preds: Preds::Binary(vec![1, 0, 1]),
                weights: vec![0.25, -1.0],
                final_train_loss: 0.125,
            })),
            Frame::Fault(WorkerFault {
                replica: 5,
                attempt: 0,
                reason: "injected".into(),
            }),
        ];
        let mut rng = SplitMix64::new(0x5EED);
        for frame in &frames {
            let bytes = encode_frame(frame);
            let mut cases: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
            for i in 0..bytes.len() {
                for _ in 0..4 {
                    let mut m = bytes.clone();
                    m[i] = rng.next_u64() as u8;
                    cases.push(m);
                }
            }
            for m in cases {
                let mut dec = FrameDecoder::new();
                dec.push(&m);
                if let Some(back) = dec.next_frame() {
                    assert_eq!(encode_frame(&back), m);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn frame_stream_survives_torn_buffers(
            beats in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u64>()), 1..6),
            garbage in proptest::collection::vec(any::<u8>(), 0..40),
            chunk in 1usize..17,
        ) {
            // Garbage may not contain a frame-magic prefix byte sequence;
            // with 40 arbitrary bytes the odds of a full valid frame are
            // nil, but scrub magic bytes anyway to keep the property exact.
            let mut garbage = garbage;
            for b in &mut garbage {
                if *b == (FRAME_MAGIC & 0xFF) as u8 {
                    *b = 0;
                }
            }
            let mut stream = garbage.clone();
            let mut want = Vec::new();
            for (replica, attempt, step) in beats {
                let hb = Heartbeat { replica, attempt, step };
                want.push(hb);
                stream.extend_from_slice(&encode_frame(&Frame::Heartbeat(hb)));
            }
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                dec.push(piece);
                while let Some(frame) = dec.next_frame() {
                    match frame {
                        Frame::Heartbeat(h) => got.push(h),
                        other => prop_assert!(false, "unexpected frame {other:?}"),
                    }
                }
            }
            prop_assert_eq!(got, want);
            prop_assert_eq!(dec.skipped(), garbage.len() as u64);
        }
    }

    #[test]
    fn device_names_cover_every_preset() {
        for d in [
            Device::p100(),
            Device::v100(),
            Device::rtx5000(),
            Device::rtx5000_tensor_cores(),
            Device::t4(),
            Device::tpu_v2(),
            Device::cpu(),
        ] {
            let back = device_by_name(d.name())
                .unwrap_or_else(|| panic!("preset {:?} must resolve", d.name()));
            assert_eq!(back.name(), d.name());
        }
        assert!(device_by_name("H100").is_none());
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        assert_eq!(backoff_ms(1), 50);
        assert_eq!(backoff_ms(2), 100);
        assert_eq!(backoff_ms(3), 200);
        assert_eq!(backoff_ms(10), BACKOFF_CAP_MS);
        assert_eq!(backoff_ms(u32::MAX), BACKOFF_CAP_MS);
    }

    // -- supervision paths that need no real worker binary: fake workers
    //    built from /bin/sh exercise classification and the watchdog. --

    fn tiny_task() -> TaskSpec {
        let mut t = TaskSpec::small_cnn_cifar10();
        t.data = DataSource::Gaussian(nsdata::GaussianSpec {
            classes: 2,
            train_per_class: 4,
            test_per_class: 2,
            ..nsdata::GaussianSpec::cifar10_sim()
        });
        t.train.epochs = 1;
        t.augment = false;
        t
    }

    struct Scratch(CheckpointStore);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("noisescope-fleet-{tag}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            Scratch(CheckpointStore::new(dir))
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_dir_all(self.0.root()).ok();
        }
    }

    #[cfg(unix)]
    fn sh_fleet(script: &str) -> FleetOptions {
        FleetOptions {
            procs: 2,
            worker_exe: Some(PathBuf::from("/bin/sh")),
            worker_args: vec![OsString::from("-c"), OsString::from(script)],
        }
    }

    #[cfg(unix)]
    fn fast_settings() -> ExperimentSettings {
        ExperimentSettings {
            replicas: 2,
            retry_budget: 1,
            worker_timeout_ms: 400,
            ..ExperimentSettings::default()
        }
    }

    #[test]
    fn fleet_rejects_invalid_settings_and_custom_devices() {
        let scratch = Scratch::new("reject");
        let prepared = PreparedTask::prepare(&tiny_task());
        let bad = ExperimentSettings {
            replicas: 0,
            ..ExperimentSettings::default()
        };
        let err = run_variant_fleet(
            &prepared,
            &Device::cpu(),
            NoiseVariant::Control,
            &bad,
            &scratch.0,
            0,
            &FleetOptions::default(),
        )
        .expect_err("zero replicas must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        let custom = Device::custom(
            "FPGA-9000",
            hwsim::Architecture::Turing,
            512,
            false,
            false,
            1.0,
        );
        let err = run_variant_fleet(
            &prepared,
            &custom,
            NoiseVariant::Control,
            &ExperimentSettings::default(),
            &scratch.0,
            0,
            &FleetOptions::default(),
        )
        .expect_err("custom devices are not shippable by name");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    #[cfg(unix)]
    fn crashing_workers_are_classified_and_exhaust_into_crashed() {
        let scratch = Scratch::new("crash");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = fast_settings();
        let runs = run_variant_fleet(
            &prepared,
            &Device::v100(),
            NoiseVariant::Impl,
            &settings,
            &scratch.0,
            0,
            &sh_fleet("exit 7"),
        )
        .expect("a crashing fleet degrades, never errors");
        assert!(runs.results.is_empty());
        assert_eq!(runs.failed_replicas(), vec![0, 1]);
        for s in &runs.statuses {
            match s {
                ReplicaStatus::Crashed { reason } => {
                    assert!(reason.contains("exit code 7"), "{reason}");
                    assert!(reason.contains("2 attempts"), "{reason}");
                }
                other => panic!("expected Crashed, got {other:?}"),
            }
        }
        // The cell stays resumable: statuses on disk, flagged incomplete.
        let dir = scratch
            .0
            .cell_dir(&prepared.spec.name, "V100", NoiseVariant::Impl);
        let manifest = std::fs::read_to_string(dir.join("manifest.txt")).expect("manifest");
        assert!(manifest.contains("crashed"), "{manifest}");
    }

    #[test]
    #[cfg(unix)]
    fn signal_killed_workers_are_classified_as_signals() {
        let scratch = Scratch::new("signal");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = ExperimentSettings {
            replicas: 1,
            retry_budget: 0,
            ..fast_settings()
        };
        let runs = run_variant_fleet(
            &prepared,
            &Device::v100(),
            NoiseVariant::Impl,
            &settings,
            &scratch.0,
            0,
            &sh_fleet("kill -ABRT $$"),
        )
        .expect("an aborting fleet degrades, never errors");
        match &runs.statuses[0] {
            ReplicaStatus::Crashed { reason } => {
                assert!(reason.contains("signal 6"), "{reason}");
            }
            other => panic!("expected Crashed(signal 6), got {other:?}"),
        }
    }

    #[test]
    #[cfg(unix)]
    fn silent_workers_are_killed_by_the_watchdog() {
        let scratch = Scratch::new("watchdog");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = ExperimentSettings {
            replicas: 1,
            retry_budget: 1,
            worker_timeout_ms: 300,
            ..ExperimentSettings::default()
        };
        let start = clock::now();
        let runs = run_variant_fleet(
            &prepared,
            &Device::v100(),
            NoiseVariant::Impl,
            &settings,
            &scratch.0,
            0,
            // Sleeps far beyond the watchdog window; emits nothing.
            &sh_fleet("sleep 30"),
        )
        .expect("a hung fleet degrades, never errors");
        assert_eq!(
            runs.statuses[0],
            ReplicaStatus::TimedOut { attempts: 2 },
            "both attempts must be killed by the watchdog"
        );
        // Two 300 ms windows plus backoff — if this took anywhere near a
        // sleep(30), the watchdog never fired.
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "watchdog must kill silent workers promptly"
        );
    }

    #[test]
    #[cfg(unix)]
    fn graceful_fault_frames_classify_as_failed_not_crashed() {
        let scratch = Scratch::new("fault");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = ExperimentSettings {
            replicas: 1,
            retry_budget: 0,
            ..fast_settings()
        };
        // A fake worker that delivers a well-formed fault frame and exits
        // cleanly, like a real worker reporting a TrainError.
        let fault = encode_frame(&Frame::Fault(WorkerFault {
            replica: 0,
            attempt: 0,
            reason: "injected kernel launch failure".into(),
        }));
        let hex: String = fault.iter().map(|b| format!("\\{:03o}", b)).collect();
        let runs = run_variant_fleet(
            &prepared,
            &Device::v100(),
            NoiseVariant::Impl,
            &settings,
            &scratch.0,
            0,
            &sh_fleet(&format!("printf '{hex}'")),
        )
        .expect("a faulting fleet degrades, never errors");
        match &runs.statuses[0] {
            ReplicaStatus::Failed { reason } => {
                assert!(
                    reason.contains("injected kernel launch failure"),
                    "{reason}"
                );
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }
}
