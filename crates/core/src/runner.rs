//! Replica fleets: train N independent models under a noise variant and
//! collect everything the stability metrics need.

use crate::fleet::{self, FleetOptions, ReplicaSpec};
use crate::resume::{self, CheckpointStore};
use crate::settings::ExperimentSettings;
use crate::task::{DataSource, TaskSpec};
use crate::variant::NoiseVariant;
use hwsim::{Device, ExecutionContext, FaultPlan};
use nnet::checkpoint::Checkpoint;
use nnet::trainer::{
    predict_binary, predict_classes, Dataset, FitOptions, Targets, TrainError, Trainer,
};
use nsdata::{CelebaData, ShiftFlip, SplitDataset};
use nsmetrics::{pairwise_mean_churn, pairwise_mean_l2};
use serde::{Deserialize, Serialize};
use std::ffi::OsString;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A task with its dataset materialized (generation happens once; the
/// dataset is a fixed artifact shared by every replica, like CIFAR on
/// disk).
#[derive(Debug, Clone)]
pub struct PreparedTask {
    /// The task specification.
    pub spec: TaskSpec,
    /// The materialized data, shared by every task prepared from an equal
    /// [`DataSource`] through [`PreparedTask::prepare_all`].
    pub data: Arc<PreparedData>,
}

/// The materialized dataset of a prepared task.
#[derive(Debug, Clone)]
pub enum PreparedData {
    /// Gaussian-cluster classification splits.
    Gaussian(Box<SplitDataset>),
    /// The CelebA stand-in (with subgroup metadata).
    Celeba(Box<CelebaData>),
}

impl PreparedData {
    fn generate(source: &DataSource) -> Self {
        match source {
            DataSource::Gaussian(g) => PreparedData::Gaussian(Box::new(g.generate())),
            DataSource::Celeba(c) => PreparedData::Celeba(Box::new(c.generate())),
        }
    }
}

impl PreparedTask {
    /// Generates the task's dataset.
    pub fn prepare(spec: &TaskSpec) -> Self {
        Self {
            spec: spec.clone(),
            data: Arc::new(PreparedData::generate(&spec.data)),
        }
    }

    /// Prepares every task, generating each distinct [`DataSource`] once:
    /// tasks with equal sources share one dataset, so a grid holds each
    /// dataset in memory once however many of its tasks train on it.
    pub fn prepare_all(specs: &[TaskSpec]) -> Vec<Self> {
        let mut prepared: Vec<Self> = Vec::with_capacity(specs.len());
        for spec in specs {
            let data = match prepared.iter().find(|p| p.spec.data == spec.data) {
                Some(p) => Arc::clone(&p.data),
                None => Arc::new(PreparedData::generate(&spec.data)),
            };
            prepared.push(Self {
                spec: spec.clone(),
                data,
            });
        }
        prepared
    }

    /// The training split.
    pub fn train_set(&self) -> &Dataset {
        match &*self.data {
            PreparedData::Gaussian(s) => &s.train,
            PreparedData::Celeba(c) => &c.train,
        }
    }

    /// The test split.
    pub fn test_set(&self) -> &Dataset {
        match &*self.data {
            PreparedData::Gaussian(s) => &s.test,
            PreparedData::Celeba(c) => &c.test,
        }
    }

    /// Number of classes (1 for binary attribute tasks).
    pub fn classes(&self) -> usize {
        match &*self.data {
            PreparedData::Gaussian(s) => s.classes,
            PreparedData::Celeba(_) => 1,
        }
    }
}

/// Test-set predictions of one replica.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Preds {
    /// Class predictions.
    Classes(Vec<u32>),
    /// Flat binary attribute predictions.
    Binary(Vec<u8>),
}

/// Everything a stability metric needs from one trained replica.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicaResult {
    /// Replica index.
    pub replica: u32,
    /// Test accuracy.
    pub accuracy: f64,
    /// Test predictions.
    pub preds: Preds,
    /// Flattened final weights.
    pub weights: Vec<f32>,
    /// Final-epoch mean training loss.
    pub final_train_loss: f32,
}

/// How one replica of a fleet ended up, as recorded by the supervisor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicaStatus {
    /// Trained successfully on the first attempt.
    Ok,
    /// Failed at least once but a retry succeeded; `attempts` counts every
    /// execution including the successful one. Because retries re-derive
    /// all seeds from the replica index, a retried replica's result is
    /// bit-identical to a never-faulted run.
    Retried {
        /// Total executions including the successful one (≥ 2).
        attempts: u32,
    },
    /// Every attempt within the retry budget failed; the replica has no
    /// result and downstream reports flag the cell as incomplete.
    Failed {
        /// Human-readable reason from the last attempt.
        reason: String,
    },
    /// Fleet mode only: every attempt was killed by the supervisor's
    /// heartbeat watchdog or wall-clock deadline. Like `Failed`, the
    /// replica has no result. (A worker that times out and then succeeds
    /// on a retry is recorded as [`ReplicaStatus::Retried`].)
    TimedOut {
        /// Total attempts, all killed (= retry budget + 1).
        attempts: u32,
    },
    /// Fleet mode only: the worker process died abnormally (panic exit
    /// code, signal such as an abort) on every attempt. Like `Failed`,
    /// the replica has no result.
    Crashed {
        /// Exit classification of the last attempt (e.g. `"signal 6"`,
        /// `"exit code 101"`).
        reason: String,
    },
}

impl ReplicaStatus {
    /// Whether this replica produced no result.
    pub fn is_failed(&self) -> bool {
        matches!(
            self,
            ReplicaStatus::Failed { .. }
                | ReplicaStatus::TimedOut { .. }
                | ReplicaStatus::Crashed { .. }
        )
    }
}

/// All replicas of one (task, device, variant) cell.
///
/// `results` holds the *successful* replicas in replica order; `statuses`
/// always has one entry per requested replica index, so a degraded fleet
/// is visible (`results.len() < statuses.len()`) without being fatal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariantRuns {
    /// The variant trained under.
    pub variant: NoiseVariant,
    /// Successful replica outcomes, in replica order.
    pub results: Vec<ReplicaResult>,
    /// Per-replica supervision outcome, indexed by replica.
    pub statuses: Vec<ReplicaStatus>,
}

/// A [`VariantRuns`] accessor was asked for one kind of predictions but a
/// replica holds the other (e.g. class predictions requested from a binary
/// attribute task).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredsKindError {
    /// What the accessor expected.
    pub expected: &'static str,
    /// What the replica actually holds.
    pub found: &'static str,
    /// The offending replica index.
    pub replica: u32,
}

impl std::fmt::Display for PredsKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "expected {} predictions but replica {} holds {} predictions",
            self.expected, self.replica, self.found
        )
    }
}

impl std::error::Error for PredsKindError {}

impl Preds {
    fn kind(&self) -> &'static str {
        match self {
            Preds::Classes(_) => "class",
            Preds::Binary(_) => "binary",
        }
    }
}

impl VariantRuns {
    /// Whether every requested replica produced a result.
    pub fn is_complete(&self) -> bool {
        self.statuses.iter().all(|s| !s.is_failed())
    }

    /// Indices of replicas that exhausted their retry budget.
    pub fn failed_replicas(&self) -> Vec<u32> {
        self.statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_failed())
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Number of replicas that needed at least one retry.
    pub fn retried_replicas(&self) -> usize {
        self.statuses
            .iter()
            .filter(|s| matches!(s, ReplicaStatus::Retried { .. }))
            .count()
    }

    /// Replica accuracies.
    pub fn accuracies(&self) -> Vec<f64> {
        self.results.iter().map(|r| r.accuracy).collect()
    }

    /// Replica weight vectors.
    pub fn weight_sets(&self) -> Vec<Vec<f32>> {
        self.results.iter().map(|r| r.weights.clone()).collect()
    }

    /// Mean pairwise predictive churn across the replicas.
    ///
    /// # Panics
    ///
    /// Panics if replicas hold different kinds of predictions, which one
    /// task never produces.
    pub fn churn(&self) -> f64 {
        match self.class_pred_sets() {
            Ok(preds) => pairwise_mean_churn(&preds),
            Err(_) => pairwise_mean_churn(
                &self
                    .binary_pred_sets()
                    .expect("one kind of predictions per task"),
            ),
        }
    }

    /// Mean pairwise normalized-L2 weight distance across the replicas.
    pub fn l2(&self) -> f64 {
        pairwise_mean_l2(&self.weight_sets())
    }

    /// Replica class predictions.
    ///
    /// # Errors
    ///
    /// Returns [`PredsKindError`] if any replica holds binary predictions.
    pub fn class_pred_sets(&self) -> Result<Vec<Vec<u32>>, PredsKindError> {
        self.results
            .iter()
            .map(|r| match &r.preds {
                Preds::Classes(p) => Ok(p.clone()),
                other => Err(PredsKindError {
                    expected: "class",
                    found: other.kind(),
                    replica: r.replica,
                }),
            })
            .collect()
    }

    /// Replica binary predictions.
    ///
    /// # Errors
    ///
    /// Returns [`PredsKindError`] if any replica holds class predictions.
    pub fn binary_pred_sets(&self) -> Result<Vec<Vec<u8>>, PredsKindError> {
        self.results
            .iter()
            .map(|r| match &r.preds {
                Preds::Binary(p) => Ok(p.clone()),
                other => Err(PredsKindError {
                    expected: "binary",
                    found: other.kind(),
                    replica: r.replica,
                }),
            })
            .collect()
    }
}

/// Knobs for one supervised replica execution, beyond the cell identity.
#[derive(Default)]
pub struct ReplicaOptions<'a> {
    /// Which retry this is (0 = first execution); selects the chaos fault
    /// schedule for transient-fault configs.
    pub attempt: u32,
    /// Resume mid-training from this checkpoint.
    pub resume: Option<&'a Checkpoint>,
    /// Emit a checkpoint every N completed epochs (0 disables).
    pub checkpoint_every_epochs: u32,
    /// Receives emitted checkpoints (typically: persist to disk).
    pub sink: Option<&'a mut dyn FnMut(&Checkpoint)>,
    /// Invoke `progress` every N completed optimizer steps (0 disables).
    /// Pure observation — see [`nnet::trainer::FitOptions`].
    pub progress_every_steps: u32,
    /// Receives the global step count at each progress interval (fleet
    /// workers emit liveness heartbeats from here).
    pub progress: Option<&'a mut dyn FnMut(u64)>,
}

impl std::fmt::Debug for ReplicaOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaOptions")
            .field("attempt", &self.attempt)
            .field("resume", &self.resume.map(|c| c.epochs_done))
            .field("checkpoint_every_epochs", &self.checkpoint_every_epochs)
            .field("sink", &self.sink.is_some())
            .field("progress_every_steps", &self.progress_every_steps)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

/// The chaos fault schedule for one `(replica, attempt)` execution, over
/// the task's actual training horizon in optimizer steps.
fn fault_plan_for(
    prepared: &PreparedTask,
    settings: &ExperimentSettings,
    replica: u32,
    attempt: u32,
) -> FaultPlan {
    match &settings.chaos {
        Some(cfg) => {
            let train_cfg = prepared.spec.train_config(settings);
            let steps_per_epoch = prepared
                .train_set()
                .len()
                .div_ceil(train_cfg.batch_size)
                .max(1) as u64;
            FaultPlan::build(
                cfg,
                replica,
                attempt,
                train_cfg.epochs as u64 * steps_per_epoch,
            )
        }
        None => FaultPlan::none(),
    }
}

/// Trains one replica of a task on a device under a variant.
///
/// Every seed (the variant's [`NoiseVariant::algo_roots`], scheduler
/// entropy, chaos schedule) is derived from the replica index, so a
/// replica is a pure function of its arguments: re-running it — whether
/// as a supervision retry or a checkpoint resume — reproduces the result
/// bit-for-bit.
///
/// # Errors
///
/// Returns the [`TrainError`] of a diverged, faulted or empty training
/// run. Injected kernel panics are *not* caught here; the supervisor in
/// [`run_grid`] isolates those.
pub fn run_replica(
    prepared: &PreparedTask,
    device: &Device,
    variant: NoiseVariant,
    settings: &ExperimentSettings,
    replica: u32,
) -> Result<ReplicaResult, TrainError> {
    run_replica_with(
        prepared,
        device,
        variant,
        settings,
        replica,
        ReplicaOptions::default(),
    )
}

/// [`run_replica`] with supervision knobs: retry attempt selection and
/// checkpoint/resume wiring.
///
/// # Errors
///
/// As [`run_replica`].
pub fn run_replica_with(
    prepared: &PreparedTask,
    device: &Device,
    variant: NoiseVariant,
    settings: &ExperimentSettings,
    replica: u32,
    opts: ReplicaOptions<'_>,
) -> Result<ReplicaResult, TrainError> {
    let spec = &prepared.spec;
    let roots = variant.algo_roots(settings.base_seed, replica);
    let mut exec = ExecutionContext::builder(*device)
        .mode(variant.exec_mode())
        .entropy(settings.entropy_for(replica))
        .amp_ulps(settings.amp_ulps)
        .threads(settings.exec_threads)
        .chaos(fault_plan_for(prepared, settings, replica, opts.attempt))
        .build();
    let mut net = spec.build_model(&roots.init);
    let trainer = Trainer::new(spec.train_config(settings));
    let augment = ShiftFlip::standard();
    let report = trainer.fit_with(
        &mut net,
        prepared.train_set(),
        &mut exec,
        &roots,
        if spec.augment { Some(&augment) } else { None },
        FitOptions {
            resume: opts.resume,
            checkpoint_every_epochs: opts.checkpoint_every_epochs,
            sink: opts.sink,
            progress_every_steps: opts.progress_every_steps,
            progress: opts.progress,
        },
    )?;

    let test = prepared.test_set();
    let (preds, accuracy) = match &test.targets {
        Targets::Classes(labels) => {
            let p = predict_classes(&mut net, test, &mut exec, &roots.dropout, 64);
            let acc = nsmetrics::accuracy(&p, labels);
            (Preds::Classes(p), acc)
        }
        Targets::Binary(t) => {
            let p = predict_binary(&mut net, test, &mut exec, &roots.dropout, 64);
            let labels: Vec<u8> = t.as_slice().iter().map(|&v| (v > 0.5) as u8).collect();
            let acc = nsmetrics::accuracy(&p, &labels);
            (Preds::Binary(p), acc)
        }
    };

    Ok(ReplicaResult {
        replica,
        accuracy,
        preds,
        weights: net.flat_weights(),
        // `fit` guards against empty runs (`TrainError::NoSteps`), so a
        // successful report always has a final epoch loss — no NaN
        // sentinel needed.
        final_train_loss: *report
            .epoch_losses
            .last()
            .expect("successful fit has at least one epoch"),
    })
}

/// Renders a caught panic payload for a `ReplicaStatus::Failed` reason.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Where a cell's replica attempts run, and where their progress lives.
///
/// All three share one engine, [`run_grid`]: the same validation, store
/// harvest, worker pool, retry loop, persistence and manifest. Only how
/// one attempt runs differs, and a replica is a pure function of its
/// index, so every executor produces bit-identical results.
#[derive(Debug, Clone)]
pub enum Executor {
    /// Attempts run on in-process worker threads under `catch_unwind`;
    /// nothing touches disk.
    InMemory,
    /// As [`Executor::InMemory`], with durable progress in a
    /// [`CheckpointStore`] cell: completed replicas are harvested instead
    /// of retrained, and in-flight replicas resume from their newest epoch
    /// checkpoint.
    Durable {
        /// The store holding the cell directories.
        store: CheckpointStore,
        /// Checkpoint every N completed epochs (0 persists results only).
        checkpoint_every_epochs: u32,
    },
    /// Every attempt runs in its own supervised worker process (see
    /// [`crate::fleet`]), sharing store cells with [`Executor::Durable`].
    /// Failed attempts back off before their retry.
    Processes {
        /// The store holding the cell directories.
        store: CheckpointStore,
        /// Checkpoint every N completed epochs (0 persists results only).
        checkpoint_every_epochs: u32,
        /// Worker pool size and executable.
        fleet: FleetOptions,
    },
}

/// How one attempt of a replica failed.
#[derive(Debug)]
pub(crate) enum Failure {
    /// A training error, an in-process panic, or a worker's graceful
    /// fault frame.
    Faulted(String),
    /// A worker process died abnormally.
    Crashed(String),
    /// A worker process was killed by the watchdog or the deadline.
    TimedOut,
}

impl Failure {
    /// The status of a replica whose last attempt failed like this.
    fn exhausted(self, attempts: u32) -> ReplicaStatus {
        match self {
            Failure::Faulted(reason) => ReplicaStatus::Failed {
                reason: format!("{attempts} attempts exhausted; last: {reason}"),
            },
            Failure::Crashed(reason) => ReplicaStatus::Crashed {
                reason: format!("{attempts} attempts; last: {reason}"),
            },
            Failure::TimedOut => ReplicaStatus::TimedOut { attempts },
        }
    }
}

/// The outcome of one attempt.
pub(crate) type Attempt = Result<ReplicaResult, Failure>;

type Supervised = (Option<ReplicaResult>, ReplicaStatus);

/// One cell of a grid: every replica of a (task, device, variant) under
/// the cell's own settings.
#[derive(Debug, Clone, Copy)]
pub struct GridCell<'a> {
    /// The task and its materialized data.
    pub prepared: &'a PreparedTask,
    /// The device every replica trains on.
    pub device: &'a Device,
    /// The variant every replica trains under.
    pub variant: NoiseVariant,
    /// The cell's settings; cells of one grid may differ (say, in their
    /// replica count).
    pub settings: &'a ExperimentSettings,
}

/// One cell's fixed context, shared by every worker of the pool.
struct Cell<'a> {
    grid: GridCell<'a>,
    /// The store cell directory; `None` for [`Executor::InMemory`].
    dir: Option<PathBuf>,
    checkpoint_every_epochs: u32,
    /// Worker executable and arguments; `Some` for
    /// [`Executor::Processes`].
    worker: Option<(PathBuf, &'a [OsString])>,
}

impl<'a> Cell<'a> {
    /// Validates a grid cell and resolves (and creates) its store
    /// directory and worker executable under `exec`.
    fn open(grid: &GridCell<'a>, exec: &'a Executor) -> io::Result<Self> {
        grid.settings
            .validate_for(&grid.prepared.spec)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let (store, checkpoint_every_epochs, fleet) = match exec {
            Executor::InMemory => (None, 0, None),
            Executor::Durable {
                store,
                checkpoint_every_epochs,
            } => (Some(store), *checkpoint_every_epochs, None),
            Executor::Processes {
                store,
                checkpoint_every_epochs,
                fleet,
            } => (Some(store), *checkpoint_every_epochs, Some(fleet)),
        };
        let dir =
            store.map(|s| s.cell_dir(&grid.prepared.spec.name, grid.device.name(), grid.variant));
        let worker = match (fleet, &dir) {
            (Some(opts), Some(dir)) => Some((
                fleet::worker_exe(grid.device, dir, opts)?,
                opts.worker_args.as_slice(),
            )),
            _ => None,
        };
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir)?;
        }
        Ok(Cell {
            grid: *grid,
            dir,
            checkpoint_every_epochs,
            worker,
        })
    }

    /// A replica already completed in the store.
    fn harvest(&self, replica: u32) -> Option<Supervised> {
        let (result, status) = resume::harvest(self.dir.as_deref()?, replica)?;
        Some((Some(result), status))
    }

    /// Rewrites the cell's manifest once every replica has an outcome;
    /// does nothing while one is still pending or failed with an IO error.
    fn finish(&self, outcomes: &[Option<io::Result<Supervised>>]) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let statuses: Option<Vec<ReplicaStatus>> = outcomes
            .iter()
            .map(|o| match o {
                Some(Ok((_, status))) => Some(status.clone()),
                _ => None,
            })
            .collect();
        match statuses {
            Some(statuses) => resume::write_manifest(
                dir,
                &self.grid.prepared.spec.name,
                self.grid.device.name(),
                self.grid.variant,
                &statuses,
            ),
            None => Ok(()),
        }
    }

    /// Runs one attempt in a worker process, or on this thread.
    fn attempt(&self, replica: u32, attempt: u32) -> io::Result<Attempt> {
        match (&self.dir, &self.worker) {
            (Some(dir), Some((exe, args))) => {
                let spec = ReplicaSpec {
                    task: self.grid.prepared.spec.clone(),
                    device_name: self.grid.device.name().to_string(),
                    variant: self.grid.variant,
                    settings: *self.grid.settings,
                    replica,
                    attempt,
                    cell_dir: dir.clone(),
                    checkpoint_every_epochs: self.checkpoint_every_epochs,
                };
                fleet::run_attempt(exe, args, &spec)
            }
            _ => self.attempt_in_thread(replica, attempt),
        }
    }

    /// Runs one attempt under `catch_unwind`. With a store, the attempt
    /// resumes from the replica's newest checkpoint and sinks fresh ones.
    /// Checkpoints are only emitted at fault-free epoch boundaries, so one
    /// left by a failed attempt is still a prefix of the clean trajectory.
    fn attempt_in_thread(&self, replica: u32, attempt: u32) -> io::Result<Attempt> {
        let ckpt = self.dir.as_deref().map(|d| resume::ckpt_path(d, replica));
        let resume = self
            .dir
            .as_deref()
            .and_then(|d| resume::resume_point(d, replica));
        let mut sink_err: Option<io::Error> = None;
        let mut sink = |c: &Checkpoint| {
            if let (Some(path), true) = (&ckpt, sink_err.is_none()) {
                sink_err = c.save(path).err();
            }
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_replica_with(
                self.grid.prepared,
                self.grid.device,
                self.grid.variant,
                self.grid.settings,
                replica,
                ReplicaOptions {
                    attempt,
                    resume: resume.as_ref(),
                    checkpoint_every_epochs: self.checkpoint_every_epochs,
                    sink: Some(&mut sink),
                    ..ReplicaOptions::default()
                },
            )
        }));
        if let Some(e) = sink_err {
            return Err(e);
        }
        Ok(match outcome {
            Ok(Ok(result)) => Ok(result),
            Ok(Err(err)) => Err(Failure::Faulted(err.to_string())),
            Err(payload) => Err(Failure::Faulted(panic_reason(payload))),
        })
    }

    /// The retry loop: attempts until one succeeds or the budget is
    /// spent, then persists the outcome. Every seed is re-derived from the
    /// replica index, so a successful retry is bit-identical to a
    /// never-faulted run.
    fn supervise(&self, replica: u32) -> io::Result<Supervised> {
        let mut attempt = 0;
        let (result, status) = loop {
            if attempt > 0 && self.worker.is_some() {
                std::thread::sleep(Duration::from_millis(fleet::backoff_ms(attempt)));
            }
            match self.attempt(replica, attempt)? {
                Ok(result) if attempt == 0 => break (Some(result), ReplicaStatus::Ok),
                Ok(result) => {
                    let attempts = attempt + 1;
                    break (Some(result), ReplicaStatus::Retried { attempts });
                }
                Err(failure) if attempt == self.grid.settings.retry_budget => {
                    break (None, failure.exhausted(attempt + 1));
                }
                Err(_) => attempt += 1,
            }
        };
        if let Some(dir) = &self.dir {
            resume::persist(dir, replica, result.as_ref(), &status)?;
        }
        Ok((result, status))
    }
}

/// One cell's replica outcomes as they land.
struct Slots {
    /// Harvested or supervised outcome per replica index; `None` until
    /// the replica lands, or for good if the grid stopped first.
    outcomes: Vec<Option<io::Result<Supervised>>>,
    /// The manifest write after the cell's last replica landed.
    manifest: io::Result<()>,
}

/// Trains every replica of every cell under supervision, through one
/// pool of workers, and returns the cells' runs in cell order.
///
/// Every cell is validated and its store harvested up front. The pending
/// (cell, replica) jobs, in cell-major order, are pulled from a shared
/// counter by a pool of worker threads: one per core, or `fleet.procs`
/// for [`Executor::Processes`], where each thread blocks on its own
/// worker process. No worker waits for a cell to finish before starting
/// the next cell's replicas, so a grid of small cells keeps every worker
/// busy. A cell's manifest is written when its last replica lands.
///
/// A failed attempt (training error, panic, crash, timeout) costs that
/// replica a retry, up to `settings.retry_budget`, never the grid.
/// Replicas that exhaust the budget get a failed [`ReplicaStatus`] and no
/// result, so partial fleets degrade into flagged reports instead of
/// aborting the experiment.
///
/// # Errors
///
/// Any cell's settings that fail [`ExperimentSettings::validate_for`];
/// for [`Executor::Processes`], a custom device or a non-UTF-8 store
/// path; two cells sharing one store cell directory; store or spawn IO
/// failures. After the first IO failure the workers take no new job, and
/// the error returned is the first in (cell, replica) order.
pub fn run_grid(cells: &[GridCell<'_>], exec: &Executor) -> io::Result<Vec<VariantRuns>> {
    let width = match exec {
        Executor::Processes { fleet, .. } if fleet.procs > 0 => fleet.procs,
        _ => std::thread::available_parallelism().map_or(1, |p| p.get()),
    };
    run_grid_on(cells, exec, width)
}

/// [`run_grid`] on a pool of at most `width` workers.
pub(crate) fn run_grid_on<'a>(
    cells: &[GridCell<'a>],
    exec: &'a Executor,
    width: usize,
) -> io::Result<Vec<VariantRuns>> {
    let cells: Vec<Cell<'a>> = cells
        .iter()
        .map(|c| Cell::open(c, exec))
        .collect::<io::Result<_>>()?;
    for (i, cell) in cells.iter().enumerate() {
        if let Some(dir) = &cell.dir {
            if cells[..i].iter().any(|c| c.dir.as_ref() == Some(dir)) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("two grid cells share the store cell {}", dir.display()),
                ));
            }
        }
    }

    let mut jobs: Vec<(usize, u32)> = Vec::new();
    let mut slots = Vec::with_capacity(cells.len());
    for (c, cell) in cells.iter().enumerate() {
        let outcomes: Vec<Option<io::Result<Supervised>>> = (0..cell.grid.settings.replicas)
            .map(|r| cell.harvest(r).map(Ok))
            .collect();
        jobs.extend(
            (0..cell.grid.settings.replicas)
                .filter(|&r| outcomes[r as usize].is_none())
                .map(|r| (c, r)),
        );
        cell.finish(&outcomes)?;
        slots.push(Mutex::new(Slots {
            outcomes,
            manifest: Ok(()),
        }));
    }

    // Workers claim jobs in order and stop claiming once any job fails
    // with an IO error, so every unclaimed job comes after the first
    // failure in (cell, replica) order.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..width.min(jobs.len()) {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let Some(&(c, r)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    let outcome = cells[c].supervise(r);
                    let failed = outcome.is_err();
                    let mut landed = slots[c].lock().expect("no worker panics holding a slot");
                    landed.outcomes[r as usize] = Some(outcome);
                    landed.manifest = cells[c].finish(&landed.outcomes);
                    if failed || landed.manifest.is_err() {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    cells
        .iter()
        .zip(slots)
        .map(|(cell, slots)| {
            let slots = slots.into_inner().expect("no worker panics holding a slot");
            let mut results = Vec::with_capacity(slots.outcomes.len());
            let mut statuses = Vec::with_capacity(slots.outcomes.len());
            for outcome in slots.outcomes {
                let (result, status) =
                    outcome.expect("a job goes unclaimed only after an earlier one failed")?;
                results.extend(result);
                statuses.push(status);
            }
            slots.manifest?;
            Ok(VariantRuns {
                variant: cell.grid.variant,
                results,
                statuses,
            })
        })
        .collect()
}

/// Trains every replica of one (task, device, variant) cell through
/// `exec`: a one-cell [`run_grid`].
///
/// # Errors
///
/// As [`run_grid`].
pub fn run_cell(
    prepared: &PreparedTask,
    device: &Device,
    variant: NoiseVariant,
    settings: &ExperimentSettings,
    exec: &Executor,
) -> io::Result<VariantRuns> {
    let cell = GridCell {
        prepared,
        device,
        variant,
        settings,
    };
    let mut runs = run_grid(&[cell], exec)?;
    Ok(runs.pop().expect("one cell in, one cell out"))
}

/// [`run_cell`] on [`Executor::InMemory`].
///
/// # Panics
///
/// Panics up front (with the rendered
/// [`crate::settings::SettingsError`]) if the settings or task fail
/// [`ExperimentSettings::validate_for`]: the one entry point whose
/// signature predates typed validation.
pub fn run_variant(
    prepared: &PreparedTask,
    device: &Device,
    variant: NoiseVariant,
    settings: &ExperimentSettings,
) -> VariantRuns {
    let cell = GridCell {
        prepared,
        device,
        variant,
        settings,
    };
    run_variants(&[cell])
        .pop()
        .expect("one cell in, one cell out")
}

/// [`run_grid`] on [`Executor::InMemory`]: the cells' replicas share one
/// worker pool, and the runs come back in cell order.
///
/// # Panics
///
/// As [`run_variant`], if any cell fails validation.
pub fn run_variants(cells: &[GridCell<'_>]) -> Vec<VariantRuns> {
    run_grid(cells, &Executor::InMemory)
        .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;
    use nsdata::GaussianSpec;

    /// A deliberately tiny task for unit tests.
    fn tiny_task() -> TaskSpec {
        let mut t = TaskSpec::small_cnn_cifar10();
        t.data = crate::task::DataSource::Gaussian(GaussianSpec {
            classes: 4,
            train_per_class: 12,
            test_per_class: 8,
            ..GaussianSpec::cifar10_sim()
        });
        t.train.epochs = 2;
        t.augment = false;
        t
    }

    fn tiny_settings() -> ExperimentSettings {
        ExperimentSettings {
            replicas: 2,
            ..ExperimentSettings::default()
        }
    }

    #[test]
    fn replica_produces_complete_result() {
        let prepared = PreparedTask::prepare(&tiny_task());
        let r = run_replica(
            &prepared,
            &Device::cpu(),
            NoiseVariant::Control,
            &tiny_settings(),
            0,
        )
        .expect("replica trains");
        match &r.preds {
            Preds::Classes(p) => assert_eq!(p.len(), prepared.test_set().len()),
            other => panic!("a CIFAR-style task predicts classes, got {other:?}"),
        }
        assert!(!r.weights.is_empty());
        assert!((0.0..=1.0).contains(&r.accuracy));
        assert!(r.final_train_loss.is_finite());
    }

    #[test]
    fn control_variant_is_bitwise_reproducible() {
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let runs = run_variant(&prepared, &Device::v100(), NoiseVariant::Control, &settings);
        assert_eq!(runs.results.len(), 2);
        assert_eq!(runs.results[0].weights, runs.results[1].weights);
        assert_eq!(runs.results[0].preds, runs.results[1].preds);
        assert!(runs.is_complete());
        assert_eq!(runs.statuses, vec![ReplicaStatus::Ok; 2]);
    }

    #[test]
    fn chaos_faults_are_retried_to_a_bit_identical_fleet() {
        let prepared = PreparedTask::prepare(&tiny_task());
        let clean = tiny_settings();
        let chaotic = ExperimentSettings {
            chaos: Some(hwsim::ChaosConfig::standard(17)),
            ..clean
        };
        let baseline = run_variant(&prepared, &Device::v100(), NoiseVariant::Impl, &clean);
        let faulted = run_variant(&prepared, &Device::v100(), NoiseVariant::Impl, &chaotic);
        assert!(faulted.is_complete(), "transient faults must be recovered");
        assert!(
            faulted.retried_replicas() > 0,
            "standard chaos must actually fault at least one replica: {:?}",
            faulted.statuses
        );
        for (a, b) in baseline.results.iter().zip(&faulted.results) {
            assert_eq!(
                a.weights, b.weights,
                "retried replica {} must be bit-identical to the fault-free run",
                a.replica
            );
            assert_eq!(a.preds, b.preds);
        }
    }

    #[test]
    fn exhausted_retry_budget_degrades_not_panics() {
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = ExperimentSettings {
            retry_budget: 1,
            // Persistent faults: every attempt of every replica fails.
            chaos: Some(hwsim::ChaosConfig {
                persistent: true,
                ..hwsim::ChaosConfig::standard(3)
            }),
            ..tiny_settings()
        };
        let runs = run_variant(&prepared, &Device::v100(), NoiseVariant::Impl, &settings);
        assert!(!runs.is_complete());
        assert_eq!(runs.failed_replicas(), vec![0, 1]);
        assert!(runs.results.is_empty());
        for s in &runs.statuses {
            match s {
                ReplicaStatus::Failed { reason } => {
                    assert!(reason.contains("2 attempts exhausted"), "{reason}");
                }
                other => panic!("expected Failed, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid experiment configuration")]
    fn run_variant_rejects_invalid_settings_up_front() {
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = ExperimentSettings {
            replicas: 0,
            ..tiny_settings()
        };
        run_variant(&prepared, &Device::cpu(), NoiseVariant::Control, &settings);
    }

    #[test]
    fn fleet_only_statuses_count_as_failed() {
        assert!(ReplicaStatus::TimedOut { attempts: 3 }.is_failed());
        assert!(ReplicaStatus::Crashed {
            reason: "signal 6".into()
        }
        .is_failed());
        assert!(!ReplicaStatus::Retried { attempts: 2 }.is_failed());
    }

    #[test]
    fn algo_variant_diverges() {
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let runs = run_variant(&prepared, &Device::v100(), NoiseVariant::Algo, &settings);
        assert_ne!(runs.results[0].weights, runs.results[1].weights);
    }

    #[test]
    fn single_source_arms_vary_only_their_source() {
        // SmallCNN has no dropout layer, so freeing the dropout root leaves
        // the replicas bit-identical on deterministic hardware; freeing the
        // data order or the initialization does not.
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let weights = |variant| {
            let runs = run_variant(&prepared, &Device::tpu_v2(), variant, &settings);
            (
                runs.results[0].weights.clone(),
                runs.results[1].weights.clone(),
            )
        };
        let (a, b) = weights(NoiseVariant::DropoutOnly);
        assert_eq!(
            a, b,
            "dropout-free replicas must not depend on the dropout root"
        );
        for variant in [NoiseVariant::ShuffleOnly, NoiseVariant::InitOnly] {
            let (a, b) = weights(variant);
            assert_ne!(a, b, "{variant} replicas must diverge");
        }
    }

    #[test]
    fn impl_variant_diverges_on_gpu_but_not_tpu() {
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let gpu = run_variant(&prepared, &Device::v100(), NoiseVariant::Impl, &settings);
        assert_ne!(
            gpu.results[0].weights, gpu.results[1].weights,
            "GPU IMPL runs must diverge"
        );
        let tpu = run_variant(&prepared, &Device::tpu_v2(), NoiseVariant::Impl, &settings);
        assert_eq!(
            tpu.results[0].weights, tpu.results[1].weights,
            "TPU is deterministic by design"
        );
    }

    /// A grid of four cells over two tasks that share one dataset, with
    /// one cell under its own (larger) replica count.
    struct Grid {
        prepared: Vec<PreparedTask>,
        devices: [Device; 3],
        two: ExperimentSettings,
        three: ExperimentSettings,
    }

    impl Grid {
        fn new() -> Self {
            let mut bn = tiny_task();
            bn.name = "tiny BN".into();
            bn.model = crate::task::ModelKind::SmallCnn { with_bn: true };
            let two = ExperimentSettings {
                replicas: 2,
                ..tiny_settings()
            };
            Grid {
                prepared: PreparedTask::prepare_all(&[tiny_task(), bn]),
                devices: [Device::v100(), Device::cpu(), Device::tpu_v2()],
                two,
                three: ExperimentSettings { replicas: 3, ..two },
            }
        }

        fn cells(&self) -> Vec<GridCell<'_>> {
            let [v100, cpu, tpu] = &self.devices;
            let [plain, bn] = &self.prepared[..] else {
                unreachable!("two tasks")
            };
            let cell = |prepared, device, variant, settings| GridCell {
                prepared,
                device,
                variant,
                settings,
            };
            vec![
                cell(plain, v100, NoiseVariant::Impl, &self.two),
                cell(plain, cpu, NoiseVariant::Algo, &self.two),
                cell(bn, v100, NoiseVariant::AlgoImpl, &self.three),
                cell(bn, tpu, NoiseVariant::Control, &self.two),
            ]
        }
    }

    /// A cell's results through the store's byte-exact codec, and its
    /// statuses.
    fn bits(runs: &VariantRuns) -> (NoiseVariant, Vec<Vec<u8>>, Vec<ReplicaStatus>) {
        let results = runs.results.iter().map(resume::encode_result).collect();
        (runs.variant, results, runs.statuses.clone())
    }

    fn manifests(store: &CheckpointStore, cells: &[GridCell<'_>]) -> Vec<String> {
        cells
            .iter()
            .map(|c| {
                let dir = store.cell_dir(&c.prepared.spec.name, c.device.name(), c.variant);
                std::fs::read_to_string(dir.join("manifest.txt")).expect("cell manifest")
            })
            .collect()
    }

    /// A unique scratch store per test, removed on drop.
    struct Scratch(CheckpointStore);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("noisescope-grid-{tag}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            Scratch(CheckpointStore::new(dir))
        }

        fn durable(&self) -> Executor {
            Executor::Durable {
                store: self.0.clone(),
                checkpoint_every_epochs: 1,
            }
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_dir_all(self.0.root()).ok();
        }
    }

    #[test]
    fn in_memory_grid_equals_each_cell_run_alone() {
        let grid = Grid::new();
        let cells = grid.cells();
        let alone: Vec<_> = cells
            .iter()
            .map(|c| {
                let runs = run_cell(
                    c.prepared,
                    c.device,
                    c.variant,
                    c.settings,
                    &Executor::InMemory,
                )
                .expect("in-memory cell");
                bits(&runs)
            })
            .collect();
        for width in [1, 2, 5] {
            let runs = run_grid_on(&cells, &Executor::InMemory, width).expect("in-memory grid");
            let got: Vec<_> = runs.iter().map(bits).collect();
            assert!(
                got == alone,
                "grid on {width} workers differs from its cells"
            );
        }
    }

    #[test]
    fn durable_grid_on_a_partly_filled_store_equals_each_cell_run_alone() {
        let grid = Grid::new();
        let cells = grid.cells();
        let reference = Scratch::new("alone");
        let alone: Vec<_> = cells
            .iter()
            .map(|c| {
                let runs = run_cell(
                    c.prepared,
                    c.device,
                    c.variant,
                    c.settings,
                    &reference.durable(),
                )
                .expect("durable cell");
                bits(&runs)
            })
            .collect();
        let alone_manifests = manifests(&reference.0, &cells);

        for width in [1, 2, 5] {
            let scratch = Scratch::new(&format!("w{width}"));
            let check = |what: &str| {
                let runs = run_grid_on(&cells, &scratch.durable(), width).expect("durable grid");
                let got: Vec<_> = runs.iter().map(bits).collect();
                assert!(got == alone, "{what} grid on {width} workers differs");
                assert_eq!(manifests(&scratch.0, &cells), alone_manifests, "{what}");
            };
            check("fresh");

            // Lose results in two cells, leave one replica a mid-training
            // checkpoint, and drop every manifest.
            for (c, replica, ckpt) in [(0, 0, false), (2, 1, true), (2, 2, false)] {
                let cell = &cells[c];
                let dir =
                    scratch
                        .0
                        .cell_dir(&cell.prepared.spec.name, cell.device.name(), cell.variant);
                std::fs::remove_file(resume::result_path(&dir, replica)).expect("drop result");
                if ckpt {
                    let mut first: Option<Checkpoint> = None;
                    let mut sink = |k: &Checkpoint| {
                        first.get_or_insert_with(|| k.clone());
                    };
                    run_replica_with(
                        cell.prepared,
                        cell.device,
                        cell.variant,
                        cell.settings,
                        replica,
                        ReplicaOptions {
                            checkpoint_every_epochs: 1,
                            sink: Some(&mut sink),
                            ..ReplicaOptions::default()
                        },
                    )
                    .expect("probe replica");
                    let ckpt = first.expect("a 2-epoch run checkpoints after epoch 1");
                    assert_eq!(ckpt.epochs_done, 1);
                    ckpt.save(&resume::ckpt_path(&dir, replica))
                        .expect("plant checkpoint");
                }
            }
            for c in &cells {
                let dir = scratch
                    .0
                    .cell_dir(&c.prepared.spec.name, c.device.name(), c.variant);
                std::fs::remove_file(dir.join("manifest.txt")).expect("drop manifest");
            }
            check("partly filled");
        }
    }

    #[test]
    fn a_store_error_stops_the_grid_and_comes_back() {
        let grid = Grid::new();
        let cells: Vec<GridCell<'_>> = grid
            .cells()
            .into_iter()
            .filter(|c| c.settings.replicas == 2)
            .collect();
        assert_eq!(cells.len(), 3);
        let scratch = Scratch::new("io-error");
        let dir = |c: &GridCell<'_>| {
            scratch
                .0
                .cell_dir(&c.prepared.spec.name, c.device.name(), c.variant)
        };
        // Replica 1 of the second cell cannot commit its result.
        std::fs::create_dir_all(resume::result_path(&dir(&cells[1]), 1))
            .expect("plant a directory where the result goes");

        let err = run_grid_on(&cells, &scratch.durable(), 1).expect_err("the commit fails");
        assert_ne!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(dir(&cells[0]).join("manifest.txt").exists());
        assert!(resume::result_path(&dir(&cells[1]), 0).is_file());
        assert!(!dir(&cells[1]).join("manifest.txt").exists());
        let later: Vec<_> = std::fs::read_dir(dir(&cells[2]))
            .map(|d| d.flatten().map(|e| e.file_name()).collect())
            .unwrap_or_default();
        assert!(later.is_empty(), "the third cell started: {later:?}");
    }

    #[test]
    fn cells_sharing_a_store_directory_are_rejected() {
        let grid = Grid::new();
        let cell = grid.cells()[0];
        let scratch = Scratch::new("twice");
        let err =
            run_grid(&[cell, cell], &scratch.durable()).expect_err("one directory, two cells");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // In memory there is no directory to share.
        assert_eq!(run_variants(&[cell, cell]).len(), 2);
    }
}
