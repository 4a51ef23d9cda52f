//! Durable fleet progress: the [`CheckpointStore`] under `results/.ckpt/`.
//!
//! The reproduction driver runs large (task × device × variant) grids that
//! can be interrupted at any point — a wall-clock limit, a host failure, a
//! ctrl-C. The store makes those interruptions cheap instead of fatal.
//! Under [`Executor::Durable`] and [`Executor::Processes`] the engine in
//! [`crate::runner::run_grid`]:
//!
//! - persists every *completed* replica's [`ReplicaResult`] to its cell
//!   directory the moment it finishes (resume skips it entirely);
//! - sinks an epoch-boundary [`Checkpoint`] of every *in-flight* replica
//!   to disk, so a resumed run re-enters mid-training instead of
//!   re-training from scratch;
//! - keeps a human-readable `manifest.txt` per cell, rewritten when the
//!   cell's last replica lands.
//!
//! Because replicas are pure functions of `(task, device, variant,
//! settings, replica)` and checkpoints capture the *complete* training
//! state (weights, optimizer velocity, RNG streams, scheduler state, data
//! order), a resumed fleet is bit-identical to an uninterrupted one. That
//! property is asserted by this module's tests and by the golden resume
//! integration test.
//!
//! Layout under the store root (one directory per cell):
//!
//! ```text
//! <root>/<task>/<device>/<variant>/
//!     r0.result      completed replica 0 (binary, byte-exact floats)
//!     r0.status      "ok" | "retried N" | "failed <reason>" | ...
//!     r1.ckpt        epoch-boundary checkpoint of in-flight replica 1
//!     manifest.txt   human-readable fleet progress
//! ```
//!
//! The status is written before the result, so the result file is the
//! commit record: a replica counts as complete exactly when its result
//! decodes.

use crate::runner::{
    run_cell, Executor, Preds, PreparedTask, ReplicaResult, ReplicaStatus, VariantRuns,
};
use crate::settings::ExperimentSettings;
use crate::variant::NoiseVariant;
use hwsim::Device;
use nnet::checkpoint::Checkpoint;
use nnet::codec::{Dec, Enc};
use std::io;
use std::path::{Path, PathBuf};

pub use nnet::codec::write_atomic;

/// Magic prefix of a persisted replica result ("NSRR").
const RESULT_MAGIC: u32 = 0x4E53_5252;
/// Result codec version.
const RESULT_VERSION: u32 = 1;

/// A directory of durable fleet progress, rooted (by convention) at
/// `results/.ckpt/`.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    root: PathBuf,
}

/// Replaces path-hostile characters so task/device/variant names can name
/// directories ("SmallCNN CIFAR-10" → "SmallCNN_CIFAR-10").
fn path_component(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl CheckpointStore {
    /// Opens (or designates) a store rooted at `root`. No IO happens until
    /// a fleet runs.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// A store scoped under `root` by a fingerprint of every settings knob
    /// that shapes replica results. Cells are keyed only by (task, device,
    /// variant), so without the scope a run with a different seed, salt or
    /// epoch scale would silently reuse stale cached replicas. Knobs that
    /// cannot change a bit (threads, retries, chaos, watchdog) stay out.
    pub fn for_settings(root: impl Into<PathBuf>, settings: &ExperimentSettings) -> Self {
        let fp = format!(
            "s{}-r{}-x{:x}-u{}-e{}",
            settings.base_seed,
            settings.replicas,
            settings.entropy_salt,
            settings.amp_ulps,
            settings.epochs_scale
        );
        Self {
            root: root.into().join(path_component(&fp)),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory holding one cell's progress.
    pub fn cell_dir(&self, task: &str, device: &str, variant: NoiseVariant) -> PathBuf {
        self.root
            .join(path_component(task))
            .join(path_component(device))
            .join(path_component(variant.label()))
    }
}

/// Encodes a [`ReplicaResult`] with byte-exact floats: a resumed fleet
/// must reproduce an uninterrupted one bit-for-bit, and a text codec
/// cannot promise that. Shared with the fleet IPC layer, which ships the
/// same bytes over a pipe instead of through a file.
pub(crate) fn encode_result(r: &ReplicaResult) -> Vec<u8> {
    let mut e = Enc::with_capacity(64 + 4 * r.weights.len());
    e.u32(RESULT_MAGIC);
    e.u32(RESULT_VERSION);
    e.u32(r.replica);
    e.f64(r.accuracy);
    match &r.preds {
        Preds::Classes(p) => {
            e.u8(0);
            e.u32s(p);
        }
        Preds::Binary(p) => {
            e.u8(1);
            e.size(p.len());
            e.bytes(p);
        }
    }
    e.f32s(&r.weights);
    e.f32(r.final_train_loss);
    e.into_bytes()
}

fn bad(detail: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("replica result: {detail}"),
    )
}

/// Decodes [`encode_result`] bytes; truncated or foreign bytes surface as
/// [`io::ErrorKind::InvalidData`], never a panic.
pub(crate) fn decode_result(bytes: &[u8]) -> io::Result<ReplicaResult> {
    let mut d = Dec::new(bytes);
    if d.u32()? != RESULT_MAGIC {
        return Err(bad("bad magic"));
    }
    let version = d.u32()?;
    if version != RESULT_VERSION {
        return Err(bad(&format!("unsupported version {version}")));
    }
    let replica = d.u32()?;
    let accuracy = d.f64()?;
    let preds = match d.u8()? {
        0 => Preds::Classes(d.u32s()?),
        1 => {
            let n = d.len(1)?;
            Preds::Binary(d.take(n)?.to_vec())
        }
        t => return Err(bad(&format!("unknown preds tag {t}"))),
    };
    let weights = d.f32s()?;
    let final_train_loss = d.f32()?;
    d.finish()?;
    Ok(ReplicaResult {
        replica,
        accuracy,
        preds,
        weights,
        final_train_loss,
    })
}

pub(crate) fn status_line(status: &ReplicaStatus) -> String {
    match status {
        ReplicaStatus::Ok => "ok".into(),
        ReplicaStatus::Retried { attempts } => format!("retried {attempts}"),
        ReplicaStatus::Failed { reason } => format!("failed {}", reason.replace('\n', " ")),
        ReplicaStatus::TimedOut { attempts } => format!("timedout {attempts}"),
        ReplicaStatus::Crashed { reason } => format!("crashed {}", reason.replace('\n', " ")),
    }
}

pub(crate) fn parse_status(line: &str) -> Option<ReplicaStatus> {
    let line = line.trim();
    if line == "ok" {
        return Some(ReplicaStatus::Ok);
    }
    if let Some(rest) = line.strip_prefix("retried ") {
        return rest
            .parse()
            .ok()
            .map(|attempts| ReplicaStatus::Retried { attempts });
    }
    if let Some(rest) = line.strip_prefix("timedout ") {
        return rest
            .parse()
            .ok()
            .map(|attempts| ReplicaStatus::TimedOut { attempts });
    }
    if let Some(reason) = line.strip_prefix("crashed ") {
        return Some(ReplicaStatus::Crashed {
            reason: reason.to_string(),
        });
    }
    line.strip_prefix("failed ")
        .map(|reason| ReplicaStatus::Failed {
            reason: reason.to_string(),
        })
}

pub(crate) fn result_path(dir: &Path, replica: u32) -> PathBuf {
    dir.join(format!("r{replica}.result"))
}

pub(crate) fn status_path(dir: &Path, replica: u32) -> PathBuf {
    dir.join(format!("r{replica}.status"))
}

pub(crate) fn ckpt_path(dir: &Path, replica: u32) -> PathBuf {
    dir.join(format!("r{replica}.ckpt"))
}

/// A completed replica of the cell in `dir`, if its result file decodes;
/// anything else (absent, torn, foreign bytes) means the replica runs
/// again. The result is the commit record, so a failed or missing status
/// next to it is stale (say, from a run that exhausted its budget before
/// a resume succeeded) and reads as `Ok`.
pub(crate) fn harvest(dir: &Path, replica: u32) -> Option<(ReplicaResult, ReplicaStatus)> {
    let bytes = std::fs::read(result_path(dir, replica)).ok()?;
    let result = decode_result(&bytes).ok()?;
    let status = std::fs::read_to_string(status_path(dir, replica))
        .ok()
        .and_then(|s| parse_status(&s))
        .filter(|s| !s.is_failed())
        .unwrap_or(ReplicaStatus::Ok);
    Some((result, status))
}

/// Persists a supervised replica: the status first, then the result (the
/// commit record), then drops its no-longer-needed checkpoint.
pub(crate) fn persist(
    dir: &Path,
    replica: u32,
    result: Option<&ReplicaResult>,
    status: &ReplicaStatus,
) -> io::Result<()> {
    write_atomic(&status_path(dir, replica), status_line(status).as_bytes())?;
    if let Some(r) = result {
        write_atomic(&result_path(dir, replica), &encode_result(r))?;
        std::fs::remove_file(ckpt_path(dir, replica)).ok();
    }
    Ok(())
}

/// The newest durable checkpoint of `replica`. An unreadable one (a torn
/// write, disk corruption) is deleted, and the replica starts fresh
/// instead of failing.
pub(crate) fn resume_point(dir: &Path, replica: u32) -> Option<Checkpoint> {
    let path = ckpt_path(dir, replica);
    match Checkpoint::load(&path) {
        Ok(c) => Some(c),
        Err(e) => {
            if e.kind() != io::ErrorKind::NotFound {
                std::fs::remove_file(&path).ok();
            }
            None
        }
    }
}

/// Rewrites the cell's human-readable progress manifest.
pub(crate) fn write_manifest(
    dir: &Path,
    task: &str,
    device: &str,
    variant: NoiseVariant,
    statuses: &[ReplicaStatus],
) -> io::Result<()> {
    let mut out = format!(
        "cell: {task} / {device} / {variant}\nreplicas: {n} of {n} accounted for\n",
        n = statuses.len()
    );
    for (r, s) in statuses.iter().enumerate() {
        out.push_str(&format!("r{r}: {}\n", status_line(s)));
    }
    write_atomic(&dir.join("manifest.txt"), out.as_bytes())
}

/// [`run_cell`] on [`Executor::Durable`]: completed replicas load from
/// `store`, in-flight replicas resume from their newest epoch checkpoint,
/// and every completion is persisted before the fleet moves on.
/// Previously failed replicas are re-attempted: under a deterministic
/// chaos schedule they fail identically (cheap), while a real transient
/// host fault gets a fresh chance.
///
/// # Errors
///
/// As [`run_cell`]; training faults degrade into [`ReplicaStatus`]
/// entries, never errors.
pub fn run_variant_resumable(
    prepared: &PreparedTask,
    device: &Device,
    variant: NoiseVariant,
    settings: &ExperimentSettings,
    store: &CheckpointStore,
    checkpoint_every_epochs: u32,
) -> io::Result<VariantRuns> {
    run_cell(
        prepared,
        device,
        variant,
        settings,
        &Executor::Durable {
            store: store.clone(),
            checkpoint_every_epochs,
        },
    )
}

#[cfg(test)]
// Bit-identical resume is the property under test.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::runner::{run_replica_with, run_variant, ReplicaOptions};
    use crate::task::{DataSource, TaskSpec};
    use detrand::SplitMix64;
    use nsdata::GaussianSpec;

    fn tiny_task() -> TaskSpec {
        let mut t = TaskSpec::small_cnn_cifar10();
        t.data = DataSource::Gaussian(GaussianSpec {
            classes: 3,
            train_per_class: 10,
            test_per_class: 6,
            ..GaussianSpec::cifar10_sim()
        });
        t.train.epochs = 4;
        t.augment = false;
        t
    }

    /// Every settings field is classified: changing a result-shaping one
    /// moves the store scope, and changing a supervision-only one does not.
    #[test]
    fn store_scope_covers_exactly_the_result_shaping_settings() {
        // Exhaustive: a new field does not compile until it is classified
        // here and edited in one of the lists below.
        let ExperimentSettings {
            // Result-shaping.
            replicas: _,
            base_seed: _,
            entropy_salt: _,
            amp_ulps: _,
            epochs_scale: _,
            // Supervision-only.
            exec_threads: _,
            retry_budget: _,
            chaos: _,
            worker_timeout_ms: _,
            heartbeat_every_steps: _,
        } = ExperimentSettings::default();
        type Edit = fn(&mut ExperimentSettings);
        let shaping: [(&str, Edit); 5] = [
            ("replicas", |s| s.replicas += 1),
            ("base_seed", |s| s.base_seed += 1),
            ("entropy_salt", |s| s.entropy_salt ^= 1),
            ("amp_ulps", |s| s.amp_ulps += 1.0),
            ("epochs_scale", |s| s.epochs_scale /= 2.0),
        ];
        let supervision: [(&str, Edit); 5] = [
            ("exec_threads", |s| s.exec_threads += 1),
            ("retry_budget", |s| s.retry_budget += 1),
            ("chaos", |s| {
                s.chaos = hwsim::ChaosConfig::parse("7:1,0,2,1,1@250")
            }),
            ("worker_timeout_ms", |s| s.worker_timeout_ms += 1),
            ("heartbeat_every_steps", |s| s.heartbeat_every_steps += 1),
        ];
        let base = ExperimentSettings::default();
        let root = |s: &ExperimentSettings| CheckpointStore::for_settings("store", s).root;
        let scope_moves = |field: &str, edit: Edit| {
            let mut changed = base;
            edit(&mut changed);
            assert_ne!(changed, base, "{field}: the edit must change the settings");
            root(&changed) != root(&base)
        };
        for (field, edit) in shaping {
            assert!(scope_moves(field, edit), "{field} shapes results");
        }
        for (field, edit) in supervision {
            assert!(!scope_moves(field, edit), "{field} is supervision-only");
        }
    }

    fn tiny_settings() -> ExperimentSettings {
        ExperimentSettings {
            replicas: 2,
            ..ExperimentSettings::default()
        }
    }

    /// A unique scratch store per test, cleaned up on drop.
    struct Scratch(CheckpointStore);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("noisescope-resume-{tag}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            Scratch(CheckpointStore::new(dir))
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_dir_all(self.0.root()).ok();
        }
    }

    #[test]
    fn result_codec_round_trips_byte_exact() {
        let r = ReplicaResult {
            replica: 7,
            accuracy: 0.687_432_109_8,
            preds: Preds::Classes(vec![0, 3, 2, 1]),
            weights: vec![1.5, -0.25, f32::MIN_POSITIVE, 1e-30],
            final_train_loss: 0.042,
        };
        let bytes = encode_result(&r);
        let back = decode_result(&bytes).expect("decode");
        assert_eq!(back.replica, r.replica);
        assert_eq!(back.accuracy.to_bits(), r.accuracy.to_bits());
        assert_eq!(back.preds, r.preds);
        let bits = |ws: &[f32]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.weights), bits(&r.weights));
        assert_eq!(
            back.final_train_loss.to_bits(),
            r.final_train_loss.to_bits()
        );

        let b = ReplicaResult {
            preds: Preds::Binary(vec![0, 1, 1, 0]),
            ..r
        };
        assert_eq!(
            decode_result(&encode_result(&b)).expect("decode").preds,
            b.preds
        );
    }

    #[test]
    fn result_codec_rejects_malformed_input() {
        assert!(decode_result(&[]).is_err());
        assert!(decode_result(b"not a result file").is_err());
        let r = ReplicaResult {
            replica: 0,
            accuracy: 0.5,
            preds: Preds::Classes(vec![1]),
            weights: vec![1.0],
            final_train_loss: 0.1,
        };
        let mut bytes = encode_result(&r);
        bytes.truncate(bytes.len() - 2);
        assert!(decode_result(&bytes).is_err());
        let mut bytes = encode_result(&r);
        bytes.push(0);
        assert!(decode_result(&bytes).is_err());
    }

    /// Every truncation of a valid result, and every single-byte
    /// overwrite from a fixed SplitMix64 sequence, either fails to decode
    /// or re-encodes to exactly those bytes.
    #[test]
    fn mangled_results_never_decode_to_a_different_encoding() {
        for preds in [Preds::Classes(vec![2, 0, 1]), Preds::Binary(vec![1, 0])] {
            let bytes = encode_result(&ReplicaResult {
                replica: 3,
                accuracy: 0.625,
                preds,
                weights: vec![0.5, -0.0, f32::NAN],
                final_train_loss: 0.25,
            });
            let mut rng = SplitMix64::new(0x5EED);
            let mut cases: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
            for i in 0..bytes.len() {
                for _ in 0..4 {
                    let mut m = bytes.clone();
                    m[i] = rng.next_u64() as u8;
                    cases.push(m);
                }
            }
            for m in cases {
                if let Ok(r) = decode_result(&m) {
                    assert_eq!(encode_result(&r), m);
                }
            }
        }
    }

    #[test]
    fn status_lines_round_trip() {
        for s in [
            ReplicaStatus::Ok,
            ReplicaStatus::Retried { attempts: 3 },
            ReplicaStatus::Failed {
                reason: "2 attempts exhausted; last: injected".into(),
            },
            ReplicaStatus::TimedOut { attempts: 3 },
            ReplicaStatus::Crashed {
                reason: "signal 6".into(),
            },
        ] {
            assert_eq!(parse_status(&status_line(&s)), Some(s));
        }
        assert_eq!(parse_status("gibberish"), None);
    }

    #[test]
    fn resumable_fleet_matches_in_memory_fleet() {
        let scratch = Scratch::new("fresh");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let device = Device::v100();
        let baseline = run_variant(&prepared, &device, NoiseVariant::Impl, &settings);
        let durable = run_variant_resumable(
            &prepared,
            &device,
            NoiseVariant::Impl,
            &settings,
            &scratch.0,
            2,
        )
        .expect("resumable fleet");
        assert_eq!(durable.statuses, baseline.statuses);
        for (a, b) in baseline.results.iter().zip(&durable.results) {
            assert_eq!(a.weights, b.weights);
            assert_eq!(a.preds, b.preds);
        }
        let dir = scratch
            .0
            .cell_dir(&prepared.spec.name, device.name(), NoiseVariant::Impl);
        assert!(result_path(&dir, 0).exists());
        assert!(result_path(&dir, 1).exists());
        assert!(
            !ckpt_path(&dir, 0).exists(),
            "completed replicas clean up their checkpoints"
        );
        let manifest = std::fs::read_to_string(dir.join("manifest.txt")).expect("manifest");
        assert!(manifest.contains("2 of 2 accounted for"), "{manifest}");
    }

    #[test]
    fn mid_fleet_resume_skips_completed_replicas_bit_identically() {
        let scratch = Scratch::new("midfleet");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let device = Device::v100();

        // Interrupted first pass: only replica 0 completed.
        let one = ExperimentSettings {
            replicas: 1,
            ..settings
        };
        let first =
            run_variant_resumable(&prepared, &device, NoiseVariant::Impl, &one, &scratch.0, 0)
                .expect("first pass");
        assert_eq!(first.results.len(), 1);

        // Resume with the full fleet: replica 0 loads from disk (we corrupt
        // nothing but a re-train would be detected below anyway), replica 1
        // trains fresh.
        let resumed = run_variant_resumable(
            &prepared,
            &device,
            NoiseVariant::Impl,
            &settings,
            &scratch.0,
            0,
        )
        .expect("resumed pass");
        let reference = run_variant(&prepared, &device, NoiseVariant::Impl, &settings);
        assert_eq!(resumed.results.len(), 2);
        for (a, b) in reference.results.iter().zip(&resumed.results) {
            assert_eq!(a.weights, b.weights, "replica {}", a.replica);
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        }
    }

    #[test]
    fn mid_training_resume_from_epoch_checkpoint_is_bit_identical() {
        let scratch = Scratch::new("midtrain");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let device = Device::v100();
        let dir = scratch
            .0
            .cell_dir(&prepared.spec.name, device.name(), NoiseVariant::Impl);
        std::fs::create_dir_all(&dir).expect("mkdir");

        // Simulate an interrupted replica 0: capture its epoch-2 checkpoint
        // (as the durable sink would have) and plant it in the store.
        let mut planted: Option<Checkpoint> = None;
        let mut sink = |c: &Checkpoint| {
            if c.epochs_done == 2 {
                planted = Some(c.clone());
            }
        };
        run_replica_with(
            &prepared,
            &device,
            NoiseVariant::Impl,
            &settings,
            0,
            ReplicaOptions {
                checkpoint_every_epochs: 2,
                sink: Some(&mut sink),
                ..ReplicaOptions::default()
            },
        )
        .expect("probe replica");
        planted
            .expect("4-epoch run checkpoints at epoch 2")
            .save(&ckpt_path(&dir, 0))
            .expect("plant checkpoint");

        let resumed = run_variant_resumable(
            &prepared,
            &device,
            NoiseVariant::Impl,
            &settings,
            &scratch.0,
            2,
        )
        .expect("resumed fleet");
        let reference = run_variant(&prepared, &device, NoiseVariant::Impl, &settings);
        for (a, b) in reference.results.iter().zip(&resumed.results) {
            assert_eq!(
                a.weights, b.weights,
                "replica {} resumed mid-training must be bit-identical",
                a.replica
            );
            assert_eq!(a.preds, b.preds);
        }
    }

    /// A replica exhausted its budget in one run and succeeded on resume,
    /// and the process died after writing the result but before
    /// rewriting the status. The store then holds a readable result next
    /// to a `failed` status; the result is the commit record, so the cell
    /// must read as complete.
    #[test]
    fn readable_result_beats_a_stale_failed_status() {
        let scratch = Scratch::new("stale-status");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let device = Device::v100();
        let reference = run_variant(&prepared, &device, NoiseVariant::Impl, &settings);
        let dir = scratch
            .0
            .cell_dir(&prepared.spec.name, device.name(), NoiseVariant::Impl);
        std::fs::create_dir_all(&dir).expect("mkdir");
        for r in &reference.results {
            std::fs::write(result_path(&dir, r.replica), encode_result(r)).expect("plant result");
            std::fs::write(
                status_path(&dir, r.replica),
                "failed 3 attempts exhausted; last: injected",
            )
            .expect("plant status");
        }
        let runs = run_cell(
            &prepared,
            &device,
            NoiseVariant::Impl,
            &settings,
            &Executor::Durable {
                store: scratch.0.clone(),
                checkpoint_every_epochs: 0,
            },
        )
        .expect("durable cell");
        assert!(runs.is_complete(), "{:?}", runs.statuses);
        assert_eq!(runs.statuses, vec![ReplicaStatus::Ok; 2]);
        assert_eq!(runs.results.len(), 2);
    }

    #[test]
    fn corrupt_store_files_degrade_to_retraining() {
        let scratch = Scratch::new("corrupt");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let device = Device::v100();
        let dir = scratch
            .0
            .cell_dir(&prepared.spec.name, device.name(), NoiseVariant::Impl);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(result_path(&dir, 0), b"torn write").expect("plant corrupt result");
        std::fs::write(ckpt_path(&dir, 1), b"torn write").expect("plant corrupt ckpt");

        let runs = run_variant_resumable(
            &prepared,
            &device,
            NoiseVariant::Impl,
            &settings,
            &scratch.0,
            0,
        )
        .expect("fleet survives corrupt store files");
        let reference = run_variant(&prepared, &device, NoiseVariant::Impl, &settings);
        assert_eq!(runs.results.len(), 2);
        for (a, b) in reference.results.iter().zip(&runs.results) {
            assert_eq!(a.weights, b.weights);
        }
    }
}
