//! Mid-training checkpoints with a byte-exact binary codec.
//!
//! A [`Checkpoint`] captures everything `Trainer::fit_with` needs to resume
//! a run so that the continuation is *bitwise identical* to the
//! uninterrupted run: model state (parameters and batch-norm running
//! statistics), optimizer momentum, the shuffle and augmentation RNG
//! cursors, the execution context's reducer-scheduler states, and the
//! (shuffled) sample order. Replicas are pure functions of
//! their seeds, so byte-exact state capture is both necessary and
//! sufficient for byte-exact resume.
//!
//! # Why not JSON
//!
//! The workspace's `serde_json` stand-in is not trusted to round-trip
//! `f32` payloads bit-exactly (shortest-representation printing plus
//! re-parse). Checkpoints therefore use the little-endian binary codec of
//! [`crate::codec`]: every `f32` travels as its `to_bits()` pattern, so
//! NaN payloads, signed zeros and subnormals all survive unchanged.

use crate::codec::{write_atomic, Dec, DecodeError, Enc};
use detrand::{PhiloxSnapshot, StreamSnapshot};
use hwsim::ExecSnapshot;
use nstensor::ReducerSnapshot;
use std::fmt;
use std::path::Path;

/// Magic prefix of the checkpoint container ("NSCK").
const MAGIC: u32 = 0x4E53_434B;
/// Codec version; bump on any layout change.
const VERSION: u32 = 2;

/// A resumable snapshot of training state at an epoch boundary.
///
/// Produced by `Trainer::fit_with` through its checkpoint sink and
/// consumed through `FitOptions::resume`. All fields are public so
/// supervisors can inspect progress without decoding heuristics.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Epochs fully completed when the snapshot was taken.
    pub epochs_done: u32,
    /// Optimizer steps taken so far.
    pub steps: u64,
    /// Mean training loss of each completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Flattened model state: parameters and non-trained buffers such as
    /// batch-norm running statistics (`Network::state` order).
    pub state: Vec<f32>,
    /// SGD momentum buffers, one per parameter tensor.
    pub velocity: Vec<Vec<f32>>,
    /// Shuffle-stream RNG cursor.
    pub shuffle_rng: StreamSnapshot,
    /// Augmentation-stream RNG cursor.
    pub augment_rng: StreamSnapshot,
    /// Reducer-scheduler states of the execution context.
    pub exec: ExecSnapshot,
    /// Current sample visitation order (epoch shuffles compose, so the
    /// permutation itself is state).
    pub order: Vec<u32>,
}

/// Why a checkpoint byte stream could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// The magic prefix did not match.
    BadMagic,
    /// A known container with an unknown version.
    BadVersion(u32),
    /// Decoding succeeded but bytes were left over.
    TrailingBytes(usize),
    /// A field held bytes the encoder never writes (e.g. a flag byte
    /// other than 0 or 1).
    Malformed(DecodeError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after checkpoint")
            }
            CheckpointError::Malformed(e) => write!(f, "malformed checkpoint: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => CheckpointError::Truncated,
            DecodeError::TrailingBytes(n) => CheckpointError::TrailingBytes(n),
            other => CheckpointError::Malformed(other),
        }
    }
}

fn put_stream(e: &mut Enc, s: &StreamSnapshot) {
    e.u32(s.state.key[0]);
    e.u32(s.state.key[1]);
    e.u64(s.state.counter_lo);
    e.u64(s.state.counter_hi);
    for b in s.state.buf {
        e.u32(b);
    }
    e.u8(s.state.buf_pos);
    e.flag(s.gauss_spare.is_some());
    if let Some(v) = s.gauss_spare {
        e.f32(v);
    }
}

fn get_stream(d: &mut Dec<'_>) -> Result<StreamSnapshot, DecodeError> {
    Ok(StreamSnapshot {
        state: PhiloxSnapshot {
            key: [d.u32()?, d.u32()?],
            counter_lo: d.u64()?,
            counter_hi: d.u64()?,
            buf: [d.u32()?, d.u32()?, d.u32()?, d.u32()?],
            buf_pos: d.u8()?,
        },
        gauss_spare: if d.flag()? { Some(d.f32()?) } else { None },
    })
}

impl Checkpoint {
    /// Serializes to the versioned binary container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(64 + 4 * (self.state.len() + self.order.len()));
        e.u32(MAGIC);
        e.u32(VERSION);
        e.u32(self.epochs_done);
        e.u64(self.steps);
        e.f32s(&self.epoch_losses);
        e.f32s(&self.state);
        e.size(self.velocity.len());
        for v in &self.velocity {
            e.f32s(v);
        }
        put_stream(&mut e, &self.shuffle_rng);
        put_stream(&mut e, &self.augment_rng);
        e.size(self.exec.reducers.len());
        for r in &self.exec.reducers {
            e.u64(r.sched_state);
            e.u64(r.invocations);
        }
        e.u32s(&self.order);
        e.into_bytes()
    }

    /// Decodes a checkpoint previously produced by [`Checkpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on truncation, wrong magic/version, a
    /// malformed field, or trailing garbage. Never panics on malformed
    /// input, and whatever decodes re-encodes to exactly `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut d = Dec::new(bytes);
        if d.u32()? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = d.u32()?;
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let epochs_done = d.u32()?;
        let steps = d.u64()?;
        let epoch_losses = d.f32s()?;
        let state = d.f32s()?;
        let n_vel = d.len(8)?;
        let velocity = (0..n_vel).map(|_| d.f32s()).collect::<Result<_, _>>()?;
        let shuffle_rng = get_stream(&mut d)?;
        let augment_rng = get_stream(&mut d)?;
        let n_red = d.len(16)?;
        let reducers = (0..n_red)
            .map(|_| {
                Ok(ReducerSnapshot {
                    sched_state: d.u64()?,
                    invocations: d.u64()?,
                })
            })
            .collect::<Result<_, DecodeError>>()?;
        let order = d.u32s()?;
        d.finish()?;
        Ok(Self {
            epochs_done,
            steps,
            epoch_losses,
            state,
            velocity,
            shuffle_rng,
            augment_rng,
            exec: ExecSnapshot { reducers },
            order,
        })
    }

    /// Writes the checkpoint atomically (temp file + rename), so a crash
    /// mid-write never leaves a torn checkpoint for resume to trip over.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        write_atomic(path, &self.to_bytes())
    }

    /// Loads a checkpoint written by [`Checkpoint::save`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; decode failures surface as
    /// `InvalidData`.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detrand::{Philox, SplitMix64, StreamId};

    fn sample() -> Checkpoint {
        let mut s = Philox::from_seed(7).stream(StreamId::SHUFFLE);
        let mut a = Philox::from_seed(9).stream(StreamId::AUGMENT);
        for _ in 0..5 {
            s.next_f32();
            a.normal(); // leaves a gauss spare half the time
        }
        Checkpoint {
            epochs_done: 3,
            steps: 42,
            epoch_losses: vec![1.5, 0.75, f32::MIN_POSITIVE],
            state: vec![0.1, -0.0, f32::NAN, 2.5e-41],
            velocity: vec![vec![0.5, -0.5], vec![], vec![1.0]],
            shuffle_rng: s.snapshot(),
            augment_rng: a.snapshot(),
            exec: ExecSnapshot {
                reducers: vec![
                    ReducerSnapshot {
                        sched_state: 0xDEAD_BEEF,
                        invocations: 17,
                    };
                    5
                ],
            },
            order: vec![3, 0, 2, 1],
        }
    }

    #[test]
    fn round_trip_is_byte_exact() {
        let ck = sample();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("decode");
        // PartialEq would treat NaN != NaN; compare the re-encoding.
        assert_eq!(bytes, back.to_bytes());
        assert_eq!(back.state[2].to_bits(), f32::NAN.to_bits());
        assert_eq!(back.state[1].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn rejects_malformed_input() {
        let bytes = sample().to_bytes();
        assert_eq!(
            Checkpoint::from_bytes(&bytes[..bytes.len() - 1]),
            Err(CheckpointError::Truncated)
        );
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(Checkpoint::from_bytes(&bad), Err(CheckpointError::BadMagic));
        let mut vers = bytes.clone();
        vers[4] = 99;
        assert_eq!(
            Checkpoint::from_bytes(&vers),
            Err(CheckpointError::BadVersion(99))
        );
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            Checkpoint::from_bytes(&long),
            Err(CheckpointError::TrailingBytes(1))
        );
        // A corrupt length prefix must not allocate terabytes.
        assert!(Checkpoint::from_bytes(&bytes[..16]).is_err());
    }

    /// Every truncation of a valid checkpoint, and every single-byte
    /// overwrite from a fixed SplitMix64 sequence, either fails to decode
    /// or decodes to a checkpoint that re-encodes to exactly those bytes.
    #[test]
    fn mangled_bytes_never_decode_to_a_different_encoding() {
        let bytes = sample().to_bytes();
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
            if let Ok(ck) = Checkpoint::from_bytes(&m) {
                assert_eq!(
                    ck.to_bytes(),
                    m,
                    "a mangled checkpoint decoded to a different encoding"
                );
            }
        }
    }

    /// Every layer type, given state its constructor does not produce
    /// (a few training-mode forwards move batch-norm running statistics),
    /// is copied through a checkpoint into a layer built from another
    /// seed. The copy's eval-mode forward must match the source's bit for
    /// bit, so a layer whose output depends on state outside
    /// `Layer::visit_state` fails here.
    #[test]
    fn every_layer_round_trips_its_eval_forward() {
        use crate::layers::*;
        use hwsim::{Device, ExecutionContext, ExecutionMode};
        use nstensor::{ConvGeometry, Shape, Tensor};

        type Build = fn(&mut detrand::StreamRng) -> Box<dyn Layer>;
        let cases: [(&str, Build, &[usize]); 9] = [
            ("dense", |r| Box::new(Dense::new(6, 4, r)), &[3, 6]),
            (
                "conv2d",
                |r| Box::new(Conv2d::new(ConvGeometry::new(2, 3, 3, 1, 1, 5, 5), r)),
                &[3, 2, 5, 5],
            ),
            (
                "batchnorm2d",
                |r| Box::new(BatchNorm2d::new(2, r)),
                &[3, 2, 4, 4],
            ),
            (
                "residual",
                |r| Box::new(ResidualBlock::new(2, 4, 2, 4, 4, r)),
                &[3, 2, 4, 4],
            ),
            ("relu", |_| Box::new(Relu::new()), &[3, 6]),
            ("dropout", |_| Box::new(Dropout::new(0.5, 0)), &[3, 6]),
            ("maxpool2d", |_| Box::new(MaxPool2d::new(2)), &[3, 2, 4, 4]),
            ("flatten", |_| Box::new(Flatten::new()), &[3, 2, 4, 4]),
            (
                "globalavgpool",
                |_| Box::new(GlobalAvgPool::new()),
                &[3, 2, 4, 4],
            ),
        ];
        let mut exec = ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0);
        let input = |seed: u64, dims: &[usize]| {
            let mut rng = Philox::from_seed(seed).stream(StreamId::TEST);
            let mut x = Tensor::zeros(Shape::of(dims));
            x.as_mut_slice().iter_mut().for_each(|v| *v = rng.normal());
            x
        };
        let bits = |t: Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (name, build, dims) in cases {
            let root = Philox::from_seed(1);
            let mut source = build(&mut root.stream(StreamId::INIT));
            for step in 0..3 {
                source.forward(input(10 + step, dims), &mut exec, &root, step, true);
            }
            let mut copy = build(&mut Philox::from_seed(2).stream(StreamId::INIT));
            let x = input(99, dims);
            let want = bits(source.forward(x.clone(), &mut exec, &root, u64::MAX, false));
            let mut state = Vec::new();
            source.visit_state(&mut |t, _| state.extend_from_slice(t.as_slice()));
            if !state.is_empty() {
                assert_ne!(
                    bits(copy.forward(x.clone(), &mut exec, &root, u64::MAX, false)),
                    want,
                    "{name}: the copy must start from different state"
                );
            }
            let ck = Checkpoint { state, ..sample() };
            let back = Checkpoint::from_bytes(&ck.to_bytes()).expect("decode");
            let mut offset = 0;
            copy.visit_state(&mut |t, _| {
                let n = t.len();
                t.as_mut_slice()
                    .copy_from_slice(&back.state[offset..offset + n]);
                offset += n;
            });
            assert_eq!(offset, back.state.len(), "{name}: state size");
            assert_eq!(
                bits(copy.forward(x, &mut exec, &root, u64::MAX, false)),
                want,
                "{name}: restored eval forward differs"
            );
        }
    }

    #[test]
    fn save_load_round_trips_on_disk() {
        let dir = std::env::temp_dir().join("nnet-ckpt-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ck.bin");
        let ck = sample();
        ck.save(&path).expect("save");
        let back = Checkpoint::load(&path).expect("load");
        assert_eq!(ck.to_bytes(), back.to_bytes());
        std::fs::remove_file(&path).ok();
    }
}
