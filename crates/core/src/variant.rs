//! The paper's four experimental arms (§2.2), plus one arm per
//! algorithmic noise source (§2, Table 1).

use detrand::{Philox, SeedPolicy};
use hwsim::ExecutionMode;
use nnet::trainer::AlgoRoots;
use serde::{Deserialize, Serialize};

/// A noise variant: which families of randomness are left free.
///
/// | Variant    | Algorithmic seeds | Execution        |
/// |------------|-------------------|------------------|
/// | `AlgoImpl` | per replica       | nondeterministic |
/// | `Algo`     | per replica       | deterministic    |
/// | `Impl`     | fixed             | nondeterministic |
/// | `Control`  | fixed             | deterministic    |
/// | `InitOnly` … `DropoutOnly` | fixed, except the named source | nondeterministic |
///
/// `Control` must produce bitwise-identical replicas — asserted by the
/// integration tests. The single-source arms isolate one algorithmic
/// source; run them on deterministic hardware (the TPU) to keep
/// implementation noise out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NoiseVariant {
    /// Both noise families free (the default training setting).
    AlgoImpl,
    /// Only algorithmic noise (deterministic execution).
    Algo,
    /// Only implementation noise (fixed algorithmic seed).
    Impl,
    /// Neither (fixed seed + deterministic execution).
    Control,
    /// Only weight initialization is re-seeded per replica.
    InitOnly,
    /// Only the data order is re-seeded per replica (paper Fig. 6).
    ShuffleOnly,
    /// Only data augmentation is re-seeded per replica.
    AugmentOnly,
    /// Only stochastic layers (dropout) are re-seeded per replica.
    DropoutOnly,
}

impl NoiseVariant {
    /// The three measured arms of every figure (Control is a check, not a
    /// measurement — its variance is zero by construction).
    pub const MEASURED: [NoiseVariant; 3] = [
        NoiseVariant::AlgoImpl,
        NoiseVariant::Algo,
        NoiseVariant::Impl,
    ];

    /// The paper's four arms.
    pub const ALL: [NoiseVariant; 4] = [
        NoiseVariant::AlgoImpl,
        NoiseVariant::Algo,
        NoiseVariant::Impl,
        NoiseVariant::Control,
    ];

    /// The per-source algorithmic roots of replica `replica`: the one
    /// place a (variant, replica) pair becomes seeds.
    ///
    /// The paper's arms draw every source from one root, per replica or
    /// fixed ([`SeedPolicy`]). A single-source arm pins every source to the
    /// fixed root except its own, which gets
    /// `Philox::from_seed(base_seed ^ (0xF16_6000 + replica))`.
    pub fn algo_roots(self, base_seed: u64, replica: u32) -> AlgoRoots {
        let mut roots = AlgoRoots::shared(SeedPolicy::Fixed.root_for(base_seed, replica));
        let freed = Philox::from_seed(base_seed ^ (0xF16_6000 + replica as u64));
        match self {
            NoiseVariant::AlgoImpl | NoiseVariant::Algo => {
                roots = AlgoRoots::shared(SeedPolicy::PerReplica.root_for(base_seed, replica));
            }
            NoiseVariant::Impl | NoiseVariant::Control => {}
            NoiseVariant::InitOnly => roots.init = freed,
            NoiseVariant::ShuffleOnly => roots.shuffle = freed,
            NoiseVariant::AugmentOnly => roots.augment = freed,
            NoiseVariant::DropoutOnly => roots.dropout = freed,
        }
        roots
    }

    /// The execution mode under this variant.
    pub fn exec_mode(self) -> ExecutionMode {
        match self {
            NoiseVariant::Algo | NoiseVariant::Control => ExecutionMode::Deterministic,
            _ => ExecutionMode::Default,
        }
    }

    /// The paper's label for the variant.
    pub fn label(self) -> &'static str {
        match self {
            NoiseVariant::AlgoImpl => "ALGO+IMPL",
            NoiseVariant::Algo => "ALGO",
            NoiseVariant::Impl => "IMPL",
            NoiseVariant::Control => "CONTROL",
            NoiseVariant::InitOnly => "ALGO-INIT",
            NoiseVariant::ShuffleOnly => "ALGO-SHUFFLE",
            NoiseVariant::AugmentOnly => "ALGO-AUGMENT",
            NoiseVariant::DropoutOnly => "ALGO-DROPOUT",
        }
    }
}

impl std::fmt::Display for NoiseVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_matrix_matches_paper() {
        let shared =
            |v: NoiseVariant, r| v.algo_roots(7, r) == AlgoRoots::shared(v.algo_roots(7, r).init);
        for v in NoiseVariant::ALL {
            assert!(
                shared(v, 0) && shared(v, 1),
                "{v} draws every source from one root"
            );
        }
        assert_ne!(
            NoiseVariant::AlgoImpl.algo_roots(7, 0),
            NoiseVariant::AlgoImpl.algo_roots(7, 1)
        );
        assert_eq!(
            NoiseVariant::Algo.algo_roots(7, 1),
            NoiseVariant::AlgoImpl.algo_roots(7, 1)
        );
        assert_eq!(
            NoiseVariant::Impl.algo_roots(7, 0),
            NoiseVariant::Impl.algo_roots(7, 1)
        );
        assert_eq!(
            NoiseVariant::Control.algo_roots(7, 1),
            NoiseVariant::Impl.algo_roots(7, 1)
        );
        assert_eq!(NoiseVariant::AlgoImpl.exec_mode(), ExecutionMode::Default);
        assert_eq!(NoiseVariant::Algo.exec_mode(), ExecutionMode::Deterministic);
        assert_eq!(NoiseVariant::Impl.exec_mode(), ExecutionMode::Default);
        assert_eq!(
            NoiseVariant::Control.exec_mode(),
            ExecutionMode::Deterministic
        );
    }

    #[test]
    fn single_source_arms_free_exactly_one_root() {
        let fixed = NoiseVariant::Control.algo_roots(42, 3);
        let freed = Philox::from_seed(42 ^ (0xF16_6000 + 3));
        let free_sources = |r: AlgoRoots| {
            [r.init, r.shuffle, r.augment, r.dropout]
                .iter()
                .zip([fixed.init, fixed.shuffle, fixed.augment, fixed.dropout])
                .map(|(got, pinned)| {
                    assert!(*got == pinned || *got == freed);
                    *got != pinned
                })
                .collect::<Vec<_>>()
        };
        let arms = [
            NoiseVariant::InitOnly,
            NoiseVariant::ShuffleOnly,
            NoiseVariant::AugmentOnly,
            NoiseVariant::DropoutOnly,
        ];
        for (i, v) in arms.into_iter().enumerate() {
            let mut want = [false; 4];
            want[i] = true;
            assert_eq!(free_sources(v.algo_roots(42, 3)), want, "{v}");
            assert_eq!(v.exec_mode(), ExecutionMode::Default);
        }
    }

    #[test]
    fn labels_match_paper_nomenclature() {
        assert_eq!(NoiseVariant::AlgoImpl.to_string(), "ALGO+IMPL");
        assert_eq!(NoiseVariant::Impl.to_string(), "IMPL");
    }

    #[test]
    fn measured_excludes_control() {
        assert!(!NoiseVariant::MEASURED.contains(&NoiseVariant::Control));
        assert_eq!(NoiseVariant::ALL.len(), 4);
    }
}
