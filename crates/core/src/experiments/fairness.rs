//! The fairness experiments: Table 3, Figure 3 and Table 5 (CelebA
//! subgroup variance).

use crate::report::render_table;
use crate::runner::{run_variants, GridCell, PreparedData, PreparedTask};
use crate::settings::ExperimentSettings;
use crate::task::TaskSpec;
use crate::variant::NoiseVariant;
use hwsim::Device;
use nnet::trainer::Targets;
use nsdata::{CelebaMeta, SubgroupCounts};
use nsmetrics::{binary_rates, relative_scale, stddev};
use serde::{Deserialize, Serialize};

/// The protected subgroups of the paper's Figure 3 / Table 5.
pub const SUBGROUPS: [&str; 5] = ["All", "Male", "Female", "Young", "Old"];

/// One row of Table 5: the stddev (and scale relative to "All") of a
/// subgroup's accuracy, FPR and FNR across replicas.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubgroupRow {
    /// Subgroup name.
    pub group: String,
    /// Stddev of subgroup accuracy.
    pub std_accuracy: f64,
    /// `std_accuracy / std_accuracy(All)`.
    pub rel_accuracy: f64,
    /// Stddev of subgroup FPR.
    pub std_fpr: f64,
    /// Relative FPR scale.
    pub rel_fpr: f64,
    /// Stddev of subgroup FNR.
    pub std_fnr: f64,
    /// Relative FNR scale.
    pub rel_fnr: f64,
}

/// Table 5 for one noise variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5 {
    /// The variant measured.
    pub variant: NoiseVariant,
    /// Rows in [`SUBGROUPS`] order.
    pub rows: Vec<SubgroupRow>,
}

/// A subgroup name outside [`SUBGROUPS`] reached the fairness masks.
///
/// Propagated like [`crate::runner::PredsKindError`]: a typo'd subgroup in
/// an experiment configuration degrades that experiment, not the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSubgroupError {
    /// The unrecognized subgroup name.
    pub group: String,
}

impl std::fmt::Display for UnknownSubgroupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown subgroup {:?} (expected one of {SUBGROUPS:?})",
            self.group
        )
    }
}

impl std::error::Error for UnknownSubgroupError {}

fn mask_for(meta: &[CelebaMeta], group: &str) -> Result<Vec<bool>, UnknownSubgroupError> {
    let select: fn(&CelebaMeta) -> bool = match group {
        "All" => |_| true,
        "Male" => |m| m.male,
        "Female" => |m| !m.male,
        "Young" => |m| m.young,
        "Old" => |m| !m.young,
        other => {
            return Err(UnknownSubgroupError {
                group: other.to_string(),
            })
        }
    };
    Ok(meta.iter().map(select).collect())
}

/// Runs the CelebA experiment for the three measured variants on V100,
/// returning one Table 5 per variant (Fig. 3 plots the same data).
///
/// # Errors
///
/// Returns [`UnknownSubgroupError`] if a subgroup name cannot be mapped to
/// a metadata mask (impossible for the built-in [`SUBGROUPS`], but the
/// mask path is fallible so custom subgroup lists degrade gracefully).
pub fn fig3_table5(settings: &ExperimentSettings) -> Result<Vec<Table5>, UnknownSubgroupError> {
    let task = TaskSpec::celeba();
    let prepared = PreparedTask::prepare(&task);
    let meta = match &*prepared.data {
        PreparedData::Celeba(c) => c.test_meta.clone(),
        PreparedData::Gaussian(_) => unreachable!("celeba task prepares celeba data"),
    };
    let labels: Vec<u8> = match &prepared.test_set().targets {
        Targets::Binary(t) => t.as_slice().iter().map(|&v| (v > 0.5) as u8).collect(),
        Targets::Classes(_) => unreachable!(),
    };
    // Masks depend only on the metadata, not the variant or replica:
    // compute them once, surfacing any unknown subgroup before training.
    let masks: Vec<Vec<bool>> = SUBGROUPS
        .iter()
        .map(|group| mask_for(&meta, group))
        .collect::<Result<_, _>>()?;
    let device = Device::v100();
    let cells: Vec<GridCell<'_>> = NoiseVariant::MEASURED
        .iter()
        .map(|&variant| GridCell {
            prepared: &prepared,
            device: &device,
            variant,
            settings,
        })
        .collect();

    run_variants(&cells)
        .into_iter()
        .map(|runs| {
            let preds = runs
                .binary_pred_sets()
                .expect("CelebA attribute tasks predict binary labels");
            // Per subgroup, per replica: accuracy/FPR/FNR; then stddev.
            let mut per_group: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> =
                vec![(Vec::new(), Vec::new(), Vec::new()); SUBGROUPS.len()];
            for p in &preds {
                for (gi, mask) in masks.iter().enumerate() {
                    let r = binary_rates(p, &labels, mask);
                    per_group[gi].0.push(r.accuracy);
                    per_group[gi].1.push(r.fpr);
                    per_group[gi].2.push(r.fnr);
                }
            }
            let base_acc = stddev(&per_group[0].0);
            let base_fpr = stddev(&per_group[0].1);
            let base_fnr = stddev(&per_group[0].2);
            let rows = SUBGROUPS
                .iter()
                .enumerate()
                .map(|(gi, group)| {
                    let sa = stddev(&per_group[gi].0);
                    let sp = stddev(&per_group[gi].1);
                    let sn = stddev(&per_group[gi].2);
                    SubgroupRow {
                        group: group.to_string(),
                        std_accuracy: sa,
                        rel_accuracy: relative_scale(sa, base_acc),
                        std_fpr: sp,
                        rel_fpr: relative_scale(sp, base_fpr),
                        std_fnr: sn,
                        rel_fnr: relative_scale(sn, base_fnr),
                    }
                })
                .collect();
            Table5 {
                variant: runs.variant,
                rows,
            }
        })
        .map(Ok)
        .collect()
}

/// Table 3: the subgroup positive/negative counts of the generated CelebA
/// stand-in's training split.
pub fn table3() -> SubgroupCounts {
    let task = TaskSpec::celeba();
    let prepared = PreparedTask::prepare(&task);
    match &*prepared.data {
        PreparedData::Celeba(c) => c.train_counts(),
        PreparedData::Gaussian(_) => unreachable!(),
    }
}

/// Renders Table 3 in the paper's layout.
pub fn render_table3(c: &SubgroupCounts) -> String {
    let total = c.total() as f64;
    let pct = |n: usize| format!("{n} ({:.1}%)", 100.0 * n as f64 / total);
    render_table(
        "Table 3: data-point distribution in the CelebA stand-in",
        &["", "Male", "Female", "Young", "Old"],
        &[
            vec![
                "Positive".into(),
                pct(c.male_pos),
                pct(c.female_pos),
                pct(c.young_pos),
                pct(c.old_pos),
            ],
            vec![
                "Negative".into(),
                pct(c.male_neg),
                pct(c.female_neg),
                pct(c.young_neg),
                pct(c.old_neg),
            ],
        ],
    )
}

/// Renders one variant's Table 5.
pub fn render_table5(tables: &[Table5]) -> String {
    let mut out = String::new();
    for t in tables {
        let rows: Vec<Vec<String>> = t
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.group.clone(),
                    format!("{:.4} ({:.2}X)", r.std_accuracy, r.rel_accuracy),
                    format!("{:.4} ({:.2}X)", r.std_fpr, r.rel_fpr),
                    format!("{:.4} ({:.2}X)", r.std_fnr, r.rel_fnr),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &format!(
                "Table 5 [{}]: subgroup stddev of accuracy / FPR / FNR",
                t.variant.label()
            ),
            &["Subgroup", "STDDEV(Acc)", "STDDEV(FPR)", "STDDEV(FNR)"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_partition_the_population() {
        let meta = vec![
            CelebaMeta {
                male: true,
                young: true,
                positive: false,
            },
            CelebaMeta {
                male: false,
                young: false,
                positive: true,
            },
        ];
        let male = mask_for(&meta, "Male").expect("known subgroup");
        let female = mask_for(&meta, "Female").expect("known subgroup");
        for i in 0..meta.len() {
            assert_ne!(male[i], female[i]);
        }
        assert!(mask_for(&meta, "All")
            .expect("known subgroup")
            .iter()
            .all(|&b| b));
    }

    #[test]
    fn unknown_group_is_an_error_not_a_panic() {
        let meta = [CelebaMeta {
            male: true,
            young: true,
            positive: false,
        }];
        let err = mask_for(&meta, "Adult").expect_err("unknown subgroup");
        assert_eq!(err.group, "Adult");
        assert!(err.to_string().contains("unknown subgroup"), "{err}");
    }

    #[test]
    fn table3_counts_are_imbalanced_like_the_paper() {
        let c = table3();
        // Male positives rarest in relative terms; old positives rare.
        let male_rate = c.male_pos as f64 / (c.male_pos + c.male_neg) as f64;
        let female_rate = c.female_pos as f64 / (c.female_pos + c.female_neg) as f64;
        assert!(male_rate < female_rate / 4.0);
        let rendered = render_table3(&c);
        assert!(rendered.contains("Positive"));
        assert!(rendered.contains("%"));
    }
}
