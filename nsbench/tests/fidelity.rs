//! The per-layer probes time stacks rebuilt from `nnet::layers`; these
//! tests pin them to the zoo networks the grids train.

use detrand::Philox;
use nsbench::stacks::{check_fidelity, compare_with_zoo, Model};

#[test]
fn stacks_match_the_zoo() {
    for seed in [0, 1, 42, 7919] {
        for model in Model::ALL {
            check_fidelity(model, seed).unwrap();
        }
    }
}

#[test]
fn a_stack_from_another_root_is_caught() {
    for model in Model::ALL {
        let mut stack = model.stack(&Philox::from_seed(2));
        assert!(compare_with_zoo(model, &mut stack, 1).is_err());
    }
}

#[test]
fn probed_layer_names_match_their_layers() {
    let root = Philox::from_seed(3);
    for model in Model::ALL {
        let stack = model.stack(&root);
        for &(idx, name) in model.probed_layers() {
            let (index, kind) = name.split_once('_').expect("l<index>_<kind>");
            assert_eq!(index, format!("l{idx}"));
            let expected = match kind {
                "conv" => "conv2d",
                "bn" => "batchnorm2d",
                "res" => "residual_block",
                "dense" => "dense",
                other => panic!("unknown layer kind {other}"),
            };
            assert_eq!(stack[idx].kind(), expected, "{} {name}", model.name());
        }
    }
}
