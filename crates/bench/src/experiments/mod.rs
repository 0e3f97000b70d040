//! The paper's tables and figures, plus the scaling study and two
//! ablations, one function each. The `repro` binary runs them:
//! `repro --exp <name>|all [--quick]`.
//!
//! Each experiment has fixed quick and full sizes (resolution, samples,
//! epochs, seeds) and no other knob. It prints paper-vs-measured tables
//! and returns a [`SoakReport`], archived as `results/repro_<name>.json`:
//! its rows under `detail`, and each paper claim as a named verdict,
//! recorded whether or not it reproduces.

mod train_eval;

mod ablations;
mod fig1;
mod fig2;
mod fig3;
mod fig4;
mod overhead;
mod scaling;
mod table1;
mod table2;
mod table3;
mod table4;
mod table5;

use crate::SoakReport;

/// An experiment: `quick` selects its smoke-test sizes.
pub type Experiment = fn(quick: bool) -> SoakReport;

/// Every experiment, in the order `--exp all` runs them: the measurements
/// without training first, then the training runs.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", table1::run),
    ("overhead", overhead::run),
    ("fig3", fig3::run),
    ("table2", table2::run),
    ("scaling", scaling::run),
    ("table5", table5::run),
    ("table4", table4::run),
    ("ablation_droprate", ablations::droprate),
    ("ablation_order", ablations::order),
    ("table3", table3::run),
    ("fig4", fig4::run),
    ("fig2", fig2::run),
    ("fig1", fig1::run),
];

/// The experiments `--exp <exp>` runs: one by name, or all of them for
/// `all`. An unknown name is an error listing the valid ones.
pub fn select(exp: &str) -> Result<Vec<(&'static str, Experiment)>, String> {
    if exp == "all" {
        return Ok(EXPERIMENTS.to_vec());
    }
    match EXPERIMENTS.iter().find(|(name, _)| *name == exp) {
        Some(&e) => Ok(vec![e]),
        None => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            Err(format!("unknown experiment `{exp}`; valid: all, {}", names.join(", ")))
        }
    }
}

/// An empty report for experiment `name`, with `quick` and its sizes as
/// parameters.
fn report(name: &str, seed: u64, quick: bool, sizes: &[(&str, usize)]) -> SoakReport {
    let mut params = vec![("quick", quick as u8 as f64)];
    params.extend(sizes.iter().map(|&(k, v)| (k, v as f64)));
    SoakReport::repro(name, seed, &params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_runs_each_experiment_once_in_the_documented_order() {
        let names: Vec<&str> = select("all").unwrap().iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            [
                "table1", "overhead", "fig3", "table2", "scaling", "table5", "table4",
                "ablation_droprate", "ablation_order", "table3", "fig4", "fig2", "fig1",
            ]
        );
        for name in &names {
            let one: Vec<&str> = select(name).unwrap().iter().map(|(n, _)| *n).collect();
            assert_eq!(one, [*name]);
        }
    }
}
