//! Every paper figure, regenerated at its quick size, must match its
//! committed golden file byte for byte. After a change that moves a paper
//! number on purpose, rewrite the set with
//! `cargo run --release -p ssa-bench --bin experiments -- figures --quick`
//! (and without `--quick` for the full set EXPERIMENTS.md quotes), and let
//! the diff show which numbers moved.

use ssa_bench::figures::{golden_dir, FIGURES};

#[test]
fn quick_figures_match_their_golden_files() {
    let dir = golden_dir(true);
    let mismatches: Vec<String> = FIGURES
        .iter()
        .filter_map(|(id, render)| {
            let path = dir.join(format!("{id}.txt"));
            let golden = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let now = render(true);
            if golden == now {
                return None;
            }
            let (want, got): (Vec<&str>, Vec<&str>) =
                (golden.lines().collect(), now.lines().collect());
            Some(
                match (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i)) {
                    Some(i) => format!(
                        "{id}: line {} is now {:?}, golden {:?}",
                        i + 1,
                        got.get(i).unwrap_or(&""),
                        want.get(i).unwrap_or(&"")
                    ),
                    None => format!("{id}: line endings differ"),
                },
            )
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} figure(s) differ from {}:\n{}",
        mismatches.len(),
        dir.display(),
        mismatches.join("\n")
    );
}
