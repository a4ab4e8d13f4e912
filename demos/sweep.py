"""Sweep village sizes and compare focal agents on identical seeds.

A shrunken version of the first experiment grid: the institution's declaration
is ignored by everyone else, and we measure whether the focal agent sides with
the community (normative) or keeps trusting the signal (baseline). Full-size
grids run through the CLI; this exists to show the library calls behind it.
"""
import argparse
import tempfile
from pathlib import Path

from normsim import harness

GRID_CROPS = (2, 3)
GRID_BACKGROUND = (1, 3, 5)
TRIALS = 2


def sweep(out_dir: Path, jobs: int) -> None:
    cfg = harness.ExperimentConfig(
        "single_nonauthoritative",
        focal_kinds=("normative", "baseline"),
        num_crops_grid=GRID_CROPS,
        num_background_grid=GRID_BACKGROUND,
        trials=TRIALS,
    )
    rows = harness.run_experiment(cfg, out_dir, jobs=jobs)
    ok = sum(r.status == "ok" for r in rows)
    print(f"{len(rows)} cells ({ok} ok), {TRIALS} trials each; outputs in {out_dir}\n")

    records = harness.load_metrics(out_dir / "metrics.csv")
    print(harness.comparison_table(harness.build_comparison(records)))
    print("\nalignment_inst: focal matches the declared crop; alignment_comm: focal")
    print("matches the modal crop of the others. The normative agent sides with")
    print("the community at every village size; the baseline keeps trusting the")
    print("ignored signal and pays for it in welfare (criticisms are costly).")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", help="directory for metrics + transcripts (default: a temp "
                        "directory, removed afterwards)")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    if args.out:
        sweep(Path(args.out), args.jobs)
    else:
        with tempfile.TemporaryDirectory(prefix="normsim_sweep_") as tmp:
            sweep(Path(tmp), args.jobs)


if __name__ == "__main__":
    main()
