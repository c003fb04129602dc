#!/usr/bin/env python3
"""Reproduce the error-correction comparison: BBBSS vs Cascade on identical
noisy key pairs, and mutual learning at matching initial agreement.

The settings, machine shape, trial count and seed come from the bundled
table1 scenario. Writes one aligned table per setting to stdout and, with
--out-dir, a CSV per setting.
"""

import argparse
import os

from neurokey.harness import (
    compare_algorithms,
    comparison_csv,
    format_comparison_table,
    load_scenario,
)
from neurokey.tpm import TpmParams


def main() -> int:
    table1 = load_scenario("table1")
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=table1.trials)
    parser.add_argument("--seed", type=int, default=table1.base_seed)
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args()

    for setting in table1.compare_settings:
        key_length = setting.key_length
        rows = compare_algorithms(
            key_length,
            setting.qber,
            trials=args.trials,
            seed=args.seed,
            tpm_params=TpmParams(K=table1.K_values[0], N=setting.tpm_n, L=table1.L),
            workers=args.workers,
        )
        print(f"\nkey {key_length} bits, error rate {setting.qber:.0%}:")
        print(format_comparison_table(rows))
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(args.out_dir, f"table1_{key_length}b.csv")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(comparison_csv(rows))
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
