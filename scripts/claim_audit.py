#!/usr/bin/env python3
"""Audit the stated closed-form constants against the certified values for a
range of dimensions and print every record, mismatches marked with '!='."""

import argparse

from facevol.gelfand import gelfand_report
from facevol.spectral import full_spectrum


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-min", type=int, default=4)
    parser.add_argument("--n-max", type=int, default=8)
    args = parser.parse_args()
    if args.n_min < 4:
        parser.error("--n-min must be >= 4: the orbit-algebra audit is defined for n >= 4")
    if args.n_max < args.n_min:
        parser.error(f"empty range: --n-max {args.n_max} is below --n-min {args.n_min}")

    for n in range(args.n_min, args.n_max + 1):
        records = full_spectrum(n).discrepancies + gelfand_report(n).discrepancies
        print(f"\nn = {n}")
        width = max(len(r.claim) for r in records)
        for r in records:
            sign = "==" if r.matches else "!="
            print(f"  {r.claim:<{width}}  claimed {r.claimed:>8}  {sign}  computed {r.computed}")
        mismatches = sum(not r.matches for r in records)
        print(f"  -> {mismatches} of {len(records)} stated values disagree with the exact computation")


if __name__ == "__main__":
    main()
