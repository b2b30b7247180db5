#!/usr/bin/env python3
"""Print the certified spectrum of the face-edge Gram matrix across a range
of dimensions: eigenvalues with multiplicities, singular values, and the
incidence determinant, all exact."""

import argparse

from facevol.linalg import exact_sqrt, format_rational
from facevol.spectral import det_incidence, full_spectrum


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-min", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=10)
    args = parser.parse_args()
    if args.n_min < 3:
        parser.error("--n-min must be >= 3: the face-edge Gram matrix is defined for n >= 3")
    if args.n_max < args.n_min:
        parser.error(f"empty range: --n-max {args.n_max} is below --n-min {args.n_min}")

    print(f"{'n':>3}  {'side':>5}  {'eigenvalues':<28}  {'singular values':<24}  |det M|")
    print("-" * 90)
    for n in range(args.n_min, args.n_max + 1):
        cert = full_spectrum(n)
        eigs = ", ".join(
            f"{format_rational(w.value)}^{w.multiplicity}" for w in cert.eigenvalues
        )
        svs = ", ".join(
            f"{format_rational(exact_sqrt(s.square))}^{s.multiplicity}"
            for s in cert.singular_values
        )
        side = sum(w.multiplicity for w in cert.eigenvalues)
        print(f"{n:>3}  {side:>5}  {eigs:<28}  {svs:<24}  {format_rational(abs(det_incidence(n)))}")


if __name__ == "__main__":
    main()
