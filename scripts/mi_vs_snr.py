#!/usr/bin/env python3
"""Sweep SNR and tabulate Monte-Carlo mutual information per receiver.

Gaussian input on the coherent and the rate-B intensity receivers: the
coherent curve is log2(1+SNR), and the intensity curve approaches half its
slope (1/2 bit per octave) at high SNR, because M intensity samples drop the
phase.  The rate-B receiver is the lossy baseline, not the paper's claim.
That claim is about the direct receiver sampling the intensity at rate 2B,
which loses at most (M-1)/M bits per degree of freedom against coherent
detection; this sweep does not measure it.
"""

import argparse
import sys

import numpy as np

from ddcap import NoiseSpec, mc_mi


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--snr-db", type=float, nargs="+",
                    default=[0, 6, 12, 18, 24, 30, 36, 42])
    ap.add_argument("--n-samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--output", default=None, help="CSV path (default: stdout)")
    args = ap.parse_args()

    out = open(args.output, "w") if args.output else sys.stdout
    out.write("snr_db,coherent_bits,coherent_se,intensity_bits,intensity_se,closed_form\n")
    for snr_db in args.snr_db:
        snr = 10.0 ** (snr_db / 10.0)
        coh = mc_mi("coherent", "gaussian", NoiseSpec(snr=snr, seed=args.seed), args.n_samples)
        inten = mc_mi("intensity", "gaussian", NoiseSpec(snr=snr, seed=args.seed + 1), args.n_samples)
        out.write(
            f"{snr_db},{coh.estimate.bits_per_dof:.5f},{coh.estimate.std_error:.5f},"
            f"{inten.estimate.bits_per_dof:.5f},{inten.estimate.std_error:.5f},"
            f"{np.log2(1 + snr):.5f}\n"
        )
    if args.output:
        out.close()
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
