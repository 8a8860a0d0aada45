#!/usr/bin/env python3
"""Build one equal-intensity waveform family and dump it for plotting.

Writes the family JSON and prints a small table of the zero configuration.
For the dense grid of the shared intensity and all member phases, run
``ddcap figure2``.
"""

import argparse

from ddcap import enumerate_family, random_signal
from ddcap.formats import write_family_json


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--M", type=int, default=4)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--family-out", default="family.json")
    args = ap.parse_args()

    sig = random_signal(args.M, seed=args.seed)
    fam = enumerate_family(sig)
    zs = fam.zeroset

    print(f"M={args.M} seed={args.seed}: {len(fam)} members, "
          f"{int(zs.on_circle.sum())} on-circle zeros")
    print(f"{'zero':>24} {'|Z|':>10} {'class':>10}")
    for z, on, inside in zip(zs.zeros, zs.on_circle, zs.inside):
        label = "on_circle" if on else ("inside" if inside else "outside")
        print(f"{z:>24.6f} {abs(z):>10.6f} {label:>10}")

    write_family_json(args.family_out, fam)
    print(f"wrote {args.family_out}")


if __name__ == "__main__":
    main()
