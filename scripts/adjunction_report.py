#!/usr/bin/env python3
"""Measure which axiom classes survive identity/zero adjunction.

Locality is preserved by construction; whether the strong and refined
classes survive is not settled by theory, so this sweeps the enumerated
locality structures and tallies it empirically.

    python scripts/adjunction_report.py --size 2
    python scripts/adjunction_report.py --size 3   # full 262k scan, slower
"""

import argparse
import time

from locsemi import (adjoin_identity, adjoin_zero, classify, decode_magma,
                     scan_flags)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=2, choices=(1, 2, 3))
    args = ap.parse_args()
    n = args.size

    names = ("locality", "strong", "refined", "partial", "transitive")
    tallies = {kind: {name: [0, 0] for name in names}
               for kind in ("identity", "zero")}
    total = 0
    t0 = time.perf_counter()
    for code, flags in scan_flags(n):
        if not flags[0]:  # locality
            continue
        total += 1
        before = dict(zip(names, flags))
        m = decode_magma(n, code)
        for kind, adjoined in (("identity", adjoin_identity(m, "e")),
                               ("zero", adjoin_zero(m, "z"))):
            after = dict(zip(names, classify(adjoined).flags()))
            for name in names:
                if before[name]:
                    held, broke = tallies[kind][name]
                    if after[name]:
                        tallies[kind][name][0] = held + 1
                    else:
                        tallies[kind][name][1] = broke + 1

    print(f"locality structures at n={n}: {total} "
          f"({time.perf_counter() - t0:.1f}s)")
    for kind in ("identity", "zero"):
        print(f"adjoin_{kind}:")
        for name in names:
            held, broke = tallies[kind][name]
            print(f"  {name:<10} preserved {held:>7}  broken {broke:>7}")


if __name__ == "__main__":
    main()
