#!/usr/bin/env python3
"""Print the unrolled block-multiply schedule for a small Z-Morton problem.

Shows, statement by statement, which output block accumulates which
operand-block products, in the order the cluster hardware visits them.
"""

import argparse

from winosim.engine import matmul_trace
from winosim.layout import _block_extent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=16, help="square matrix extent (default 16)")
    ap.add_argument("--l", type=int, default=4, help="block side (default 4)")
    ap.add_argument("--limit", type=int, default=16, help="statements to print")
    args = ap.parse_args()

    nb = _block_extent(args.size, args.l)
    cc, aa, bb = matmul_trace(nb, nb, nb)
    printed = 0
    i = 0
    while i < len(cc) and printed < args.limit:
        j = i
        terms = []
        while j < len(cc) and cc[j] == cc[i]:
            terms.append(f"A_{aa[j]} x B_{bb[j]}")
            j += 1
            if j - i >= 2:  # one statement spans one inner-dimension pair
                break
        print(f"C_{cc[i]:<3} += " + " + ".join(terms) + ";")
        printed += 1
        i = j


if __name__ == "__main__":
    main()
