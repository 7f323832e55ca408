"""Time the three phases of acceptance criterion 6 apart.

Run from the repository root:

    PYTHONPATH=src python3 tests/criterion6_phases.py

Criterion 6 (test_acceptance.py) checks, for every structure of order
1-5, that each move word pair induces one tangle map and that every
quarter turn of a singular crossing of the fig. 9 diagrams keeps the
brute-force count.  This script does the same work in three phases and
prints the process time of each:

- census: the structures, star by star;
- tangle maps: ``tangle_relation`` on both words of every move pair;
- counts: ``count_colorings_bruteforce`` on fig. 9 and its turns.

It then prints the hits and misses of every ``functools`` cache in the
package.  It exits 1 unless the labelled totals per order are
1, 2, 10, 198, 16392 and every check holds.  It is not a pytest module,
so Tier-1 does not run it; CI runs it in a step of its own.
"""

from __future__ import annotations

import sys
import time

import singquandles
from singquandles import (count_colorings_bruteforce, gen_fig9_left,
                          gen_fig9_right, involutive_quandles,
                          move_word_pairs, rotate_singular,
                          singquandles_for_star, tangle_relation)

TOTALS = [1, 2, 10, 198, 16392]


def caches() -> list:
    """(name, cache_info()) of each functools cache in the package."""
    found = []
    for name, module in sorted(vars(singquandles).items()):
        if type(module) is type(singquandles):
            for attr, value in sorted(vars(module).items()):
                if hasattr(value, "cache_info"):
                    found.append((f"{name}.{attr}", value.cache_info()))
    return found


def main() -> int:
    clock = time.process_time
    start = clock()
    census = [[s for star in involutive_quandles(n)
               for s in singquandles_for_star(star)] for n in range(1, 6)]
    census_s = clock() - start

    start = clock()
    pairs = list(move_word_pairs().values())
    equal = all(tangle_relation(wa, s) == tangle_relation(wb, s)
                for structures in census for s in structures
                for wa, wb in pairs)
    tangle_s = clock() - start

    start = clock()
    diagrams = [(d, [rotate_singular(d, i) for i in range(len(d.crossings))])
                for d in (gen_fig9_left(), gen_fig9_right())]
    invariant = True
    for structures in census:
        for s in structures:
            for d, rotations in diagrams:
                base = count_colorings_bruteforce(d, s).count
                invariant &= all(count_colorings_bruteforce(r, s).count == base
                                 for r in rotations)
    count_s = clock() - start

    totals = [len(structures) for structures in census]
    print(f"census {census_s:.2f} s  tangle maps {tangle_s:.2f} s  "
          f"counts {count_s:.2f} s  totals {totals}")
    for name, info in caches():
        print(f"cache {name}: hits {info.hits}  misses {info.misses}  "
              f"size {info.currsize}/{info.maxsize}")
    if totals != TOTALS or not (equal and invariant):
        print(f"expected totals {TOTALS}, equal move maps and invariant "
              f"counts; got move maps equal {equal}, counts invariant "
              f"{invariant}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
