"""Pin the counts and listings of both coloring backends by two digests.

Run from the repository root:

    PYTHONPATH=src python3 tests/coloring_digest.py

The diagrams are the 60 seeded braid closures and the quarter turns of
fig. 9 that test_every_solving_pair_saves_seeds in test_coloring.py
counts, and the three diagrams of kinks and outputs among their inputs of
test_congruence_rows_merge_an_arc_met_twice.  The brute-force backend
counts and lists them under every class of order <= 4 and under the
tables of the 19 linear members with n <= 12; the linear backend counts
and lists them under those 19 members.  Each call is made once for the
count and once for a listing capped at 1000 colorings, and the sha256
digest runs over the (count, listing, truncated) triple of every call, in
that order.

The first digest was computed before the two backends shared their
pass-through quotient, so a change to either plan must leave every count
and listing as it was.  The second runs the same calls on copies of the
60 closures with their crossings shuffled: a closure walked in word order
leaves the linear counter's elimination at most one row per strand, and a
shuffled one leaves it up to 14.  It was computed before the
elimination lost its column index.  The script prints each digest, its
number of calls and its time, and exits 1 unless both are the pinned ones.
It is not a pytest module, so Tier-1 does not run it.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time

from helpers import random_word, reordered
from singquandles import (Classical, Singular, SingularDiagram,
                          braid_closure, build_tables,
                          count_colorings_bruteforce, count_colorings_linear,
                          enumerate_singquandles, find_params, gen_fig9_left,
                          gen_fig9_right, rotate_singular)

DIGEST = "62d06b4744953631129d8ffae3564038600d322b9c517a4100560f454670c43a"
SHUFFLED_DIGEST = "827ef7b28bf29d55a1ffa24f3a0c38da7a073b6b027cfa091432f892c74df4c0"
CAP = 1000


def closures() -> list:
    rng = random.Random(3)
    return [braid_closure(random_word(rng, rng.randint(2, 4),
                                      rng.randint(4, 16)))
            for _ in range(60)]


def diagrams() -> list:
    def turns(d, index):
        for _ in range(4):
            yield d
            d = rotate_singular(d, index)

    turned = [e for d in (gen_fig9_left(), gen_fig9_right())
              for c in turns(d, 0) for e in turns(c, 1)]
    kinks = [SingularDiagram(2, (Classical(0, 1, 0),)),
             SingularDiagram(2, (Classical(0, 0, 0), Singular(1, 1, 1, 1))),
             SingularDiagram(3, (Classical(0, 1, 0), Classical(2, 2, 2),
                                 Singular(0, 2, 0, 2)))]
    return closures() + turned + kinks


def shuffled() -> list:
    rng = random.Random(4)
    return [reordered(d, rng) for d in closures()]


def digest(diagrams, tables, members, pinned) -> int:
    """Print the digest of both backends' calls on the diagrams; return 0 if
    it is the pinned one, else 1."""
    start = time.perf_counter()
    h = hashlib.sha256()
    calls = 0
    for d in diagrams:
        for count, structures in ((count_colorings_bruteforce, tables),
                                  (count_colorings_linear, members)):
            for s in structures:
                for report in (count(d, s),
                               count(d, s, list_colorings=True, cap=CAP)):
                    h.update(repr((report.count, report.colorings,
                                   report.truncated)).encode())
                    calls += 1
    got = h.hexdigest()
    print(f"sha256 {got}  calls {calls}  "
          f"{time.perf_counter() - start:.1f} s")
    if got != pinned:
        print(f"expected sha256 {pinned}", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    members = [p for n in range(1, 13) for p in find_params(n)]
    tables = [s for n in range(1, 5)
              for s in enumerate_singquandles(n, up_to_iso=True).structures]
    tables += [build_tables(p) for p in members]
    return (digest(diagrams(), tables, members, DIGEST)
            | digest(shuffled(), tables, members, SHUFFLED_DIGEST))


if __name__ == "__main__":
    sys.exit(main())
