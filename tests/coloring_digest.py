"""Pin the counts and listings of both coloring backends by one digest.

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

The digest was computed before the two backends shared their pass-through
quotient, so a change to either plan must leave every count and listing
as it was.  The script prints the digest, the number of calls and its
time, and exits 1 unless the digest is the pinned one.  It is not a
pytest module, so Tier-1 does not run it.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time

from helpers import random_word
from singquandles import (Classical, Singular, SingularDiagram,
                          braid_closure, build_tables,
                          count_colorings_bruteforce, count_colorings_linear,
                          enumerate_singquandles, find_params, gen_fig9_left,
                          gen_fig9_right, rotate_singular)

DIGEST = "62d06b4744953631129d8ffae3564038600d322b9c517a4100560f454670c43a"
CAP = 1000


def diagrams() -> list:
    rng = random.Random(3)
    closures = [braid_closure(random_word(rng, rng.randint(2, 4),
                                          rng.randint(4, 16)))
                for _ in range(60)]

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
    return closures + turned + kinks


def main() -> int:
    start = time.perf_counter()
    members = [p for n in range(1, 13) for p in find_params(n)]
    tables = [s for n in range(1, 5)
              for s in enumerate_singquandles(n, up_to_iso=True).structures]
    tables += [build_tables(p) for p in members]
    h = hashlib.sha256()
    calls = 0
    for d in diagrams():
        for count, structures in ((count_colorings_bruteforce, tables),
                                  (count_colorings_linear, members)):
            for s in structures:
                for report in (count(d, s),
                               count(d, s, list_colorings=True, cap=CAP)):
                    h.update(repr((report.count, report.colorings,
                                   report.truncated)).encode())
                    calls += 1
    digest = h.hexdigest()
    print(f"sha256 {digest}  calls {calls}  "
          f"{time.perf_counter() - start:.1f} s")
    if digest != DIGEST:
        print(f"expected sha256 {DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
