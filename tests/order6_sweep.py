"""List the structures of every non-trivial order-6 star and check the listing.

Run from the repository root:

    PYTHONPATH=src python3 tests/order6_sweep.py

It prints its time and peak RSS: 18-19 s and 22-23 MB on one core of a
2-core Intel Xeon under Python 3.11.

The non-trivial stars are the 3,471 involutive quandles of order 6 other
than the trivial one (x * y = x), which alone yields millions of
structures.  The sha256 digest is built the way ``census_digest`` in
test_enumeration.py builds its digests: each star's rows, then every
structure the search behind ``singquandles_for_star`` lists for it, in its
order.

The isomorphism classes are read off the same search by the rule
``enumerate_singquandles`` uses: the first structure met of each
Aut(star) orbit at a star that is least in its class.  Only a star that
yields can give a class, so a star is tested for being least, over its
720 relabellings, only when its first structure arrives; 3 of the stars
that yield are least.  Each class must be its own canonical form, no two
may be equal, and the orbit-stabilizer sum over them, 720 / |Aut(s)| per
class, must give the labelled count.

The script exits 1 unless the digest, the counts of stars, of least stars
that yield, of structures and of classes, and that sum match the pins.
It is not a pytest module, so Tier-1 does not run it.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import time
from itertools import permutations

from singquandles import (OpTable, canonical_form, involutive_quandles,
                          make_trivial_quandle, relabel)
from singquandles.enumeration import _build, _least, _verified_r1

DIGEST = "12d8df9c1e1d09d43a769b2b86d22b2ffa6b564e691e7f4ea80889077f8ff05f"
STARS = 3471
LEAST_STARS = 3
STRUCTURES = 4272
CLASSES = 32


def main() -> int:
    start = time.perf_counter()
    stars = [s for s in involutive_quandles(6) if s != make_trivial_quandle(6)]
    h = hashlib.sha256()
    count = least_stars = 0
    classes = []
    for star in stars:
        h.update(repr(star.rows).encode())
        # whether the star is least in its class, tested only once it yields
        least = None
        for r1, first in _verified_r1(star):
            s = _build(star, OpTable(r1))
            count += 1
            h.update(repr((s.star.rows, s.r1.rows, s.r2.rows)).encode())
            if first:
                if least is None:
                    least = _least((star.rows,)) == sum(star.rows, ())
                    least_stars += least
                if least:
                    classes.append(s)
    perms = list(permutations(range(6)))
    orbits = sum(720 // sum(relabel(s, p) == s for p in perms) for s in classes)
    canonical = (all(canonical_form(s) == s for s in classes)
                 and len(set(classes)) == len(classes))
    got = (len(stars), least_stars, count, len(classes), orbits, canonical,
           h.hexdigest())
    want = (STARS, LEAST_STARS, STRUCTURES, CLASSES, STRUCTURES, True, DIGEST)
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"stars {got[0]}  yielding least stars {got[1]}  structures {got[2]}  "
          f"classes {got[3]}  orbit-stabilizer sum {got[4]}  canonical {got[5]}  "
          f"sha256 {got[6]}  {time.perf_counter() - start:.1f} s  "
          f"peak RSS {peak:.1f} MB")
    if got != want:
        print(f"expected stars {STARS}  yielding least stars {LEAST_STARS}  "
              f"structures {STRUCTURES}  classes {CLASSES}  orbit-stabilizer "
              f"sum {STRUCTURES}  canonical True  sha256 {DIGEST}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
