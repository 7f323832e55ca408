"""List the structures of every order-6 star and check the listing.

Run from the repository root:

    PYTHONPATH=src python3 tests/order6_sweep.py

It prints its time and peak RSS: about 28 s and 24 MB on one core of a
2-core Intel Xeon under Python 3.11.

The 3,471 involutive quandles of order 6 other than the trivial one
(x * y = x) come first.  The sha256 digest is built the way
``census_digest`` in test_enumeration.py builds its digests: each star's
rows, then every structure ``singquandles_for_star`` lists for it, in its
order, the sorted union of the Aut(star) orbits of the r1 that the search
behind it yields (``_orbits``).

The isomorphism classes are read off the same search by the rule
``enumerate_singquandles`` uses: each orbit yielded at a star that is
least in its class is one class, and the least member of the orbit, which
the search yields with it, is the class's canonical form.  Only a star
that yields can give a class, so a star is tested for being least, over
its 720 relabellings, only when its first orbit arrives; 3 of the stars
that yield are least.  Each class must be its own canonical form, no two
may be equal, and the orbit-stabilizer sum over them, 720 / |Aut(s)| per
class, must give the labelled count.

The trivial star comes last.  It alone yields 6,388,984 labelled
structures in 9,903 orbits of its automorphism group S_6, each a class;
the labelled count sums the orbit sizes the search yields, and no orbit
is built.
Burnside's lemma checks the two numbers against each other: the class
count is the mean over g in S_6 of the structures g fixes.  For g other
than the identity that number is counted by ``trivial_star_count`` in
helpers.py, which shares no code with the census or the axiom checker,
once per cycle type; for the identity it is the labelled count.

The script exits 1 unless the digest, the counts of stars, of least stars
that yield, of structures and of classes, also over all 3,472 stars, the
orbit-stabilizer sum, the Burnside mean and the bound on the peak RSS all
hold.  It is not a pytest
module, so Tier-1 does not run it.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import time
from itertools import permutations

from helpers import cycle_types, trivial_star_count
from singquandles import (OpTable, canonical_form, involutive_quandles,
                          make_trivial_quandle, relabel)
from singquandles.enumeration import _build, _least, _orbits, _verified_r1

DIGEST = "12d8df9c1e1d09d43a769b2b86d22b2ffa6b564e691e7f4ea80889077f8ff05f"
STARS = 3471
LEAST_STARS = 3
STRUCTURES = 4272
CLASSES = 32
TRIVIAL_STRUCTURES = 6_388_984
TRIVIAL_CLASSES = 9_903
ALL = (3_472, 6_393_256, 9_935)    # stars, structures, classes
PEAK_RSS_MB = 50


def main() -> int:
    start = time.perf_counter()
    trivial = make_trivial_quandle(6)
    stars = [s for s in involutive_quandles(6) if s != trivial]
    h = hashlib.sha256()
    count = least_stars = 0
    classes = []
    for star in stars:
        h.update(repr(star.rows).encode())
        found = list(_orbits(star))
        for r1 in sorted(r1 for _, orbit in found for r1 in orbit):
            s = _build(star, OpTable(r1))
            count += 1
            h.update(repr((s.star.rows, s.r1.rows, s.r2.rows)).encode())
        if found and _least((star.rows,)) == sum(star.rows, ()):
            least_stars += 1
            classes += [_build(star, OpTable(r1)) for r1, _ in found]
    perms = list(permutations(range(6)))
    orbits = sum(720 // sum(relabel(s, p) == s for p in perms) for s in classes)
    canonical = (all(canonical_form(s) == s for s in classes)
                 and len(set(classes)) == len(classes))

    trivial_count = trivial_classes = 0
    for _, size in _verified_r1(trivial):
        trivial_count += size
        trivial_classes += 1
    fixed = trivial_count + sum(size * trivial_star_count(6, g)
                                for g, size in cycle_types(6)[1:])
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    total = (len(stars) + 1, count + trivial_count,
             len(classes) + trivial_classes)
    got = (len(stars), least_stars, count, len(classes), orbits, canonical,
           h.hexdigest(), trivial_count, trivial_classes, fixed / 720, total)
    want = (STARS, LEAST_STARS, STRUCTURES, CLASSES, STRUCTURES, True, DIGEST,
            TRIVIAL_STRUCTURES, TRIVIAL_CLASSES, TRIVIAL_CLASSES, ALL)
    print(f"non-trivial stars {got[0]}  yielding least stars {got[1]}  "
          f"structures {got[2]}  classes {got[3]}  orbit-stabilizer sum "
          f"{got[4]}  canonical {got[5]}  sha256 {got[6]}")
    print(f"trivial star: structures {got[7]}  classes {got[8]}  "
          f"Burnside mean {got[9]:g}")
    print(f"all {total[0]} stars: structures {total[1]}  classes {total[2]}  "
          f"{time.perf_counter() - start:.1f} s  peak RSS {peak:.1f} MB")
    if got != want or peak > PEAK_RSS_MB:
        print(f"expected non-trivial stars {STARS}  yielding least stars "
              f"{LEAST_STARS}  structures {STRUCTURES}  classes {CLASSES}  "
              f"orbit-stabilizer sum {STRUCTURES}  canonical True  sha256 "
              f"{DIGEST}; trivial star: structures {TRIVIAL_STRUCTURES}  "
              f"classes {TRIVIAL_CLASSES}  Burnside mean {TRIVIAL_CLASSES}; "
              f"all {ALL[0]} stars: structures {ALL[1]}  classes {ALL[2]}; "
              f"peak RSS at most {PEAK_RSS_MB} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
