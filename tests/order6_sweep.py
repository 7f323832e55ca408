"""List the structures of every non-trivial order-6 star and check the listing.

Run from the repository root:

    PYTHONPATH=src python3 tests/order6_sweep.py

It prints its time and peak RSS: 28 s and 24 MB on one core of a 2-core
Intel Xeon under Python 3.11.

The non-trivial stars are the 3,471 involutive quandles of order 6 other
than the trivial one (x * y = x), which alone yields millions of
structures.  The sha256 digest is built the way ``census_digest`` in
test_enumeration.py builds its digests: each star's rows, then every
structure ``singquandles_for_star`` lists for it, in its order.  The
script exits 1 unless the digest and the structure count match the pins.
It is not a pytest module, so Tier-1 does not run it.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import time

from singquandles import involutive_quandles, make_trivial_quandle, singquandles_for_star

DIGEST = "12d8df9c1e1d09d43a769b2b86d22b2ffa6b564e691e7f4ea80889077f8ff05f"
STARS = 3471
STRUCTURES = 4272


def main() -> int:
    start = time.perf_counter()
    stars = [s for s in involutive_quandles(6) if s != make_trivial_quandle(6)]
    h = hashlib.sha256()
    count = 0
    for star in stars:
        h.update(repr(star.rows).encode())
        for s in singquandles_for_star(star):
            count += 1
            h.update(repr((s.star.rows, s.r1.rows, s.r2.rows)).encode())
    got = (len(stars), count, h.hexdigest())
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"stars {got[0]}  structures {got[1]}  sha256 {got[2]}  "
          f"{time.perf_counter() - start:.1f} s  peak RSS {peak:.1f} MB")
    if got != (STARS, STRUCTURES, DIGEST):
        print(f"expected stars {STARS}  structures {STRUCTURES}  sha256 {DIGEST}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
