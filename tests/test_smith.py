from __future__ import annotations

import random
from itertools import product
from math import gcd

import pytest

from singquandles import kernel_count_mod, kernel_vectors_mod
from helpers import rank_mod_p

# n = 1, primes, prime powers and composites
MODULI = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)


def kernel_oracle(matrix, ncols, n):
    """Every c in Z_n^ncols with matrix @ c == 0 (mod n), sorted."""
    return [c for c in product(range(n), repeat=ncols)
            if all(sum(a * x for a, x in zip(row, c)) % n == 0
                   for row in matrix)]


def random_matrix(rng, nrows, ncols, n):
    matrix = [[rng.randint(-15, 15) for _ in range(ncols)]
              for _ in range(nrows)]
    for row in matrix:
        roll = rng.random()
        if roll < 0.15:
            row[:] = [0] * ncols
        elif roll < 0.3:
            # nonzero over Z, zero mod n
            row[:] = [n * rng.randint(-3, 3) for _ in range(ncols)]
        elif roll < 0.45:
            # a multiple of a divisor of n, so pivots need not be units
            d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
            row[:] = [d * x for x in row]
    return matrix


def test_kernel_count_matches_enumeration():
    # square, wide and tall matrices, zero rows and negative entries, so
    # that counts and listings are checked beyond the shapes of diagrams
    rng = random.Random(4177)
    for n in MODULI:
        for nrows in range(6):
            for ncols in range(1, 5):
                for _ in range(3):
                    matrix = random_matrix(rng, nrows, ncols, n)
                    want = kernel_oracle(matrix, ncols, n)
                    assert kernel_count_mod(matrix, ncols, n) == len(want)
                    assert sorted(kernel_vectors_mod(matrix, ncols, n)) == want


SQUAREFREE = {2: (2,), 3: (3,), 5: (5,), 6: (2, 3), 7: (7,), 10: (2, 5),
              11: (11,), 15: (3, 5), 30: (2, 3, 5)}


def test_kernel_count_matches_rank_mod_primes_on_large_matrices():
    # for squarefree n, Z_n is the product of the fields Z_p, p | n, so the
    # kernel has prod p^(cols - rank_p) elements; low-rank products B C
    # make the ranks differ from prime to prime
    rng = random.Random(3030)
    for n, primes in SQUAREFREE.items():
        shapes = [(30, 30), (30, 30)] + [(rng.randint(1, 30), rng.randint(1, 30))
                                         for _ in range(38)]
        for i, (nrows, ncols) in enumerate(shapes):
            if i % 2 == 0:
                matrix = random_matrix(rng, nrows, ncols, n)
            else:
                inner = rng.randint(1, min(nrows, ncols))
                b = random_matrix(rng, nrows, inner, n)
                c = random_matrix(rng, inner, ncols, n)
                matrix = [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)]
                          for row in b]
            want = 1
            for p in primes:
                want *= p ** (ncols - rank_mod_p(matrix, ncols, p))
            assert kernel_count_mod(matrix, ncols, n) == want, (n, matrix)


def test_kernel_edge_cases():
    assert kernel_count_mod([], 3, 5) == 125
    assert sorted(kernel_vectors_mod([], 1, 3)) == [(0,), (1,), (2,)]
    assert kernel_count_mod([[2]], 1, 4) == gcd(2, 4)
    assert kernel_count_mod([[1, 1]], 2, 7) == 7
    assert kernel_count_mod([[0, 0]], 2, 7) == 49
    with pytest.raises(ValueError):
        kernel_count_mod([[1]], 1, 0)
