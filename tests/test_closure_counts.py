"""Three independent counts of braid-closure colorings by linear
structures: the linear counter on the closure's congruence system, the
brute-force search on the structure's tables, and |ker(W - I)| for the
word's k x k matrix W, since a coloring of the closure is a coloring of
the k top strands that the word fixes.  The third is taken from a diagonal
form of the dense W - I over the integers (helpers.kernel_count_over_z),
which shares no code with the linear counter's elimination mod n."""

from __future__ import annotations

import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from singquandles import (
    AlexanderParams,
    TangleWord,
    braid_closure,
    build_tables,
    count_colorings_bruteforce,
    count_colorings_linear,
    find_params,
    sigma,
    tau,
)
from helpers import kernel_count_over_z, rank_mod_p, renumber, word_matrix

FAMILY = [p for n in range(1, 13) for p in find_params(n)]
LIST_LIMIT = 1000


def fixed_point_system(word, p):
    """W - I mod n, whose kernel is the set of colors the word fixes."""
    w = word_matrix(word, p)
    return [[(x - (r == c)) % p.n for c, x in enumerate(row)]
            for r, row in enumerate(w)]


@st.composite
def words(draw):
    k = draw(st.integers(2, 4))
    letters = draw(st.lists(st.tuples(st.sampled_from(("s", "s'", "t")),
                                      st.integers(1, k - 1)), max_size=10))
    return TangleWord(tuple(tau(i) if kind == "t"
                            else sigma(i, mirrored=kind == "s'")
                            for kind, i in letters), k)


@settings(max_examples=300, deadline=None, database=None)
@given(words(), st.sampled_from(FAMILY), st.randoms(use_true_random=False))
def test_three_counts_of_a_closure_agree(word, p, rng):
    closure = braid_closure(word)
    perm = list(range(closure.arcs))
    rng.shuffle(perm)
    want = kernel_count_over_z(fixed_point_system(word, p), word.strands, p.n)
    listing = p.n ** word.strands <= LIST_LIMIT
    s = build_tables(p)
    for diagram in (closure, renumber(closure, perm)):
        linear = count_colorings_linear(diagram, p, list_colorings=listing)
        brute = count_colorings_bruteforce(diagram, s, list_colorings=listing)
        assert linear.count == brute.count == want
        assert linear.colorings == brute.colorings


def long_closure(arcs, seed, strands=8):
    """The closure of a seeded word, letters appended until it has at
    least the given number of arcs."""
    rng = random.Random(seed)
    letters, cut = [], strands
    while True:
        i = rng.randint(1, strands - 1)
        if rng.random() < 0.15:
            letters.append(tau(i))
            cut += 2
        else:
            letters.append(sigma(i, mirrored=rng.random() < 0.5))
            cut += 1
        # closing joins at most one pair of arcs per strand, so the closure
        # has at least cut - strands arcs and at most cut
        if cut >= arcs:
            word = TangleWord(tuple(letters), strands)
            closure = braid_closure(word)
            if closure.arcs >= arcs:
                return word, closure


def test_long_closure_counts_within_budget():
    # brute force does not finish on a closure of 8 strands this long (its
    # search branches on about 8 seeds), so the check is |ker(W - I)|,
    # and for n = 10 the rank of W - I modulo 2 and 5
    word, closure = long_closure(3000, 2016)
    assert closure.arcs == 3000
    for args, want in (((10, 9, 4), 400), ((8, 1, 4), 1024)):
        p = AlexanderParams(*args)
        start = time.perf_counter()
        count = count_colorings_linear(closure, p).count
        assert time.perf_counter() - start < 1
        assert count == want
        assert kernel_count_over_z(fixed_point_system(word, p), 8, p.n) == want
    system = fixed_point_system(word, AlexanderParams(10, 9, 4))
    assert (2 ** (8 - rank_mod_p(system, 8, 2))
            * 5 ** (8 - rank_mod_p(system, 8, 5))) == 400
