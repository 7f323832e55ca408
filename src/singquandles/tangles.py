"""Tangle words on k strands and their induced maps on colorings.

A word is a sequence of letters read top to bottom:

    sigma(i)                 classical crossing of strands i, i+1 (1-based),
                             left strand passing under: (x, y) -> (y, x * y)
    sigma(i, mirrored=True)  the mirror image: (x, y) -> (y * x, x)
    tau(i)                   singular crossing: (x, y) -> (r1(x, y), r2(x, y))

Because the structures are involutive, the mirrored classical letter is the
two-sided inverse of the plain one, so no separate sign is needed.

Text form: tokens "s1", "t2", with a trailing apostrophe for mirrored
classical letters ("s1'").
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product

from .diagrams import Classical, Singular, SingularDiagram
from .tables import Singquandle

KIND_CLASSICAL = "sigma"
KIND_SINGULAR = "tau"


@dataclass(frozen=True)
class Letter:
    kind: str
    index: int
    mirrored: bool = False

    def __post_init__(self):
        if self.kind not in (KIND_CLASSICAL, KIND_SINGULAR):
            raise ValueError(f"unknown letter kind {self.kind!r}")
        if self.index < 1:
            raise ValueError("strand index is 1-based and must be >= 1")
        if self.mirrored and self.kind != KIND_CLASSICAL:
            raise ValueError("only classical letters have a mirrored form")

    def __str__(self):
        tag = "s" if self.kind == KIND_CLASSICAL else "t"
        return f"{tag}{self.index}" + ("'" if self.mirrored else "")


def sigma(index: int, mirrored: bool = False) -> Letter:
    return Letter(KIND_CLASSICAL, index, mirrored)


def tau(index: int) -> Letter:
    return Letter(KIND_SINGULAR, index)


@dataclass(frozen=True)
class TangleWord:
    letters: tuple
    strands: int

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.strands < 1:
            raise ValueError("need at least one strand")
        for letter in self.letters:
            if not isinstance(letter, Letter):
                raise TypeError(f"not a letter: {letter!r}")
            if letter.index + 1 > self.strands:
                raise ValueError(
                    f"letter {letter} needs {letter.index + 1} strands, have {self.strands}"
                )

    def __str__(self):
        return " ".join(str(letter) for letter in self.letters)


def parse_word(text: str, strands: int | None = None) -> TangleWord:
    """Parse tokens like "s1 t2 s1'"; infer the strand count when not given."""
    letters = []
    for token in text.split():
        raw = token
        mirrored = raw.endswith("'")
        if mirrored:
            raw = raw[:-1]
        if len(raw) < 2 or raw[0] not in "st" or not raw[1:].isdigit():
            raise ValueError(f"bad letter token {token!r}")
        kind = KIND_CLASSICAL if raw[0] == "s" else KIND_SINGULAR
        letters.append(Letter(kind, int(raw[1:]), mirrored))
    if strands is None:
        strands = max((letter.index + 1 for letter in letters), default=1)
    return TangleWord(tuple(letters), strands)


@dataclass(frozen=True)
class TangleRelation:
    """The map from top colorings to bottom colorings, tabulated.

    outputs[flat(colors)] is the bottom tuple for the top tuple colors,
    where flat() is the base-order big-endian index.
    """

    order: int
    strands: int
    outputs: tuple

    def __post_init__(self):
        if len(self.outputs) != self.order ** self.strands:
            raise ValueError("output table has the wrong size")

    def apply(self, colors) -> tuple:
        colors = tuple(colors)
        if len(colors) != self.strands:
            raise ValueError(f"expected {self.strands} colors, got {len(colors)}")
        idx = 0
        for c in colors:
            if not 0 <= c < self.order:
                raise ValueError(f"color {c} out of range [0, {self.order})")
            idx = idx * self.order + c
        return self.outputs[idx]


# the letter maps kept, one entry per crossing kind of a structure (the
# classical letters' shared by the structures with that star), and the
# (order, strands) pairs whose colorings are kept: each map and each tuple
# of colorings holds order ** strands entries, so the caches are bounded by
# structures and pairs, not by letters
_KEPT = 8


@lru_cache(maxsize=_KEPT)
def _letter_maps(forward: tuple):
    """A function giving the map that a letter on k strands, of the kind
    whose outputs are read off the forward tables (star alone, or r1 and
    r2), induces on flat color indices, built the first time it is asked
    for.

    A letter on strands i, i + 1 (0-based) turns the colors x, y of those
    strands into x', y'.  On the flat index hi + (x * n + y) * w + lo,
    where w = n ** (k - 2 - i), it changes the digit pair x * n + y alone,
    so its map is one pass of digit arithmetic over the letter's map of
    pairs, x * n + y -> x' * n + y'.
    """
    n = len(forward[0])
    first, second = zip(*product(range(n), repeat=2))
    if len(forward) == 1:
        star, star_t = (list(chain.from_iterable(t))
                        for t in (forward[0], zip(*forward[0])))
        pairs = {False: [y * n + c for y, c in zip(second, star)],
                 True: [c * n + x for x, c in zip(first, star_t)]}
    else:
        r1, r2 = (chain.from_iterable(t) for t in forward)
        pairs = {False: [u * n + v for u, v in zip(r1, r2)]}
    maps = {}

    def letter_map(letter: Letter, k: int) -> list:
        m = maps.get((letter, k))
        if m is None:
            w = n ** (k - 1 - letter.index)
            block = [v * w + lo for v in pairs[letter.mirrored] for lo in range(w)]
            m = maps[letter, k] = [hi + b for hi in range(0, n ** k, n * n * w)
                                   for b in block]
        return m

    return letter_map


@lru_cache(maxsize=_KEPT)
def _colorings(n: int, k: int) -> tuple:
    """The colorings of k strands by n colors, by flat index."""
    return tuple(product(range(n), repeat=k))


def tangle_relation(word: TangleWord, s: Singquandle) -> TangleRelation:
    """The map the word induces on colorings under s, read from the tables
    alone: each letter's map on flat color indices (_letter_maps), composed
    top to bottom, and read off as color tuples."""
    n, k = s.order, word.strands
    classical = _letter_maps((s.star.rows,))
    singular = _letter_maps((s.r1.rows, s.r2.rows))
    flat = range(n ** k)
    for letter in word.letters:
        m = (singular if letter.kind == KIND_SINGULAR else classical)(letter, k)
        flat = [m[i] for i in flat]
    tops = _colorings(n, k)
    return TangleRelation(n, k, tuple([tops[i] for i in flat]))


def braid_closure(word: TangleWord) -> SingularDiagram:
    """Close the braid-form word into a diagram of labeled semiarcs.

    Classical crossings cut only the under-strand; singular crossings cut
    both.  The closure joins each strand's bottom end back to its top, and
    the resulting label classes are renumbered 0..m-1 by smallest member.
    """
    k = word.strands
    cur = array("q", range(k))
    nxt = k
    crossings = []
    for letter in word.letters:
        i = letter.index - 1
        a, b = cur[i], cur[i + 1]
        if letter.kind == KIND_SINGULAR:
            crossings.append(Singular(a, b, nxt, nxt + 1))
            cur[i], cur[i + 1] = nxt, nxt + 1
            nxt += 2
        elif letter.mirrored:
            crossings.append(Classical(b, a, nxt))
            cur[i], cur[i + 1] = nxt, a
            nxt += 1
        else:
            crossings.append(Classical(a, b, nxt))
            cur[i], cur[i + 1] = b, nxt
            nxt += 1

    # union-find over labels, each root the least label of its class
    parent = array("q", range(nxt))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(k):
        a, b = find(cur[i]), find(i)
        if a < b:
            a, b = b, a
        parent[a] = b

    # parent[x] < x except at a root, so one pass in label order numbers the
    # classes by least member
    label = array("q", [0]) * nxt
    arcs = 0
    for x in range(nxt):
        p = parent[x]
        if p == x:
            label[x] = arcs
            arcs += 1
        else:
            label[x] = label[p]

    remapped = []
    for cr in crossings:
        fixed = tuple(label[x] for x in cr.labels)
        remapped.append(Classical(*fixed) if isinstance(cr, Classical) else Singular(*fixed))
    return SingularDiagram(arcs, tuple(remapped))


def move_word_pairs() -> dict:
    """Word pairs that must induce equal relations for every valid structure.

    RII and RIII are the classical moves; RV, RIVa, RIVb are the moves
    through a singular crossing.  Each pair's equality is equivalent to one
    of the defining axioms, checked in the tests.
    """
    s1, s2 = sigma(1), sigma(2)
    s1m, s2m = sigma(1, mirrored=True), sigma(2, mirrored=True)
    t1, t2 = tau(1), tau(2)
    return {
        "RII": (TangleWord((s1, s1m), 2), TangleWord((), 2)),
        "RIII": (TangleWord((s1, s2, s1), 3), TangleWord((s2, s1, s2), 3)),
        "RV": (TangleWord((s1, t1, s1m), 2), TangleWord((t1,), 2)),
        "RIVa": (TangleWord((s1m, t2, s1), 3), TangleWord((s2, t1, s2m), 3)),
        "RIVb": (TangleWord((s1, t2, s1m), 3), TangleWord((s2m, t1, s2), 3)),
    }
