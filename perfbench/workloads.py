"""The three workloads: census, invariance and distinguish.

Each workload class builds its inputs from a seeded random generator in
``__init__`` (the set-up) and runs one round of operations in ``round``.
An operation is one call into the public API of ``singquandles``, timed by
the recorder and judged by a check that uses ``oracles`` or a property the
method must have.  The first round of a run checks every output in full and
keeps what it verified; later rounds compare their outputs with that.

The package arrives as ``sq``, the module object of one import; nothing
here imports it, so that each set-up can import it afresh.
"""

from __future__ import annotations

import random

import oracles
from recorder import ERROR

# census: labelled census of orders 1..5, up-to-iso census of order 4,
# canonical_form on sampled order-5 structures and on a relabelling of
# each, check_all on sampled census structures and on one mutant of each
CENSUS_ORDERS = range(1, 6)
CENSUS_CANONICAL_SAMPLE = 60
CENSUS_CHECK_SAMPLE = 200
# labelled counts of involutive quandles and of structures; orders <= 3 are
# also recomputed by oracles.labelled_count, orders 4 and 5 are the
# program's output (README gives the command that prints them)
QUANDLE_COUNTS = {1: 1, 2: 1, 3: 5, 4: 26, 5: 232}
STRUCTURE_COUNTS = {1: 1, 2: 2, 3: 10, 4: 198, 5: 16392}
FILTERED_ORDERS = (1, 2, 3)

# distinguish draws its words, structures and pairs from this fixed seed;
# the run's seed rotates every word cyclically.  The problems stay the same
# across seeds while the diagrams the program sees change: with words drawn
# afresh from the run's seed, the quartiles of a round's cost over ten
# seeds lay 13 % of the median apart.
POOL_SEED = 2016

# distinguish: strands -> (pairs, letters per word); the family is every
# valid linear structure with 2 <= n <= DISTINGUISH_MAX_N
DISTINGUISH_CLASSES = {2: (24, 32), 3: (24, 12), 4: (24, 8)}
DISTINGUISH_MAX_N = 12
# each pair's first closure is listed under a member, drawn from the pool,
# with n ** strands at most LIST_LIMIT, so the listing stays small
LIST_LIMIT = 1000
# a 27-arc closure on which the linear counter runs for minutes (its
# entries grow without bound) while brute force counts 20 at once; one
# operation per round, failing until the linear counter is fixed
SLOW_LINEAR_WORD = ("t1 s2 s3 t2 s1' s3 s2' s3 s3 s3 t3 s1 s2' s2 s2 t3 t1 "
                    "t1 t1 s3'")
SLOW_LINEAR_PARAMS = (10, 9, 4)
SLOW_LINEAR_LIMIT_S = 0.25


class SetupError(RuntimeError):
    pass


def plain(s):
    return (s.star.rows, s.r1.rows, s.r2.rows)


def plain_diagram(d):
    return (d.arcs, tuple(cr.labels for cr in d.crossings), d.free)


def random_word(rng, strands, length):
    return [(rng.choice(("s", "s'", "t")), rng.randint(1, strands - 1))
            for _ in range(length)]


def rotated(word, turn):
    """The word turned cyclically: a conjugate braid, whose closure is the
    same link, so every coloring count is unchanged."""
    return word[turn:] + word[:turn]


def word_text(word):
    return " ".join(("t" if kind == "t" else "s") + str(i)
                    + ("'" if kind == "s'" else "") for kind, i in word)


def parse_text(text):
    return [(token[0] + ("'" if token.endswith("'") else ""),
             int(token[1:].rstrip("'")))
            for token in text.split()]


def structure(sq, rows):
    return sq.Singquandle(*(sq.OpTable.from_rows(T) for T in rows))


def by_contents(structures):
    """Sorted by table contents: samples drawn from the result do not depend
    on the order in which the program lists its structures."""
    return sorted(structures, key=lambda s: oracles.flat(plain(s)))


def census_by_order(sq, rec, orders):
    """order -> (star tables, [(star, structures of that star)])."""
    out = {}
    for n in orders:
        stars = rec.call("enumeration.involutive_quandles",
                         sq.involutive_quandles, n)
        calls = []
        for star in ([] if stars is ERROR else stars):
            got = rec.call("enumeration.singquandles_for_star",
                           sq.singquandles_for_star, star)
            calls.append((star, got))
            if got is not ERROR:
                rec.count("enumeration.structures", len(got))
        out[n] = (stars, calls)
    return out


def built_census(sq, rec, orders):
    """order -> structures, for building inputs."""
    out = {}
    for n, (stars, calls) in census_by_order(sq, rec, orders).items():
        if stars is ERROR or any(got is ERROR for _, got in calls):
            raise SetupError(f"census of order {n} failed: {rec.errors}")
        out[n] = [s for _, got in calls for s in got]
    return out


def closure(sq, rec, word, strands):
    d = rec.call("tangles.braid_closure", sq.braid_closure,
                 sq.parse_word(word_text(word), strands))
    if d is ERROR:
        raise SetupError(f"braid_closure failed: {rec.errors}")
    return d


class Census:
    """The search and the checker alone; no diagram is colored."""

    def __init__(self, sq, rng, rec):
        self.sq = sq
        self.canonical_picks = [(rng.random(), rng.sample(range(5), 5))
                                for _ in range(CENSUS_CANONICAL_SAMPLE)]
        # a mutant shifts one entry of one table; a changed star entry
        # breaks right-bijectivity and a changed r1 or r2 entry breaks
        # RV's first equation, so every mutant takes the failing path
        self.check_picks = [(rng.random(), rng.randrange(3), rng.random(),
                             rng.random(), rng.random())
                            for _ in range(CENSUS_CHECK_SAMPLE)]
        self.verified = None
        self.up_to_iso = None
        self.canonical_inputs = None
        self.canonical = None
        self.check_inputs = None
        self.reports = None

    def round(self, rec):
        outputs = census_by_order(self.sq, rec, CENSUS_ORDERS)
        if self.verified is None:
            self.verified = {n: self._verify(n, *outputs[n]) for n in outputs}
        for n, (stars, calls) in outputs.items():
            ok_stars, ok_structures = self.verified[n]
            rec.judge(stars is not ERROR and ok_stars is not None
                      and hash(tuple(s.rows for s in stars)) == ok_stars)
            # a call is right only when its order's census as a whole is
            whole = (ok_structures is not None
                     and all(got is not ERROR for _, got in calls)
                     and hash(tuple(plain(s) for _, got in calls for s in got))
                     == ok_structures)
            for star, got in calls:
                rec.judge(whole and all(s.star == star for s in got))
        census = {n: [s for _, got in calls if got is not ERROR for s in got]
                  for n, (_, calls) in outputs.items()}
        self._up_to_iso(rec)
        self._canonical(rec, census[5])
        self._check_all(rec, census)

    @staticmethod
    def _verify(n, stars, calls):
        """Hashes of the star tables and of the structures of one order,
        each None unless closed under relabelling, passing the axioms and of
        the right size.  Only hashes are kept, so that later rounds hold no
        more memory than the first."""
        if stars is ERROR or any(got is ERROR for _, got in calls):
            return None, None
        star_rows = tuple(s.rows for s in stars)
        structures = tuple(plain(s) for _, got in calls for s in got)
        star_orbits = oracles.relabelling_orbits([(S, S, S) for S in star_rows])
        orbits = oracles.relabelling_orbits(list(structures))
        want = STRUCTURE_COUNTS[n]
        if n in FILTERED_ORDERS and oracles.labelled_count(n) != want:
            want = None
        stars_ok = (star_orbits is not None
                    and all(oracles.holds_all(o[0], oracles.STAR_AXIOMS)
                            for o in star_orbits)
                    and len(star_rows) == QUANDLE_COUNTS[n])
        structures_ok = (orbits is not None
                         and all(oracles.holds_all(o[0]) for o in orbits)
                         and len(structures) == want)
        return (hash(star_rows) if stars_ok else None,
                hash(structures) if structures_ok else None)

    def _up_to_iso(self, rec):
        got = rec.call("enumeration.up_to_iso",
                       self.sq.enumerate_singquandles, 4, up_to_iso=True)
        if got is ERROR or got.structures is None:
            rec.judge(False)
            return
        reps = [plain(s) for s in got.structures]
        if self.up_to_iso is None:
            labelled = (STRUCTURE_COUNTS[4] if self.verified[4][1] is not None
                        else None)
            classes = {oracles.least_relabelling(r) for r in reps}
            # orbit-stabilizer: the classes cover the labelled census
            good = (labelled is not None and got.count == labelled
                    and len(classes) == len(reps)
                    and all(oracles.holds_all(r) for r in reps)
                    and oracles.orbit_sum(reps) == labelled)
            self.up_to_iso = (got.count, reps) if good else False
        rec.judge(self.up_to_iso == (got.count, reps))

    def _canonical(self, rec, order5):
        sq = self.sq
        if self.canonical_inputs is None:
            order5 = by_contents(order5)
            self.canonical_inputs = []
            for u, perm in self.canonical_picks:
                s = order5[int(u * len(order5))]
                moved = structure(sq, oracles.relabel(plain(s), perm))
                self.canonical_inputs.append((s, moved))
            self.canonical = [None] * len(self.canonical_inputs)
        for i, (s, moved) in enumerate(self.canonical_inputs):
            forms = [rec.call("enumeration.canonical_form",
                              sq.canonical_form, x) for x in (s, moved)]
            keys = [None if c is ERROR else oracles.flat(plain(c))
                    for c in forms]
            if self.canonical[i] is None and keys[0] is not None:
                # the form must be a relabelling of s
                same_class = (oracles.least_relabelling(plain(forms[0]))
                              == oracles.least_relabelling(plain(s)))
                self.canonical[i] = keys[0] if same_class else False
            for key in keys:
                # and canonical_form(relabel(s, p)) == canonical_form(s)
                rec.judge(key is not None and key == self.canonical[i])

    def _check_all(self, rec, census):
        sq = self.sq
        if self.check_inputs is None:
            pool = by_contents([s for n in CENSUS_ORDERS if n > 1
                                for s in census[n]])
            self.check_inputs = []
            for u, t, ux, uy, ud in self.check_picks:
                s = pool[int(u * len(pool))]
                n = s.order
                tables = [list(map(list, T)) for T in plain(s)]
                x, y = int(ux * n), int(uy * n)
                tables[t][x][y] = (tables[t][x][y] + 1 + int(ud * (n - 1))) % n
                self.check_inputs.append((s, structure(sq, tables)))
            self.reports = [None] * len(self.check_inputs)
        for i, (s, mutant) in enumerate(self.check_inputs):
            reports = (rec.call("axioms.check_all_pass", sq.check_all, s),
                       rec.call("axioms.check_all_fail", sq.check_all, mutant))
            got = tuple(None if r is ERROR else
                        tuple((a.axiom, a.holds, a.witness, a.lhs, a.rhs)
                              for a in r)
                        for r in reports)
            if self.reports[i] is None and None not in got:
                good = (_passing_report(got[0])
                        and _failing_report(got[1], plain(mutant)))
                self.reports[i] = got if good else False
            for j in (0, 1):
                rec.judge(got[j] is not None and self.reports[i]
                          and got[j] == self.reports[i][j])


def _passing_report(report):
    return (sorted(r[0] for r in report) == sorted(oracles.AXIOMS)
            and all(r[1] for r in report))


def _failing_report(report, mutant):
    """The failing axioms are the oracle's; each witness is the first
    failing tuple, where the two sides evaluate unequal as reported."""
    expect = oracles.failures(mutant)
    if not expect or sorted(r[0] for r in report) != sorted(oracles.AXIOMS):
        return False
    if {r[0] for r in report if not r[1]} != set(expect):
        return False
    for name, holds, witness, lhs, rhs in report:
        if holds:
            continue
        sides = oracles.evaluate(mutant, name, witness)
        if witness != expect[name] or sides[0] == sides[1] or (lhs, rhs) != sides:
            return False
    return True


class Invariance:
    """Criterion 6 replayed: move pairs and rotations over the census."""

    def __init__(self, sq, rng, rec):
        self.sq = sq
        census = built_census(sq, rec, range(1, 6))
        self.structures = [s for n in range(1, 5) for s in census[n]]
        # one seeded member of each isomorphism class of order 5
        order5 = {oracles.flat(plain(s)): s for s in census[5]}
        orbits = oracles.relabelling_orbits([plain(s) for s in census[5]])
        if orbits is None:
            raise SetupError("the order-5 census is not closed under relabelling")
        self.structures += [order5[oracles.flat(rng.choice(orbit))]
                            for orbit in orbits]
        self.diagrams = []
        for d in (sq.gen_fig9_left(), sq.gen_fig9_right()):
            turned = []
            for i in range(len(d.crossings)):
                r = d
                for _ in range(3):
                    r = sq.rotate_singular(r, i)
                    turned.append(r)
            self.diagrams.append((d, plain_diagram(d), turned))
        self.pairs = [(wa, wb, parse_text(str(wa)), parse_text(str(wb)))
                      for wa, wb in sq.move_word_pairs().values()]
        self.expected = {}

    def _expect(self, i, s):
        """Oracle values for structure i: per move pair the hashes of both
        maps, per diagram the sorted colorings' count, and the hash of
        fig9-left's sorted colorings."""
        if i not in self.expected:
            st = plain(s)
            maps = [(hash(oracles.braid_map(la, wa.strands, st)),
                     hash(oracles.braid_map(lb, wb.strands, st)))
                    for wa, wb, la, lb in self.pairs]
            found = [oracles.colorings(pd, st) for _, pd, _ in self.diagrams]
            self.expected[i] = (maps, [len(c) for c in found],
                                hash(tuple(found[0])))
        return self.expected[i]

    def round(self, rec):
        sq = self.sq
        for i, s in enumerate(self.structures):
            maps, counts, listed = self._expect(i, s)
            for (wa, wb, _, _), (ha, hb) in zip(self.pairs, maps):
                ra, rb = (rec.call("tangles.tangle_relation",
                                   sq.tangle_relation, w, s) for w in (wa, wb))
                # a move pair must induce one relation
                equal = (ra is not ERROR and rb is not ERROR
                         and ra.outputs == rb.outputs)
                rec.judge(equal and hash(ra.outputs) == ha)
                rec.judge(equal and hash(rb.outputs) == hb)
            for (d, _, turned), want in zip(self.diagrams, counts):
                # quarter turns of a singular crossing keep the count
                for diagram in (d, *turned):
                    c = rec.call("coloring.count_colorings_bruteforce",
                                 sq.count_colorings_bruteforce, diagram, s)
                    rec.count("coloring.bruteforce_arcs", diagram.arcs)
                    rec.judge(c is not ERROR and c.count == want)
            left = self.diagrams[0][0]
            got = rec.call("coloring.list_colorings_bruteforce",
                           sq.count_colorings_bruteforce, left, s,
                           list_colorings=True)
            good = (got is not ERROR and got.colorings is not None
                    and not got.truncated and got.count == counts[0]
                    and hash(got.colorings) == listed)
            if good:
                rec.count("coloring.colorings_listed", len(got.colorings))
            rec.judge(good)


class Distinguish:
    """The paper's application: telling closures apart by linear counts."""

    def __init__(self, sq, rng, rec):
        self.sq = sq
        pool = random.Random(POOL_SEED)
        self.family = [p for n in range(2, DISTINGUISH_MAX_N + 1)
                       for p in sq.find_params(n)]
        self.pairs = []
        for strands, (pairs, length) in DISTINGUISH_CLASSES.items():
            letters = [(kind, i) for kind in ("s", "s'", "t")
                       for i in range(1, strands)]
            small = [p for p in self.family if p.n ** strands <= LIST_LIMIT]
            for _ in range(pairs):
                word = random_word(pool, strands, length)
                variant = list(word)
                at = pool.randrange(length)
                variant[at] = pool.choice([x for x in letters if x != word[at]])
                member = pool.choice(small)
                turn = rng.randrange(length)
                word, variant = rotated(word, turn), rotated(variant, turn)
                self.pairs.append((word, variant, strands,
                                   closure(sq, rec, word, strands),
                                   closure(sq, rec, variant, strands),
                                   member))
        slow = parse_text(SLOW_LINEAR_WORD)
        self.slow = (slow, closure(sq, rec, slow, 4),
                     sq.AlexanderParams(*SLOW_LINEAR_PARAMS))
        self.counts = {}
        self.verdicts = [None] * len(self.pairs)
        self.listings = [None] * len(self.pairs)

    def _count(self, word, strands, p):
        key = (tuple(word), p.n, p.t, p.b)
        if key not in self.counts:
            self.counts[key] = oracles.linear_closure_count(
                word, strands, p.n, p.t, p.b)
        return self.counts[key]

    def _verdict_ok(self, verdict, word, variant, strands):
        """Counts agree on every member before the reported one and differ,
        as reported, there; or agree on the whole family."""
        separated, index, counts, member = verdict
        scanned = self.family[:index + 1] if separated else self.family
        for p in scanned[:-1] if separated else scanned:
            if self._count(word, strands, p) != self._count(variant, strands, p):
                return False
        if not separated:
            return True
        p = scanned[-1]
        want = (self._count(word, strands, p), self._count(variant, strands, p))
        return member == p and counts == want and want[0] != want[1]

    def _listing_ok(self, got, word, strands, d, p):
        want = self._count(word, strands, p)
        if got.colorings is None or got.truncated or got.count != want:
            return False
        listed = got.colorings
        shape = plain_diagram(d)
        st = oracles.linear_structure(p.n, p.t, p.b)
        return (len(listed) == want
                and all(a < b for a, b in zip(listed, listed[1:]))
                and all(oracles.is_coloring(c, shape, st) for c in listed))

    def round(self, rec):
        sq = self.sq
        for i, (word, variant, strands, d1, d2, member) in enumerate(self.pairs):
            v = rec.call("coloring.distinguish", sq.distinguish, d1, d2,
                         self.family)
            got = None
            if v is not ERROR:
                got = (v.separated, v.index, v.counts, v.structure)
                rec.count("coloring.distinguish_members_scanned",
                          v.index + 1 if v.separated else len(self.family))
                rec.count("coloring.pairs_separated", int(v.separated))
            if self.verdicts[i] is None and got is not None:
                good = self._verdict_ok(got, word, variant, strands)
                self.verdicts[i] = got if good else False
            rec.judge(got is not None and got == self.verdicts[i])

            listed = rec.call("smith.list_colorings_linear",
                              sq.count_colorings_linear, d1, member,
                              list_colorings=True)
            got = (None if listed is ERROR
                   else (listed.count, hash(listed.colorings)))
            if self.listings[i] is None and got is not None:
                good = self._listing_ok(listed, word, strands, d1, member)
                self.listings[i] = got if good else False
            rec.judge(got is not None and got == self.listings[i])

        word, d, p = self.slow
        c = rec.call("smith.count_colorings_linear_limited",
                     sq.count_colorings_linear, d, p,
                     limit_s=SLOW_LINEAR_LIMIT_S)
        rec.judge(c is not ERROR and c.count == self._count(word, 4, p),
                  expected_failure=True)


WORKLOADS = {"census": Census, "invariance": Invariance,
             "distinguish": Distinguish}
