"""An exact census of linear program lengths over Z/s.

The paper bounds linear programs by 2n - 1 assignment matrices, and
`linmod.decompose` always emits exactly 2n - 1 factors, identity
factors included.  Here a breadth-first search from the identity over
all s^(n^2) matrices gives the exact fewest factors of every n x n
matrix, singular ones too.  One step applies x_k := c.x for a row c,
which replaces row k of the current matrix A by c^T A; the n * (s^n - 1)
rows c != e_k are the generators (c = e_k gives A back, which the
search has already seen).

The census finds 2n - 1 tight at n = 2 for every s below, but not over
Z/2 at n = 3, where no matrix needs more than 4 factors.  Counting only
its non-identity factors, `decompose` is at most 1 factor above the
optimum at n = 2 and at most 2 over Z/2 at n = 3.

`WIDE_CENSUS` goes one notch further, to Z/3 at n = 3 and Z/2 at n = 4:
no matrix needs more than 4 and 6 factors, again below 2n - 1, and
`decompose` is at most 2 and 3 factors above the optimum.  It takes
about half a minute, so `check_wide_census` is left out of the pytest
run; running the file runs it after the tests.  Needs only the standard
library, so it also runs without pytest:

    PYTHONPATH=src python tests/test_linear_census.py
"""

import functools
import itertools

from insitu.linmod import MatrixMod, ModRing, decompose

# (s, n): matrices with exact length 0, 1, 2, ...; how many `decompose`
# gets down to that length once its identity factors are dropped; and its
# largest excess over the exact length
CENSUS = {
    (2, 2): ((1, 6, 8, 1), 15, 1),
    (3, 2): ((1, 16, 60, 4), 70, 1),
    (4, 2): ((1, 30, 200, 25), 209, 1),
    (5, 2): ((1, 48, 560, 16), 546, 1),
    (6, 2): ((1, 70, 1000, 225), 1017, 1),
    (8, 2): ((1, 126, 3528, 441), 3225, 1),
    (2, 3): ((1, 21, 135, 304, 51), 352, 2),
}
# the same, for the entries that take seconds each
WIDE_CENSUS = {
    (3, 3): ((1, 78, 1920, 16444, 1240), 12257, 2),
    (2, 4): ((1, 60, 1254, 11772, 44142, 8304, 3), 26806, 3),
}


def identity_rows(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@functools.cache
def exact_lengths(s, n):
    """Fewest assignment matrices whose product is each n x n matrix mod s,
    keyed by the matrix's rows."""
    ident = identity_rows(n)
    vectors = list(itertools.product(range(s), repeat=n))
    dist = {ident: 0}
    frontier = [ident]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for a in frontier:
            cols = list(zip(*a))
            # c^T A for every row c, shared by the n targets k
            combos = [tuple(sum(x * y for x, y in zip(c, col)) % s for col in cols)
                      for c in vectors]
            for k in range(n):
                for row in combos:
                    new = a[:k] + (row,) + a[k + 1:]
                    if new not in dist:
                        dist[new] = depth
                        nxt.append(new)
        frontier = nxt
    return dist


def check_histograms(census):
    for (s, n), (histogram, _, _) in census.items():
        dist = exact_lengths(s, n)
        assert len(dist) == s ** (n * n), (s, n)
        counts = [0] * (max(dist.values()) + 1)
        for length in dist.values():
            counts[length] += 1
        assert tuple(counts) == histogram, (s, n, counts)


def test_two_n_minus_one_is_tight_at_n2_but_not_over_z2_at_n3():
    for s in (2, 3, 4, 5, 6, 8):
        assert max(exact_lengths(s, 2).values()) == 2 * 2 - 1
    assert max(exact_lengths(2, 3).values()) == 4 < 2 * 3 - 1


def check_decompose(census):
    for (s, n), (_, optimal, excess) in census.items():
        ring = ModRing.of(s)
        ident = identity_rows(n)
        hits, worst = 0, 0
        for rows, exact in exact_lengths(s, n).items():
            p = decompose(MatrixMod.of(ring, rows))
            assert len(p) == 2 * n - 1, (s, n, rows)
            assert p.matrix().entries == rows, (s, n, rows)
            used = sum(f.coefficients != ident[f.row - 1] for f in p.factors)
            assert used >= exact, (s, n, rows, used, exact)
            hits += used == exact
            worst = max(worst, used - exact)
        assert (hits, worst) == (optimal, excess), (s, n, hits, worst)


def test_census_reaches_every_matrix_with_pinned_lengths():
    check_histograms(CENSUS)


def test_decompose_against_the_census():
    check_decompose(CENSUS)


def check_wide_census():
    check_histograms(WIDE_CENSUS)
    check_decompose(WIDE_CENSUS)


if __name__ == "__main__":
    import sys
    import time

    for name, fn in list(globals().items()):
        if name.startswith("test_") or name == "check_wide_census":
            start = time.perf_counter()
            fn()
            print(f"{name}: ok ({time.perf_counter() - start:.2f} s)")
    print(f"python {sys.version.split()[0]}: census agrees")
