"""An exact census of boolean bijection lengths, and compiled lengths
measured against exact ones.

Every step of a program that computes a bijection is itself a bijection:
a step that sends two indices to one merges them for good.  A bijective
boolean step on component i is x_i := x_i XOR h(the other components),
so a breadth-first search from the identity over the
n * (2^(2^(n-1)) - 1) such steps with h != 0 gives the exact fewest
steps of every bijection of 2^n at once (h = 0 is the identity, which
the search has already seen).

At n = 3 the search reaches all 40320 bijections, and 2304 of them need
2n - 1 = 5 steps, so the bound is tight there.  `route_bijection`
always emits 5 steps, so it is optimal on exactly those 2304.  Over all
256 mappings of 2^2, `min_length_bfs` gives the exact lengths, and the
tests pin how far above them each table compiler lands.  Needs only the
standard library, so it also runs without pytest:

    PYTHONPATH=src python tests/test_bijective_census.py
"""

import collections
import functools
import itertools
import math
from operator import itemgetter

from insitu.benes import route_bijection
from insitu.core import Alphabet, Assignment, Mapping, execute_all, step_images
from insitu.oracle import COMPILERS, full_universe, min_length_bfs

# n: bijections of 2^n with exact length 0, 1, 2, ...
BIJECTIVE_CENSUS = {
    2: (1, 6, 13, 4),
    3: (1, 45, 1011, 11063, 25896, 2304),
}
# all 256 mappings of 2^2 with exact length 0, 1, 2, ...
MAPPING_CENSUS = (1, 30, 173, 52)
# compiled length minus exact length: how many inputs of 2^2 land at each
# excess, over all 256 mappings for the general methods and over the 24
# bijections for benes
EXCESS = {
    "general4-sorted": {2: 52, 3: 173, 4: 30, 5: 1},
    "general4-flex": {2: 52, 3: 173, 4: 30, 5: 1},
    "general5": {3: 52, 4: 173, 5: 30, 6: 1},
    "benes": {0: 4, 1: 13, 2: 6, 3: 1},
}


def flip_steps(n):
    """Every bijective boolean step but the identity over 2^n:
    x_i := x_i XOR h(the other n - 1 bits) for each i and each h != 0."""
    size = 1 << n
    out = []
    for i in range(1, n + 1):
        # rest[v]: the bits of v other than bit i, packed, the argument of h
        rest = [v & ((1 << (i - 1)) - 1) | v >> i << (i - 1) for v in range(size)]
        for h in range(1, 1 << (1 << (n - 1))):
            out.append(Assignment(i, table=tuple(
                v >> (i - 1) & 1 ^ h >> rest[v] & 1 for v in range(size))))
    return out


@functools.cache
def exact_bijection_lengths(n):
    """Fewest steps computing each bijection of 2^n, keyed by its images."""
    a = Alphabet(2, n)
    moves = [step_images(asg.table, asg.target, a) for asg in flip_steps(n)]
    ident = tuple(range(a.size))
    dist = {ident: 0}
    frontier = [ident]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for state in frontier:
            pick = itemgetter(*state)  # trans[state[x]] for every x: the step applied last
            for trans in moves:
                new = pick(trans)
                if new not in dist:
                    dist[new] = depth
                    nxt.append(new)
        frontier = nxt
    return dist


@functools.cache
def exact_mapping_lengths():
    """Fewest assignments computing each of the 256 mappings of 2^2."""
    a = Alphabet(2, 2)
    return {images: min_length_bfs(Mapping(a, images), 2 * 2 - 1)
            for images in itertools.product(range(a.size), repeat=a.size)}


def histogram(lengths):
    counts = [0] * (max(lengths) + 1)
    for length in lengths:
        counts[length] += 1
    return tuple(counts)


def test_flip_steps_are_every_bijective_step():
    for n in (2, 3):
        a = Alphabet(2, n)
        bijective = {(asg.target, tuple(asg.table)) for asg in full_universe(a)
                     if len(set(step_images(asg.table, asg.target, a))) == a.size}
        identity = {(i, tuple(v >> (i - 1) & 1 for v in range(a.size)))
                    for i in range(1, n + 1)}
        steps = flip_steps(n)
        assert len(steps) == n * (2 ** 2 ** (n - 1) - 1) == {2: 6, 3: 45}[n]
        assert {(asg.target, asg.table) for asg in steps} == bijective - identity


def test_census_reaches_every_bijection_with_pinned_lengths():
    for n, want in BIJECTIVE_CENSUS.items():
        dist = exact_bijection_lengths(n)
        assert len(dist) == math.factorial(2 ** n)
        assert histogram(dist.values()) == want, n
        assert max(dist.values()) == 2 * n - 1  # the bound is tight


def test_min_length_bfs_agrees_on_every_bijection_at_n2():
    a = Alphabet(2, 2)
    for images, exact in exact_bijection_lengths(2).items():
        assert min_length_bfs(Mapping(a, images), 2 * 2 - 1) == exact, images


def test_route_bijection_is_optimal_only_at_the_longest_length():
    a = Alphabet(2, 3)
    dist = exact_bijection_lengths(3)
    first = {}
    for images, exact in dist.items():
        first.setdefault(exact, images)
    for exact, images in first.items():
        p = route_bijection(Mapping(a, images))
        assert len(p) == 2 * 3 - 1, (exact, images)
        assert execute_all(p).images == images
    # so it is optimal exactly on the bijections that need 2n - 1 steps
    assert sum(exact == 2 * 3 - 1 for exact in dist.values()) == 2304


def test_mapping_census_at_2_2():
    lengths = exact_mapping_lengths()
    assert len(lengths) == 256 and None not in lengths.values()
    assert histogram(lengths.values()) == MAPPING_CENSUS
    bijections = exact_bijection_lengths(2)
    assert {images: lengths[images] for images in bijections} == bijections


def test_compiled_minus_exact_length_at_2_2():
    a = Alphabet(2, 2)
    lengths = exact_mapping_lengths()
    for method, want in EXCESS.items():
        inputs = exact_bijection_lengths(2) if method == "benes" else lengths
        excess = collections.Counter()
        for images, exact in inputs.items():
            p = COMPILERS[method](Mapping(a, images))
            assert execute_all(p).images == images, (method, images)
            excess[len(p) - exact] += 1
        assert dict(excess) == want, (method, dict(excess))


if __name__ == "__main__":
    import sys
    import time

    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            start = time.perf_counter()
            fn()
            print(f"{name}: ok ({time.perf_counter() - start:.2f} s)")
    print(f"python {sys.version.split()[0]}: census agrees")
