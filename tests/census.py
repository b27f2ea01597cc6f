"""The tests' one breadth-first census: the exact fewest steps from the
identity to every state at once.  A state is an int64 code; `bfs` marks
an int8 distance array in place, level by level, and expands each
frontier in chunks, so its successor arrays do not grow with the level.
Each kind of state has its successor hook, built with numpy digit
arithmetic and none of the package's kernels.  A step is applied after
the state, as a program applies it.  Not collected by pytest; needs
numpy.
"""

import functools
import sys
import time

import numpy as np

_CHUNK = 1024  # frontier states per call of a successor hook


def digits(codes, base, width):
    """The `width` base-`base` digits of each code, least significant first."""
    return np.asarray(codes, np.int64)[..., None] // base ** np.arange(width) % base


def histogram(dist):
    """How many reached codes lie at distance 0, 1, 2, ..."""
    dist = np.asarray(dist)
    return tuple(np.bincount(dist[dist >= 0]).tolist())


def bfs(size, start, successors, max_depth=127):
    """dist[code], the fewest steps from `start` to each code below `size`,
    or -1 past max_depth; successors(codes) gives their next codes."""
    dist = np.full(size, -1, np.int8)
    dist[start] = 0
    frontier = np.array([start])
    for depth in range(1, max_depth + 1):
        for lo in range(0, frontier.size, _CHUNK):
            new = successors(frontier[lo:lo + _CHUNK])
            dist[new[dist[new] < 0]] = depth
        frontier = np.flatnonzero(dist == depth)
        if not frontier.size:
            break
    return dist


def _table_steps(s, n, components):
    """Every table on each of `components`, as (component, table) pairs."""
    size = s ** n
    return [(i, tab) for i in components for tab in digits(range(s ** size), s, size)]


def _mapping_successors(s, n, steps):
    """successors(codes)[m, c]: the code step m makes of codes[c], for the
    mappings of s^n coded base s^n by their images.  Step (i, tab) sends
    image v to v + (tab[v] - digit_i(v)) * s^(i-1), so it adds to a code
    what it adds to each half of the images alone, looked up in a table
    over the codes of a half."""
    size = s ** n
    index = np.arange(size)
    moves = np.array([(np.asarray(tab) - index // s ** (i - 1) % s) * s ** (i - 1)
                      for i, tab in steps])

    def part(width):  # part(w)[m, c]: what step m adds to the code c of w images
        c = np.arange(size ** width)
        return sum(moves[:, c // size ** x % size] * size ** x for x in range(width))

    half = size ** (size // 2)
    low, high = part(size // 2), part(size - size // 2) * half
    return lambda codes: codes + low[:, codes % half] + high[:, codes // half]


def _identity_code(size):
    index = np.arange(size)
    return int(index @ size ** index)


def mapping_bfs(s, n, steps=None, max_depth=127):
    """Exact lengths of the mappings of s^n, coded base s^n by their images,
    over `steps`, (component, table) pairs: every table on every component
    by default.  The distance array has (s^n)^(s^n) bytes, so 2^3 is the
    largest space it takes."""
    size = s ** n
    if steps is None:
        steps = _table_steps(s, n, range(1, n + 1))
    return bfs(size ** size, _identity_code(size), _mapping_successors(s, n, steps), max_depth)


def signature_reach(s, n, signature):
    """reached[code]: whether some program with exactly this signature
    computes the mapping of s^n coded `code`.  Layer k applies every table
    on component signature[k] to every mapping reached so far; the
    identity table is one of them, so each layer keeps the one before."""
    size = s ** n
    reached = np.zeros(size ** size, bool)
    reached[_identity_code(size)] = True
    for i in signature:
        successors = _mapping_successors(s, n, _table_steps(s, n, (i,)))
        codes = np.flatnonzero(reached)
        for lo in range(0, codes.size, _CHUNK):
            reached[successors(codes[lo:lo + _CHUNK])] = True
    return reached


@functools.cache
def matrix_bfs(s, n):
    """Exact lengths of the n x n matrices over Z/s, coded base s row by
    row.  Step x_k := c.x replaces row k of A by c^T A."""
    rows = digits(range(s ** n), s, n)  # every c
    place = (s ** np.arange(n * n)).reshape(n, n)  # place[k, l]: entry (k, l)

    def successors(codes):
        a = digits(codes, s, n * n).reshape(-1, n, n)
        zeroed = codes[:, None] - (a * place).sum(-1)  # the code with row k zeroed
        return zeroed[:, None, :] + (rows @ a % s) @ place.T

    return bfs(s ** (n * n), int(np.trace(place)), successors)


def run(namespace, *extra):
    """Run a census file's tests, then `extra`, without pytest, each timed."""
    for fn in [fn for name, fn in namespace.items() if name.startswith("test_")] + list(extra):
        start = time.perf_counter()
        fn()
        print(f"{fn.__name__}: ok ({time.perf_counter() - start:.2f} s)")
    print(f"python {sys.version.split()[0]}: census agrees")
