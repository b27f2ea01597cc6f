"""Compile arbitrary mappings by factoring through a collapse step.

Every mapping e factors as post o collapse o pre, where `pre` is a
bijection packing each preimage class of e into a run of consecutive
indices, `collapse` sends the t-th run onto the single index t, and
`post` is a bijection placing the collapsed points on the actual images.
The outer bijections compile to 2n - 1 steps each; the collapse is one
ascending sweep (signature 1, 2, ..., n), and a placement may be one
descending sweep (n, ..., 2, 1).

A sweep's network is a butterfly, with one path from each input to each
output, so a sweep writing each point's target digit stage by stage
routes exactly when no two points at one entry ask for different digits;
it raises on the first such conflict.  The paper's conditions are why
the compilers never meet one: a collapse never moves an index by more
than one per input step, and on a range of strictly increasing images,
inputs that agree on components 1..j are at least s^j apart, as are
their images, which therefore differ above component j.

Compilers built on this factorization:
  compile_general5        length <= 5n - 4, signature 1..n..1..n..1..n
  compile_general4_sorted length <= 4n - 3, signature 1..n..1..n..1
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from . import benes
from .core import (
    Alphabet,
    Assignment,
    InSituError,
    InSituProgram,
    Mapping,
    _check_ints,
    _table_type,
    _unchecked,
    concat,
    merge_adjacent,
    step_images,
)


def collapse_mapping(sizes: Sequence[int], alphabet: Alphabet) -> Mapping:
    """Mapping sending the t-th run of consecutive indices onto index t.

    sizes[t] is the length of run t; runs of size zero are allowed and
    simply skip an image.  Sizes that are not integers, are negative or
    do not sum to the index space's size raise `ValueError`.
    """
    sizes = tuple(sizes)
    _check_ints(sizes, "run size")
    total = sum(sizes)
    size = alphabet.size
    if total != size:
        raise ValueError(f"sizes sum to {total}, index space has {size}")
    images: list[int] = []
    for t, v in enumerate(sizes):
        if v < 0:
            raise ValueError(f"negative run size {v}")
        if v and t >= size:
            raise ValueError(f"run {t} is outside the index space")
        images.extend([t] * v)
    return _unchecked(Mapping, alphabet, tuple(images))


def forward_program(mapping: Mapping) -> InSituProgram:
    """Ascending sweep (signature 1, 2, ..., n) computing `mapping`, which
    it does for exactly the mappings the 1..n butterfly routes; any other
    raises `InSituError`.

    Component i is assigned its final value while the later components
    still hold their input values.  A distance-compatible mapping, such
    as a collapse, never conflicts.  Entries not constrained by any
    input are filled with the identity.
    """
    a = mapping.alphabet
    return _sweep_program(a, range(a.size), mapping.images, range(1, a.n + 1))


def _sweep_program(alphabet: Alphabet, sources: Sequence[int], targets: Sequence[int],
                   components: Sequence[int]) -> InSituProgram:
    """One stage per component, in the given order, moving sources[i] to
    targets[i].  A stage writes the target's digit where each point
    stands; a point stands at its target's digits on the components
    written so far and at its source's digits on the rest.  Entries no
    point reaches keep the identity; two different digits asked of one
    entry raise an `InSituError` that names them."""
    s = alphabet.s
    form = _table_type(alphabet)
    size = alphabet.size
    positions = sources
    steps = []
    for j in components:
        if steps:
            # the points move by the stage before, read off its list: one
            # key more than the points keeps the result a tuple when there
            # is a single point
            positions = itemgetter(0, *positions)(
                step_images(tab, steps[-1].target, alphabet))[1:]
        pw = s ** (j - 1)
        run: list[int] = []  # digit j of the indices below pw * s
        for d in range(s):
            run += [d] * pw
        tab = run * (size // len(run))  # digit j of every index: the identity
        reached = bytearray(size)
        for p, y in zip(positions, targets):
            d = y // pw % s
            if reached[p]:
                if tab[p] != d:
                    raise InSituError(f"component {j} at index {p} must become both {tab[p]} and {d}")
            else:
                reached[p] = 1
                tab[p] = d
        steps.append(Assignment(j, table=form(tab)))
    return _unchecked(InSituProgram, alphabet, tuple(steps))


def backward_restricted_program(mapping: Mapping, lo: int, hi: int) -> InSituProgram:
    """Descending sweep (signature n, ..., 2, 1) computing `mapping` on the
    index range [lo, hi], which it does for exactly the ranges the n..1
    butterfly routes; any other raises `InSituError`.

    On a strictly increasing range no two points of the sweep ever share
    an entry (see the module docstring).  Outside the range the
    program's behavior is unspecified (tables are completed with the
    identity).
    """
    a = mapping.alphabet
    size = a.size
    if not 0 <= lo <= hi < size:
        raise ValueError(f"bad range [{lo}, {hi}] for index space of size {size}")
    return _sweep_program(a, range(lo, hi + 1), mapping.images[lo:hi + 1], range(a.n, 0, -1))


@dataclass(frozen=True)
class ClassFactorisation:
    """e = post o collapse o pre with bijective pre and post.

    `slots` records which image each run was assigned to (None for runs
    of size zero).
    """

    pre: Mapping
    collapse: Mapping
    post: Mapping
    slots: tuple[int | None, ...]


def preimage_classes(e: Mapping) -> dict[int, list[int]]:
    """Image -> ascending list of its preimages, keyed in ascending order."""
    classes: dict[int, list[int]] = {}
    for x, y in enumerate(e.images):
        classes.setdefault(y, []).append(x)
    return {y: classes[y] for y in sorted(classes)}


def factor_by_classes(e: Mapping, slots: Sequence[int | None] | None = None) -> ClassFactorisation:
    """Factor e as post o collapse o pre.

    `slots` fixes the order in which the preimage classes are packed;
    entry t names the image whose class occupies run t, or None for an
    empty run.  Default: distinct images in ascending order, no empty runs.
    """
    return _factor(e, preimage_classes(e), slots)


def _factor(e: Mapping, classes: dict[int, list[int]],
            slots: Sequence[int | None] | None) -> ClassFactorisation:
    # factor_by_classes on the classes a caller has already found
    a = e.alphabet
    if slots is None:
        slots = tuple(sorted(classes))
    else:
        slots = tuple(slots)
        named = [y for y in slots if y is not None]
        if sorted(named) != sorted(classes):
            raise ValueError("slots must name every distinct image exactly once")
        if len(slots) > a.size:
            raise ValueError(f"{len(slots)} runs do not fit an index space of {a.size}")

    sizes = [len(classes[y]) if y is not None else 0 for y in slots]
    pre_images = [0] * a.size
    offset = 0
    for y, v in zip(slots, sizes):
        if y is not None:
            for rank, x in enumerate(classes[y]):
                pre_images[x] = offset + rank
        offset += v

    collapse = collapse_mapping(sizes, a)

    post_images: list[int | None] = [None] * a.size
    for t, y in enumerate(slots):
        if y is not None:
            post_images[t] = y
    spare = iter(sorted(set(range(a.size)) - set(classes)))
    filled = tuple(y if y is not None else next(spare) for y in post_images)
    pre = _unchecked(Mapping, a, tuple(pre_images))
    return ClassFactorisation(pre, collapse, _unchecked(Mapping, a, filled), slots)


def compile_general5(e: Mapping, slots: Sequence[int | None] | None = None) -> InSituProgram:
    """Any mapping in at most 5n - 4 steps, signature 1..n..1..n..1..n.

    The classes may be packed in any order (`slots`, no empty runs); the
    final bijection is compiled with the mirrored signature n..1..n so the
    three legs fuse at both junctions.
    """
    fac = factor_by_classes(e, slots)
    if any(y is None for y in fac.slots):
        raise ValueError("empty runs are not allowed here")
    g = benes.route_bijection(fac.pre)
    i = forward_program(fac.collapse)
    f = benes.route_bijection_reversed(fac.post)
    return merge_adjacent(concat(g, i, f))


def compile_general4_sorted(e: Mapping) -> InSituProgram:
    """Any mapping in at most 4n - 3 steps, signature 1..n..1..n..1.

    Classes are packed in ascending image order, so after the collapse the
    remaining work is a strictly increasing placement on the first k+1
    indices, which a single descending sweep finishes.
    """
    fac = factor_by_classes(e)
    g = benes.route_bijection(fac.pre)
    i = forward_program(fac.collapse)
    k = len(fac.slots) - 1
    f = backward_restricted_program(fac.post, 0, k)
    return merge_adjacent(concat(g, i, f))
