"""Flexible class orderings for boolean compilers, via block sequences.

A sequence of 2^n non-negative integers is a block sequence when every
aligned block of 2^i entries has a sum divisible by 2^i.  Run sizes
arranged into a block sequence make the collapse step suffix compatible:
inputs with equal suffixes get images with equal suffixes.  The paper
shows that a suffix compatible collapse composed with the first half of
the final bijection's routing is routed by the 1..n butterfly, so one
ascending sweep computes it; that shortens the 5n - 4 compiler to 4n - 3
while keeping the freedom to permute children anywhere in the pairing
tree.  The sweep itself decides what it routes (see `factor`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from . import benes
from .core import (
    InSituProgram,
    Mapping,
    NotBoolean,
    _check_ints,
    _unchecked,
    concat,
    execute_all,
    merge_adjacent,
)
from .factor import _factor, _sweep_program, preimage_classes


def _log2_exact(count: int) -> int:
    n = count.bit_length() - 1
    if count < 1 or count != 1 << n:
        raise ValueError(f"length {count} is not a power of two")
    return n


@dataclass(frozen=True)
class BlockSequence:
    """A validated block sequence of length 2^n."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_ints(self.values, "block sequence value")
        if any(v < 0 for v in self.values):
            raise ValueError("block sequence values must be non-negative")
        # every aligned block of 2^i entries sums to a multiple of 2^i:
        # level by level, each pair of block values has an even sum
        cur = self.values
        for _ in range(_log2_exact(len(cur))):
            sums = [x + y for x, y in zip(cur[0::2], cur[1::2])]
            if any(v % 2 for v in sums):
                raise ValueError("not a block sequence")
            cur = [v // 2 for v in sums]

    @property
    def n(self) -> int:
        return len(self.values).bit_length() - 1


def make_block_sequence(values: Sequence[int]) -> tuple[BlockSequence, tuple[int, ...]]:
    """Reorder values of total 2^n into a block sequence.

    Level by level, blocks of equal parity are paired first come first
    served, the earlier block becoming the left child; the new blocks keep
    the order of their left children.  Returns the block sequence and the
    permutation applied (output[t] = values[perm[t]]).
    """
    count = len(values)
    _log2_exact(count)
    _check_ints(values, "value")
    if any(v < 0 for v in values):
        raise ValueError("values must be non-negative")
    if sum(values) != count:
        raise ValueError(f"values sum to {sum(values)}, need {count}")

    # block = (position of first member, entry tuple, origin tuple, block value)
    blocks = [(pos, (v,), (pos,), v) for pos, v in enumerate(values)]
    while len(blocks) > 1:
        pending: list[tuple | None] = [None, None]
        paired = []
        for block in blocks:
            par = block[3] & 1
            mate = pending[par]
            if mate is None:
                pending[par] = block
            else:
                pending[par] = None
                paired.append((mate[0], mate[1] + block[1], mate[2] + block[2],
                               (mate[3] + block[3]) // 2))
        if pending[0] is not None or pending[1] is not None:
            raise AssertionError("parity classes did not pair off")
        blocks = sorted(paired)
    _, entries, origins, _ = blocks[0]
    return _unchecked(BlockSequence, entries), origins


def tree_choice_count(n: int) -> int:
    """Number of internal nodes of the pairing tree over 2^n leaves."""
    _check_ints((n,), "n")
    if n < 0:
        raise ValueError("n must be non-negative")
    return (1 << n) - 1


def permute_block_tree(b: BlockSequence, choices: Sequence[bool]) -> BlockSequence:
    """Swap children at selected nodes of the aligned pairing tree.

    `choices` holds one flag per internal node, top level first, left to
    right within a level; swaps apply top down.  The result is again a
    block sequence with the same multiset of values.
    """
    n = b.n
    if len(choices) != tree_choice_count(n):
        raise ValueError(f"need {tree_choice_count(n)} choices, got {len(choices)}")
    vals = list(b.values)
    idx = 0
    for level in range(n, 0, -1):
        width = 1 << level
        half = width >> 1
        for j in range(1 << (n - level)):
            if choices[idx]:
                start = j * width
                vals[start:start + half], vals[start + half:start + width] = (
                    vals[start + half:start + width], vals[start:start + half])
            idx += 1
    return _unchecked(BlockSequence, tuple(vals))


def is_suffix_compatible(mapping: Mapping) -> bool:
    """True iff inputs with equal suffixes have images with equal suffixes,
    for suffixes of every length.  Boolean alphabets only."""
    if mapping.alphabet.s != 2:
        raise NotBoolean("suffix compatibility is defined over {0, 1}")
    # cur[c] is the image suffix y >> k of every input x with x >> k == c;
    # classes 2c and 2c + 1 merge one level up, where y >> (k + 1) must agree
    cur = mapping.images
    for _ in range(mapping.alphabet.n - 1):
        halves = [y >> 1 for y in cur]
        if halves[0::2] != halves[1::2]:
            return False
        cur = halves[0::2]
    return True


def compose_forward_program(mapping: Mapping, head: InSituProgram) -> InSituProgram:
    """One ascending sweep computing head o mapping, which it does for
    exactly the compositions the 1..n butterfly routes; any other raises
    `InSituError`.

    A suffix compatible `mapping` under a `head` with signature 1, 2,
    ..., n (the first half of a routing) always routes.
    """
    a = mapping.alphabet
    composed = execute_all(head).compose(mapping)
    return _sweep_program(a, range(a.size), composed.images, range(1, a.n + 1))


def compile_general4_flexible(
    e: Mapping,
    tree_choices: Sequence[bool] | None = None,
    slot_images: Sequence[int | None] | None = None,
) -> InSituProgram:
    """Any boolean mapping in at most 4n - 3 steps, signature 1..n..1..n..1.

    The preimage class sizes (padded with zero runs) are rearranged into a
    block sequence; `tree_choices` optionally permutes children in its
    pairing tree, and `slot_images` optionally overrides which class goes
    to which run (sizes must agree with the block sequence).  Defaults
    assign classes to runs in ascending image order.
    """
    a = e.alphabet
    if a.s != 2:
        raise NotBoolean("the flexible compiler works over {0, 1}")
    classes = preimage_classes(e)
    base = [len(v) for v in classes.values()]
    base += [0] * (a.size - len(base))
    bseq, _ = make_block_sequence(base)
    if tree_choices is not None:
        bseq = permute_block_tree(bseq, tree_choices)

    if slot_images is None:
        by_size: dict[int, deque[int]] = {}
        for y, members in classes.items():
            by_size.setdefault(len(members), deque()).append(y)
        slots: list[int | None] = []
        for v in bseq.values:
            slots.append(by_size[v].popleft() if v else None)
    else:
        slots = list(slot_images)
        if len(slots) != a.size:
            raise ValueError(f"need {a.size} runs, got {len(slots)}")
        for y, v in zip(slots, bseq.values):
            have = len(classes.get(y, ()))
            if have != v:
                raise ValueError("run sizes disagree with the block sequence")

    fac = _factor(e, classes, tuple(slots))
    g = benes.route_bijection(fac.pre)
    f = benes.route_bijection(fac.post)
    head = _unchecked(InSituProgram, a, f.assignments[:a.n])
    mid = compose_forward_program(fac.collapse, head)
    tail = _unchecked(InSituProgram, a, f.assignments[a.n:])
    return merge_adjacent(concat(g, mid, tail))
