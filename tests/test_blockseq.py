import itertools

import pytest
from hypothesis import given, strategies as st

from insitu import Alphabet, Assignment, InSituError, InSituProgram, Mapping, NotBoolean, execute_all
from insitu.benes import route_bijection
from insitu.blockseq import (
    BlockSequence,
    compile_general4_flexible,
    compose_forward_program,
    is_suffix_compatible,
    make_block_sequence,
    permute_block_tree,
    tree_choice_count,
)
from insitu.factor import collapse_mapping, forward_program
from insitu.rng import SplitMix64, random_mapping


def test_is_block_sequence():
    # every aligned block of 2^i entries sums to a multiple of 2^i
    for values in ((1, 3, 2, 2), (1, 1), (0, 2), (4,)):
        assert BlockSequence(values).values == values
    for values in ((2, 1, 3, 2), (1, 2)):
        with pytest.raises(ValueError, match="^not a block sequence$"):
            BlockSequence(values)
    with pytest.raises(ValueError, match="^length 3 is not a power of two$"):
        BlockSequence((1, 1, 2))


def test_block_sequence_tree():
    b = BlockSequence((1, 3, 2, 2))
    assert b.n == 2
    with pytest.raises(ValueError):
        BlockSequence((2, 1, 3, 2))
    with pytest.raises(ValueError):
        BlockSequence((1, -1, 2, 2))
    # values that compare equal to integers are still refused
    with pytest.raises(ValueError, match=r"^block sequence value 1\.0 is not an integer$"):
        BlockSequence((1.0, 1.0))


def test_make_block_sequence_sixteen():
    # sizes 4,1,1,1,1,1,1,3,3 padded with zeros: pairing by parity,
    # earliest block first, gives this exact arrangement
    values = [4, 1, 1, 1, 1, 1, 1, 3, 3] + [0] * 7
    bseq, origins = make_block_sequence(values)
    assert bseq.values == (4, 0, 0, 0, 1, 1, 1, 1, 1, 1, 3, 3, 0, 0, 0, 0)
    assert sorted(origins) == list(range(16))
    assert tuple(values[o] for o in origins) == bseq.values


def test_make_block_sequence_errors():
    with pytest.raises(ValueError, match="^values sum to 5, need 4$"):
        make_block_sequence([1, 1, 1, 2])
    with pytest.raises(ValueError, match="^values must be non-negative$"):
        make_block_sequence([5, -1, 0, 0])
    with pytest.raises(ValueError, match="^length 3 is not a power of two$"):
        make_block_sequence([1, 1, 1])
    # refused before any parity is taken with &
    with pytest.raises(ValueError, match=r"^value 4\.0 is not an integer$"):
        make_block_sequence([0, 4.0, 0, 0])


@given(st.integers(0, 4), st.data())
def test_make_block_sequence_properties(n, data):
    count = 1 << n
    # random composition of `count` into `count` non-negative parts
    cuts = sorted(data.draw(st.lists(st.integers(0, count), min_size=count - 1, max_size=count - 1)))
    values = [b - a for a, b in zip([0] + cuts, cuts + [count])]
    bseq, origins = make_block_sequence(values)
    assert sorted(bseq.values) == sorted(values)
    assert sorted(origins) == list(range(count))
    assert tuple(values[o] for o in origins) == bseq.values
    BlockSequence(bseq.values)  # a block sequence: the constructor checks it


def test_tree_choice_count():
    assert tree_choice_count(0) == 0
    assert tree_choice_count(3) == 7
    with pytest.raises(ValueError):
        tree_choice_count(-1)
    with pytest.raises(ValueError, match=r"^n 1\.5 is not an integer$"):
        tree_choice_count(1.5)


def test_permute_block_tree_root_swap():
    b = BlockSequence((4, 0, 0, 0, 1, 1, 1, 1, 1, 1, 3, 3, 0, 0, 0, 0))
    choices = [False] * 15
    choices[0] = True
    assert permute_block_tree(b, choices).values == (
        1, 1, 3, 3, 0, 0, 0, 0, 4, 0, 0, 0, 1, 1, 1, 1)


def test_permute_block_tree_all_choices():
    b = BlockSequence((1, 3, 2, 2))
    seen = set()
    for bits in itertools.product([False, True], repeat=3):
        out = permute_block_tree(b, bits)
        BlockSequence(out.values)  # a block sequence: the constructor checks it
        assert sorted(out.values) == [1, 2, 2, 3]
        seen.add(out.values)
    assert (1, 3, 2, 2) in seen
    assert (2, 2, 1, 3) in seen
    with pytest.raises(ValueError, match="^need 3 choices, got 1$"):
        permute_block_tree(b, (True,))


def test_is_suffix_compatible():
    a = Alphabet(2, 2)
    # runs sized by a block sequence are compatible, a non-block
    # arrangement of the same sizes is not
    good = collapse_mapping([1, 3, 2, 2], Alphabet(2, 3))
    bad = collapse_mapping([2, 1, 3, 2], Alphabet(2, 3))
    assert is_suffix_compatible(good)
    assert not is_suffix_compatible(bad)
    assert is_suffix_compatible(Mapping.identity(a))
    with pytest.raises(NotBoolean):
        is_suffix_compatible(Mapping.identity(Alphabet(3, 2)))


@given(st.integers(1, 4), st.data())
def test_block_collapses_are_suffix_compatible(n, data):
    count = 1 << n
    cuts = sorted(data.draw(st.lists(st.integers(0, count), min_size=count - 1, max_size=count - 1)))
    values = [b - a for a, b in zip([0] + cuts, cuts + [count])]
    bseq, _ = make_block_sequence(values)
    collapse = collapse_mapping(bseq.values, Alphabet(2, n))
    assert is_suffix_compatible(collapse)


def test_compose_forward_program_worked_example():
    # collapse with runs 1,3,2,2 composed under an ascending-sweep head
    # sending 0..7 to 0,5,3,6,2,1,4,7: intermediate states of the sweep
    a = Alphabet(2, 3)
    collapse = collapse_mapping([1, 3, 2, 2], a)
    head = InSituProgram(a, (
        Assignment(1, table=(0, 1, 1, 0, 0, 1, 0, 1)),
        Assignment(2, table=(0, 0, 1, 1, 1, 0, 0, 1)),
        Assignment(3, table=(0, 1, 1, 0, 1, 0, 0, 1)),
    ))
    head_images = (0, 5, 3, 6, 2, 1, 4, 7)
    assert execute_all(head).images == head_images

    p = compose_forward_program(collapse, head)
    assert p.signature == (1, 2, 3)
    states = []
    for stop in (1, 2, 3):
        states.append(execute_all(InSituProgram(a, p.assignments[:stop])).images)
    assert states[0] == (0, 1, 3, 3, 5, 5, 6, 6)
    assert states[1] == (0, 1, 1, 1, 7, 7, 6, 6)
    assert states[2] == (0, 5, 5, 5, 3, 3, 6, 6)
    assert states[2] == tuple(head_images[y] for y in collapse.images)


def test_compose_forward_program_validation():
    # the sweep decides what it routes: a head of any signature and a
    # mapping that is not suffix compatible compose whenever the 1..n
    # butterfly routes the composition, and a conflict raises
    a = Alphabet(2, 2)
    collapse = collapse_mapping([1, 1, 2, 0], a)
    head = InSituProgram(a, forward_program(Mapping.identity(a)).assignments)
    reversed_head = InSituProgram(a, tuple(reversed(head.assignments)))
    for h in (head, reversed_head, InSituProgram(a, ())):
        assert execute_all(compose_forward_program(collapse, h)) == collapse
    a3 = Alphabet(2, 3)
    skewed = collapse_mapping([2, 1, 3, 2], a3)
    assert not is_suffix_compatible(skewed)
    head3 = InSituProgram(a3, forward_program(Mapping.identity(a3)).assignments)
    assert execute_all(compose_forward_program(skewed, head3)) == skewed
    with pytest.raises(InSituError, match="^component 2 at index 0 must become both 0 and 1$"):
        compose_forward_program(Mapping(a, (0, 2, 2, 3)), head)
    with pytest.raises(ValueError, match="^alphabet mismatch in composition$"):
        compose_forward_program(collapse, head3)


@pytest.mark.parametrize("n,seed", [(2, 71), (3, 72)])
def test_compose_forward_random(n, seed):
    # against direct composition: any block-sequence collapse under any
    # strictly ascending head sweep
    a = Alphabet(2, n)
    size = a.size
    rng = SplitMix64(seed)
    for _ in range(40):
        sizes = []
        left = size
        while left:
            v = rng.below(min(left, 4)) + 1
            sizes.append(v)
            left -= v
        sizes += [0] * (size - len(sizes))
        bseq, _ = make_block_sequence(sizes)
        collapse = collapse_mapping(bseq.values, a)
        shuffle = list(range(size))
        for i in range(size - 1, 0, -1):
            j = rng.below(i + 1)
            shuffle[i], shuffle[j] = shuffle[j], shuffle[i]
        # first half of a routing: the canonical source of ascending heads
        head = InSituProgram(a, route_bijection(Mapping(a, tuple(shuffle))).assignments[:n])
        p = compose_forward_program(collapse, head)
        assert p.signature == tuple(range(1, n + 1))
        want = execute_all(head).compose(collapse)
        assert execute_all(p).images == want.images


def test_compile_general4_flexible_exhaustive_pairs():
    a = Alphabet(2, 2)
    for images in itertools.product(range(4), repeat=4):
        e = Mapping(a, images)
        p = compile_general4_flexible(e)
        assert len(p) <= 5
        assert execute_all(p).images == images


def test_compile_general4_flexible_all_tree_choices():
    a = Alphabet(2, 3)
    e = Mapping(a, (1, 0, 0, 0, 5, 5, 7, 4))
    for bits in itertools.product([False, True], repeat=7):
        p = compile_general4_flexible(e, tree_choices=bits)
        assert len(p) <= 9
        assert execute_all(p).images == e.images


def test_compile_general4_flexible_slot_override():
    a = Alphabet(2, 2)
    e = Mapping(a, (3, 0, 0, 0))
    bseq, _ = make_block_sequence([3, 1, 0, 0])
    slots = []
    for v in bseq.values:
        slots.append({3: 0, 1: 3, 0: None}[v])
    p = compile_general4_flexible(e, slot_images=slots)
    assert execute_all(p).images == e.images
    with pytest.raises(ValueError, match="^need 4 runs, got 2$"):
        compile_general4_flexible(e, slot_images=[0, 3])
    with pytest.raises(ValueError, match="^run sizes disagree with the block sequence$"):
        compile_general4_flexible(Mapping(a, (0, 0, 1, 1)), slot_images=(0, 3, None, None))


def test_compile_general4_flexible_rejects_wide_alphabets():
    with pytest.raises(NotBoolean):
        compile_general4_flexible(Mapping.identity(Alphabet(3, 2)))


@pytest.mark.parametrize("n,seed", [(3, 81), (4, 82)])
def test_compile_general4_flexible_random(n, seed):
    a = Alphabet(2, n)
    rng = SplitMix64(seed)
    for _ in range(60):
        e = random_mapping(a, rng)
        p = compile_general4_flexible(e)
        assert len(p) <= 4 * n - 3
        assert execute_all(p).images == e.images
        assert all(x != y for x, y in zip(p.signature, p.signature[1:]))
