import itertools

import pytest

from insitu import Alphabet, InSituError, InSituProgram, Mapping, execute_all
from insitu.factor import (
    backward_restricted_program,
    collapse_mapping,
    compile_general4_sorted,
    compile_general5,
    factor_by_classes,
    forward_program,
    preimage_classes,
)
from insitu.rng import SplitMix64, random_mapping


def up_down(n):
    return tuple(range(1, n + 1)) + tuple(range(n - 1, 0, -1))


def sig_general5(n):
    up = tuple(range(1, n + 1))
    down = tuple(range(n - 1, 0, -1))
    down_full = tuple(range(n, 0, -1))
    return up + down + up[1:] + down_full[1:] + up[1:]


def sig_general4(n):
    up = tuple(range(1, n + 1))
    down = tuple(range(n - 1, 0, -1))
    down_full = tuple(range(n, 0, -1))
    return up + down + up[1:] + down_full[1:]


def test_collapse_mapping():
    a = Alphabet(2, 3)
    m = collapse_mapping([2, 1, 3, 2], a)
    assert m.images == (0, 0, 1, 2, 2, 2, 3, 3)
    # a collapse is distance compatible, so the ascending sweep takes it
    assert execute_all(forward_program(m)).images == m.images
    with pytest.raises(ValueError, match="^sizes sum to 9, index space has 8$"):
        collapse_mapping([4, 4, 1], a)
    with pytest.raises(ValueError, match="^negative run size -1$"):
        collapse_mapping([9, -1], a)
    # a non-integer size is refused before it repeats a run
    with pytest.raises(ValueError, match=r"^run size 1\.5 is not an integer$"):
        collapse_mapping([1.5, 2.5], Alphabet(2, 2))
    with pytest.raises(ValueError, match="^run 8 is outside the index space$"):
        collapse_mapping([0] * 8 + [8], a)
    # zero-size runs skip an image
    m2 = collapse_mapping([0, 3, 0, 5], a)
    assert m2.images == (1, 1, 1, 3, 3, 3, 3, 3)


def test_collapse_mapping_takes_an_iterator():
    # the sizes are read once, so an iterator gives what a tuple gives
    a = Alphabet(2, 3)
    for sizes in [(2, 1, 3, 2), (0, 3, 0, 5), (8,), (1,) * 8]:
        assert collapse_mapping(iter(sizes), a) == collapse_mapping(sizes, a)
    with pytest.raises(ValueError, match="^sizes sum to 9, index space has 8$"):
        collapse_mapping(iter([4, 4, 1]), a)


def test_distance_compatibility():
    # the paper's sufficient condition: images of consecutive indices
    # differ by at most 1.  All 68 such mappings of 2^2 route, and so do
    # others, such as (3, 2, 0, 1); tests/test_sweep_census.py has them all
    a = Alphabet(2, 2)
    compatible = [images for images in itertools.product(range(4), repeat=4)
                  if all(abs(y - x) <= 1 for x, y in zip(images, images[1:]))]
    assert len(compatible) == 68
    for images in compatible + [(3, 2, 0, 1)]:
        assert execute_all(forward_program(Mapping(a, images))).images == images


def test_forward_program_worked_example():
    # collapsing runs of sizes 2, 1, 3, 2 over {0,1}^3: the three
    # ascending assignments move each input through these exact states
    a = Alphabet(2, 3)
    m = collapse_mapping([2, 1, 3, 2], a)
    p = forward_program(m)
    assert p.signature == (1, 2, 3)

    states = [tuple(range(8))]
    for stop in (1, 2, 3):
        prefix = p.assignments[:stop]
        states.append(execute_all(InSituProgram(a, prefix)).images)
    assert states[1] == (0, 0, 3, 2, 4, 4, 7, 7)
    assert states[2] == (0, 0, 1, 2, 6, 6, 7, 7)
    assert states[3] == (0, 0, 1, 2, 2, 2, 3, 3)
    assert states[3] == m.images


def test_forward_program_rejects():
    # inputs 0 and 1 both stand at index 0 after component 1, and their
    # images 0 and 2 differ on component 2: no program with signature 1, 2
    # computes the mapping
    a = Alphabet(2, 2)
    with pytest.raises(InSituError, match="^component 2 at index 0 must become both 0 and 1$"):
        forward_program(Mapping(a, (0, 2, 2, 3)))
    with pytest.raises(InSituError, match="^component 3 at index 0 must become both 0 and 1$"):
        forward_program(Mapping(Alphabet(2, 3), (0, 4, 4, 4, 4, 4, 4, 4)))


@pytest.mark.parametrize("s,n", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_forward_program_on_random_collapses(s, n):
    a = Alphabet(s, n)
    rng = SplitMix64(s * 100 + n)
    for _ in range(30):
        sizes = []
        left = a.size
        while left:
            v = rng.below(min(left, 4)) + 1
            sizes.append(v)
            left -= v
        m = collapse_mapping(sizes, a)
        p = forward_program(m)
        assert p.signature == tuple(range(1, n + 1))
        assert execute_all(p).images == m.images


def test_forward_program_identity_and_shift():
    a = Alphabet(3, 2)
    ident = Mapping.identity(a)
    assert execute_all(forward_program(ident)).images == ident.images
    shift = Mapping(a, tuple(max(x - 1, 0) for x in range(9)))
    assert execute_all(forward_program(shift)).images == shift.images


def test_backward_restricted():
    a = Alphabet(2, 3)
    # place the first 4 indices strictly increasingly
    m = Mapping(a, (1, 3, 4, 6, 0, 0, 0, 0))
    p = backward_restricted_program(m, 0, 3)
    assert p.signature == (3, 2, 1)
    got = execute_all(p).images
    for x in range(4):
        assert got[x] == m.images[x]


def test_backward_restricted_full_range_is_bijection():
    a = Alphabet(2, 3)
    m = Mapping(a, tuple(range(8)))
    p = backward_restricted_program(m, 0, 7)
    assert execute_all(p).images == m.images


def test_backward_restricted_rejects():
    a = Alphabet(2, 2)
    # inputs 0 and 2 agree on component 1, and so do their images 1 and 0
    # above it: after component 2 both stand at index 0, asking for two
    # different digits of component 1
    with pytest.raises(InSituError, match="^component 1 at index 0 must become both 1 and 0$"):
        backward_restricted_program(Mapping(a, (1, 3, 0, 0)), 0, 2)
    for lo, hi in ((2, 5), (-1, 0), (2, 1)):
        with pytest.raises(ValueError, match=r"^bad range"):
            backward_restricted_program(Mapping.identity(a), lo, hi)
    # a descent is routed when no two inputs meet: 0 and 1 differ on
    # component 1, which the sweep writes last
    e = Mapping(a, (2, 1, 0, 0))
    assert execute_all(backward_restricted_program(e, 0, 1)).images[:2] == (2, 1)


@pytest.mark.parametrize("s,n", [(2, 2), (2, 3), (3, 2)])
def test_backward_restricted_random(s, n):
    a = Alphabet(s, n)
    rng = SplitMix64(40 + s + n)
    size = a.size
    for _ in range(40):
        k = rng.below(size) + 1
        picks = sorted(set(rng.below(size) for _ in range(k)))
        imgs = list(picks) + [0] * (size - len(picks))
        p = backward_restricted_program(Mapping(a, tuple(imgs)), 0, len(picks) - 1)
        got = execute_all(p).images
        assert got[:len(picks)] == tuple(picks)


def test_preimage_classes():
    a = Alphabet(2, 2)
    e = Mapping(a, (2, 0, 2, 2))
    assert preimage_classes(e) == {0: [1], 2: [0, 2, 3]}


def test_factor_by_classes_composes():
    a = Alphabet(2, 3)
    rng = SplitMix64(9)
    for _ in range(50):
        e = random_mapping(a, rng)
        fac = factor_by_classes(e)
        assert fac.pre.is_bijective()
        assert fac.post.is_bijective()
        assert fac.post.compose(fac.collapse.compose(fac.pre)).images == e.images


def test_factor_by_classes_custom_slots():
    a = Alphabet(2, 2)
    e = Mapping(a, (2, 0, 2, 2))
    fac = factor_by_classes(e, slots=(2, 0))
    assert fac.slots == (2, 0)
    assert fac.post.compose(fac.collapse.compose(fac.pre)).images == e.images
    # empty run in the middle
    fac2 = factor_by_classes(e, slots=(2, None, 0))
    assert fac2.collapse.images.count(1) == 0
    assert fac2.post.compose(fac2.collapse.compose(fac2.pre)).images == e.images
    for slots in [(2, 2, 0), (2,), (2, 0, 1)]:
        with pytest.raises(ValueError, match="^slots must name every distinct image exactly once$"):
            factor_by_classes(e, slots=slots)
    with pytest.raises(ValueError, match="^5 runs do not fit an index space of 4$"):
        factor_by_classes(e, slots=(2, None, None, None, 0))


def test_compile_general5_exhaustive_boolean_pairs():
    a = Alphabet(2, 2)
    for images in itertools.product(range(4), repeat=4):
        e = Mapping(a, images)
        p = compile_general5(e)
        assert len(p) <= 6
        assert execute_all(p).images == images


def test_compile_general5_signature_before_merging():
    # on a mapping with full-size structure the fused junctions are the
    # only repeats, so the signature is exactly the advertised shape
    a = Alphabet(2, 3)
    rng = SplitMix64(55)
    seen_full = False
    for _ in range(50):
        e = random_mapping(a, rng)
        p = compile_general5(e)
        assert len(p) <= 5 * 3 - 4
        assert execute_all(p).images == e.images
        sig = p.signature
        assert all(x != y for x, y in zip(sig, sig[1:]))
        if sig == sig_general5(3):
            seen_full = True
    assert seen_full


def test_compile_general5_custom_slots():
    a = Alphabet(2, 2)
    e = Mapping(a, (3, 3, 0, 3))
    p = compile_general5(e, slots=(3, 0))
    assert execute_all(p).images == e.images
    with pytest.raises(ValueError, match="^empty runs are not allowed here$"):
        compile_general5(e, slots=(3, None, 0))


def test_compile_general4_sorted_exhaustive_boolean_pairs():
    a = Alphabet(2, 2)
    for images in itertools.product(range(4), repeat=4):
        e = Mapping(a, images)
        p = compile_general4_sorted(e)
        assert len(p) <= 5
        assert execute_all(p).images == images


@pytest.mark.parametrize("s,n,seed", [(2, 3, 61), (3, 2, 62), (3, 3, 63), (4, 2, 64)])
def test_compilers_random(s, n, seed):
    a = Alphabet(s, n)
    rng = SplitMix64(seed)
    for _ in range(60):
        e = random_mapping(a, rng)
        p5 = compile_general5(e)
        p4 = compile_general4_sorted(e)
        assert len(p5) <= 5 * n - 4
        assert len(p4) <= 4 * n - 3
        assert execute_all(p5).images == e.images
        assert execute_all(p4).images == e.images
        assert all(x != y for x, y in zip(p4.signature, p4.signature[1:]))


def test_compile_constant_mapping():
    a = Alphabet(2, 3)
    e = Mapping(a, (5,) * 8)
    for compiled in (compile_general5(e), compile_general4_sorted(e)):
        assert execute_all(compiled).images == e.images
