import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hiercubes.blocks import (INDEX_LIMIT, Block, Geometry, IndexRangeError, ancestor_at,
                              ancestor_levels, ancestors, block, children, contains,
                              covering_block, descendants, format_block,
                              hierarchical_distance, lcs, overlaps, parent,
                              parse_block, subtree_levels)

GEOS = st.sampled_from([Geometry(1), Geometry(2), Geometry(1, 3), Geometry(3)])


@st.composite
def geo_and_block(draw, max_scale=6, min_scale=-6):
    geo = draw(GEOS)
    scale = draw(st.integers(min_scale, max_scale))
    index = tuple(draw(st.integers(0, 2 ** 10)) for _ in range(geo.d))
    return geo, Block(scale, index)


@st.composite
def geo_and_two_blocks(draw):
    geo = draw(GEOS)
    def blk():
        scale = draw(st.integers(-5, 5))
        return Block(scale, tuple(draw(st.integers(0, 64)) for _ in range(geo.d)))
    return geo, blk(), blk()


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(0)
    with pytest.raises(ValueError):
        Geometry(1, 1)
    assert Geometry(2, 3).branching == 9


def test_block_validation():
    with pytest.raises(ValueError):
        Block(0, (-1,))
    with pytest.raises(IndexRangeError):
        Block(0, (1 << 200,))


def _rejected_by_scans(index):
    """The type and message Block rejects an index with, from two scans."""
    if any(m < 0 for m in index):
        return ValueError, f"index components must be >= 0: {index}"
    if any(m >= INDEX_LIMIT for m in index):
        return IndexRangeError, f"index component exceeds 2**128: {index}"
    return None


INDEX_COMPONENTS = st.one_of(st.integers(-2**130, 2**130),
                             st.sampled_from([-1, 0, INDEX_LIMIT - 1, INDEX_LIMIT]))


@given(st.integers(-50, 50), st.lists(INDEX_COMPONENTS, max_size=4).map(tuple))
def test_block_validation_matches_two_scans(scale, index):
    try:
        Block(scale, index)
        got = None
    except ValueError as exc:
        got = type(exc), str(exc)
    assert got == _rejected_by_scans(index)


def test_block_validation_of_an_index_negative_and_over_the_limit():
    for index in [(-1, INDEX_LIMIT), (INDEX_LIMIT, -1)]:
        with pytest.raises(ValueError, match="must be >= 0") as info:
            Block(0, index)
        assert type(info.value) is ValueError


def test_format_parse_examples():
    b = block(-2, 3)
    assert format_block(b) == "-2:(3)"
    assert parse_block("-2:(3)") == b
    assert parse_block("1:(2,5)") == block(1, 2, 5)
    with pytest.raises(ValueError):
        parse_block("nonsense")


@given(geo_and_block())
def test_format_parse_roundtrip(gb):
    _, b = gb
    assert parse_block(format_block(b)) == b


@given(geo_and_block())
def test_parent_children_roundtrip(gb):
    geo, b = gb
    kids = children(b, geo)
    assert len(kids) == geo.branching
    assert len(set(kids)) == geo.branching
    for c in kids:
        assert parent(c, geo) == b
        assert contains(b, c, geo)


@given(geo_and_block())
def test_ancestor_at_is_iterated_parent(gb):
    geo, b = gb
    up = b
    for s in range(b.scale + 1, b.scale + 4):
        up = parent(up, geo)
        assert ancestor_at(b, s, geo) == up


@given(geo_and_two_blocks())
def test_contains_is_partial_order(gbb):
    geo, b1, b2 = gbb
    assert contains(b1, b1, geo)
    if contains(b1, b2, geo) and contains(b2, b1, geo):
        assert b1 == b2
    if contains(b1, b2, geo):
        assert b1.scale >= b2.scale


@given(geo_and_two_blocks())
def test_overlap_iff_nested(gbb):
    geo, b1, b2 = gbb
    assert overlaps(b1, b2, geo) == (contains(b1, b2, geo) or contains(b2, b1, geo))


@given(geo_and_two_blocks())
def test_lcs_symmetric_and_covering(gbb):
    geo, b1, b2 = gbb
    s = lcs(b1, b2, geo)
    assert s == lcs(b2, b1, geo)
    cover = covering_block(b1, b2, geo)
    assert cover.scale == s
    assert contains(cover, b1, geo) and contains(cover, b2, geo)
    if s > max(b1.scale, b2.scale):
        # minimality: one scale lower no longer covers both
        assert ancestor_at(b1, s - 1, geo) != ancestor_at(b2, s - 1, geo)


@given(geo_and_two_blocks())
def test_distance_ultrametric(gbb):
    geo, b1, b2 = gbb
    d12 = hierarchical_distance(b1, b2, geo)
    assert d12 == hierarchical_distance(b2, b1, geo)
    assert hierarchical_distance(b1, b1, geo) == 0.0
    if b1 != b2:
        assert d12 >= float(geo.M) ** (geo.d * max(b1.scale, b2.scale))


@st.composite
def geo_and_three_blocks(draw):
    geo = draw(GEOS)
    def blk():
        scale = draw(st.integers(-5, 5))
        return Block(scale, tuple(draw(st.integers(0, 64)) for _ in range(geo.d)))
    return geo, blk(), blk(), blk()


@given(geo_and_three_blocks())
def test_distance_ultrametric_triangle(gbbb):
    geo, b1, b2, b3 = gbbb
    d = hierarchical_distance
    if b1 != b2:
        assert d(b1, b2, geo) <= max(d(b1, b3, geo), d(b3, b2, geo))


def test_distance_dominates_euclidean_gap():
    # hierarchical distance of adjacent-but-separated unit cells across the
    # half split is the full window volume
    geo = Geometry(1)
    assert hierarchical_distance(block(-2, 1), block(-2, 2), geo) == 1.0
    assert hierarchical_distance(block(-2, 0), block(-2, 1), geo) == 0.5


def test_ancestors_strict_chain():
    geo = Geometry(1)
    chain = ancestors(block(-2, 3), 0, geo)
    assert chain == [block(-1, 1), block(0, 0)]


def test_descendants_count():
    geo = Geometry(2)
    desc = descendants(block(0, 0, 0), -2, geo)
    assert len(desc) == 1 + 4 + 16


def _plain_levels(index, scale, bottom, geo, expand, out):
    """Depth first, the tuples of the subtree of (scale, index) appended to
    out[k] for the scale k levels below the top, children in lexicographic
    order by `itertools.product`; expanded where `expand` holds."""
    k = len(out) - 1 - (scale - bottom)
    out[k].append(index)
    if scale > bottom and expand(scale, index):
        for offs in itertools.product(range(geo.M), repeat=geo.d):
            kid = tuple(m * geo.M + o for m, o in zip(index, offs))
            _plain_levels(kid, scale - 1, bottom, geo, expand, out)


WALKER_GEOS = st.builds(Geometry, st.integers(1, 3), st.integers(2, 3))


@settings(max_examples=150, deadline=None)
@given(geo=WALKER_GEOS, scale=st.integers(-3, 3), levels=st.integers(0, 3),
       corner=st.integers(0, 40), salt=st.integers(0, 6), prune=st.booleans())
def test_subtree_levels_match_a_plain_recursion(geo, scale, levels, corner, salt, prune):
    levels = min(levels, 2 if geo.branching > 9 else 3)
    b = Block(scale, tuple(corner + k for k in range(geo.d)))
    bottom = scale - levels

    def expand(j, m):
        return not prune or (sum(m) + j + salt) % 3 != 0

    def expand_level(j, level):
        calls.append((j, list(level)))
        return [m for m in level if expand(j, m)]

    calls = []
    want = [[] for _ in range(levels + 1)]
    _plain_levels(b.index, scale, bottom, geo, expand, want)
    got = subtree_levels(b, bottom, geo, expand_level if prune else None)
    assert got == want
    if prune:   # one call per list above the bottom, with that list
        assert calls == [(scale - k, level) for k, level in enumerate(got[:levels])]
        return
    B = geo.branching
    for k, level in enumerate(got[:-1]):
        for i, m in enumerate(level):
            kids = children(Block(scale - k, m), geo)
            assert got[k + 1][i * B:(i + 1) * B] == [c.index for c in kids]
    assert descendants(b, bottom, geo) == [Block(scale - k, m)
                                           for k, level in enumerate(got) for m in level]


@settings(max_examples=60, deadline=None)
@given(geo=WALKER_GEOS, levels=st.integers(1, 2), scale=st.integers(-2, 2))
def test_subtree_levels_index_limit(geo, levels, scale):
    # the largest top index whose bottom indices stay below 2**128
    top = INDEX_LIMIT // geo.M ** levels - 1
    b = Block(scale, (top,) + (0,) * (geo.d - 1))
    last = subtree_levels(b, scale - levels, geo)[-1]
    assert max(max(m) for m in last) == (top + 1) * geo.M ** levels - 1 < INDEX_LIMIT
    over = Block(scale, (0,) * (geo.d - 1) + (top + 1,))
    with pytest.raises(IndexRangeError, match=f"index at scale {scale - levels} below"):
        subtree_levels(over, scale - levels, geo, lambda j, m: pytest.fail("walked"))
    assert subtree_levels(over, scale, geo) == [[over.index]]


@settings(max_examples=150, deadline=None)
@given(geo=WALKER_GEOS, data=st.data())
def test_ancestor_levels_match_the_ancestor_chains(geo, data):
    # the walker up, against `ancestors` of each block: at each scale, the
    # indices of the strict ancestors of the blocks below it
    pool = descendants(Block(1, (1,) * geo.d), -2, geo)
    blocks = data.draw(st.lists(st.sampled_from(pool), max_size=8, unique=True))
    top = data.draw(st.integers(1, 3))
    levels = {}
    for b in blocks:
        levels.setdefault(b.scale, set()).add(b.index)
    got = list(ancestor_levels(levels, top, geo))
    lo = min(levels, default=top)
    assert [scale for scale, _ in got] == list(range(lo, top + 1))
    for scale, above in got:
        assert above == {a.index for b in blocks for a in ancestors(b, top, geo)
                         if a.scale == scale}


@pytest.mark.parametrize("levels", [{-1: {()}}, {-2: {(0,)}, -1: {(0, 1)}}, {-1: {(0,), (0, 1)}}],
                         ids=["empty-index", "unequal-scales", "unequal-one-scale"])
def test_ancestor_levels_refuse_indices_of_another_length(levels):
    with pytest.raises(ValueError):
        list(ancestor_levels(levels, 1, Geometry(1)))


def test_subtree_levels_index_limit_at_m2():
    geo = Geometry(1)
    assert subtree_levels(block(0, 2**127 - 1), -1, geo)[1] == [(2**128 - 2,), (2**128 - 1,)]
    with pytest.raises(IndexRangeError,
                       match=r"index at scale -1 below 0:\(170141183460469231731687303715884105728\) "
                             r"exceeds 2\*\*128"):
        children(block(0, 2**127), geo)
    with pytest.raises(IndexRangeError):
        descendants(block(0, 2**126 - 1), -3, geo)
    assert descendants(block(0, 2**126 - 1), -2, geo)[-1] == block(-2, 2**128 - 1)


def test_ordering_sorts_by_scale_then_index():
    bs = sorted([block(0, 0), block(-1, 1), block(-1, 0)])
    assert bs == [block(-1, 0), block(-1, 1), block(0, 0)]


# -- the volume of a scale ---------------------------------------------------------

def correctly_rounded(M, n):
    """M**n rounded to the nearest float by `Fraction`, inf past the float range."""
    try:
        return float(Fraction(M) ** n)
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("M", [2, 3, 4, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_volume_is_the_correctly_rounded_power(M, d):
    geo = Geometry(d, M)
    scales = range(-1100, 1101)
    want = [correctly_rounded(M, d * j) for j in scales]
    assert list(geo.volumes(scales[0], scales[-1])) == want
    assert [geo.volume(j) for j in scales] == want
    assert [geo.log_volume(j) for j in scales] == [d * j * math.log(M) for j in scales]
    assert [geo.side(j) for j in scales] == [correctly_rounded(M, j) for j in scales]
    # far past the float range, without forming the power
    assert (geo.volume(10**9), geo.volume(-10**9)) == (math.inf, 0.0)
    assert geo.volumes(1, 0) == ()
