import pytest

from hiercubes.blocks import Geometry, block
from hiercubes.activities import Homogeneous
from hiercubes.render import render_svg, scale_color, PALETTE
from hiercubes.sampler import Configuration, InvalidConfiguration, sample_gibbs


def test_render_1d_structure():
    geo = Geometry(1)
    cfg = Configuration(blocks=(block(-1, 0), block(-2, 2)),
                        window=block(0, 0), depth=2, seed=0)
    svg = render_svg(cfg, geo)
    assert svg.count("<rect") >= 3              # window frame + two blocks
    assert "hiercubes svg v1" in svg
    assert svg == render_svg(cfg, geo)          # deterministic


def test_render_2d_structure():
    geo = Geometry(2)
    cfg = Configuration(blocks=(block(-1, 0, 0), block(-1, 1, 1)),
                        window=block(0, 0, 0), depth=1, seed=0)
    svg = render_svg(cfg, geo)
    assert svg.count("<rect") >= 3
    assert "</svg>" in svg


def test_render_sampled_configuration():
    geo = Geometry(1)
    m = Homogeneous.constant(geo, 1.0, range(-3, 1))
    cfg = sample_gibbs(m, block(0, 0), 3, seed=2)
    svg = render_svg(cfg, geo)
    assert "<svg" in svg


def test_render_rejects_overlap():
    geo = Geometry(1)
    bad = Configuration(blocks=(block(0, 0), block(-1, 0)),
                        window=block(0, 0), depth=1, seed=0)
    with pytest.raises(InvalidConfiguration):
        render_svg(bad, geo)


def test_render_rejects_high_dimension():
    geo = Geometry(3)
    cfg = Configuration(blocks=(), window=block(0, 0, 0, 0), depth=0, seed=0)
    with pytest.raises(ValueError):
        render_svg(cfg, geo)


def test_scale_colors_cycle():
    assert scale_color(0) == PALETTE[0]
    assert scale_color(8) == PALETTE[0]
    assert scale_color(-1) == scale_color(7)


@pytest.mark.parametrize("window", [block(1, 2, 1), block(1100, 2, 1)], ids=["scale-1", "scale-1100"])
def test_render_places_blocks_relative_to_the_window(window):
    # the corner block of the window's top row sits at the top edge, whatever
    # the window's scale, and its side is a 27th of the window's; the depth
    # puts the bottom scale at the block's
    geo = Geometry(2, 3)
    corner = block(window.scale - 3, 2 * 27 + 1, 27 + 26)
    cfg = Configuration(blocks=(corner,), window=window, depth=3 - window.scale, seed=0)
    assert f'<rect x="23.7037" y="0" width="23.7037" height="23.7037"' in render_svg(cfg, geo)
