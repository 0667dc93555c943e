"""The pruned d = 3 rule: its layout, the soundness of its shell bounds, and
the readers' fall-back to the full grid."""

import itertools
import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from glslab import (
    Bump,
    GaussianMeasureSpec,
    GaussianProfile,
    Tilt,
    build_function,
    build_grid,
    certify,
    corpus,
    evolve,
    normalize,
    report,
    tail_weight,
)
from glslab.functionals import _xlogx, report_rows
from glslab.functions import Envelope, _rowdot, pruned_read
from glslab.measure import EPS, N_SHELLS, PRUNE_CUT, dropped_bound, integrate_with_error

_FAMILIES = Path(__file__).with_name("golden") / "families"
TAIL_EPS = 0.1


def _kept(rule):
    return rule.weights >= PRUNE_CUT * rule.weights.max()


class TestTwin:
    def test_keeps_the_rows_above_the_cut_in_grid_order(self, grid3):
        twin = grid3.pruned
        assert twin is grid3.pruned
        for full, kept in ((grid3, twin), (grid3.coarse, twin.coarse)):
            keep = _kept(full)
            np.testing.assert_array_equal(kept.nodes, full.nodes[keep])
            np.testing.assert_array_equal(kept.weights, full.weights[keep])
        assert (twin.n_points, twin.coarse.n_points) == (95_800, 57_856)
        # laid out as every grid: fine nodes, then the coarse ones, in one array
        np.testing.assert_array_equal(twin.points[twin.n_points :], twin.coarse.points)
        assert twin.coarse.coarse is None and not twin.points.flags.writeable

    def test_shells_summarize_the_dropped_nodes(self, grid3):
        twin = grid3.pruned
        for full, kept in ((grid3, twin), (grid3.coarse, twin.coarse)):
            out = ~_kept(full)
            radius = np.sqrt(_rowdot(full.nodes[out], full.nodes[out]))
            shells = kept.dropped
            assert shells.radius.shape == shells.weight.shape == (N_SHELLS,)
            assert np.all(np.diff(shells.radius) >= 0)
            assert shells.radius[-1] == pytest.approx(radius.max(), rel=1e-15)
            assert shells.weight.sum() == pytest.approx(full.weights[out].sum(), rel=1e-12)
            # equal counts: shell s ends at the (s + 1) n / N_SHELLS-th radius
            ends = (np.arange(1, N_SHELLS + 1) * radius.size) // N_SHELLS
            np.testing.assert_allclose(shells.radius, np.sort(radius)[ends - 1], rtol=1e-15)

    @pytest.mark.parametrize("d, order", [(1, 64), (2, 64), (3, 16), (3, 1)])
    def test_is_the_grid_itself_where_nothing_is_dropped(self, d, order):
        grid = build_grid(GaussianMeasureSpec(d=d), order)
        assert grid.pruned is grid
        assert dropped_bound(grid, np.exp) == 0.0

    def test_is_built_on_first_use(self):
        grid = build_grid(GaussianMeasureSpec(d=3), 20)
        assert "pruned" not in vars(grid)
        assert grid.pruned is not grid and vars(grid)["pruned"] is grid.pruned
        assert grid.pruned.pruned is grid.pruned


def _sound_instances():
    yield "tilt_d3", corpus.get("tilt_d3").function()
    # verify_sweep's d = 3 tilts have |a_i| <= 0.5
    for signs in ((1, 1, 1), (1, -1, 1), (-1, -1, -1)):
        for c in (0.5, 2.0):
            yield f"tilt{signs}c{c}", Tilt(a=0.5 * np.array(signs, dtype=float), c=c)
    for s2 in itertools.product((0.3, 1.0), repeat=3):
        yield f"gauss{s2}", GaussianProfile(sigma2=np.array(s2))
        mean = np.array([0.5, -0.5, 0.5])
        yield f"gauss{s2}mean", GaussianProfile(sigma2=np.array(s2), mean=mean)
    yield "one", Tilt(a=np.zeros(3))


# raw constant tilts, where the envelope is tight: the shell sum and the
# dropped nodes' sum differ only by rounding
_RAW = [(f"raw_one_c{c}", Tilt(a=np.zeros(3), c=c)) for c in (0.5, 1.5, 2.0)]
_SOUND = [(name, u, True) for name, u in _sound_instances()] + [(n, u, False) for n, u in _RAW]


def _integrands(u, x):
    """The family's own |f| at x of every integrand a pruned reader bounds."""
    u_val, grad = u.jet(x, 1)
    h = u_val**2
    hlogh = np.empty_like(h)
    _xlogx(h, hlogh)
    r2 = _rowdot(x, x)
    return {
        Envelope.density: h,
        Envelope.entropy: np.abs(hlogh),
        Envelope.fisher: _rowdot(grad, grad),
        Envelope.moments: h * (r2 + 3),
        partial(Envelope.tail, eps=TAIL_EPS): h * np.exp(TAIL_EPS * r2),
    }


@pytest.mark.parametrize(
    "u0, normalized", [(u, norm) for _, u, norm in _SOUND], ids=[name for name, _, _ in _SOUND]
)
def test_shell_bounds_cover_the_dropped_nodes(u0, normalized, grid3):
    u = normalize(u0, grid3) if normalized else u0
    envelope = u.envelope()
    twin = grid3.pruned
    for full, kept in ((grid3, twin), (grid3.coarse, twin.coarse)):
        out = ~_kept(full)
        with np.errstate(under="ignore"):
            values = _integrands(u, full.nodes[out])
        for integrand, f in values.items():
            dropped = float(full.weights[out] @ f)
            assert kept.dropped.bound(partial(integrand, envelope)) >= dropped, integrand


def test_the_report_of_a_pruned_read_carries_its_bounds(grid3):
    u = normalize(corpus.get("tilt_d3").function(), grid3)
    twin, (entropy_out, fisher_out) = pruned_read(u, grid3, Envelope.entropy, Envelope.fisher)
    assert twin is grid3.pruned and 0.0 < max(entropy_out, fisher_out) <= EPS
    rep = report(u, grid3)
    h, grad = u.density_and_gradient(twin.points)
    bare = report_rows(twin, h[None], grad[None])[0]
    assert rep.entropy == bare.entropy and rep.fisher == bare.fisher
    assert rep.entropy_error == bare.entropy_error + entropy_out
    assert rep.fisher_error == bare.fisher_error + fisher_out


def _family(name):
    return build_function(json.loads((_FAMILIES / f"{name}.json").read_text()))


def _full_grid_normalize(u, grid):
    with np.errstate(over="ignore"):
        mass = float(grid.weights @ u.value(grid.nodes) ** 2)
    return u.with_scale(1.0 / math.sqrt(mass))


def _full_grid_report(u, grid):
    h, grad = u.density_and_gradient(grid.points)
    return report_rows(grid, h[None], grad[None])[0]


@pytest.mark.parametrize(
    "name", ["hermite_d3", "affine_d3", "bump_d3", "evolved_hermite_d3", "tilt_a3"]
)
def test_readers_fall_back_to_the_full_grid_bit_for_bit(name):
    grid = build_grid(GaussianMeasureSpec(d=3), 24)
    assert grid.pruned is not grid
    if name == "bump_d3":
        u0 = Bump(radius=2.0, center=np.zeros(3))
    elif name == "evolved_hermite_d3":
        u0 = evolve(normalize(_family("hermite_d3"), grid), 0.3, grid).v
    elif name == "tilt_a3":
        # an envelope whose bounds exceed EPS on this grid
        u0 = Tilt(a=np.array([3.0, 0.0, 0.0]))
        assert pruned_read(u0, grid, Envelope.density, scale=math.inf)[1][0] > EPS
        assert pruned_read(u0, grid, Envelope.entropy)[0] is grid
    else:
        u0 = _family(name)
    u = _full_grid_normalize(u0, grid)
    assert normalize(u0, grid).to_json() == u.to_json()
    assert report(u, grid).to_json() == _full_grid_report(u, grid).to_json()
    tail = tail_weight(u, grid, TAIL_EPS)
    want = integrate_with_error(
        grid, lambda pts: u.density(pts) * np.exp(TAIL_EPS * _rowdot(pts, pts))
    )
    assert (tail.a_tail, tail.quadrature_error) == want
    assert certify(u, grid).n_probes == grid.order**3 + 1536


def test_certify_keeps_every_node_as_a_probe(grid3):
    u = normalize(corpus.get("tilt_d3").function(), grid3)
    assert certify(u, grid3).n_probes == 64**3 + 1536

