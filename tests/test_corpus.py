"""The built-in instance catalogue: every entry must construct, normalize
on its grid, and carry the tags the experiment drivers route on."""

import numpy as np
import pytest

from glslab import LabError, corpus, evolve, l2_norm


def test_names_are_unique():
    names = corpus.names()
    assert len(names) == len(set(names))
    assert len(names) == 23


@pytest.mark.parametrize(
    "tag,count",
    [("identity", 10), ("flow", 6), ("log_concave", 7), ("compact", 3), ("excess_moment", 3), ("refute", 1)],
)
def test_tag_counts(tag, count):
    assert len(corpus.entries(tag)) == count
    for entry in corpus.entries(tag):
        assert tag in entry.tags


def test_every_entry_normalizes(grid1, grid2, grid3):
    grids = {1: grid1, 2: grid2, 3: grid3}
    for entry in corpus.entries():
        assert entry.d in grids
        u = entry.normalized(grids[entry.d])
        assert abs(l2_norm(u, grids[entry.d]) - 1.0) < 1e-12


def test_dimension_spread():
    dims = sorted({entry.d for entry in corpus.entries()})
    assert dims == [1, 2, 3]


def test_lookup_by_name():
    entry = corpus.get("bump_r2")
    assert entry.name == "bump_r2"
    assert "compact" in entry.tags
    with pytest.raises(LabError):
        corpus.get("no_such_entry")


def test_flow_entries_evolve_cleanly(grid1, grid2, grid3):
    # sign changes in u are fine here (only u^2 flows), but the evolved
    # density must be positive and keep unit mass
    grids = {1: grid1, 2: grid2, 3: grid3}
    for entry in corpus.entries("flow"):
        grid = grids[entry.d]
        st = evolve(entry.normalized(grid), 0.2, grid)
        assert abs(st.mass - 1.0) < 1e-9
        assert np.all(st.v.value(grid.nodes) > 0)


def test_identity_entries_are_strictly_positive(grid1, grid2, grid3):
    grids = {1: grid1, 2: grid2, 3: grid3}
    for entry in corpus.entries("identity"):
        vals = entry.function().value(grids[entry.d].nodes)
        assert vals.min() > 0
