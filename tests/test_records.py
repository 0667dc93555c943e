"""Every result record's to_json() is its dataclass fields as plain JSON data."""

import json
from contextlib import nullcontext
from dataclasses import fields

import numpy as np
import pytest

from glslab import (
    GaussianProfile,
    GaussianMeasureSpec,
    build_grid,
    certify,
    corpus,
    evolve,
    normalize,
    report,
    verify_bounds,
)
from glslab.functions import Bump, Record, _plain
from glslab.search import SearchProblem, run_search
from glslab.stability import compact_improvement_pipeline, poincare_chain

PLAIN_LEAVES = (float, int, str, bool, type(None))


def _leaves(value, path="$"):
    """(path, leaf) for every non-container in value; containers must be list or dict."""
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, (path, key)
            yield from _leaves(item, f"{path}.{key}")
    elif type(value) is list:
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


@pytest.fixture(scope="module")
def records():
    grid = build_grid(GaussianMeasureSpec(d=1), 16)
    bump = corpus.get("bump_r2").normalized(grid)
    tilt = corpus.get("tilt_half").normalized(grid)
    problem = SearchProblem(
        name="records",
        objective="deficit",
        family="affine",
        d=1,
        lower=(0.01,),
        upper=(0.2,),
        grid_order=16,
        restarts=1,
        maxiter=5,
    )
    nowhere = GaussianProfile(sigma2=np.array([0.5]), mean=np.array([60.0]))
    return {
        "report": report(bump, grid),
        # a tilt has no compact support, so its list holds a skipped record
        "bounds": verify_bounds(bump, grid) + verify_bounds(tilt, grid),
        "certificate": certify(bump, grid),
        "inconclusive_certificate": certify(nowhere, grid, n_probes=0),
        "problem": problem,
        "search": run_search(problem),
        "pipeline": compact_improvement_pipeline(bump, grid),
        "poincare": poincare_chain(2.0, 2),
    }


def _each(records):
    for key, value in records.items():
        for rec in value if isinstance(value, list) else [value]:
            yield key, rec


def test_every_record_class_is_covered(records):
    covered = {type(rec) for _, rec in _each(records)}
    assert covered == set(Record.__subclasses__())
    assert len(covered) == 7


def test_keys_are_the_dataclass_fields(records):
    for key, rec in _each(records):
        assert set(rec.to_json()) == {f.name for f in fields(rec)}, key


def test_leaves_are_plain_python_values(records):
    for key, rec in _each(records):
        for path, leaf in _leaves(rec.to_json()):
            assert type(leaf) in PLAIN_LEAVES, (key, path, type(leaf))


def test_nested_records_recurse(records):
    search, pipeline = records["search"], records["pipeline"]
    payload = search.to_json()
    assert payload["problem"] == search.problem.to_json()
    first = search.trace[0]
    assert payload["trace"][0] == {
        "evaluation": first.evaluation,
        "params": list(first.params),
        "objective": first.objective,
        "penalty": first.penalty,
    }
    assert pipeline.to_json()["certificate"] == pipeline.certificate.to_json()


def test_nan_is_left_for_the_writer(records):
    payload = records["inconclusive_certificate"].to_json()
    assert payload["status"] == "inconclusive"
    assert np.isnan(payload["min_eigenvalue"])
    assert np.isnan(payload["worst_point"]).all()
    skipped = [b.to_json() for b in records["bounds"] if b.status == "skipped"]
    assert skipped and all(np.isnan(b["margin"]) for b in skipped)


def test_problem_round_trips_through_json(records):
    problem = records["problem"]
    assert SearchProblem.from_json(json.loads(json.dumps(problem.to_json()))) == problem


def test_plain_walks_arrays_scalars_and_tuples():
    value = {
        "a": np.arange(4.0).reshape(2, 2),
        "s": np.float64(0.5),
        "n": np.int64(3),
        "t": (1, (2.0,)),
    }
    plain = _plain(value)
    assert plain == {"a": [[0.0, 1.0], [2.0, 3.0]], "s": 0.5, "n": 3, "t": [1, [2.0]]}
    assert [type(leaf) for _, leaf in _leaves(plain)] == [float] * 4 + [float, int, int, float]


@pytest.mark.parametrize(
    "d, order, build, inner",
    [
        (1, 16, lambda: corpus.get("tilt_half").function(), False),  # closed form
        (1, 16, lambda: corpus.get("bump_r2").function(), False),  # exact average
        (2, 4, lambda: Bump(radius=2.0, d=2), True),  # quadrature, inner order 256
    ],
    ids=["closed_form", "exact_average", "quadrature"],
)
def test_flow_state_writes_v_as_its_family_json(d, order, build, inner):
    grid = build_grid(GaussianMeasureSpec(d=d), order)
    # the quadrature case stops unconverged at its cap, which warns
    with pytest.warns(UserWarning, match="inner rule error") if inner else nullcontext():
        state = evolve(normalize(build(), grid), 0.5, grid)
    assert (state.inner_order > 0) == inner
    payload = state.to_json()
    text = json.dumps(payload)
    assert set(payload) == {f.name for f in fields(state)}
    assert payload["v"] == state.v.to_json()
    assert payload["v"]["family"] == state.v.family
    for path, leaf in _leaves(payload):
        assert type(leaf) in PLAIN_LEAVES, (path, type(leaf))
    # the inner rule is named by its order, not written out node by node
    assert len(text) < 10_000
