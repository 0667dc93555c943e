"""Built-in test instances, tagged by the checks they are meant to exercise.

Tags:
    flow           moment decay and semigroup checks along the evolution
    identity       smooth strictly positive functions for the integral identities
    log_concave    certifiable densities for the curvature-based bounds
    compact        compactly supported instances for the waiting-time argument
    excess_moment  positive second moment gap, feeds the comparison ODE
    refute         densities the certifier must reject

Entries are stored as plain JSON family descriptions so the same corpus
drives the CLI, the tests and the scripts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LabError
from .measure import QuadratureGrid
from .functions import TestFunction, build_function, normalize


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    tags: frozenset
    build: dict

    @property
    def d(self) -> int:
        return int(self.build.get("d", 1))

    def function(self) -> TestFunction:
        return build_function(self.build)

    def normalized(self, grid: QuadratureGrid) -> TestFunction:
        return normalize(self.function(), grid)


def _entry(name: str, tags: tuple[str, ...], family: str, d: int, **params) -> CorpusEntry:
    return CorpusEntry(
        name=name,
        tags=frozenset(tags),
        build={"family": family, "params": params, "d": d},
    )


ENTRIES: tuple[CorpusEntry, ...] = (
    _entry("tilt_half", ("flow", "identity"), "tilt", 1, a=[0.5]),
    _entry("tilt_one", ("identity",), "tilt", 1, a=[1.0]),
    _entry("tilt_d2", ("identity",), "tilt", 2, a=[0.3, -0.4]),
    _entry("tilt_d3", ("flow", "identity"), "tilt", 3, a=[0.2, 0.2, 0.2]),
    _entry("affine_eps01", ("flow",), "affine", 1, eps=0.1, nu=[1.0]),
    _entry("affine_eps02", ("excess_moment",), "affine", 1, eps=0.2, nu=[1.0]),
    _entry("affine_eps03", ("excess_moment",), "affine", 1, eps=0.3, nu=[1.0]),
    _entry(
        "hermite_mixed",
        ("flow", "excess_moment"),
        "hermite",
        1,
        coeffs=[1.0, 0.1, 0.12, 0.05],
    ),
    _entry("hermite_even", ("identity",), "hermite", 1, coeffs=[1.0, 0.0, 0.15]),
    _entry(
        "hermite_quartic",
        ("identity",),
        "hermite",
        1,
        coeffs=[1.0, 0.0, 0.1, 0.0, 0.02],
    ),
    _entry("gaussian_shifted", ("flow",), "gaussian", 1, sigma2=[0.5], mean=[0.3]),
    _entry(
        "gaussian_s08_shifted", ("identity",), "gaussian", 1, sigma2=[0.8], mean=[0.3]
    ),
    _entry(
        "gaussian_s04_neg", ("identity",), "gaussian", 1, sigma2=[0.4], mean=[-0.5]
    ),
    _entry(
        "gaussian_d2_aniso",
        ("identity",),
        "gaussian",
        2,
        sigma2=[0.6, 0.9],
        mean=[0.2, -0.1],
    ),
    _entry("gaussian_d2", ("flow",), "gaussian", 2, sigma2=[0.7, 0.7]),
    _entry("gaussian_s03", ("log_concave",), "gaussian", 1, sigma2=[0.3]),
    _entry("gaussian_s05", ("log_concave", "identity"), "gaussian", 1, sigma2=[0.5]),
    _entry("gaussian_s08", ("log_concave",), "gaussian", 1, sigma2=[0.8]),
    _entry("constant_one", ("log_concave",), "gaussian", 1, sigma2=[1.0]),
    _entry("bump_r1", ("log_concave", "compact"), "bump", 1, radius=1.0),
    _entry("bump_r2", ("log_concave", "compact"), "bump", 1, radius=2.0),
    _entry("bump_r4", ("log_concave", "compact"), "bump", 1, radius=4.0),
    _entry(
        "two_bumps_wide", ("refute",), "two_bumps", 1, height=1.0, radius=2.0, separation=4.0
    ),
)

_BY_NAME = {e.name: e for e in ENTRIES}


def names(tag: str | None = None) -> tuple[str, ...]:
    return tuple(e.name for e in entries(tag))


def entries(tag: str | None = None) -> tuple[CorpusEntry, ...]:
    if tag is None:
        return ENTRIES
    return tuple(e for e in ENTRIES if tag in e.tags)


def get(name: str) -> CorpusEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise LabError(
            f"unknown corpus entry {name!r}; known: {', '.join(sorted(_BY_NAME))}"
        ) from None
