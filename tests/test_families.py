"""An invariance ledger: generated families whose answer is known from the
basis they are built in.

Each family is a list of linear generators. Its ledger is the tuple
(centralizer dim, radical dim, quotient dim, quotient commutative, flag
dims, derived-series verdict) of `centralizer_algebra`, `dickson_radical`,
`invariant_flag_search` and `truncated_derived_series`. The ledger of the
construction basis is the expected one on every conjugate by
`random_unimodular(random.Random(s), n, ops=12)` for s = 0-11, each under
five generating sets: as given, reversed, inverted, with g1 g2 appended
(g1^2 for one generator) and with g1^2 appended. Where the construction
basis shows the answer, the ledger is also checked against it.

A family that fails today is a strict xfail whose reason gives the measured
count and the ROADMAP item that would mend it.
"""

import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from holonomy.commutant import centralizer_algebra, dickson_radical, invariant_flag_search, truncated_derived_series
from holonomy.linalg import RatMatrix
from holonomy.representation import validate_rep

from helpers import frac_rows, random_unimodular

SEEDS = range(12)


class Ledger(NamedTuple):
    centralizer: int
    radical: int
    quotient: int
    commutative: bool
    flag: tuple[int, ...]
    derived: str


def ledger(mats: list[RatMatrix]) -> Ledger:
    n = mats[0].nrows
    rep = validate_rep([(f"g{i}", m) for i, m in enumerate(mats)], "linear", n)
    cent = centralizer_algebra(rep)
    d = dickson_radical(cent)
    flag = invariant_flag_search(rep, cent)
    return Ledger(
        cent.dim,
        d.radical.dim,
        d.quotient_dim,
        d.quotient_commutative,
        flag.dims if flag is not None else (),
        truncated_derived_series(rep).verdict,
    )


def generating_sets(mats: list[RatMatrix]) -> dict[str, list[RatMatrix]]:
    g1 = mats[0]
    appended = g1 * mats[1] if len(mats) > 1 else g1 * g1
    return {
        "given": mats,
        "reversed": mats[::-1],
        "inverted": [m.inverse() for m in mats],
        "g1g2": mats + [appended],
        "g1^2": mats + [g1 * g1],
    }


def _unit(n: int, i: int, j: int) -> RatMatrix:
    return frac_rows([[int((r, c) == (i, j)) for c in range(n)] for r in range(n)])


def _unipotent_pair(n: int) -> list[RatMatrix]:
    """The regular unipotent Jordan block and a dense unipotent partner
    that does not commute with it."""
    a = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
    b = [[1 if j == i else (-1) ** (i + j) if j > i else 0 for j in range(n)] for i in range(n)]
    b[0][1] = 2
    return [frac_rows(a), frac_rows(b)]


def _jordan(n: int, eigenvalue: Fraction) -> list[RatMatrix]:
    return [frac_rows([[eigenvalue if i == j else int(j == i + 1) for j in range(n)] for i in range(n)])]


def _diagonal(*entries) -> RatMatrix:
    n = len(entries)
    return frac_rows([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def _diagonal_plus_unipotent(n: int) -> list[RatMatrix]:
    """diag(1, ..., n) and I + E_1n."""
    return [_diagonal(*range(1, n + 1)), RatMatrix.identity(n) + _unit(n, 0, n - 1)]


def _companion(*low: int) -> list[RatMatrix]:
    """The companion matrix of x^n + low[n-1] x^(n-1) + ... + low[0]."""
    n = len(low)
    rows = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    for i, c in enumerate(low):
        rows[i][n - 1] = -c
    return [frac_rows(rows)]


def _upper_unitriangular(n: int) -> list[RatMatrix]:
    """U_n = <I + E_(i,i+1)>."""
    return [RatMatrix.identity(n) + _unit(n, i, i + 1) for i in range(n - 1)]


def _tensor_identity(b: list[list[int]]) -> RatMatrix:
    """B (x) I_2: entry (i, j) is b[i // 2][j // 2] when i = j mod 2."""
    m = 2 * len(b)
    return frac_rows([[b[i // 2][j // 2] if i % 2 == j % 2 else 0 for j in range(m)] for i in range(m)])


def _complete(n: int) -> dict:
    return {"flag": tuple(range(1, n))}


def _field(n: int) -> dict:
    """A companion matrix of an irreducible polynomial: its centralizer is
    Q[C], a field of degree n, and no proper nonzero subspace is invariant."""
    return {"centralizer": n, "radical": 0, "quotient": n, "commutative": True, "flag": ()}


def _xfail(reason: str):
    return pytest.mark.xfail(strict=True, reason=f"{reason} (ROADMAP item 2)")


FAMILIES = [
    *(pytest.param(_unipotent_pair(n), _complete(n), id=f"unipotent-{n}") for n in (2, 3, 4)),
    *(pytest.param(_jordan(n, Fraction(-2, 3)), _complete(n), id=f"jordan-{n}") for n in (2, 3, 4)),
    *(pytest.param(_diagonal_plus_unipotent(n), _complete(n), id=f"diagonal-unipotent-{n}") for n in (2, 3, 4)),
    pytest.param(_companion(-2, 0, 0), _field(3), id="companion-x3-2"),
    pytest.param(_companion(-2, 0, 0, 0), _field(4), id="companion-x4-2"),
    pytest.param(_companion(1, 1, 0, 0), _field(4), id="companion-x4+x+1"),
    *(
        pytest.param(
            _upper_unitriangular(n),
            _complete(n),
            id=f"upper-unitriangular-{n}",
            marks=_xfail(
                f"U_{n} gets flag dims (1, {n - 1}) in the construction basis and on 48/60 conjugate"
                f" generating sets, (1, 2, {n - 1}) on the 12 with g1 g2 appended"
            ),
        )
        for n in (4, 5, 6)
    ),
    pytest.param(
        [_tensor_identity([[1, 1], [0, 1]]), _tensor_identity([[1, 0], [1, 1]])],
        {"centralizer": 4, "radical": 0, "quotient": 4, "commutative": False, "flag": (2,)},
        id="tensor-identity",
        marks=_xfail("B (x) I_2 loses its (2,) partial flag on 5/60 conjugate generating sets: all five of seed 0"),
    ),
    pytest.param(
        [_diagonal(1, 1, 1, 1, 1, 2)],
        _complete(6),
        id="diagonal-6",
        marks=_xfail(
            "diag(1, 1, 1, 1, 1, 2) gets flag dims (1, 2, 4, 5) in the construction basis and on"
            " 5/60 conjugate generating sets, all five of seed 7. The cap never binds: the harvest"
            " gives 12 candidates (six lines, six hyperplanes), one round of sums and intersections"
            " reaches no 3-dimensional member, and only their fixpoint, 62 subspaces, holds a"
            " complete flag (126 and 254 for n = 7 and 8, over twice the cap of 48)"
        ),
    ),
]


@pytest.mark.parametrize(("mats", "known"), FAMILIES)
def test_family_ledger_is_invariant(mats, known):
    base = ledger(mats)
    assert {field: getattr(base, field) for field in known} == known
    n = mats[0].nrows
    for seed in SEEDS:
        p = random_unimodular(random.Random(seed), n, ops=12)
        pinv = p.inverse()
        for name, gens in generating_sets([p * m * pinv for m in mats]).items():
            assert ledger(gens) == base, (seed, name)
