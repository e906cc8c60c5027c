"""Conjugation on the Heisenberg group in coordinates, against the 3 x 3
matrix model: sigma(x) = a^-1 x a, rho^t(1) = prod_{i<t} sigma^i(g)."""

import itertools
import json
import random

import pytest
from conftest import heisenberg_coords, heisenberg_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlp.cli import main
from sdlp.errors import SdlpError
from sdlp.groups import ConjugationEndo, HeisenbergGroup, Subgroup, semidirect_power
from sdlp.linalg import Matrix
from sdlp.protocol import draw_secrets, heisenberg_instance, spdke_attack, spdke_exchange
from sdlp.solvers import heisenberg_chain

POWERS = (-3, -1, 0, 1, 2, 5)
BASIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def upper_triangular(F, p):
    """Every invertible upper-triangular 3 x 3 matrix over F_p."""
    for a00, a11, a22 in itertools.product(range(1, p), repeat=3):
        for a01, a02, a12 in itertools.product(range(p), repeat=3):
            yield Matrix(F, [[a00, a01, a02], [0, a11, a12], [0, 0, a22]])


def conjugate(H, b, b_inv, x):
    """b^-1 x b in the matrix model."""
    return heisenberg_coords(b_inv * heisenberg_matrix(H, x) * b)


def assert_semidirect_walk(H, a, a_inv, sigma, gs, T):
    """semidirect_power(g, sigma, t) for t = 1..T and each g against the
    matrix model, which steps rho^t(1) and a^t on by one product each."""
    rho, b, b_inv = list(gs), a, a_inv
    for t in range(1, T + 1):
        for i, g in enumerate(gs):
            Q, E = semidirect_power(g, sigma, t)
            assert Q == rho[i], (a, g, t)
            rho[i] = H.mul(rho[i], conjugate(H, b, b_inv, g))
        assert [E.apply(x) for x in BASIS] == [conjugate(H, b, b_inv, x) for x in BASIS], (a, t)
        b, b_inv = b * a, a_inv * b_inv


@pytest.mark.parametrize("p", [2, 3, 5])
def test_every_upper_triangular_matrix_matches_the_matrix_model(p):
    """For every invertible upper-triangular a: apply on every element (at
    p = 5 on the basis and two more elements), pow(k) for k in POWERS, and
    semidirect_power for every t <= 2 p^2 + 2 (g every element, at p = 5
    the two non-basis ones). sigma^k is F_p-linear in (x, y, z), so the
    basis pins it.

    The apply check pins the action, and with it the coefficients, which
    are all that pow and semidirect_power read; so the references for
    sigma^k are formed, and semidirect_power is walked, once per action,
    not once for each of the p (p - 1) matrices that induce it."""
    H = HeisenbergGroup(p)
    F = H.field
    samples = list(H.elements()) if p <= 3 else [*BASIS, (2, 3, 4), (4, 1, 3)]
    gs = samples if p <= 3 else samples[3:]
    references = {}  # action on the basis -> sigma^k on the basis for k in POWERS
    for a in upper_triangular(F, p):
        a_inv = a.inverse()
        sigma = ConjugationEndo(H, a)
        for x in samples:
            assert sigma.apply(x) == conjugate(H, a, a_inv, x)
        # a^k for |k| <= 5 by one product each, without `Matrix.__pow__`
        powers = {0: Matrix.identity(F, 3)}
        for k in range(1, 6):
            powers[k], powers[-k] = powers[k - 1] * a, powers[1 - k] * a_inv
        action = tuple(sigma.apply(x) for x in BASIS)
        if action not in references:
            references[action] = {k: [conjugate(H, powers[k], powers[-k], x) for x in BASIS] for k in POWERS}
            assert_semidirect_walk(H, a, a_inv, sigma, gs, 2 * p * p + 2)
        for k in POWERS:
            sk = sigma.pow(k)
            assert sk.a == powers[k]
            assert [sk.apply(x) for x in BASIS] == references[action][k]
    assert len(references) == (p - 1) ** 2 * p**2


P = 65521
# the diagonal (a00, a11, a22) with the coincidences the divided differences
# of u -> u^t meet: alpha = 1, beta = 1, gamma = 1 and all three
DIAGONALS = {
    "distinct": lambda u, v, w: (u, v, w),
    "a00 = a11": lambda u, v, w: (u, u, w),
    "a11 = a22": lambda u, v, w: (u, v, v),
    "a00 = a22": lambda u, v, w: (u, v, u),
    "all equal": lambda u, v, w: (u, u, u),
}
unit = st.integers(1, P - 1)
entry = st.integers(0, P - 1)
exponent = st.integers(1, 2**63 - 1)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    case=st.sampled_from(sorted(DIAGONALS)),
    diagonal=st.tuples(unit, unit, unit),
    upper=st.tuples(entry, entry, entry),
    g=st.tuples(entry, entry, entry),
    s=exponent,
    t=exponent,
)
def test_semidirect_law_at_large_exponents(case, diagonal, upper, g, s, t):
    """At p = 65521 and s + t < 2^64: P_(s+t) = P_s sigma^s(P_t), sigma^(s+t)
    = sigma^s sigma^t, and rho^(s+t)(1) is (g a^-1)^(s+t) a^(s+t) in the
    matrix model."""
    H = HeisenbergGroup(P)
    F = H.field
    a00, a11, a22 = DIAGONALS[case](*diagonal)
    a01, a02, a12 = upper
    a = Matrix(F, [[a00, a01, a02], [0, a11, a12], [0, 0, a22]])
    sigma = ConjugationEndo(H, a)
    (Ps, Es), (Pt, Et), (Pst, Est) = (semidirect_power(g, sigma, n) for n in (s, t, s + t))
    assert Pst == H.mul(Ps, Es.apply(Pt))
    both = Es.compose(Et)
    for x in BASIS:
        assert Est.apply(x) == both.apply(x) == sigma.pow(s + t).apply(x)
    n = s + t
    a_n = a**n
    assert Pst == heisenberg_coords((heisenberg_matrix(H, g) * a.inverse()) ** n * a_n)
    assert Est.a == a_n
    for x in BASIS:
        assert Est.apply(x) == conjugate(H, a_n, a_n.inverse(), x)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=st.sampled_from(sorted(DIAGONALS)), diagonal=st.tuples(unit, unit, unit), upper=st.tuples(entry, entry, entry))
def test_negative_powers_and_restriction_keep_the_action(case, diagonal, upper):
    """sigma^-k undoes sigma^k, and the same conjugation built on a
    subgroup acts as it does on H."""
    H = HeisenbergGroup(P)
    a00, a11, a22 = DIAGONALS[case](*diagonal)
    a01, a02, a12 = upper
    sigma = ConjugationEndo(H, Matrix(H.field, [[a00, a01, a02], [0, a11, a12], [0, 0, a22]]))
    K = Subgroup(H, [(1, 0, 0), (0, 0, 1)])
    restricted = ConjugationEndo(K, sigma.pow(7).a)
    for x in BASIS:
        for k in (1, 2, 5, 2**40 + 3):
            assert sigma.pow(-k).apply(sigma.pow(k).apply(x)) == x
        assert restricted.apply(x) == sigma.pow(7).apply(x)


def test_a_matrix_outside_the_borel_group_is_rejected():
    """Conjugation by a matrix that is not upper triangular does not map H
    to itself."""
    H = HeisenbergGroup(7)
    F = H.field
    with pytest.raises(SdlpError, match="^matrix is not upper unitriangular$"):
        ConjugationEndo(H, Matrix(F, [[3, 2, 1], [1, 2, 4], [0, 0, 5]]))
    with pytest.raises(SdlpError, match="^conjugating matrix must be invertible$"):
        ConjugationEndo(H, Matrix(F, [[1, 2, 3], [2, 4, 6], [0, 0, 1]]))
    with pytest.raises(SdlpError, match="3 x 3 matrix"):
        ConjugationEndo(H, Matrix(F, [[1, 2], [0, 1]]))


def test_cli_rejects_a_matrix_outside_the_borel_group(tmp_path, capsys):
    doc = {
        "group": {"family": "heisenberg", "p": 7},
        "sigma": {"kind": "conjugation", "matrix": [[3, 2, 1], [1, 2, 4], [0, 0, 5]]},
        "g": [1, 2, 3],
        "h": [1, 2, 3],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["solve", "--instance", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: sigma.matrix does not act on the group: matrix is not upper unitriangular\n"


def test_attack_makes_no_matrix_call(monkeypatch):
    """After set-up, a seeded Heisenberg exchange and its key recovery act
    in coordinates only: no matrix product, power or inverse."""
    group, sigma, g = heisenberg_instance(65521, seed=1)
    x, y = draw_secrets(group, sigma, g, random.Random(1))

    def forbidden(*args):
        raise AssertionError("a matrix operation ran after set-up")

    for name in ("__mul__", "__pow__", "inverse"):
        monkeypatch.setattr(Matrix, name, forbidden)
    transcript = spdke_exchange(group, sigma, g, x, y)
    transcript.chain = heisenberg_chain(group)
    key, _ = spdke_attack(transcript)
    assert key == transcript.K_A
