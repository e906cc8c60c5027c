"""SPDKE key-exchange simulation and the key-recovery attack driven by the
solver stack, including the order-p^3 candidate platform."""

import random
from dataclasses import dataclass

from .config import SolverConfig
from .errors import NoSolutionError, SdlpError
from .groups import (
    ConjugationEndo,
    Endo,
    GroupHandle,
    HeisenbergGroup,
    SdlpInstance,
    semidirect_powers,
    sigma_pow_apply,
)
from .linalg import Matrix
from .oracles import orbit_index_period
from .solvers import heisenberg_chain, solve  # heisenberg_chain is re-exported


@dataclass
class ExchangeTranscript:
    """Public data of one exchange, plus secrets when simulating."""

    group: GroupHandle
    sigma: Endo
    g: object
    A: object
    B: object
    x: int | None = None  # secrets; omitted on the wire
    y: int | None = None
    K_A: object = None
    K_B: object = None

    def public_part(self) -> "ExchangeTranscript":
        return ExchangeTranscript(self.group, self.sigma, self.g, self.A, self.B)


def spdke_exchange(group: GroupHandle, sigma: Endo, g, x: int, y: int) -> ExchangeTranscript:
    """Run both sides of the exchange and check the shared-key identity.

    Alice sends A = rho^x(1), Bob sends B = rho^y(1); the common key is
    K = A sigma^x(B) = B sigma^y(A) = rho^{x+y}(1). Each side takes its
    sigma^x from the same semidirect power that gives its public element,
    and both powers come from one `semidirect_powers` call, which finds
    what they share (a linear map's minimal polynomial) once.
    """
    if x < 1 or y < 1:
        raise SdlpError("secrets must be positive")
    (A, sigma_x), (B, sigma_y) = semidirect_powers(g, sigma, (x, y))
    K_A = group.mul(A, sigma_x.apply(B))
    K_B = group.mul(B, sigma_y.apply(A))
    if group.label(K_A) != group.label(K_B):
        raise SdlpError("exchange produced mismatched keys; sigma is not a morphism?")
    return ExchangeTranscript(group, sigma, g, A, B, x=x, y=y, K_A=K_A, K_B=K_B)


def spdke_attack(transcript: ExchangeTranscript, config: SolverConfig | None = None, solver: str = "auto"):
    """Recover the shared key from the public transcript.

    Solves SDLP for (g, A); any representative x' of Alice's solution class
    yields the key, since A fixes rho^{x'}(1) and the class fixes
    sigma^{x'}(B). Returns (key, x').
    """
    config = config or SolverConfig()
    grp, sigma = transcript.group, transcript.sigma
    inst = SdlpInstance(grp, sigma, transcript.g, transcript.A, chain=getattr(transcript, "chain", None))
    sol = solve(inst, config, solver=solver)
    if sol.is_empty():
        raise NoSolutionError("no solution: transcript element is outside the orbit")
    x_prime = sol.smallest()
    key = grp.mul(transcript.A, sigma_pow_apply(sigma, x_prime, transcript.B))
    return key, x_prime


def heisenberg_instance(p: int, seed: int = 0):
    """(group, sigma, g) on the unitriangular 3x3 platform over F_p.

    sigma is conjugation by a seeded-random invertible upper-triangular
    matrix and g is a seeded-random non-central element. The returned
    group handle ships with the built-in chain 1 < Z(G) < G via
    `heisenberg_chain`.
    """
    group = HeisenbergGroup(p)
    rng = random.Random(f"heisenberg-{p}-{seed}")
    F = group.field
    T = Matrix(
        F,
        [
            [rng.randrange(1, p), rng.randrange(p), rng.randrange(p)],
            [0, rng.randrange(1, p), rng.randrange(p)],
            [0, 0, rng.randrange(1, p)],
        ],
    )
    sigma = ConjugationEndo(group, T)
    while True:
        g = (rng.randrange(p), rng.randrange(p), rng.randrange(p))
        if (g[0], g[1]) != (0, 0):
            break
    return group, sigma, g


def draw_secrets(group: GroupHandle, sigma: Endo, g, rng: random.Random, config: SolverConfig | None = None):
    """Secrets uniform in [1, index + period) when the orbit shape is
    computable, else in [1, 2^32)."""
    try:
        shape = orbit_index_period(g, sigma, config)
        hi = max(2, shape.index + shape.period)
    except SdlpError:
        hi = 1 << 32
    return rng.randrange(1, hi), rng.randrange(1, hi)
