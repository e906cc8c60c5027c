"""Solver/oracle configuration knobs.

The caps exist because the classical oracles replace quantum subroutines;
none of the polynomial-time claims survive that substitution, so every
search is bounded and the bounds are configuration, not constants.
"""

import os
from dataclasses import dataclass, field


@dataclass
class SolverConfig:
    oracle: str = "bsgs"  # bsgs | rho | brute
    bsgs_mem: int = 1 << 26  # max baby-step table entries
    max_walk: int = 1 << 24  # orbit walk cap
    small_order_bound: int = 1 << 10  # solve_small_order declines above this
    matrix_inner_max_k: int = 64  # divisor scan bound of the inner-power search
    seed: int = 0
    trace: list = field(default_factory=list)

    def record(self, kind: str, **params):
        self.trace.append({"kind": kind, **params})


def default_seed() -> int:
    env = os.environ.get("SDLP_SEED")
    return int(env) if env else 0
