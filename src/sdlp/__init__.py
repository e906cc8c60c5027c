"""Semidirect discrete logarithm toolkit.

Implements the semidirect product key exchange (SPDKE), the semidirect
discrete logarithm problem over pluggable finite-group backends, and a
classical solver stack (reductions plus base-case solvers) that recovers
exchange keys end to end. Quantum subroutines from the literature are
replaced by classical oracles (BSGS/Pollard-rho discrete logs, cycle
detection, integer factoring), so everything here is executable and
checkable against brute force.
"""

from .config import SolverConfig
from .errors import InstanceFormatError, InternalAssertionError, NoSolutionError, NotApplicableError, SdlpError
from .groups import (
    ConjugationEndo,
    CyclicGroup,
    Endo,
    GroupHandle,
    HeisenbergGroup,
    Hom,
    InducedPairEndo,
    LinearMapEndo,
    MatrixGroup,
    PairImageGroup,
    PowerMapEndo,
    ProductEndo,
    ProductGroup,
    SdlpInstance,
    SolutionSet,
    Subgroup,
    TableEndo,
    VectorGroup,
    induced_automorphism,
    rho_pow,
    rho_pow_inverse_apply,
    semidirect_power,
    semidirect_powers,
    sigma_pow_apply,
)
from .oracles import (
    OrbitShape,
    dlog,
    dlog_many,
    endo_order,
    factor_integer,
    orbit_index_period,
)
from .protocol import (
    ExchangeTranscript,
    heisenberg_instance,
    spdke_attack,
    spdke_exchange,
)
from .reductions import (
    recurse_through_quotient,
    reduce_to_automorphism_case,
    shift_to_power,
)
from .solvers import (
    ChainLevel,
    NormalChain,
    OrbitProblemInstance,
    brute_solve,
    cyclic_chain,
    find_conjugator,
    heisenberg_chain,
    solve,
    solve_elementary_abelian,
    solve_master,
    solve_matrix_inner,
    solve_orbit_problem,
    solve_small_order,
    solve_solvable,
    unitriangular_chain,
)

__version__ = "0.1.0"
