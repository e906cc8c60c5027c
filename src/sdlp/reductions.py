"""The three reduction tools: endomorphism-to-automorphism, power shift, and
quotient recursion. Each returns sub-instances plus a recombination rule
mapping sub-solutions back to solutions of the original instance.
"""

import math

from .config import SolverConfig
from .errors import InternalAssertionError, NotApplicableError, SdlpError
from .groups import (
    CyclicGroup,
    Hom,
    LinearMapEndo,
    PowerMapEndo,
    SdlpInstance,
    SolutionSet,
    Subgroup,
    TableEndo,
    VectorGroup,
    induced_automorphism,
    mulclose,
    rho_pow,
    rho_pow_inverse_apply,
    semidirect_power,
)
from .linalg import Echelon, Matrix


# ---------------------------------------------------------------------------
# Reduction 1: group-base case -> group case


def reduce_to_automorphism_case(inst: SdlpInstance, config: SolverConfig | None = None):
    """Reduce SDLP with an endomorphism to SDLP(K, sigma|_K) with an
    automorphism, where K = sigma^k(G) for a blindly chosen k at least
    ceil(log2 |G|) (the code-word bit length).

    Returns (sub-instance, recombine). The recombination runs the bounded
    exhaustive tail search over candidates s + r*j and classifies the answer
    as Empty, a Singleton in the tail, or a Progression with the
    sub-instance period.
    """
    config = config or SolverConfig()
    sigma, G = inst.sigma, inst.group
    if sigma.is_automorphism():
        config.record("endo-to-auto", k=0, note="already an automorphism")
        return inst, lambda sol: sol

    k = max(1, G.codeword_bits)
    if isinstance(G, CyclicGroup) and isinstance(sigma, PowerMapEndo):
        sub = _cyclic_image_instance(inst, k)
    elif isinstance(G, VectorGroup) and isinstance(sigma, LinearMapEndo):
        sub = _vector_image_instance(inst, k)
    else:
        sigma_k = sigma.pow(k)
        K = Subgroup(G, [sigma_k.apply(x) for x in G.generators()])
        sub = SdlpInstance(K, sigma, sigma_k.apply(inst.g), sigma_k.apply(inst.h))
    if not sub.sigma.is_automorphism():
        # the restriction is bijective on K even when the representation
        # (a globally singular map) cannot say so; tabulate it on K
        sub = _tabulated_restriction(sub)
    config.record("endo-to-auto", k=k, image=repr(sub.group))

    def recombine(sub_sol: SolutionSet) -> SolutionSet:
        return _tail_search(inst, sub_sol, k, config)

    return sub, recombine


def _tabulated_restriction(sub: SdlpInstance) -> SdlpInstance:
    try:
        elems = mulclose(sub.group, cap=TableEndo.MAX_SIZE)
    except SdlpError:
        raise NotApplicableError(
            "stable image too large to restrict the endomorphism representation"
        ) from None
    endo = TableEndo(sub.group, {sub.group.label(x): sub.sigma.apply(x) for x in elems}, check=False)
    if not endo.is_automorphism():
        raise InternalAssertionError("restriction to the stable image is not an automorphism")
    return SdlpInstance(sub.group, endo, sub.g, sub.h)


def _cyclic_image_instance(inst: SdlpInstance, k: int) -> SdlpInstance:
    G: CyclicGroup = inst.group
    e, n = inst.sigma.e, G.n
    ek = pow(e, k, n)
    d = math.gcd(ek, n)  # K = dZ_n, isomorphic to Z_{n/d}
    m = n // d
    K = CyclicGroup(m)
    sigma_bar = PowerMapEndo(K, e % m if m > 1 else 0)
    g2 = ek * inst.g % n
    h2 = ek * inst.h % n
    if g2 % d or h2 % d:
        raise InternalAssertionError("image elements left the stable image subgroup")
    return SdlpInstance(K, sigma_bar, g2 // d % m, h2 // d % m)


def _vector_image_instance(inst: SdlpInstance, k: int) -> SdlpInstance:
    G: VectorGroup = inst.group
    B = inst.sigma.matrix
    Bk = B**k
    # one elimination picks the basis of B^k's column space and gives every
    # coordinate over it: B's columns there, and those of B^k g and B^k h
    echelon = Echelon(B.field)
    for j in range(G.d):
        echelon.add(Bk.column(j))
    basis = echelon.basis
    K = VectorGroup(G.p, len(basis))
    if not basis:
        ident = LinearMapEndo(K, Matrix.zeros(B.field, 0, 0))
        return SdlpInstance(K, ident, (), ())
    cols = [echelon.coords(B.matvec(v)) for v in basis]
    g2 = echelon.coords(Bk.matvec(inst.g))
    h2 = echelon.coords(Bk.matvec(inst.h))
    if None in cols or g2 is None or h2 is None:
        raise InternalAssertionError("the stable image subspace is not invariant")
    return SdlpInstance(K, LinearMapEndo(K, Matrix.from_columns(B.field, cols)), g2, h2)


def _tail_search(inst: SdlpInstance, sub_sol: SolutionSet, k: int, config: SolverConfig) -> SolutionSet:
    grp = inst.group
    want = grp.label(inst.h)
    if sub_sol.is_empty():
        return SolutionSet.empty()
    if sub_sol.kind == "singleton":
        raise InternalAssertionError("automorphism sub-instance produced a singleton")
    s, r = sub_sol.t0, sub_sol.period
    for j in range(-(-k // r) + 2):  # ceil(k/r) + 1 inclusive
        t = s + r * j
        if grp.label(rho_pow(inst.g, inst.sigma, t)) == want:
            config.record("endo-to-auto-search", s=s, r=r, t0=j, found=t)
            if grp.label(rho_pow(inst.g, inst.sigma, t + r)) == want:
                return SolutionSet.progression(t, r)
            return SolutionSet.singleton(t)
    config.record("endo-to-auto-search", s=s, r=r, found=None)
    return SolutionSet.empty()


# ---------------------------------------------------------------------------
# Reduction 2: sigma -> sigma^k


def shift_to_power(inst: SdlpInstance, k: int, config: SolverConfig | None = None):
    """Split SDLP(G, sigma) into k instances over sigma^k, one per residue
    s of the solution mod k.

    Instance s asks for t with rho_{(g',k)}^t(1) = rho^{-s}(h) where
    g' = rho^k(1); a sub-solution t then lifts to s + t*k. Returns
    (list of sub-instances, recombine).
    """
    config = config or SolverConfig()
    if k < 1:
        raise SdlpError("shift_to_power needs k >= 1")
    sigma = inst.sigma
    if not sigma.is_automorphism():
        raise SdlpError("not an automorphism")
    grp = inst.group
    g2, sigma_k = semidirect_power(inst.g, sigma, k)
    # rho^{-(s+1)}(h) = rho^{-1}(rho^{-s}(h)) with rho^{-1}(x) = sigma^{-1}(g^-1 x)
    targets = [inst.h]
    if k > 1:
        g_inv, sigma_inv = grp.inv(inst.g), sigma.pow(-1)
        for _ in range(k - 1):
            targets.append(sigma_inv.apply(grp.mul(g_inv, targets[-1])))
    subs = [SdlpInstance(grp, sigma_k, g2, h_s) for h_s in targets]
    config.record("power-shift", k=k)

    def recombine(sub_sols) -> SolutionSet:
        return _merge_shifted(sub_sols, k)

    return subs, recombine


def _merge_shifted(sub_sols, k: int) -> SolutionSet:
    firsts = []
    for s, sol in enumerate(sub_sols):
        if sol.is_empty():
            continue
        if sol.kind == "singleton":
            raise InternalAssertionError("automorphism sub-instance produced a singleton")
        firsts.append((s + k * sol.t0, k * sol.period))
    if not firsts:
        return SolutionSet.empty()
    t0, own_gap = min(firsts)
    gaps = [e - t0 for e, _ in firsts if e > t0] + [own_gap]
    return SolutionSet.progression(t0, min(gaps))


# ---------------------------------------------------------------------------
# Reduction 3: recursion through a quotient


def recurse_through_quotient(inst: SdlpInstance, psi: Hom, config: SolverConfig | None = None):
    """Pass SDLP(G, sigma) to SDLP(Im(psi), induced sigma) plus a follow-up
    instance inside M = ker(psi) over sigma^{n0}.

    Returns (quotient instance, follow_up) where follow_up(quotient
    solution) gives (sub-instance or None, lift) and lift maps the
    sub-instance's SolutionSet to the original's. A quotient Empty
    finishes immediately with (None, Empty).
    """
    config = config or SolverConfig()
    sigma = inst.sigma
    if not sigma.is_automorphism():
        raise SdlpError("not an automorphism")
    image, sigma_bar = induced_automorphism(psi, sigma)
    if isinstance(image, VectorGroup):
        q_inst = SdlpInstance(image, sigma_bar, psi(inst.g), psi(inst.h))
    else:
        q_inst = SdlpInstance(image, sigma_bar, image.embed(inst.g), image.embed(inst.h))
    config.record("quotient-recursion", image=repr(image))

    def follow_up(q_sol: SolutionSet):
        if q_sol.is_empty():
            return None, lambda _unused: SolutionSet.empty()
        if q_sol.kind == "singleton":
            raise InternalAssertionError("automorphism quotient produced a singleton")
        t0, n0 = q_sol.t0, q_sol.period
        g2, sigma_n0 = semidirect_power(inst.g, sigma, n0)
        h2 = rho_pow_inverse_apply(inst.g, sigma, t0, inst.h)
        tgt = psi.target
        if not tgt.is_identity(psi(g2)) or not tgt.is_identity(psi(h2)):
            raise InternalAssertionError(
                "follow-up elements fell outside the kernel (wrong n0 or non-invariant kernel)"
            )
        M = Subgroup(inst.group, psi.kernel_generators)
        sub = SdlpInstance(M, sigma_n0, g2, h2)
        config.record("quotient-recursion-descend", t0=t0, n0=n0)
        return sub, lambda sub_sol: sub_sol.map_affine(t0, n0)

    return q_inst, follow_up
