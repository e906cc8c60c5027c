"""Batch command-line front end: solve instances, inspect orbits, run
exchanges and attacks on JSON instance files.

Exit codes: 0 solved/ok (including an empty solution set), 1 malformed
input (including non-positive exchange secrets and group, sigma or chain
parameters the backends reject), 2 solver-not-applicable (or no solution
for the attack), 3 a failed internal self-check.
"""

import argparse
import functools
import json
import random
import sys

from .config import SolverConfig, default_seed
from .errors import InstanceFormatError, InternalAssertionError, NoSolutionError, NotApplicableError, SdlpError
from .ff import BinaryField, ExtField, Poly, PrimeField, field_of_size
from .groups import (
    ConjugationEndo,
    CyclicGroup,
    Endo,
    GroupHandle,
    HeisenbergGroup,
    Hom,
    LinearMapEndo,
    MatrixGroup,
    PowerMapEndo,
    ProductEndo,
    ProductGroup,
    SdlpInstance,
    Subgroup,
    TableEndo,
    VectorGroup,
)
from .integers import factorize
from .linalg import Matrix
from .oracles import orbit_index_period
from .protocol import ExchangeTranscript, draw_secrets, spdke_attack, spdke_exchange
from .solvers import CHAIN_TAGS, SOLVER_NAMES, ChainLevel, NormalChain, heisenberg_chain, solve

MAX_INT = (1 << 63) - 1


# ---------------------------------------------------------------------------
# instance file parsing


def _fail(msg: str):
    raise InstanceFormatError(msg)


def _check_keys(obj: dict, where: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        _fail(f"{where}: expected an object")
    for k in required:
        if k not in obj:
            _fail(f"{where}: missing field {k!r}")
    for k in obj:
        if k not in required and k not in optional:
            _fail(f"{where}: unknown field {k!r}")


def _int(value, where: str) -> int:
    if isinstance(value, str):
        try:
            value = int(value, 10)
        except ValueError:
            _fail(f"{where}: not a decimal integer")
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{where}: expected an integer")
    if abs(value) > MAX_INT:
        _fail(f"{where}: integer out of range")
    return value


def _rejects_as_malformed(what: str):
    """Report a plain SdlpError raised while building `what` as malformed
    input: the backend constructors reject bad parameters (a non-prime p,
    a reducible modulus) with it."""

    def wrap(build):
        @functools.wraps(build)
        def checked(*args, **kwargs):
            try:
                return build(*args, **kwargs)
            except SdlpError as err:
                if type(err) is not SdlpError:
                    raise
                raise InstanceFormatError(f"{what}: {err}") from err

        return checked

    return wrap


@_rejects_as_malformed("group")
def build_group(spec: dict) -> GroupHandle:
    _check_keys(spec, "group", ("family",), ("n", "p", "q", "d", "generators", "factors", "modulus"))
    family = spec["family"]
    if family == "cyclic":
        _check_keys(spec, "group(cyclic)", ("family", "n"))
        return CyclicGroup(_int(spec["n"], "group.n"))
    if family == "vector":
        _check_keys(spec, "group(vector)", ("family", "p", "d"))
        return VectorGroup(_int(spec["p"], "group.p"), _int(spec["d"], "group.d"))
    if family == "heisenberg":
        _check_keys(spec, "group(heisenberg)", ("family", "p"))
        return HeisenbergGroup(_int(spec["p"], "group.p"))
    if family == "matrix":
        _check_keys(spec, "group(matrix)", ("family", "q", "d", "generators"), ("modulus",))
        fld = _build_field(_int(spec["q"], "group.q"), spec.get("modulus"))
        d = _int(spec["d"], "group.d")
        gens = [_parse_matrix(m, fld, d, "group.generators") for m in spec["generators"]]
        return MatrixGroup(fld, d, gens)
    if family == "product":
        _check_keys(spec, "group(product)", ("family", "factors"))
        return ProductGroup([build_group(f) for f in spec["factors"]])
    _fail(f"group: unknown family {family!r}")


def _build_field(q: int, modulus):
    """F_q with an optional explicit modulus (coefficient list, constant
    term first)."""
    if modulus is None:
        return field_of_size(q)
    fac = factorize(q)
    if len(fac) != 1:
        _fail(f"group.q: {q} is not a prime power")
    (p, e), = fac.items()
    coeffs = [_int(v, "group.modulus") % p for v in modulus]
    if len(coeffs) != e + 1 or coeffs[-1] != 1:
        _fail("group.modulus: expected a monic polynomial of degree log_p(q)")
    if p == 2:
        bits = 0
        for i, c in enumerate(coeffs):
            bits |= (c & 1) << i
        return BinaryField(e, bits)
    base = PrimeField(p)
    return ExtField(base, Poly(base, coeffs))


def _parse_matrix(rows, fld, d: int, where: str) -> Matrix:
    if not isinstance(rows, list) or len(rows) != d or any(not isinstance(r, list) or len(r) != d for r in rows):
        _fail(f"{where}: expected a {d}x{d} matrix")
    return Matrix(fld, [[fld.from_int(_int(v, where)) for v in row] for row in rows])


def parse_element(value, group: GroupHandle, where: str = "element"):
    if isinstance(group, CyclicGroup):
        if isinstance(value, list):
            if len(value) != 1:
                _fail(f"{where}: cyclic element literal has one entry")
            value = value[0]
        return _int(value, where) % group.n
    if isinstance(group, VectorGroup):
        if not isinstance(value, list) or len(value) != group.d:
            _fail(f"{where}: expected {group.d} coordinates")
        return tuple(_int(v, where) % group.p for v in value)
    if isinstance(group, HeisenbergGroup):
        if not isinstance(value, list) or len(value) != 3:
            _fail(f"{where}: expected [a, b, c]")
        return tuple(_int(v, where) % group.p for v in value)
    if isinstance(group, MatrixGroup):
        return _parse_matrix(value, group.field, group.d, where)
    if isinstance(group, ProductGroup):
        if not isinstance(value, list) or len(value) != len(group.factors):
            _fail(f"{where}: expected one literal per product factor")
        return tuple(parse_element(v, f, where) for v, f in zip(value, group.factors))
    _fail(f"{where}: elements of {group!r} have no file literal")


def element_to_json(x, group: GroupHandle):
    if isinstance(group, CyclicGroup):
        return x
    if isinstance(group, (VectorGroup, HeisenbergGroup)):
        return list(x)
    if isinstance(group, MatrixGroup):
        f = group.field
        return [[f.to_int(v) for v in row] for row in x.rows]
    if isinstance(group, ProductGroup):
        return [element_to_json(v, f) for v, f in zip(x, group.factors)]
    raise SdlpError(f"elements of {group!r} have no file literal")


@_rejects_as_malformed("sigma")
def build_sigma(spec: dict, group: GroupHandle) -> Endo:
    _check_keys(spec, "sigma", ("kind",), ("e", "matrix", "map", "components"))
    kind = spec["kind"]
    if kind == "power":
        _check_keys(spec, "sigma(power)", ("kind", "e"))
        endo = PowerMapEndo(group, _int(spec["e"], "sigma.e"))
    elif kind == "linear":
        _check_keys(spec, "sigma(linear)", ("kind", "matrix"))
        if not isinstance(group, VectorGroup):
            _fail("sigma(linear) needs a vector group")
        endo = LinearMapEndo(group, _parse_matrix(spec["matrix"], group.field, group.d, "sigma.matrix"))
    elif kind == "conjugation":
        _check_keys(spec, "sigma(conjugation)", ("kind", "matrix"))
        if isinstance(group, HeisenbergGroup):
            fld, d = group.field, 3
        elif isinstance(group, MatrixGroup):
            fld, d = group.field, group.d
        else:
            _fail("sigma(conjugation) needs a matrix-backed group")
        try:
            endo = ConjugationEndo(group, _parse_matrix(spec["matrix"], fld, d, "sigma.matrix"))
            for x in group.generators():
                endo.apply(x)
        except SdlpError as err:
            _fail(f"sigma.matrix does not act on the group: {err}")
    elif kind == "table":
        _check_keys(spec, "sigma(table)", ("kind", "map"))
        if not hasattr(group, "elements"):
            _fail("sigma(table) needs an enumerable group")
        images = [parse_element(v, group, "sigma.map") for v in spec["map"]]
        domain = list(group.elements())
        if len(images) != len(domain):
            _fail("sigma.map must list one image per group element")
        endo = TableEndo(group, {group.label(x): y for x, y in zip(domain, images)})
    elif kind == "product":
        _check_keys(spec, "sigma(product)", ("kind", "components"))
        if not isinstance(group, ProductGroup):
            _fail("sigma(product) needs a product group")
        endo = ProductEndo(group, [build_sigma(s, f) for s, f in zip(spec["components"], group.factors)])
    else:
        _fail(f"sigma: unknown kind {kind!r}")
    return endo


@_rejects_as_malformed("chain")
def build_chain(spec, group: GroupHandle, where: str = "chain") -> NormalChain:
    if spec == "heisenberg-default":
        if not isinstance(group, HeisenbergGroup):
            _fail("heisenberg-default chain needs a heisenberg group")
        return heisenberg_chain(group)
    if not isinstance(spec, list) or not spec:
        _fail(f"{where}: expected a non-empty list of levels")
    levels, below = [], []
    for i, lvl in enumerate(spec):
        w = f"{where}[{i}]"
        _check_keys(lvl, w, ("psi", "tag"), ("generators", "kernel_generators"))
        tag = lvl["tag"]
        if tag not in CHAIN_TAGS:
            _fail(f"{w}: unknown tag {tag!r}")
        gens = [parse_element(v, group, f"{w}.generators") for v in lvl.get("generators", [])]
        source = group if not gens and i + 1 == len(spec) else Subgroup(group, gens)
        kernel = [parse_element(v, group, f"{w}.kernel_generators") for v in lvl.get("kernel_generators", [])]
        target, func, own_kernel = _parse_psi(lvl["psi"], group, f"{w}.psi")
        # the level below is the kernel; a listed or projection kernel stands in where it lists no generators
        levels.append(ChainLevel(Hom(source, target, func, kernel_generators=below or kernel or own_kernel), tag))
        below = gens
    return NormalChain(levels=levels)


def _element_coordinates(group: GroupHandle):
    if isinstance(group, CyclicGroup):
        return lambda x: (x,), group.n
    if isinstance(group, VectorGroup):
        return lambda x: tuple(x), group.p
    if isinstance(group, HeisenbergGroup):
        return lambda x: tuple(x), group.p
    _fail("psi(coords) needs a coordinate backend (cyclic, vector, heisenberg)")


def _parse_psi(spec: dict, group: GroupHandle, where: str):
    """(target, forward map, the map's own kernel generators) of a level's psi."""
    _check_keys(spec, where, ("kind",), ("indices", "rows", "p", "factor"))
    kind = spec["kind"]
    base = group
    pick = lambda x: x
    if "factor" in spec and kind in ("coords", "linear-coords"):
        if not isinstance(group, ProductGroup):
            _fail(f"{where}: factor selection needs a product group")
        fi = _int(spec["factor"], where)
        base = group.factors[fi]
        pick = lambda x, fi=fi: x[fi]
    if kind == "coords":
        _check_keys(spec, where, ("kind", "indices"), ("factor",))
        coords, p = _element_coordinates(base)
        idx = [_int(v, where) for v in spec["indices"]]
        return VectorGroup(p, len(idx)), lambda x: tuple(coords(pick(x))[i] % p for i in idx), []
    if kind == "linear-coords":
        _check_keys(spec, where, ("kind", "rows", "p"), ("factor",))
        p = _int(spec["p"], where)
        coords, pc = _element_coordinates(base)
        if p != pc:
            _fail(f"{where}: modulus does not match the backend")
        rows = [[_int(v, where) % p for v in row] for row in spec["rows"]]
        target = VectorGroup(p, len(rows))
        return target, lambda x: tuple(sum(c * a for c, a in zip(row, coords(pick(x)))) % p for row in rows), []
    if kind == "project":
        _check_keys(spec, where, ("kind", "factor"))
        if not isinstance(group, ProductGroup):
            _fail(f"{where}: project needs a product group")
        i = _int(spec["factor"], where)
        psi = group.project_hom(i)
        return psi.target, psi, psi.kernel_generators
    _fail(f"{where}: unknown psi kind {kind!r}")


def load_instance(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        _fail(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        _fail(f"invalid JSON in {path}: {err}")
    _check_keys(doc, "instance", ("group", "sigma"), ("g", "h", "chain", "series", "transcript"))
    group = build_group(doc["group"])
    sigma = build_sigma(doc["sigma"], group)
    chain = None
    if "chain" in doc:
        chain = build_chain(doc["chain"], group)
    elif "series" in doc:
        chain = build_chain(doc["series"], group, where="series")
        for level in chain.levels:
            level.tag = "solvable"
    inst = None
    if "g" in doc and "h" in doc:
        inst = SdlpInstance(
            group,
            sigma,
            parse_element(doc["g"], group, "g"),
            parse_element(doc["h"], group, "h"),
            chain=chain,
        )
    return doc, group, sigma, chain, inst


# ---------------------------------------------------------------------------
# commands


def _config_from_args(args) -> SolverConfig:
    return SolverConfig(
        oracle=args.oracle,
        bsgs_mem=args.bsgs_mem,
        max_walk=args.max_walk,
        seed=args.seed if args.seed is not None else default_seed(),
    )


def cmd_solve(args) -> int:
    _, group, sigma, chain, inst = load_instance(args.instance)
    if inst is None:
        _fail("solve needs both g and h in the instance file")
    config = _config_from_args(args)
    try:
        sol = solve(inst, config, solver=args.solver)
    except InternalAssertionError:
        raise
    except (NotApplicableError, SdlpError) as err:
        print(f"solver not applicable: {err}", file=sys.stderr)
        return 2
    doc = sol.to_json()
    doc["verified"] = True  # solve checks every answer before returning it
    if args.explain:
        doc["trace"] = []
        for step in config.trace:
            params = ", ".join(f"{k}={v}" for k, v in step.items() if k != "kind")
            doc["trace"].append(f"{step['kind']}: {params}" if params else step["kind"])
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_orbit(args) -> int:
    doc, group, sigma, chain, _ = load_instance(args.instance)
    if "g" not in doc:
        _fail("orbit needs g in the instance file")
    g = parse_element(doc["g"], group, "g")
    config = _config_from_args(args)
    try:
        shape = orbit_index_period(g, sigma, config)
    except NotApplicableError as err:
        print(f"orbit cap exceeded: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"index": shape.index, "period": shape.period}, sort_keys=True))
    return 0


def cmd_exchange(args) -> int:
    doc, group, sigma, chain, _ = load_instance(args.instance)
    if "g" not in doc:
        _fail("exchange needs g in the instance file")
    g = parse_element(doc["g"], group, "g")
    config = _config_from_args(args)
    for flag, value in (("--x", args.x), ("--y", args.y)):
        if value is not None and value < 1:
            _fail(f"{flag}: secrets must be positive")
    if args.x is not None and args.y is not None:
        x, y = args.x, args.y
    else:
        x, y = draw_secrets(group, sigma, g, random.Random(config.seed), config)
    tr = spdke_exchange(group, sigma, g, x, y)
    out = {
        "group": doc["group"],
        "sigma": doc["sigma"],
        "g": element_to_json(tr.g, group),
        "A": element_to_json(tr.A, group),
        "B": element_to_json(tr.B, group),
    }
    if chain is not None and "chain" in doc:
        out["chain"] = doc["chain"]
    if args.with_secrets:
        out["secrets"] = {"x": x, "y": y, "key": element_to_json(tr.K_A, group)}
    text = json.dumps(out, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_attack(args) -> int:
    try:
        with open(args.transcript, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        _fail(f"cannot read {args.transcript}: {err}")
    except json.JSONDecodeError as err:
        _fail(f"invalid JSON in {args.transcript}: {err}")
    _check_keys(doc, "transcript", ("group", "sigma", "g", "A", "B"), ("chain", "secrets"))
    group = build_group(doc["group"])
    sigma = build_sigma(doc["sigma"], group)
    tr = ExchangeTranscript(
        group,
        sigma,
        parse_element(doc["g"], group, "g"),
        parse_element(doc["A"], group, "A"),
        parse_element(doc["B"], group, "B"),
        chain=build_chain(doc["chain"], group) if "chain" in doc else None,
    )
    config = _config_from_args(args)
    try:
        key, x_prime = spdke_attack(tr, config, solver=args.solver)
    except InternalAssertionError:
        raise
    except NoSolutionError:
        print(json.dumps({"error": "no solution"}))
        return 2
    except SdlpError as err:
        print(f"solver not applicable: {err}", file=sys.stderr)
        return 2
    out = {"key": element_to_json(key, group), "x": x_prime}
    if "secrets" in doc and "key" in doc["secrets"]:
        expected = parse_element(doc["secrets"]["key"], group, "secrets.key")
        out["match"] = group.label(key) == group.label(expected)
    print(json.dumps(out, sort_keys=True))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sdlp", description="semidirect discrete log toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--solver", default="auto", choices=SOLVER_NAMES)
        p.add_argument("--oracle", default=SolverConfig.oracle, choices=("bsgs", "rho", "brute"))
        p.add_argument("--seed", type=int, default=None, help="defaults to $SDLP_SEED or 0")
        p.add_argument("--max-walk", type=int, default=SolverConfig.max_walk)
        p.add_argument("--bsgs-mem", type=int, default=SolverConfig.bsgs_mem)

    p_solve = sub.add_parser("solve", help="solve an SDLP instance file")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--explain", action="store_true")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_orbit = sub.add_parser("orbit", help="print the orbit index and period")
    p_orbit.add_argument("--instance", required=True)
    common(p_orbit)
    p_orbit.set_defaults(func=cmd_orbit)

    p_ex = sub.add_parser("exchange", help="simulate a key exchange")
    p_ex.add_argument("--instance", required=True)
    p_ex.add_argument("--x", type=int, default=None)
    p_ex.add_argument("--y", type=int, default=None)
    p_ex.add_argument("--with-secrets", action="store_true")
    p_ex.add_argument("--out", default=None)
    common(p_ex)
    p_ex.set_defaults(func=cmd_exchange)

    p_at = sub.add_parser("attack", help="recover the shared key from a transcript")
    p_at.add_argument("--transcript", required=True)
    common(p_at)
    p_at.set_defaults(func=cmd_attack)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstanceFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NotApplicableError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SdlpError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
