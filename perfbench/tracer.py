"""Out-of-program tracer for the sdlp layers.

`Tracer.install()` wraps every module-level public function of the layer
modules in a timed span and wraps the hot leaf methods (field mul/inv,
group mul, endomorphism apply/compose/pow, Matrix construction, products,
inverses and invertibility tests) in counters. Counted methods are not
timed: their time lands in the self time of the span that called them.

Layer modules import each other's functions by name (`from .oracles import
dlog`), so a function object can be bound in several module namespaces.
The tracer rebinds it in every `sdlp.*` namespace that holds it, and
`check_installed` fails when any namespace or module-level container still
holds an original, or when a name the benchmark reports on has gone, so a
refactor cannot make a layer read zero in silence. `uninstall` restores the
originals and `check_uninstalled` proves it.
"""

import contextlib
import functools
import inspect
import sys
import time

import sdlp.ff as ff
import sdlp.groups as groups
import sdlp.integers as integers
import sdlp.linalg as linalg
import sdlp.oracles as oracles
import sdlp.protocol as protocol
import sdlp.reductions as reductions
import sdlp.solvers as solvers
from sdlp.errors import SdlpError

# Reported layers, outermost first; `cli` is a thin JSON front end and is
# not measured.
LAYERS = {
    "protocol": protocol,
    "solvers": solvers,
    "reductions": reductions,
    "oracles": oracles,
    "integers": integers,
    "groups": groups,
    "linalg": linalg,
    "ff": ff,
}

# Public functions the per-layer metrics name. Every other public function
# of a layer module is wrapped too; these must exist.
REQUIRED_FUNCTIONS = {
    "protocol": ("spdke_exchange", "spdke_attack", "draw_secrets"),
    "solvers": (
        "solve",
        "solve_master",
        "solve_solvable",
        "solve_elementary_abelian",
        "solve_matrix_inner",
        "solve_small_order",
        "solve_orbit_problem",
        "brute_solve",
        "find_conjugator",
    ),
    "reductions": ("reduce_to_automorphism_case", "shift_to_power", "recurse_through_quotient"),
    "oracles": ("dlog", "element_order", "endo_order", "orbit_index_period", "orbit_walk"),
    "integers": ("factorize", "is_prime"),
    "groups": ("rho_pow", "sigma_pow_apply", "mulclose"),
    "linalg": ("min_poly", "nullspace", "solve_linear", "coordinates_in_basis"),
    "ff": ("factor_poly", "is_irreducible"),
}

SOLVER_ENTRY_PREFIXES = ("solve", "brute_solve")

# (base class, method, counter): the method is counted on the base and on
# every subclass that defines its own.
COUNTED_FAMILIES = (
    (groups.GroupHandle, "mul", "groups.mul"),
    (groups.Endo, "apply", "groups.endo_apply"),
    (groups.Endo, "compose", "groups.endo_compose"),
    (groups.Endo, "pow", "groups.endo_pow"),
)
COUNTED_METHODS = (
    (ff.PrimeField, "mul", "ff.mul"),
    (ff.ExtField, "mul", "ff.mul"),
    (ff.BinaryField, "mul", "ff.mul"),
    (ff.PrimeField, "inv", "ff.inv"),
    (ff.ExtField, "inv", "ff.inv"),
    (ff.BinaryField, "inv", "ff.inv"),
    (linalg.Matrix, "__init__", "linalg.matrix_new"),
    (linalg.Matrix, "__mul__", "linalg.matmul"),
    (linalg.Matrix, "inverse", "linalg.inverse"),
    (linalg.Matrix, "is_invertible", "linalg.is_invertible"),
)

_MARK = "__perfbench_original__"


class TracerError(Exception):
    """The tracer could not cover the layers it reports on."""


def _sdlp_modules():
    return [m for name, m in sorted(sys.modules.items()) if m is not None and (name == "sdlp" or name.startswith("sdlp."))]


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def _holders(value, depth=3):
    """Objects reachable through module-level containers, values included."""
    yield value
    if depth and isinstance(value, (dict, list, tuple, set, frozenset)):
        items = value.values() if isinstance(value, dict) else value
        for item in items:
            yield from _holders(item, depth - 1)


class Tracer:
    """Spans and counters for one traced pass; spans stay in memory.

    A span is (id, parent id, layer, name, start, end, self seconds,
    instance id, exception type raised or None, returned None).
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.instance = None
        self.paused = False
        self._stack = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._functions = {}  # original -> wrapper
        self._patches = []  # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer, name, fn):
        tracer = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            raised = None
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                raised = type(err)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append(
                    (sid, parent, layer, name, start, end, end - start - frame[1], tracer.instance, raised, result is None)
                )

        setattr(traced, _MARK, fn)
        return traced

    def _counter(self, key, fn):
        tracer = self
        counts = self.counts
        counts.setdefault(key, 0)
        if key == "linalg.is_invertible":
            counts.setdefault("linalg.is_invertible_true", 0)

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                if not tracer.paused:
                    counts[key] += 1
                    counts["linalg.is_invertible_true"] += bool(result)
                return result

        else:

            def counted(*args, **kwargs):
                if not tracer.paused:
                    counts[key] += 1
                return fn(*args, **kwargs)

        functools.update_wrapper(counted, fn)
        setattr(counted, _MARK, fn)
        return counted

    # -- install / uninstall ---------------------------------------------

    def install(self):
        """Wrap everything; on any gap, restore the originals and raise."""
        if self._patches:
            raise TracerError("tracer already installed")
        check_uninstalled()
        try:
            self._install()
        except TracerError:
            self.uninstall()
            raise

    def _install(self):
        for layer, module in LAYERS.items():
            for name in REQUIRED_FUNCTIONS[layer]:
                if not inspect.isfunction(getattr(module, name, None)):
                    raise TracerError(f"sdlp.{layer}.{name} is gone; the {layer} metrics would read zero")
            for name, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                    self._functions[fn] = self._span(layer, name, fn)
        for module in _sdlp_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._functions:
                    self._patch(module, attr, self._functions[value])
        for base, method, key in COUNTED_FAMILIES:
            for cls in _subclasses(base):
                if method in vars(cls):
                    self._patch(cls, method, self._counter(key, vars(cls)[method]))
        for cls, method, key in COUNTED_METHODS:
            if method not in vars(cls):
                raise TracerError(f"{cls.__name__}.{method} is gone; {key} would read zero")
            self._patch(cls, method, self._counter(key, vars(cls)[method]))
        self.check_installed()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._functions.clear()
        check_uninstalled()

    def check_installed(self):
        """Fail unless every layer function and counted method is wrapped."""
        originals = set(self._functions)
        for module in _sdlp_modules():
            for attr, value in vars(module).items():
                for held in _holders(value):
                    if inspect.isfunction(held) and held in originals:
                        raise TracerError(f"{module.__name__}.{attr} still holds the unwrapped {held.__qualname__}")
        for base, method, _ in COUNTED_FAMILIES:
            for cls in _subclasses(base):
                if not hasattr(getattr(cls, method), _MARK):
                    raise TracerError(f"{cls.__name__}.{method} is not counted")

    @contextlib.contextmanager
    def pause(self):
        """Stop recording, as for checks made between timed calls."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was


def check_uninstalled():
    """Fail if any sdlp namespace or class still holds a tracer wrapper."""
    for module in _sdlp_modules():
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                raise TracerError(f"{module.__name__}.{attr} is still wrapped")
            if isinstance(value, type):
                for name, member in vars(value).items():
                    if hasattr(member, _MARK):
                        raise TracerError(f"{value.__name__}.{name} is still counted")


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """The per-layer metrics of one traced pass, by name."""
    out = {}
    for layer in LAYERS:
        mine = [s for s in tracer.spans if s[2] == layer]
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.self_s"] = sum(s[6] for s in mine)
        out[f"{layer}.fails"] = sum(1 for s in mine if s[8] is not None)
    c = tracer.counts
    out["ff.mul"] = c["ff.mul"]
    out["ff.inv"] = c["ff.inv"]
    out["linalg.matrix_new"] = c["linalg.matrix_new"]
    out["linalg.matmul"] = c["linalg.matmul"]
    out["linalg.inverse"] = c["linalg.inverse"]
    out["linalg.invertible_ratio"] = _ratio(c["linalg.is_invertible_true"], c["linalg.is_invertible"])
    out["groups.mul"] = c["groups.mul"]
    out["groups.endo_apply"] = c["groups.endo_apply"]
    out["groups.endo_compose"] = c["groups.endo_compose"]
    out["groups.endo_pow"] = c["groups.endo_pow"]

    def named(layer, name):
        return [s for s in tracer.spans if s[2] == layer and s[3] == name]

    out["groups.rho_pow"] = len(named("groups", "rho_pow"))
    dlogs = named("oracles", "dlog")
    parent_of = {s[0]: s[1] for s in tracer.spans}
    dlog_ids = {s[0] for s in dlogs}

    def outermost(span):
        parent = span[1]
        while parent is not None:
            if parent in dlog_ids:
                return False
            parent = parent_of[parent]
        return True

    out["oracles.dlog"] = len(dlogs)
    out["oracles.dlog_s"] = sum(s[5] - s[4] for s in dlogs if outermost(s))
    out["oracles.dlog_hit_ratio"] = _ratio(sum(1 for s in dlogs if s[8] is None and not s[9]), len(dlogs))
    out["oracles.element_order"] = len(named("oracles", "element_order"))
    out["oracles.endo_order"] = len(named("oracles", "endo_order"))
    out["reductions.quotient"] = len(named("reductions", "recurse_through_quotient"))
    out["reductions.shift"] = len(named("reductions", "shift_to_power"))
    out["reductions.to_automorphism"] = len(named("reductions", "reduce_to_automorphism_case"))
    entries = [s for s in tracer.spans if s[2] == "solvers" and s[3].startswith(SOLVER_ENTRY_PREFIXES)]
    out["solvers.entries"] = len(entries)
    out["solvers.declines"] = sum(1 for s in entries if s[8] is not None and issubclass(s[8], SdlpError))
    out["solvers.accept_ratio"] = _ratio(sum(1 for s in entries if s[8] is None), len(entries))
    out["trace_overhead"] = _ratio(traced_s, untraced_s)
    return out
