"""Per-layer tracing for the benchmark, from outside the program.

install() wraps each function in TRACED at every place tautilt binds it:
module attributes (including names pulled in by ``from .x import y``) and
class attributes for methods.  Each wrapped call is a span.  A stack of
open spans gives self time: a span's duration minus the durations of the
spans it directly encloses.  Total time is counted only for the outermost
active call of a function, so recursion is not counted twice.  Closed
spans are folded into per-function sums in memory, so no per-call record
is kept and memory stays flat; report() hands the sums out at the end.

The stack is not thread-safe; the benchmark runs tautilt with one thread.
"""

import functools
import importlib
import time

LAYERS = ("field", "algebra", "modules", "translate", "complexes",
          "mutation", "pairs", "textio", "cli")

# metric prefix -> (tautilt module, attribute path in that module)
TRACED = {
    "field.rref": ("field", "PrimeField.rref"),
    "field.solve_right": ("field", "PrimeField.solve_right"),
    "field.matmul": ("field", "PrimeField.matmul"),
    "algebra.multiply": ("algebra", "BoundQuiverAlgebra.multiply"),
    "algebra.element_matmul": ("algebra", "BoundQuiverAlgebra.element_matmul"),
    "algebra.build_algebra": ("algebra", "build_algebra"),
    "modules.hom_basis": ("modules", "hom_basis"),
    "modules.decompose": ("modules", "decompose"),
    "modules.are_isomorphic": ("modules", "are_isomorphic"),
    "modules.projective": ("modules", "projective"),
    "translate.tau": ("translate", "tau"),
    "translate.tau_minus": ("translate", "tau_minus"),
    "translate.nu_module": ("translate", "nu_module"),
    "complexes.hom_dim": ("complexes", "hom_dim"),
    "complexes.chain_maps_mod_homotopy":
        ("complexes", "chain_maps_mod_homotopy"),
    "complexes.minimalize": ("complexes", "minimalize"),
    "complexes.decompose_complex": ("complexes", "decompose_complex"),
    "complexes.complexes_isomorphic": ("complexes", "complexes_isomorphic"),
    "mutation.mutate_summand": ("mutation", "mutate_summand"),
    "mutation.ComplexRegistry.get_or_insert":
        ("mutation", "ComplexRegistry.get_or_insert"),
    "mutation.EnumerationResult.is_node_tilting":
        ("mutation", "EnumerationResult.is_node_tilting"),
    "pairs.enumerate_support_tau_tilting":
        ("pairs", "enumerate_support_tau_tilting"),
    "pairs.is_nu_stable_pair": ("pairs", "is_nu_stable_pair"),
    "pairs.is_support_tau_tilting_pair":
        ("pairs", "is_support_tau_tilting_pair"),
    "pairs.is_support_tau_minus_tilting":
        ("pairs", "is_support_tau_minus_tilting"),
    "textio.parse_algebra_file": ("textio", "parse_algebra_file"),
    "textio.parse_module_expr": ("textio", "parse_module_expr"),
    "textio.module_expr_string": ("textio", "module_expr_string"),
    "textio.complex_json": ("textio", "complex_json"),
}

HOM_SHIFTS = {-1: "shift-1", 0: "shift0", 1: "shift1"}


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for prefix in TRACED:
        names += [f"{prefix}.calls", f"{prefix}.self_s", f"{prefix}.total_s"]
    names.append("field.rref.cells")
    names += [f"complexes.hom_dim.{s}.calls" for s in HOM_SHIFTS.values()]
    names.append("mutation.new_per_mutate")
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("new_per_mutate", "overhead_ratio")):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.total_s = dict.fromkeys(TRACED, 0.0)
        self._active = dict.fromkeys(TRACED, 0)
        self._stack = []  # [start, time covered by child spans]
        self.rref_cells = 0
        self.hom_shift_calls = dict.fromkeys(HOM_SHIFTS, 0)
        self.inserts_after_first_mutation = 0

    def wrap(self, name, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        total_s, active = self.total_s, self._active
        note = self._argument_counter(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            calls[name] += 1
            active[name] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self_s[name] += elapsed - frame[1]
                active[name] -= 1
                if not active[name]:
                    total_s[name] += elapsed

        if name == "mutation.ComplexRegistry.get_or_insert":
            return self._count_inserts(traced)
        return traced

    def _argument_counter(self, name):
        if name == "field.rref":
            def note(args, kwargs):
                a = args[1] if len(args) > 1 else kwargs["a"]
                self.rref_cells += int(a.shape[0]) * int(a.shape[1])
            return note
        if name == "complexes.hom_dim":
            def note(args, kwargs):
                shift = args[2] if len(args) > 2 else kwargs.get("shift", 0)
                self.hom_shift_calls[shift] += 1
            return note
        return None

    def _count_inserts(self, traced):
        @functools.wraps(traced)
        def counted(registry, *args, **kwargs):
            before = len(registry)
            out = traced(registry, *args, **kwargs)
            if len(registry) > before and self.calls["mutation.mutate_summand"]:
                self.inserts_after_first_mutation += 1
            return out
        return counted

    def report(self) -> dict:
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.total_s"] = self.total_s[name]
        out["field.rref.cells"] = self.rref_cells
        for shift, label in HOM_SHIFTS.items():
            out[f"complexes.hom_dim.{label}.calls"] = self.hom_shift_calls[shift]
        mutations = self.calls["mutation.mutate_summand"]
        out["mutation.new_per_mutate"] = (
            self.inserts_after_first_mutation / mutations if mutations else 0.0)
        return out


def install() -> Tracer:
    """Import every tautilt layer and route each traced function through
    one Tracer.  Returns the tracer; call its report() when done."""
    modules = [importlib.import_module(f"tautilt.{layer}") for layer in LAYERS]
    modules.append(importlib.import_module("tautilt"))
    tracer = Tracer()
    for name, (home, path) in TRACED.items():
        owner = importlib.import_module(f"tautilt.{home}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original)
        if classes:
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return tracer
