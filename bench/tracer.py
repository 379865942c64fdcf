"""Span tracing of triortho's layers, installed from outside the package.

``Tracer.install`` replaces every module-level function of every triortho
module by a wrapper, in each namespace that binds it: the defining module
(so calls inside that module and ``module.func`` calls from other modules
go through it) and every module that imported it by name.  A few methods
are wrapped on their class.  Each call records a span (name, start, end,
parent span, op id) in memory; ``write`` dumps them when the run ends.

Not wrapped: generator functions (their work runs in the consumer), the
methods of ``BitVector``, ``SparseState`` and ``ProtocolSpec``, and the tiny
helpers in ``UNWRAPPED``, all called thousands of times per op.  Their time
counts as the self time of their caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("gf2", "codes", "simulator", "logical", "distill", "cost", "cli")

UNWRAPPED = {
    "simulator._check_qubits",
    "distill._class_hits_block",
    "cost._eval_poly",
}

METHODS = {
    "gf2": {"BitMatrix": ("from_strings", "from_ints", "row_values")},
    "codes": {
        "TriorthogonalMatrix": ("from_matrix", "even_matrix", "odd_vectors"),
        "TriorthogonalCode": ("x_syndrome_of", "decode_x"),
    },
    "distill": {"ErrorModel": ("from_json_dict",)},
}

# Groups of functions reported together, as "<group>.self_s".
GROUPS = {
    "simulator.prepare": (
        "simulator.prepare_logical",
        "simulator.prepare_plus_all",
        "simulator.superpose",
        "simulator._uniform_coset",
        "simulator._reduced_full_basis",
    ),
}

SELF_TIMES = (
    "simulator.measure_register",
    "simulator.register_distribution",
    "simulator.tensor",
    "simulator.drop_qubits",
    "simulator.apply_gate",
    "logical.pauli_residual",
    "codes.build_code",
    "codes.from_matrix",
    "distill.enumerate_order2",
    "distill.monte_carlo",
    "cost.optimize_stack",
)

CALLS = (
    "simulator.apply_gate",
    "logical.pauli_residual",
    "codes.decode_x",
    "cost.optimize_stack",
)

COUNTERS = (
    "simulator.tensor.amplitudes",
    "codes.decode_x.misses",
    "logical.sweep.cases",
    "distill.monte_carlo.trials",
)


def _count_result(name, result, counts):
    # Work counted from return values: what each call produced or missed.
    if name == "simulator.tensor":
        counts["simulator.tensor.amplitudes"] += len(result.amps)
    elif name == "codes.decode_x":
        counts["codes.decode_x.misses"] += result is None
    elif name == "logical.fault_tolerance_sweep":
        counts["logical.sweep.cases"] += result.cases_run
    elif name == "distill.monte_carlo":
        counts["distill.monte_carlo.trials"] += result.trials


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
        units[f"{module}.calls"] = "count"
    for name in SELF_TIMES + tuple(GROUPS):
        units[f"{name}.self_s"] = "s"
    for name in CALLS:
        units[f"{name}.calls"] = "count"
    for name in COUNTERS:
        units[name] = "count"
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            _count_result(name, result, counts)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import triortho

        modules = {m: importlib.import_module(f"triortho.{m}") for m in MODULES}
        wrappers = {}
        for namespace in [triortho, *modules.values()]:
            for attr, obj in list(vars(namespace).items()):
                if not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj):
                    continue
                if not obj.__module__.startswith("triortho."):
                    continue
                name = f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}"
                if name in UNWRAPPED:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(name, obj)
                self._patch(namespace, attr, wrappers[obj])
        for module, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[module], cls_name)
                for method in methods:
                    raw = cls.__dict__[method]
                    name = f"{module}.{method}"
                    if isinstance(raw, classmethod):
                        self._patch(cls, method, classmethod(self._wrap(name, raw.__func__)))
                    else:
                        self._patch(cls, method, self._wrap(name, raw))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def layer_metrics(self, ops: int) -> dict:
        """Per-op self times and counts, keyed as in ``metric_units``."""
        child = defaultdict(float)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            own = end - start - child[i]
            module = name.split(".", 1)[0]
            self_s[name] += own
            self_s[module] += own
            calls[name] += 1
            calls[module] += 1
        for group, members in GROUPS.items():
            self_s[group] = sum(self_s[m] for m in members)
        values = {}
        for metric in metric_units():
            if metric.endswith(".self_s"):
                values[metric] = self_s[metric[: -len(".self_s")]] / ops
            elif metric.endswith(".calls"):
                values[metric] = calls[metric[: -len(".calls")]] / ops
            elif metric in COUNTERS:
                values[metric] = self.counts[metric] / ops
        return values

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
