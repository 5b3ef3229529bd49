"""Spans at the boundaries between the program's modules.

A traced run replaces, in each ``meadows`` module's namespace, every
function imported from another ``meadows`` module by a wrapper that records
a span, and hands the benchmark wrapped references to the functions it
calls.  Calls made inside one module are left alone, so the millions of
internal evaluator calls stay unwrapped.  Spans are kept in memory and
written out when the run ends; the per-layer metrics are derived from them.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

LAYERS = (
    "terms", "logic", "structures", "finite_meadows",
    "vnr", "rationals", "suites", "cli",
)

# Boundary functions grouped under one per-layer metric.
CHECKS = ("structures.check_equation", "structures.check_conditional",
          "structures.check_axiom_set")
BUILDERS = ("finite_meadows.build_mdk", "finite_meadows.build_galois_field",
            "finite_meadows.build_prime_field")
TERM_PARSE = ("terms.parse_term", "terms.tokenize", "terms.parse_expr")
LOGIC_PARSE = ("logic.parse_equation", "logic.parse_conditional", "logic.parse_formula")
SAMPLERS = ("rationals.sample_check", "rationals.sample_check_conditional")
IO = ("structures.dump_structure", "structures.load_structure")
CLI_COMMANDS = ("eval", "check", "table", "encode", "expand", "decompose", "classify")


def _note_check(args, kwargs, result):
    return args[0], args[1]


def _note_homs(args, kwargs, result):
    return args[0], args[1].size, len(result)


def _note_samples(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs.get("samples", 500)


# What to keep from a call, cheaply, for the metrics derived after the run.
NOTES = {
    "structures.check_equation": _note_check,
    "structures.check_conditional": _note_check,
    "structures.check_axiom_set": lambda a, k, r: (a[0], tuple(a[1].values())),
    "structures.find_homomorphisms": _note_homs,
    "structures.product": lambda a, k, r: r.size,
    "finite_meadows.decompose": lambda a, k, r: len(r.components),
    "rationals.sample_check": _note_samples,
    "rationals.sample_check_conditional": _note_samples,
}


def _is_boundary_function(obj) -> bool:
    return (
        callable(obj)
        and not isinstance(obj, type)
        and str(getattr(obj, "__module__", "")).startswith("meadows.")
    )


class Tracer:
    """Collects spans [label, start, end, parent, op, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, fn, label: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every cross-module function reference in every layer."""
        for layer in LAYERS:
            module = importlib.import_module(f"meadows.{layer}")
            for name, obj in list(vars(module).items()):
                if not _is_boundary_function(obj):
                    continue
                home = obj.__module__.split(".", 1)[1]
                if home == layer:
                    continue
                self._patches.append((module, name, obj))
                setattr(module, name, self.wrap(obj, f"{home}.{obj.__name__}"))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patches):
            setattr(module, name, obj)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for label, start, end, parent, op, _ in self.spans:
                out.write(json.dumps([label, start, end, parent, op]) + "\n")


def boundary(tracer: Tracer | None, fn):
    """The benchmark's reference to a program function, wrapped when tracing."""
    if tracer is None:
        return fn
    return tracer.wrap(fn, f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}")


# --- per-layer metrics -------------------------------------------------------------

def _formula_shape(formula, memo: dict, ids: dict) -> tuple[int, int]:
    """(tree nodes, distinct subterms) over every side of a program formula.

    ``memo`` maps id(node) to (structural id, tree size) and ``ids`` maps a
    node's kind, name and child ids to its structural id; both are shared
    between formulas.
    """
    atoms = (*formula.premises, formula.conclusion) if hasattr(formula, "premises") else (formula,)
    sides = [side for atom in atoms for side in (atom.lhs, atom.rhs)]
    seen: set = set()
    distinct: set = set()
    stack = list(sides)
    while stack:
        node = stack[-1]
        kids = [getattr(node, f) for f in ("arg", "left", "right") if hasattr(node, f)]
        pending = [c for c in kids if id(c) not in seen]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if id(node) not in memo:
            key = (type(node).__name__, getattr(node, "name", None),
                   *(memo[id(c)][0] for c in kids))
            memo[id(node)] = (ids.setdefault(key, len(ids)),
                              1 + sum(memo[id(c)][1] for c in kids))
        distinct.add(memo[id(node)][0])
    return sum(memo[id(side)][1] for side in sides), len(distinct)


def layer_metrics(spans: list[list], rounds: int, generating_set) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one round.

    Spans with op == -1 come from the set-up and count once; the others are
    averaged over the traced rounds.  Ratios, rates and medians are taken
    over all spans.  ``generating_set`` is the program's own function,
    called after the run to count the candidate maps of each homomorphism
    search.
    """
    child_time = [0.0] * len(spans)
    for label, start, end, parent, op, note in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def weight(op):
        return 1.0 if op < 0 else 1.0 / rounds

    # Set-up and traced rounds are summed apart, so that whole counts stay whole.
    sums: dict[str, list[float]] = {}
    incl_s: dict[str, float] = {}
    for i, (label, start, end, parent, op, note) in enumerate(spans):
        acc = sums.setdefault(label, [0.0, 0.0, 0.0, 0.0])
        k = 0 if op < 0 else 1
        acc[k] += 1
        acc[2 + k] += end - start - child_time[i]
        incl_s[label] = incl_s.get(label, 0.0) + (end - start)
    calls = {label: a[0] + a[1] / rounds for label, a in sums.items()}
    self_s = {label: a[2] + a[3] / rounds for label, a in sums.items()}

    def total(table, labels):
        return sum(table.get(label, 0.0) for label in labels)

    m: dict[str, float] = {}
    for layer in LAYERS:
        mine = [label for label in calls if label.startswith(layer + ".")]
        m[f"{layer}.calls"] = total(calls, mine)
        m[f"{layer}.self_s"] = total(self_s, mine)

    # Exhaustive checks: grid cells and the shape of the formulas checked.
    cells_w, cells = 0.0, []
    shapes: dict[int, tuple[int, int]] = {}
    memo: dict = {}
    ids: dict = {}
    for label, start, end, parent, op, note in spans:
        if label not in CHECKS or note is None:  # None: the call raised
            continue
        structure, formulas = note
        if not isinstance(formulas, tuple):
            formulas = (formulas,)
        n = 0
        for f in formulas:
            n += structure.size ** len(f.variables())
            if id(f) not in shapes:
                shapes[id(f)] = _formula_shape(f, memo, ids)
        cells.append(n)
        cells_w += weight(op) * n
    m["structures.check_calls"] = total(calls, CHECKS)
    m["structures.check_self_s"] = total(self_s, CHECKS)
    m["structures.grid_cells"] = cells_w
    check_s = total(incl_s, CHECKS)
    m["structures.grid_cells_per_s"] = sum(cells) / check_s if check_s else 0.0
    m["structures.grid_cells_p50"] = float(statistics.median(cells)) if cells else 0.0
    nodes = sum(s[0] for s in shapes.values())
    distinct = sum(s[1] for s in shapes.values())
    m["logic.formula_nodes"] = nodes / len(shapes) if shapes else 0.0
    m["logic.shared_subterm_share"] = 1.0 - distinct / nodes if nodes else 0.0

    m["structures.is_zt_field_calls"] = calls.get("structures.is_zt_field", 0.0)
    m["structures.is_zt_field_self_s"] = self_s.get("structures.is_zt_field", 0.0)

    # Homomorphism search and decomposition.
    gens: dict[int, int] = {}
    candidates = found = 0.0
    homs_in_decompose = 0
    for label, start, end, parent, op, note in spans:
        if label != "structures.find_homomorphisms" or note is None:
            continue
        src, target_size, hits = note
        if id(src) not in gens:
            gens[id(src)] = len(generating_set(src))
        candidates += weight(op) * target_size ** gens[id(src)]
        found += weight(op) * hits
        if parent >= 0 and spans[parent][0] == "finite_meadows.decompose":
            homs_in_decompose += 1
    components = sum(s[5] or 0 for s in spans if s[0] == "finite_meadows.decompose")
    m["structures.homs_calls"] = calls.get("structures.find_homomorphisms", 0.0)
    m["structures.homs_self_s"] = self_s.get("structures.find_homomorphisms", 0.0)
    m["structures.hom_candidates"] = candidates
    m["structures.homs_found"] = found
    m["structures.hom_yield"] = found / candidates if candidates else 0.0
    m["finite_meadows.decompose_calls"] = calls.get("finite_meadows.decompose", 0.0)
    m["finite_meadows.decompose_self_s"] = self_s.get("finite_meadows.decompose", 0.0)
    m["finite_meadows.decompose_field_yield"] = (
        components / homs_in_decompose if homs_in_decompose else 0.0
    )

    m["finite_meadows.build_calls"] = total(calls, BUILDERS)
    m["finite_meadows.build_mdk_self_s"] = self_s.get("finite_meadows.build_mdk", 0.0)
    m["finite_meadows.build_galois_field_self_s"] = self_s.get(
        "finite_meadows.build_galois_field", 0.0)
    m["finite_meadows.classify_self_s"] = self_s.get("finite_meadows.classify_minimal", 0.0)

    m["structures.product_self_s"] = self_s.get("structures.product", 0.0)
    m["structures.product_entries"] = sum(
        weight(s[4]) * (s[5] or 0) ** 2 for s in spans if s[0] == "structures.product")
    m["structures.subalgebra_self_s"] = self_s.get("structures.subalgebra_generated", 0.0)
    m["structures.io_self_s"] = total(self_s, IO)
    m["suites.standard_battery_self_s"] = self_s.get("suites.standard_battery", 0.0)
    m["suites.derived_identity_self_s"] = self_s.get("suites.derived_identity_suite", 0.0)

    m["logic.encode_calls"] = calls.get("logic.encode_conditional", 0.0)
    m["logic.encode_self_s"] = self_s.get("logic.encode_conditional", 0.0)
    m["logic.parse_calls"] = total(calls, LOGIC_PARSE)
    m["logic.parse_self_s"] = total(self_s, LOGIC_PARSE)
    m["terms.parse_calls"] = total(calls, TERM_PARSE)
    m["terms.parse_self_s"] = total(self_s, TERM_PARSE)
    m["terms.print_self_s"] = self_s.get("terms.print_term", 0.0)

    requested = sum(weight(s[4]) * (s[5] or 0) for s in spans if s[0] in SAMPLERS)
    m["rationals.sample_calls"] = total(calls, SAMPLERS)
    m["rationals.sample_self_s"] = total(self_s, SAMPLERS)
    m["rationals.samples_requested"] = requested
    sample_s = total(incl_s, SAMPLERS)
    m["rationals.samples_per_s"] = (
        sum(s[5] or 0 for s in spans if s[0] in SAMPLERS) / sample_s if sample_s else 0.0
    )
    m["rationals.eval_self_s"] = self_s.get("rationals.eval_rational", 0.0)
    m["vnr.expand_calls"] = calls.get("vnr.expand_to_meadow", 0.0)
    m["vnr.expand_self_s"] = self_s.get("vnr.expand_to_meadow", 0.0)
    m["cli.main_calls"] = calls.get("cli.main", 0.0)
    m["cli.main_self_s"] = self_s.get("cli.main", 0.0)
    return m
