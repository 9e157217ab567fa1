"""Spans around the public functions of each epsgrass layer.

The program imports names with ``from``-imports, so a name is patched in
every module that calls it.  Each span records its self time (duration
minus the time of the traced spans it caused) and its parent; spans are
aggregated in memory per (parent, name) edge, and per name with the
inclusive time of the outermost call only, so recursion is not counted
twice.  A name that a later version of the program no longer has is
skipped, and its metrics read 0.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (span name, module, attribute path, work amount taken from (args, result))
SPANS = (
    ("cli.main", "epsgrass.cli", "main", None),
    ("expr.parse", "epsgrass.cli", "parse", None),
    ("expr.compile", "epsgrass.cli", "compile_grass", None),
    ("expr.compile", "epsgrass.cli", "compile_word_poly", None),
    ("expr.compile", "epsgrass.cli", "compile_trace_poly", None),
    ("comodule.sign_table", "epsgrass.comodule", "sign_matrix_int", None),
    ("comodule.freeness", "epsgrass.cli", "freeness_certificate", None),
    ("comodule.freeness", "epsgrass.comodule", "freeness_certificate", None),
    ("comodule.normal_form", "epsgrass.comodule", "grassmann_normal_form", None),
    ("comodule.psi", "epsgrass.comodule", "psi", None),
    ("comodule.identity_test", "epsgrass.cli", "is_identity", None),
    ("comodule.identity_test", "epsgrass.comodule", "is_identity", None),
    ("supertrace.normalize", "epsgrass.cli", "trace_normalize", None),
    ("supertrace.enumerate", "epsgrass.supertrace", "enumerate_block_basis", lambda a, r: len(r)),
    ("supertrace.enumerate", "epsgrass.supertrace", "enumerate_nested_monomials", lambda a, r: len(r)),
    ("model.eval", "epsgrass.supertrace", "model_eval", None),
    ("model.mul", "epsgrass.supertrace", "ModelElem.__mul__", None),
    ("grassmann.mul", "epsgrass.grassmann", "GrassElem.__mul__", None),
    ("grassmann.esgn", "epsgrass.cli", "esgn", None),
    ("grassmann.esgn", "epsgrass.comodule", "esgn", None),
    ("epsilon.mul", "epsgrass.epsilon", "EpsPoly.__mul__", lambda a, r: len(a[0].terms) * len(a[1].terms)),
    ("epsilon.exp_map", "epsgrass.grassmann", "exp_map", None),
    ("epsilon.exp_map", "epsgrass.supertrace", "exp_map", None),
    ("epsilon.exp_map", "epsgrass.salg", "exp_map", None),
    ("linalg.rank", "epsgrass.comodule", "rank_int", None),
    ("linalg.rank", "epsgrass.comodule", "rank_rational", None),
    ("linalg.rank", "epsgrass.comodule", "rank_mod", None),
    ("linalg.solver", "epsgrass.linalg", "SmithSolver.__init__", lambda a, r: len(a[1])),
    ("linalg.smith", "epsgrass.linalg", "smith_normal_form", lambda a, r: len(a[0]) * len(a[0][0]) if a[0] else 0),
    ("linalg.solve", "epsgrass.linalg", "SmithSolver.solve", None),
)

TOP = "-"  # the parent of a span that no traced span caused


class Tracer:
    def __init__(self):
        self.stack: list[list] = []
        self.active: dict[str, int] = {}
        self.by_name: dict[str, list] = {}  # name -> [calls, self s, inclusive s, amount]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, amount]
        self._undo: list = []

    def _wrap(self, name, fn, amount):
        stack, active = self.stack, self.active
        stats = self.by_name.setdefault(name, [0, 0.0, 0.0, 0])
        edges = self.edges

        def traced(*args, **kwargs):
            frame = [name, 0.0]  # name, time of traced children
            stack.append(frame)
            outermost = not active.get(name)
            active[name] = active.get(name, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                active[name] -= 1
                stack.pop()
                parent = stack[-1][0] if stack else TOP
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration - frame[1]
                if outermost:
                    stats[2] += duration
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0]
                edge[0] += 1
            if amount is not None:
                work = amount(args, result)
                stats[3] += work
                edge[1] += work
            return result

        return traced

    def install(self):
        for name, module_name, path, amount in SPANS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            setattr(owner, attr, self._wrap(name, fn, amount))
            self._undo.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- metrics -----------------------------------------------------------

    def calls(self, name) -> int:
        return self.by_name.get(name, [0, 0.0, 0.0, 0])[0]

    def self_s(self, name) -> float:
        return self.by_name.get(name, [0, 0.0, 0.0, 0])[1]

    def inclusive_s(self, name) -> float:
        return self.by_name.get(name, [0, 0.0, 0.0, 0])[2]

    def amount(self, name) -> int:
        return self.by_name.get(name, [0, 0.0, 0.0, 0])[3]

    def edge(self, parent, name) -> list:
        return self.edges.get((parent, name), [0, 0])

    def layer_metrics(self) -> dict:
        """The per-layer metrics of one worker; names match BENCHMARK.json."""
        solves = self.edge("supertrace.normalize", "linalg.solve")[0]
        certified = self.edge("supertrace.normalize", "linalg.solver")
        candidates = self.amount("supertrace.enumerate")
        return {
            "cli.calls": self.calls("cli.main"),
            "cli.self_s": self.self_s("cli.main"),
            "expr.compile_s": self.inclusive_s("expr.parse") + self.inclusive_s("expr.compile"),
            "comodule.sign_table_s": self.inclusive_s("comodule.sign_table"),
            "comodule.freeness_s": self.inclusive_s("comodule.freeness"),
            "comodule.normal_form_calls": self.calls("comodule.normal_form"),
            "comodule.normal_form_s": self.inclusive_s("comodule.normal_form"),
            "comodule.psi_s": self.inclusive_s("comodule.psi"),
            "comodule.identity_test_calls": self.calls("comodule.identity_test"),
            "comodule.identity_test_s": self.inclusive_s("comodule.identity_test"),
            "supertrace.normalize_calls": self.calls("supertrace.normalize"),
            "supertrace.normalize_self_s": self.self_s("supertrace.normalize"),
            "supertrace.candidates": candidates,
            "supertrace.basis_rows": certified[1],
            "supertrace.basis_yield": certified[1] / candidates if candidates else 0.0,
            "supertrace.blocks_certified": certified[0],
            "supertrace.block_hit_ratio": (solves - certified[0]) / solves if solves else 0.0,
            "model.eval_calls": self.calls("model.eval"),
            "model.eval_s": self.inclusive_s("model.eval"),
            "model.mul_calls": self.calls("model.mul"),
            "grassmann.mul_calls": self.calls("grassmann.mul"),
            "grassmann.mul_s": self.inclusive_s("grassmann.mul"),
            "grassmann.esgn_calls": self.calls("grassmann.esgn"),
            "grassmann.esgn_s": self.inclusive_s("grassmann.esgn"),
            "epsilon.mul_calls": self.calls("epsilon.mul"),
            "epsilon.mul_pairs": self.amount("epsilon.mul"),
            "epsilon.mul_s": self.inclusive_s("epsilon.mul"),
            "epsilon.exp_map_calls": self.calls("epsilon.exp_map"),
            "epsilon.exp_map_s": self.inclusive_s("epsilon.exp_map"),
            "linalg.rank_calls": self.calls("linalg.rank"),
            "linalg.rank_s": self.inclusive_s("linalg.rank"),
            "linalg.smith_calls": self.calls("linalg.smith"),
            "linalg.smith_s": self.inclusive_s("linalg.smith"),
            "linalg.smith_cells": self.amount("linalg.smith"),
            "linalg.solve_calls": self.calls("linalg.solve"),
            "linalg.solve_s": self.inclusive_s("linalg.solve"),
        }

    def spans(self) -> dict:
        """The aggregated span table, for the run's output file."""
        rows = []
        for (parent, name), (calls, amount) in sorted(self.edges.items()):
            rows.append({"parent": parent, "name": name, "calls": calls, "amount": amount})
        totals = [
            {"name": name, "calls": s[0], "self_s": s[1], "inclusive_s": s[2], "amount": s[3]}
            for name, s in sorted(self.by_name.items())
        ]
        return {"edges": rows, "totals": totals}
