"""Per-layer tracing of heckedem, installed from outside the package.

The tracer replaces public functions and methods of each src module with
wrappers while it is active and restores the originals afterwards, so the
package itself is never edited.  Two kinds of wrapper exist:

* spans, around layer entry points (``linalg.spin``, ``hecke.mul``, the
  ``verify`` suites, ``cli.main`` ...): call count, inclusive time and self
  time (inclusive time minus the time of child spans);
* counters, on field arithmetic, which runs in the millions: a plain
  integer per operation and no timing.

A function bound into several modules by ``from .x import y`` is replaced
in every module that holds it, so calls through the imported name are
traced too.  Spans are aggregated in memory; nothing is written to disk.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name); attribute "Class.method" names a method
SPANS = (
    ("coeffs", "discrete_log", "coeffs.discrete_log"),
    ("coeffs", "build_tower", "coeffs.build_tower"),
    ("weyl", "length_bfs", "weyl.length_bfs"),
    ("charrings", "GroupRingElement.__mul__", "charrings.gr_mul"),
    ("charrings", "SymElement.__mul__", "charrings.sym_mul"),
    ("charrings", "demazure_k", "charrings.demazure"),
    ("charrings", "demazure_ch", "charrings.demazure"),
    ("hecke", "HeckeElement.__mul__", "hecke.mul"),
    ("hecke", "normal_form_over_center", "hecke.normal_form"),
    ("hecke", "orbits", "hecke.orbits"),
    ("hecke", "idempotent", "hecke.idempotent"),
    ("linalg", "spin", "linalg.spin"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "mat_vec", "linalg.mat_vec"),
    ("linalg", "row_space_contains", "linalg.row_space_contains"),
    ("linalg", "solve_intertwiner", "linalg.solve_intertwiner"),
    ("linalg", "is_invertible", "linalg.is_invertible"),
    ("krep", "is_irreducible", "krep.is_irreducible"),
    ("krep", "is_isomorphic", "krep.is_isomorphic"),
    ("krep", "reduce_at_theta", "krep.reduce_at_theta"),
    ("krep", "rep_A", "krep.rep_A"),
    ("chowrep", "reduce_regular_at_theta", "chowrep.reduce_regular_at_theta"),
    ("chowrep", "semisimplify", "chowrep.semisimplify"),
    ("chowrep", "rep_A2", "chowrep.rep_A2"),
    ("chowrep", "rep_Anil", "chowrep.rep_Anil"),
    ("chowrep", "check_naive_obstruction", "chowrep.check_naive_obstruction"),
    ("galois", "bijection_check", "galois.bijection_check"),
    ("cli", "main", "cli.main"),
)

# verify suites get one span each, named verify.<suite>
SUITES = (
    "suite_length_oracle",
    "suite_relations",
    "suite_center",
    "suite_demazure",
    "suite_krep",
    "suite_h2_model",
    "suite_obstruction",
    "suite_chowrep",
)

# (class attribute, counter name): field arithmetic and scalar products
COUNTERS = (
    ("FieldElement.__mul__", "coeffs.field_mul"),
    ("FieldElement.__add__", "coeffs.field_add"),
    ("FieldElement.__sub__", "coeffs.field_add"),
    ("FieldElement.__neg__", "coeffs.field_add"),
    ("FieldElement.__init__", "coeffs.field_new"),
    ("FieldElement.inverse", "coeffs.field_inv"),
    ("FieldElement.__pow__", "coeffs.field_pow"),
    ("GenericScalar.__mul__", "coeffs.scalar_mul"),
)


class Tracer:
    """Aggregated spans and counters over the heckedem modules.

    Use as a context manager; ``reset`` clears the figures between phases.
    """

    def __init__(self):
        self._patches: list = []  # (owner, attribute, original)
        # the wrappers hold these containers, so reset clears them in place
        self.calls: dict = defaultdict(int)
        self.incl_s: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.spin_results: set = set()
        self._stack: list = []  # [name, start, child_time]
        self._depth: dict = defaultdict(int)
        self.reset()

    def reset(self) -> None:
        for container in (self.calls, self.incl_s, self.self_s, self.counts, self.spin_results, self._depth):
            container.clear()
        self.row_space_misses = 0
        self.intertwiners_found = 0
        self.classes = 0

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, observe=None):
        stack, depth = self._stack, self._depth
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [name, perf(), 0.0]
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                depth[name] -= 1
                elapsed = end - frame[1]
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - frame[2]
                if depth[name] == 0:  # inclusive time counts the outermost call only
                    tracer.incl_s[name] += elapsed
                if stack:
                    stack[-1][2] += elapsed
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_spin(self, result):
        self.spin_results.add(result[0])

    def _observe_row_space(self, result):
        if not result:
            self.row_space_misses += 1

    def _observe_intertwiner(self, result):
        if result is not None:
            self.intertwiners_found += 1

    def _observe_bijection(self, result):
        self.classes += result["classes"]

    # -- install / remove --------------------------------------------------

    def _patch(self, owner, attribute, new):
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, new)

    def _wrap_function(self, module, attribute, make):
        """Replace a module-level function in every heckedem module that binds it."""
        original = getattr(module, attribute)
        wrapped = make(original)
        for mod in _heckedem_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapped)

    def install(self) -> None:
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _heckedem_modules()}
        observers = {
            "linalg.spin": self._observe_spin,
            "linalg.row_space_contains": self._observe_row_space,
            "linalg.solve_intertwiner": self._observe_intertwiner,
            "galois.bijection_check": self._observe_bijection,
        }
        for mod_name, attribute, name in SPANS:
            module = mods[mod_name]
            observe = observers.get(name)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._span(name, cls.__dict__[method], observe))
            else:
                self._wrap_function(
                    module, attribute, lambda fn, name=name, observe=observe: self._span(name, fn, observe)
                )
        for suite in SUITES:
            name = "verify." + suite[len("suite_"):]
            self._wrap_function(mods["verify"], suite, lambda fn, name=name: self._span(name, fn))
        for attribute, name in COUNTERS:
            cls_name, method = attribute.split(".")
            cls = getattr(mods["coeffs"], cls_name)
            self._patch(cls, method, self._counter(name, cls.__dict__[method]))

    def remove(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def _heckedem_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("heckedem") and m is not None]


def layer_metrics(tracer: Tracer, pass_s: float) -> dict:
    """Per-layer figures for one traced cycle; ``pass_s`` is its total pass time."""
    calls, self_s, incl = tracer.calls, tracer.self_s, tracer.incl_s
    counts = tracer.counts
    spins = calls["linalg.spin"]
    row_checks = calls["linalg.row_space_contains"]
    out = {
        "coeffs.field_mul.calls": counts["coeffs.field_mul"],
        "coeffs.field_add.calls": counts["coeffs.field_add"],
        "coeffs.field_new.calls": counts["coeffs.field_new"],
        "coeffs.field_inv.calls": counts["coeffs.field_inv"],
        "coeffs.field_pow.calls": counts["coeffs.field_pow"],
        "coeffs.scalar_mul.calls": counts["coeffs.scalar_mul"],
        "coeffs.discrete_log.calls": calls["coeffs.discrete_log"],
        "coeffs.discrete_log.self_s": self_s["coeffs.discrete_log"],
        "weyl.length_bfs.calls": calls["weyl.length_bfs"],
        "weyl.length_bfs.self_s": self_s["weyl.length_bfs"],
        "charrings.gr_mul.calls": calls["charrings.gr_mul"],
        "charrings.gr_mul.self_s": self_s["charrings.gr_mul"],
        "charrings.sym_mul.calls": calls["charrings.sym_mul"],
        "charrings.sym_mul.self_s": self_s["charrings.sym_mul"],
        "charrings.demazure.calls": calls["charrings.demazure"],
        "charrings.demazure.self_s": self_s["charrings.demazure"],
        "hecke.mul.calls": calls["hecke.mul"],
        "hecke.mul.self_s": self_s["hecke.mul"],
        "hecke.normal_form.calls": calls["hecke.normal_form"],
        "hecke.normal_form.self_s": self_s["hecke.normal_form"],
        "hecke.orbits.self_s": self_s["hecke.orbits"],
        "hecke.idempotent.self_s": self_s["hecke.idempotent"],
        "linalg.spin.calls": spins,
        "linalg.spin.self_s": self_s["linalg.spin"],
        "linalg.spin.pass_share": incl["linalg.spin"] / pass_s if pass_s else 0.0,
        "linalg.spin.useful_ratio": len(tracer.spin_results) / spins if spins else 0.0,
        "linalg.rref.calls": calls["linalg.rref"],
        "linalg.rref.self_s": self_s["linalg.rref"],
        "linalg.mat_vec.calls": calls["linalg.mat_vec"],
        "linalg.mat_vec.self_s": self_s["linalg.mat_vec"],
        "linalg.row_space_contains.calls": row_checks,
        "linalg.row_space_contains.miss_ratio": tracer.row_space_misses / row_checks if row_checks else 0.0,
        "linalg.solve_intertwiner.calls": calls["linalg.solve_intertwiner"],
        "linalg.solve_intertwiner.self_s": self_s["linalg.solve_intertwiner"],
        "linalg.intertwiner.candidates_per_success": (
            calls["linalg.is_invertible"] / tracer.intertwiners_found if tracer.intertwiners_found else 0.0
        ),
        "krep.is_irreducible.calls": calls["krep.is_irreducible"],
        "krep.is_irreducible.self_s": self_s["krep.is_irreducible"],
        "krep.is_isomorphic.calls": calls["krep.is_isomorphic"],
        "krep.reduce_at_theta.self_s": self_s["krep.reduce_at_theta"],
        "krep.rep_A.calls": calls["krep.rep_A"],
        "krep.rep_A.self_s": self_s["krep.rep_A"],
        "chowrep.reduce_regular_at_theta.self_s": self_s["chowrep.reduce_regular_at_theta"],
        "chowrep.semisimplify.self_s": self_s["chowrep.semisimplify"],
        "chowrep.rep_A2.calls": calls["chowrep.rep_A2"],
        "chowrep.rep_A2.self_s": self_s["chowrep.rep_A2"],
        "chowrep.rep_Anil.calls": calls["chowrep.rep_Anil"],
        "chowrep.check_naive_obstruction.s": incl["chowrep.check_naive_obstruction"],
        "galois.bijection_check.self_s": self_s["galois.bijection_check"],
        "galois.classes": tracer.classes,
        "cli.main.self_s": self_s["cli.main"],
    }
    for suite in SUITES:
        name = "verify." + suite[len("suite_"):]
        out[name + ".s"] = incl[name]
    return out
