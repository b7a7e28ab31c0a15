"""The three benchmark workloads, driven through heckedem's public API.

Each workload is a closed loop of back-to-back passes in one process.  A
pass is a small, repeatable unit of exact verification; a *cycle* is the
fixed sequence of passes that together cover the workload once:

* ``regular-q3``: acceptance criterion 8 over GF(9).  Pass (k, c) builds
  the 8-dimensional module at b = g^k, checks its composition series and
  spins every fourth reduced seed vector starting at c.  32 passes = all 8
  values of b with all 232 seeds each.
* ``supersingular-q5``: acceptance criterion 5 over GF(25), one value of
  tau2 per pass (24 passes per cycle), plus the ``bijection`` CLI at
  q = 3, 5, 7 and ``orbits --p 11``.  Coverage steps: ``bijection`` at
  (p, f) = (3, 2) and (11, 1).
* ``algebra-generic``: ``suite_relations`` (500 random pairs) and
  ``suite_chowrep`` (100 random A2 pairs) at a per-pass seed derived from
  the run seed, one ninth of the criterion-2 length box, and the
  ``obstruction`` CLI.  Coverage step: ``verify-relations`` at seed 0.

Every step is checked right after it runs, outside the timed region,
against exact expectations (class counts, check counts, dimensions) and
against golden hashes of CLI output and spin results kept in
``golden.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

from heckedem import chowrep, cli, krep, linalg, verify, weyl
from heckedem.charrings import FieldRing
from heckedem.coeffs import build_tower

GOLDEN_PATH = Path(__file__).with_name("golden.json")


class Golden:
    """Golden values by key; in record mode unknown keys are stored."""

    def __init__(self, record: bool = False):
        self.record = record
        self.data = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}

    def match(self, key: str, value: str) -> bool:
        if self.record:
            self.data[key] = value
            return True
        return self.data.get(key) == value

    def save(self) -> None:
        GOLDEN_PATH.write_text(json.dumps(self.data, indent=1, sort_keys=True) + "\n")


class Recorder:
    """Runs steps, times their work and checks their outputs.

    A step fails if its work raises, or if its check raises or returns
    False.  ``work_s`` accumulates the timed work of the current pass.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.failures: list = []
        self.work_s = 0.0

    def step(self, name: str, work, check) -> None:
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = work()
        except Exception as exc:  # a crashing step is a failed step, not a crashed benchmark
            self.work_s += time.perf_counter() - start
            self._fail(name, f"raised {exc!r}")
            return
        self.work_s += time.perf_counter() - start
        try:
            n_checks = check(out)
        except Exception as exc:
            self._fail(name, f"check raised {exc!r}")
            return
        if n_checks is False:
            self._fail(name, "output differs from the expected values")
        else:
            self.checks += n_checks

    def _fail(self, name: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{name}: {why}")


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _rows_json(rows) -> list:
    return [[x.to_json() for x in row] for row in rows]


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def _cli_step(rec: Recorder, golden: Golden, argv, expect, key=None) -> None:
    """Run the CLI; ``expect(report)`` returns the number of checks or False.

    The golden hash is looked up under ``key``, by default the command line.
    """
    key = key or "cli " + " ".join(argv)

    def check(result):
        rc, text = result
        if rc != 0 or not golden.match(key, hashlib.sha256(text.encode()).hexdigest()):
            return False
        return expect(json.loads(text))

    rec.step(key, lambda: _run_cli(argv), check)


def _bijection_classes(q: int) -> int:
    return (q * q - q) // 2 * (q * q - 1)


def _bijection_expect(q: int):
    def expect(report):
        classes = _bijection_classes(q)
        return classes if report["bijective"] is True and report["classes"] == classes else False

    return expect


class Workload:
    name = ""
    towers: tuple = ()  # (p, f) pairs the workload builds
    cycle_len = 1
    seed_used = False

    def __init__(self, seed: int, golden: Golden):
        self.seed = seed
        self.golden = golden

    def run_pass(self, i: int, rec: Recorder) -> None:
        raise NotImplementedError

    def run_coverage(self, rec: Recorder) -> None:
        """Steps run once per run, untimed; traced runs trace them too."""


class RegularQ3(Workload):
    name = "regular-q3"
    towers = ((3, 1),)
    cycle_len = 32

    def __init__(self, seed, golden):
        super().__init__(seed, golden)
        tower = build_tower(3, 1)
        self.ring = FieldRing(tower, "ext")
        elements = [x for x in tower.ext_elements() if not x.is_zero()]
        self.bs = [tower.gen_power(k) for k in range(8)]
        zero, one = self.ring.zero, self.ring.one
        unit = [tuple(one if j == i else zero for j in range(8)) for i in range(8)]
        # the reduced seed set of criterion 8: basis lines and e_i + c e_j
        self.seeds = list(unit)
        for i in range(8):
            for j in range(i + 1, 8):
                for c in elements:
                    v = list(unit[i])
                    v[j] = c
                    self.seeds.append(tuple(v))
        self.found: dict = {}  # (k, c) -> set of spun subspaces

    def run_pass(self, i, rec):
        k, c = (i // 4) % 8, i % 4
        b, ring = self.bs[k], self.ring
        state = {}

        def structure():
            state["m8"] = chowrep.reduce_regular_at_theta((ring.zero, b), ring)
            return chowrep.semisimplify(state["m8"], b)

        def check_structure(report):
            ok = (
                report["dims"] == [2, 4, 6, 8]
                and report["all_factors_standard"] is True
                and report["eigenvectors_in_4dim_stage"] is True
                and report["semisimple"] is False
            )
            return 3 if ok else False

        rec.step(f"regular b=g^{k} structure", structure, check_structure)
        if "m8" not in state:
            return

        def spin_chunk():
            ops = state["m8"].generator_matrices()
            found = {}
            for v in self.seeds[c::4]:
                sub = linalg.spin([v], ops, ring)
                found[sub[0]] = sub
            return found

        def check_spin(found):
            self.found[(k, c)] = set(found)
            digest = _digest(sorted(json.dumps(_rows_json(rows)) for rows in found))
            return 1 if self.golden.match(f"regular-q3 spin b=g^{k} chunk={c}", digest) else False

        rec.step(f"regular b=g^{k} spin chunk {c}", spin_chunk, check_spin)
        if c != 3:
            return

        def check_chain(chain):
            found = set().union(*(self.found.get((k, cc), set()) for cc in range(4)))
            ok = {rows for rows, _ in chain} <= found and 8 in {len(rows) for rows in found}
            return 2 if ok else False

        rec.step(f"regular b=g^{k} chain", lambda: chowrep.explicit_chain(state["m8"]), check_chain)


class SupersingularQ5(Workload):
    name = "supersingular-q5"
    towers = ((5, 1), (3, 1), (7, 1), (11, 1), (3, 2))
    cycle_len = 24

    def __init__(self, seed, golden):
        super().__init__(seed, golden)
        tower = build_tower(5, 1)
        self.ring = FieldRing(tower, "ext")
        self.elements = tower.ext_elements()  # [0, g^0, g^1, ..., g^23]
        self.minus_one = -self.ring.one

    def run_pass(self, i, rec):
        k = i % self.cycle_len
        ring, zero, m1 = self.ring, self.ring.zero, self.minus_one
        tau2 = self.elements[k + 1]

        def display():
            mod = krep.reduce_at_theta((zero, tau2), ring)
            d = mod.gen_dict()
            S0 = linalg.mat_mul(linalg.mat_mul(d["U"], d["S"]), d["Uinv"])
            irreducible = krep.is_irreducible(mod)
            standard = krep.is_isomorphic(mod, krep.standard_module(zero, tau2, ring))
            return d, S0, irreducible, standard

        def check_display(out):
            d, S0, irreducible, standard = out
            ok = (
                d["S"] == ((zero, zero), (zero, m1))
                and d["U"] == ((zero, -tau2), (m1, zero))
                and S0 == ((m1, zero), (zero, zero))
                and irreducible is True
                and standard is True
            )
            return 5 if ok else False

        rec.step(f"theta display tau2=g^{k}", display, check_display)

        def sweep():
            out = []
            for tau1 in self.elements:
                faithful = krep.faithfulness_rank(krep.reduce_at_theta((tau1, tau2), ring)) == 4
                irreducible = krep.is_irreducible(krep.standard_module(tau1, tau2, ring))
                out.append((faithful, irreducible))
            return out

        def check_sweep(out):
            # tau1 = g^(j-1) squares to tau2 = g^k iff 2(j-1) = k mod q^2-1; tau1 = 0 never does
            n = len(self.elements) - 1
            expected = [True] + [(2 * (j - 1) - k) % n != 0 for j in range(1, n + 1)]
            ok = [f for f, _ in out] == expected and [r for _, r in out] == expected
            return 2 * len(expected) if ok else False

        rec.step(f"theta sweep tau2=g^{k}", sweep, check_sweep)
        for p in (3, 5, 7):
            _cli_step(rec, self.golden, ("--p", str(p), "bijection"), _bijection_expect(p))
        _cli_step(
            rec,
            self.golden,
            ("--p", "11", "orbits"),
            lambda report: report["count"] if report["count"] == (121 - 11) // 2 else False,
        )

    def run_coverage(self, rec):
        _cli_step(rec, self.golden, ("--p", "3", "--f", "2", "bijection"), _bijection_expect(9))
        _cli_step(rec, self.golden, ("--p", "11", "bijection"), _bijection_expect(11))


RELATIONS_CHECKS = 618  # 3 flavors x (2 quadratic + 16 pairs + 1 conjugation + 167 random + 20 triples)
CHOWREP_FIXED_CHECKS = 192  # determinant, 60 Anil pairs, 30 roundtrips, 100 A2 pairs, A2(1)


class AlgebraGeneric(Workload):
    name = "algebra-generic"
    towers = ((3, 1), (5, 1), (7, 1))
    cycle_len = 9
    seed_used = True

    def pass_seed(self, i: int) -> int:
        return self.seed * 100003 + i

    def run_pass(self, i, rec):
        s = self.pass_seed(i)

        def check_relations(report):
            return report["checks"] if report["passed"] is True and report["checks"] == RELATIONS_CHECKS else False

        rec.step(f"suite_relations seed={s}", lambda: verify.suite_relations(s, 500), check_relations)

        def check_chowrep(report):
            extra = report["checks"] - CHOWREP_FIXED_CHECKS
            # each nonzero random element adds an injectivity check and 4 block checks
            ok = report["passed"] is True and extra % 5 == 0 and 0 <= extra <= 500
            return report["checks"] if ok else False

        rec.step(f"suite_chowrep seed={s}", lambda: verify.suite_chowrep(s, n_random=100), check_chowrep)
        n1 = i % 9 - 4
        box = [weyl.WeylElement(n1, n2, fp) for n2 in range(-4, 5) for fp in ("e", "s")]

        def lengths():
            return [(weyl.length(w), weyl.length_bfs(w)) for w in box]

        rec.step(
            f"length oracle n1={n1}",
            lengths,
            lambda out: len(out) if all(a == b for a, b in out) else False,
        )
        # the obstruction report does not depend on the seed, so neither does its golden key
        _cli_step(rec, self.golden, ("--seed", str(s), "obstruction"), lambda report: 1, key="cli obstruction")

    def run_coverage(self, rec):
        def expect(report):
            if report["passed"] is not True:
                return False
            return sum(suite["checks"] for suite in report["suites"])

        _cli_step(rec, self.golden, ("--seed", "0", "verify-relations"), expect)


WORKLOADS = {w.name: w for w in (RegularQ3, SupersingularQ5, AlgebraGeneric)}
