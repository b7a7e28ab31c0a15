import hashlib
import importlib
import json
import pkgutil
import random
import time
from collections import Counter

import pytest

import heckedem
from heckedem import chowrep, galois, hecke, krep, linalg, verify
from heckedem.charrings import ZQ, FieldRing, SymElement
from heckedem.coeffs import build_tower
from heckedem.hecke import HeckeElement
from heckedem.weyl import WeylElement, length


def test_tally_counts_checks_and_builds_payloads_only_on_failure():
    built = []

    def payload(tag):
        def build():
            built.append(tag)
            return tag

        return build

    t = verify.Tally("demo")
    assert t.check(True, payload("passing")) is True
    assert t.check(False, payload("failing")) is False
    assert t.check(False, ("eager", 1)) is False
    assert built == ["failing"]
    assert t.report() == {
        "name": "demo",
        "passed": False,
        "checks": 3,
        "counterexamples": ["failing", ("eager", 1)],
    }
    assert verify.Tally("empty").report() == {"name": "empty", "passed": True, "checks": 0, "counterexamples": []}


def test_length_oracle_reports_every_mismatch(monkeypatch):
    monkeypatch.setattr(verify, "length_bfs", lambda w: -1)
    result = verify.suite_length_oracle()
    box = [WeylElement(n1, n2, fp) for n1 in range(-4, 5) for n2 in range(-4, 5) for fp in ("e", "s")]
    assert result["passed"] is False
    assert result["checks"] == 162
    assert result["counterexamples"] == [w.to_json() for w in box]


@pytest.mark.parametrize(
    "suite,name,checks",
    [
        (lambda: verify.suite_krep_theta(3), "krep-theta", 184),
        (lambda: verify.suite_idempotents(3), "idempotents-q3", 15),
        (lambda: verify.suite_idempotents(5), "idempotents-q5", 148),
        (lambda: verify.suite_chowrep(0, n_random=100), "chowrep", 662),
        # larger fields: q = 7 and q = 9
        (lambda: verify.suite_regular_reduction(7), "regular-reduction", 288),
        (lambda: verify.suite_regular_reduction(3, 2), "regular-reduction", 480),
        (lambda: verify.suite_krep_theta(7), "krep-theta", 4944),
        (verify.suite_obstruction, "obstruction", 91),
    ],
)
def test_suite_check_counts(suite, name, checks):
    result = suite()
    assert result == {"name": name, "passed": True, "checks": checks, "counterexamples": []}


@pytest.mark.parametrize("p,classes", [(3, 24), (5, 240), (7, 1008)])
def test_suite_bijection_counts_one_check_per_class(p, classes):
    result = verify.suite_bijection(p)
    assert (result["name"], result["passed"], result["checks"]) == (f"bijection-q{p}", True, classes)
    assert result["report"]["classes"] == result["report"]["modules"] == classes


def test_suite_bijection_fails_when_the_orbit_map_collapses(monkeypatch):
    monkeypatch.setattr(galois, "orbit_of", lambda rho: ((0, 0),))
    result = verify.suite_bijection(5)
    assert (result["passed"], result["checks"]) == (False, 240)
    assert result["report"]["bijective"] is False
    assert len(result["report"]["collision"]) == 2


def test_criterion_9_at_q121_takes_under_2_s():
    # 14640 values of b times 7260 y-classes: a walk over the classes, or
    # over b with the y-classes inside, takes several seconds here
    tower = build_tower(11, 2)
    start = time.perf_counter()
    report = galois.bijection_check(tower)
    elapsed = time.perf_counter() - start
    assert (report["classes"], report["bijective"]) == (106286400, True)
    assert elapsed < 2.0


def test_relation_suites_run_each_suite_by_its_current_name(monkeypatch):
    names = ("length_oracle", "relations", "center", "demazure", "krep", "h2_model", "obstruction", "chowrep")
    calls = []
    for name in names:
        stub = lambda *args, name=name, **kwargs: calls.append((name, args, kwargs)) or {"passed": True}  # noqa: E731
        monkeypatch.setattr(verify, f"suite_{name}", stub)
    assert verify.run_relation_suites(seed=7) == {"passed": True, "suites": [{"passed": True}] * len(names)}
    assert [name for name, _, _ in calls] == list(names)
    assert calls[1] == ("relations", (7,), {}) and calls[-1] == ("chowrep", (7,), {"n_random": 100})


def test_krep_suite_names_a_violated_extension_constraint(fresh_tables, monkeypatch):
    right = krep.rep_A_U

    def wrong(ring):
        (a, b), (c, _) = right(ring)
        return ((a, b), (c, a))  # breaks a = -d only: b, c and a are unchanged

    # rep_A reads A(q)(T_w) from a process-wide table of rep_A_U's images,
    # which fresh_tables empties before the patch and after it is undone
    monkeypatch.setattr(krep, "rep_A_U", wrong)
    result = verify.suite_krep()
    assert result["passed"] is False
    assert result["checks"] == 59
    named = [cx[1] for cx in result["counterexamples"] if cx[0] == "A(q)(U) violates an extension constraint"]
    assert named == ["a_eq_minus_d"]


def test_obstruction_checks_anil_through_its_record(fresh_tables, monkeypatch):
    # zeta1 -> xi1 in place of -xi1: S, U and zeta2 are unchanged, so only
    # US + SU = zeta1 fails, once per prime
    A = chowrep.A_NIL
    monkeypatch.setattr(chowrep, "A_NIL", krep.Demazure(A.flavor, A.cls, A.S, A.U, SymElement.xi1, A.zeta2_degree))
    result = verify.suite_obstruction()
    assert (result["checks"], result["counterexamples"]) == (
        91,
        [(p, "US + SU - (q-1)U != zeta1") for p in (3, 5, 7)],
    )


@pytest.mark.parametrize(
    "wrong,other_suite",
    [
        # the (q - 1) term on every flavor: nil and h2 get it too
        (lambda flavor, ring: ring.q - ring.one, verify.suite_obstruction),
        # no (q - 1) term on any flavor: iwahori loses it
        (lambda flavor, ring: ring.zero, verify.suite_krep),
    ],
)
def test_a_wrong_quadratic_relation_fails_counted_checks(fresh_tables, monkeypatch, wrong, other_suite):
    """Every module that binds ``hecke.q_minus_1`` reads the wrong one; the
    suites count the failures and raise nothing."""
    right = hecke.q_minus_1
    for info in pkgutil.iter_modules(heckedem.__path__):
        module = importlib.import_module(f"heckedem.{info.name}")
        if vars(module).get("q_minus_1") is right:
            monkeypatch.setattr(module, "q_minus_1", wrong)
    for result in (verify.suite_relations(0), other_suite()):
        assert result["passed"] is False
        assert result["counterexamples"]


def test_regular_reduction_reports_each_raising_b(monkeypatch):
    def non_invariant_chain(m):
        # <d1_1> is not invariant: S d1_1 = -1_2
        line = tuple(m.ring.one if i == 1 else m.ring.zero for i in range(8))
        return [linalg.rref([line])] * 4

    monkeypatch.setattr(chowrep, "explicit_chain", non_invariant_chain)
    result = verify.suite_regular_reduction(3)
    bs = [str(b) for b in build_tower(3, 1).ext_elements()[1:]]
    assert result == {
        "name": "regular-reduction",
        "passed": False,
        "checks": 8,
        "counterexamples": [(b, "chain member is not an invariant subspace") for b in bs],
    }


def scaled_first_entry(right):
    """``right`` with its (1,1) entry times the generator g over a field.

    A change by a sign, or in the b or c entries, vanishes at xi1 = 0 or in
    characteristic 3 and would leave the reductions here valid."""

    def scaled(ring):
        (a, b), (c, d) = right(ring)
        return ((a.scale(ring.tower.gen()) if ring.is_field else a, b), (c, d))

    return scaled


def test_krep_theta_builds_two_modules_per_theta(monkeypatch):
    # q = 3: 72 thetas, each one reduction and one M2(tau1, tau2); at tau1 = 0
    # the isomorphism check reuses that M2(0, tau2)
    builds = []
    build = krep._rank2_module
    monkeypatch.setattr(krep, "_rank2_module", lambda *args: builds.append(args[0]) or build(*args))
    result = verify.suite_krep_theta(3)
    assert len(builds) == 2 * 72
    assert result == {"name": "krep-theta", "passed": True, "checks": 184, "counterexamples": []}


def test_krep_theta_counts_a_reduction_that_fails_its_relations(fresh_tables, monkeypatch):
    # A(U) at theta gets g tau1 in its (1,1) entry: U^2 = tau2 + (g^2 - 1) tau1^2,
    # so every theta with tau1 != 0 fails U^2 = tau2, and tau1 = 0 passes
    monkeypatch.setattr(krep, "rep_A_U", scaled_first_entry(krep.rep_A_U))
    result = verify.suite_krep_theta(3)
    nonzero = [str(x) for x in build_tower(3, 1).ext_elements()[1:]]
    assert result == {
        "name": "krep-theta",
        "passed": False,
        "checks": 8 * (5 + 2) + 8 * 8,
        "counterexamples": [(t1, t2, "U^2 != zeta2") for t1 in nonzero for t2 in nonzero],
    }


def test_regular_reduction_counts_a_reduction_that_fails_its_relations(fresh_tables, monkeypatch):
    # at xi1' = 0, Anil(U) becomes diag(g a, -a) with a^2 = xi2'^2, so U^2 != b for every b
    monkeypatch.setattr(chowrep, "rep_Anil_U", scaled_first_entry(chowrep.rep_Anil_U))
    result = verify.suite_regular_reduction(3)
    bs = [str(b) for b in build_tower(3, 1).ext_elements()[1:]]
    assert result == {
        "name": "regular-reduction",
        "passed": False,
        "checks": 8,
        "counterexamples": [(b, "U^2 != zeta2") for b in bs],
    }


def test_chowrep_reports_one_counterexample_per_failed_block_check(monkeypatch):
    def zero_block(mat, i, j):
        zero = mat[0][0].zero(mat[0][0].ring)
        return ((zero, zero), (zero, zero))

    failed = []
    check = verify.Tally.check

    def counting_check(self, ok, failure):
        if not ok:
            failed.append(self.name)
        return check(self, ok, failure)

    monkeypatch.setattr(chowrep, "a2_block", zero_block)
    monkeypatch.setattr(verify.Tally, "check", counting_check)
    result = verify.suite_chowrep(0, n_random=100)
    assert result["checks"] == 662
    assert len(failed) == len(result["counterexamples"]) == 152
    # each failure is a nonzero part sent to a zero block: one counterexample names both conditions
    assert all(cx[3] == {"decomposes": False, "injective": False} for cx in result["counterexamples"])


def randint_random_weyl(rng, max_len=6):
    """The draw of ``verify.random_weyl`` written with randint and choice."""
    while True:
        w = WeylElement(rng.randint(-4, 4), rng.randint(-4, 4), rng.choice(("e", "s")))
        if length(w) <= max_len:
            return w


def test_random_weyl_draws_the_randint_and_choice_stream():
    for seed in range(300):
        rng, reference = random.Random(seed), random.Random(seed)
        assert [verify.random_weyl(rng) for _ in range(200)] == [randint_random_weyl(reference) for _ in range(200)]
        assert rng.random() == reference.random()


def describe_draw(x) -> str:
    terms = sorted((repr(key), repr(c)) for key, c in x.terms.items())
    return f"{type(x).__name__} {getattr(x, 'flavor', '-')} {x.ring!r} {terms}"


# the digest of the draws below as first recorded, when random_hecke,
# random_group_ring and _random_h2_q0 still built through the public
# constructors
DRAWS_DIGEST = "84bb24c28af1fd71ef4ee4a7c06d768df7ff61b5151cd291b39f6571f25c47f6"


def test_random_draws_keep_their_elements_and_their_stream():
    rings = (ZQ, FieldRing(build_tower(3, 1)))
    lines = []
    for seed in range(300):
        rng = random.Random(seed)
        for ring in rings:
            drawn = [verify.random_hecke(rng, flavor, ring) for flavor in ("iwahori", "nil", "h2")]
            drawn += [verify.random_group_ring(rng, ring), verify.random_sym(rng, ring)]
            assert all(not c.is_zero() for x in drawn for c in x.terms.values())
            lines += map(describe_draw, drawn)
        lines.append(describe_draw(verify._random_h2_q0(rng)))
        lines.append(repr(rng.random()))
    assert len(lines) == 3600
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DRAWS_DIGEST


# ---------------------------------------------------------------------------
# the payloads of the multiplicativity and normal-form round-trip checks


def shifted(right):
    """x -> right(x + 1), not multiplicative: (R(x) + 1)(R(y) + 1) = R(xy) + 1
    only when R(x) + R(y) = 0."""
    return lambda x: right(x + HeckeElement.one(x.flavor, x.ring))


def label(payload):
    return payload if isinstance(payload, str) else payload[0]


NOT_MULTIPLICATIVE = [
    (
        krep,
        "rep_A",
        lambda: verify.suite_krep(0),
        59,
        {"rep_A not multiplicative": 40, "matrix action incompatible with composition": 10},
        [
            "rep_A not multiplicative",
            {
                "flavor": "iwahori",
                "terms": [{"w": [0, 3, "s"], "coeff": [-2, 1, -2]}, {"w": [2, -4, "s"], "coeff": [0, 0, 3]}],
            },
            {
                "flavor": "iwahori",
                "terms": [{"w": [-2, -3, "s"], "coeff": [2, 3, 1]}, {"w": [-2, 0, "e"], "coeff": [-3, 3, 2]}],
            },
        ],
    ),
    (
        chowrep,
        "rep_Anil",
        lambda: verify.suite_chowrep(0, n_random=20),
        602,
        {"rep_Anil not multiplicative": 60, "A2 block": 392},
        [
            "rep_Anil not multiplicative",
            {"flavor": "nil", "terms": [{"w": [2, -4, "s"], "coeff": [2, 1]}, {"w": [2, 0, "s"], "coeff": [1, 2]}]},
            {"flavor": "nil", "terms": []},
        ],
    ),
    (
        chowrep,
        "rep_A2",
        lambda: verify.suite_chowrep(0, n_random=20),
        602,
        {"rep_A2 not multiplicative": 19, "A2(1) != Id": 1, "A2 block": 196},
        [
            "rep_A2 not multiplicative",
            {"flavor": "h2", "terms": [{"idem": 2, "w": [-1, 4, "e"], "coeff": [2, 2]}]},
            {"flavor": "h2", "terms": [{"idem": 1, "w": [2, -3, "e"], "coeff": [0, 1]}]},
        ],
    ),
    (
        hecke,
        "h2_matrix_model",
        lambda: verify.suite_h2_model(0),
        71,
        {
            "zeta1 image": 1,
            "zeta2 image": 1,
            "S^2 image nonzero": 1,
            "1 does not map to Id": 1,
            "model not multiplicative": 60,
        },
        [
            "model not multiplicative",
            {
                "flavor": "h2",
                "terms": [{"idem": 1, "w": [-2, -3, "s"], "coeff": [1]}, {"idem": 2, "w": [2, 0, "s"], "coeff": [-1]}],
            },
            {
                "flavor": "h2",
                "terms": [{"idem": 1, "w": [0, -3, "e"], "coeff": [3]}, {"idem": 2, "w": [3, 4, "e"], "coeff": [-1]}],
            },
        ],
    ),
]


@pytest.mark.parametrize(
    "module,name,suite,checks,labels,first", NOT_MULTIPLICATIVE, ids=[case[1] for case in NOT_MULTIPLICATIVE]
)
def test_multiplicativity_checks_report_each_pair(monkeypatch, module, name, suite, checks, labels, first):
    monkeypatch.setattr(module, name, shifted(getattr(module, name)))
    result = suite()
    found = result["counterexamples"]
    assert (result["checks"], len(found), dict(Counter(map(label, found)))) == (checks, sum(labels.values()), labels)
    # the first pair of the family, as drawn: (label, x.to_json(), y.to_json())
    assert json.loads(json.dumps(next(p for p in found if label(p) == first[0]))) == first


@pytest.mark.parametrize("flavor", ["iwahori", "nil"])
def test_a_recomposition_builds_zeta1_at_most_once(monkeypatch, flavor):
    builds, per_recomposition = [], []
    zeta1 = hecke.zeta1_embedded
    monkeypatch.setattr(hecke, "zeta1_embedded", lambda *args: builds.append(args) or zeta1(*args))
    recompose = verify.recompose_from_center

    def counted(*args):
        before = len(builds)
        out = recompose(*args)
        per_recomposition.append(len(builds) - before)
        return out

    monkeypatch.setattr(verify, "recompose_from_center", counted)
    t, rng = verify.Tally("roundtrips"), random.Random(0)
    verify._check_roundtrips(t, lambda: verify.random_hecke(rng, flavor), 30, flavor)
    assert (t.checks, t.failures) == (30, [])
    assert len(per_recomposition) == 30
    assert max(per_recomposition) <= 1


def test_normal_form_roundtrips_report_each_element(monkeypatch):
    right = verify.recompose_from_center
    wrong = lambda coords, flavor, ring: right(coords, flavor, ring) + HeckeElement.one(flavor, ring)
    monkeypatch.setattr(verify, "recompose_from_center", wrong)
    center = verify.suite_center(0)
    assert (center["checks"], len(center["counterexamples"])) == (112, 100)
    assert Counter(p[:2] for p in center["counterexamples"]) == {
        ("iwahori", "normal form roundtrip"): 50,
        ("nil", "normal form roundtrip"): 50,
    }
    assert json.loads(json.dumps(center["counterexamples"][0])) == [
        "iwahori",
        "normal form roundtrip",
        {
            "flavor": "iwahori",
            "terms": [{"w": [0, 3, "s"], "coeff": [-2, 1, -2]}, {"w": [2, -4, "s"], "coeff": [0, 0, 3]}],
        },
    ]
    nil = verify.suite_chowrep(0, n_random=20)
    assert (nil["checks"], len(nil["counterexamples"])) == (602, 30)
    assert all(p[0] == "nil normal form roundtrip" and len(p) == 2 for p in nil["counterexamples"])
    assert json.loads(json.dumps(nil["counterexamples"][0])) == [
        "nil normal form roundtrip",
        {
            "flavor": "nil",
            "terms": [
                {"w": [-3, -3, "e"], "coeff": [1]},
                {"w": [0, 1, "s"], "coeff": [1, 2]},
                {"w": [4, 2, "e"], "coeff": [1, 2]},
            ],
        },
    ]
