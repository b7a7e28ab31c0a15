"""Randomized and exhaustive verification suites.

Each suite counts its checks and collects its counterexamples in one
``Tally``, whose ``report()`` is the suite's result: {"name", "passed",
"checks", "counterexamples"}.  A suite never raises on mathematical
failure; counterexamples are reported in the result.  ``suite_bijection``
alone reports the bijection check's own dict under "report".  The CLI and
the acceptance tests drive these.

A check that several suites make is written once, as one loop per
family: ``_check_multiplicative`` (rep(xy) = rep(x) rep(y)),
``_check_roundtrips`` (the normal form over the center recomposes) and
``_check_record``, which checks the algebra's relations on a
``krep.Demazure`` record's own S and U and its own images of the center,
for A(q) in ``suite_krep`` and for Anil in ``suite_obstruction``.
"""

from __future__ import annotations

import random

from . import chowrep, galois, hecke, krep, linalg, weyl
from .charrings import (
    ZQ,
    FieldRing,
    GroupRingElement,
    SymElement,
    decompose_ch,
    decompose_k,
    delta_ch,
    demazure_ch,
    demazure_k,
)
from .coeffs import GenericScalar, build_tower
from .hecke import (
    HeckeElement,
    T_S,
    T_S0,
    T_U,
    T_w,
    CenterElement,
    group_algebra_mul,
    idempotent,
    normal_form_over_center,
    orbits,
    recompose_from_center,
    zeta1_embedded,
    zeta2_embedded,
)
from .linalg import accumulate
from .weyl import WeylElement, length, length_bfs


# ---------------------------------------------------------------------------
# random generators
#
# Every draw calls Random._randbelow directly: randint(a, b) is
# a + _randbelow(b - a + 1), randrange(n) is _randbelow(n) and choice(seq)
# is seq[_randbelow(len(seq))], so the stream and the elements are the same.


def random_weyl(rng: random.Random, max_len: int = 6) -> WeylElement:
    below = rng._randbelow
    while True:
        w = WeylElement(below(9) - 4, below(9) - 4, ("e", "s")[below(2)])
        if length(w) <= max_len:
            return w


def random_scalar(rng: random.Random) -> GenericScalar:
    below = rng._randbelow
    return GenericScalar([below(7) - 3 for _ in range(1 + below(3))])


def _draw_terms(rng: random.Random, n: int, draw) -> dict:
    """One to n draws of (key, coefficient), summed; a zero draw is skipped."""
    terms: dict = {}
    for _ in range(1 + rng._randbelow(n)):
        key, c = draw()
        if not c.is_zero():
            accumulate(terms, key, c)
    return terms


def random_hecke(rng: random.Random, flavor: str, ring=ZQ, n_terms: int = 3) -> HeckeElement:
    def draw():
        w = random_weyl(rng)  # drawn before the idempotent index
        return ((1 + rng._randbelow(2), w) if flavor == "h2" else w), _random_coeff(rng, ring)

    return HeckeElement._of(ring, _draw_terms(rng, n_terms, draw), flavor)


def _random_coeff(rng: random.Random, ring):
    if ring is ZQ:
        return random_scalar(rng)
    below, p = rng._randbelow, ring.tower.p
    return ring.tower.element([below(p) for _ in range(2 * ring.tower.f)])


def _random_laurent_terms(rng: random.Random, ring, lo: int, hi: int) -> dict:
    """One to four terms with both exponents in [lo, hi]."""
    below, width = rng._randbelow, hi - lo + 1
    return _draw_terms(rng, 4, lambda: ((lo + below(width), lo + below(width)), _random_coeff(rng, ring)))


def random_group_ring(rng: random.Random, ring=ZQ) -> GroupRingElement:
    return GroupRingElement._of(ring, _random_laurent_terms(rng, ring, -3, 3))


def random_sym(rng: random.Random, ring=ZQ) -> SymElement:
    return SymElement(ring, _random_laurent_terms(rng, ring, 0, 4), denom=rng._randbelow(2))


# ---------------------------------------------------------------------------
# the one report format


class Tally:
    """The report of one suite: its name, how many checks ran and the
    counterexamples of those that failed."""

    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failures = []

    def check(self, ok: bool, failure) -> bool:
        """Count one check; if it failed, record ``failure``.

        A callable ``failure`` is called only then, so a payload that is
        costly to build (``x.to_json``, ``str`` of a field element) costs
        nothing on the passing path.  Returns ``ok``.
        """
        self.checks += 1
        if not ok:
            self.failures.append(failure() if callable(failure) else failure)
        return ok

    def report(self) -> dict:
        return {
            "name": self.name,
            "passed": not self.failures,
            "checks": self.checks,
            "counterexamples": self.failures,
        }


# ---------------------------------------------------------------------------
# the checks that several suites make


def _check_multiplicative(t: Tally, rep, draw, n: int, label: str) -> None:
    """rep(xy) = rep(x) rep(y) on n pairs, each drawn x first, then y."""
    for _ in range(n):
        x = draw()
        y = draw()
        t.check(rep(x * y) == linalg.mat_mul(rep(x), rep(y)), lambda: (label, x.to_json(), y.to_json()))


def _check_roundtrips(t: Tally, draw, n: int, *label) -> None:
    """The normal form over the center recomposes to x, on n drawn x."""
    for _ in range(n):
        x = draw()
        coords = normal_form_over_center(x)
        t.check(recompose_from_center(coords, x.flavor, x.ring) == x, lambda: (*label, x.to_json()))


def _check_record(t: Tally, rep: krep.Demazure, ring, *label) -> None:
    """The presentation of the algebra on the record's own S and U over
    ring: S^2 = (q-1)S + q, U^2 = zeta2, US + SU - (q-1)U = zeta1 and det
    U = -zeta2, the center mapped as the record maps it, with the (q-1) of
    ``hecke.q_minus_1``; over a field q = 0."""
    mul, add, scale = linalg.mat_mul, linalg.mat_add, linalg.mat_scale
    S, U, one = rep.S(ring), rep.U(ring), rep.cls.one(ring)
    ident, q = linalg.mat_identity(one, 2), rep.cls.from_scalar(ring, ring.q)
    q1 = rep.cls.from_scalar(ring, hecke.q_minus_1(rep.flavor, ring))
    z1, z2 = rep.zeta1(ring), rep.cls.xi2(ring, rep.zeta2_degree)
    t.check(mul(S, S) == add(scale(S, q1), scale(ident, q)), (*label, "S^2 != (q-1)S + q"))
    t.check(mul(U, U) == scale(ident, z2), (*label, "U^2 != zeta2"))
    anti = add(add(mul(U, S), mul(S, U)), scale(U, -q1))
    t.check(anti == scale(ident, z1), (*label, "US + SU - (q-1)U != zeta1"))
    t.check(linalg.det(U) == -z2, (*label, "det U != -zeta2"))


# ---------------------------------------------------------------------------
# suites


def suite_length_oracle() -> dict:
    """Closed-form length vs BFS on the box |n1|, |n2| <= 4."""
    t = Tally("length-oracle")
    for n1 in range(-4, 5):
        for n2 in range(-4, 5):
            for fp in ("e", "s"):
                w = WeylElement(n1, n2, fp)
                t.check(length(w) == length_bfs(w), w.to_json)
    return t.report()


def suite_relations(seed: int = 0, n_random: int = 500) -> dict:
    """Braid and quadratic relations, all flavors, generic q.

    Exhaustive over generator pairs plus randomized length-additive pairs.
    """
    rng = random.Random(seed)
    t = Tally("relations")
    gens = (weyl.S, weyl.S0, weyl.U, weyl.U_INV)
    for flavor in hecke.FLAVORS:
        # quadratic relations at the affine generators
        for g, name in ((weyl.S, "S"), (weyl.S0, "S0")):
            T = T_w(flavor, ZQ, g)
            one = HeckeElement.one(flavor, ZQ)
            if flavor == "iwahori":
                expected = T.scale(ZQ.q - ZQ.one) + one.scale(ZQ.q)
            else:
                expected = one.scale(ZQ.q)
            t.check(T * T == expected, (flavor, f"quadratic at {name}"))
        # braid/length-additive products over all generator pairs; a pair
        # that is not length-additive counts as a (vacuous) check
        for g1 in gens:
            for g2 in gens:
                t.check(
                    length(g1 * g2) != length(g1) + length(g2)
                    or T_w(flavor, ZQ, g1) * T_w(flavor, ZQ, g2) == T_w(flavor, ZQ, g1 * g2),
                    lambda: (flavor, "braid", g1.to_json(), g2.to_json()),
                )
        # S0 = U S U^{-1}
        lhs = T_U(flavor, ZQ) * T_S(flavor, ZQ) * T_U(flavor, ZQ, -1)
        t.check(lhs == T_S0(flavor, ZQ), (flavor, "S0 != U S U^-1"))
    # randomized length-additive pairs
    per_flavor = n_random // len(hecke.FLAVORS) + 1
    for flavor in hecke.FLAVORS:
        done = 0
        while done < per_flavor:
            w1, w2 = random_weyl(rng), random_weyl(rng)
            if length(w1 * w2) != length(w1) + length(w2):
                continue
            done += 1
            t.check(
                T_w(flavor, ZQ, w1) * T_w(flavor, ZQ, w2) == T_w(flavor, ZQ, w1 * w2),
                lambda: (flavor, "braid-random", w1.to_json(), w2.to_json()),
            )
    # associativity on random triples
    for flavor in hecke.FLAVORS:
        for _ in range(20):
            x, y, z = (random_hecke(rng, flavor) for _ in range(3))
            t.check((x * y) * z == x * (y * z), (flavor, "associativity"))
    return t.report()


def suite_center(seed: int = 0) -> dict:
    """Central elements commute; normal form over the center recomposes."""
    rng = random.Random(seed)
    t = Tally("center")
    for flavor in ("iwahori", "nil"):
        z1 = zeta1_embedded(flavor, ZQ)
        z2 = zeta2_embedded(flavor, ZQ)
        for z in (z1, z2):
            for g in (T_S(flavor, ZQ), T_U(flavor, ZQ)):
                t.check(z * g == g * z, (flavor, "center commutation"))
        t.check(z2 == T_U(flavor, ZQ) * T_U(flavor, ZQ), (flavor, "zeta2 != U^2"))
        _check_roundtrips(t, lambda: random_hecke(rng, flavor), 50, flavor, "normal form roundtrip")
        # central elements have coordinates (c, 0, 0, 0)
        coords = normal_form_over_center(z1)
        t.check(
            coords[0] == CenterElement(ZQ, {(1, 0): ZQ.one}) and all(c.is_zero() for c in coords[1:]),
            (flavor, "zeta1 coordinates"),
        )
    return t.report()


def suite_demazure(seed: int = 0) -> dict:
    """Projector and quadratic identities of the four Demazure operators,
    over Z[q] and GF(9)."""
    rng = random.Random(seed)
    t = Tally("demazure")
    rings = [ZQ, FieldRing(build_tower(3, 1))]
    for ring in rings:
        for _ in range(40):
            a = random_group_ring(rng, ring)
            D = lambda x: demazure_k(x, "D")
            Dp = lambda x: demazure_k(x, "D'")
            Dq = lambda x: demazure_k(x, "D(q)")
            t.check(D(D(a)) == D(a), ("K", "D^2 = D"))
            t.check(Dp(Dp(a)) == Dp(a), ("K", "D'^2 = D'"))
            # D(q)^2 = q - (q-1) D(q)
            t.check(Dq(Dq(a)) == a.scale(ring.q) - Dq(a).scale(ring.q - ring.one), ("K", "D(q)^2 identity"))
            a0, a1 = decompose_k(a)
            t.check(a0 + a1 * GroupRingElement.monomial(ring, -1, 0) == a, ("K", "decompose_k recomposition"))
        for _ in range(40):
            s = random_sym(rng, ring)
            D = lambda x: demazure_ch(x, "D")
            Dp = lambda x: demazure_ch(x, "D'")
            Dq = lambda x: demazure_ch(x, "D(q)")
            t.check(D(D(s)).is_zero(), ("Ch", "D^2 = 0"))
            t.check(Dp(Dp(s)) == s, ("Ch", "D'^2 = id"))
            t.check(Dq(Dq(s)) == s.scale(ring.q * ring.q), ("Ch", "D(q)^2 = q^2"))
            t.check((-D(s)) + Dp(s) == s.s_action(), ("Ch", "(-D) + D' = s"))
            if ring.is_field:
                s0, s1 = decompose_ch(s)
                t.check(s0 + s1 * delta_ch(ring) == s, ("Ch", "decompose_ch recomposition"))
    return t.report()


def suite_krep(seed: int = 0) -> dict:
    """A(q) theorem identities, ring homomorphism, symbolic independence."""
    rng = random.Random(seed)
    t = Tally("krep")
    _check_record(t, krep.A_Q, ZQ, "A(q)")
    # the three identities of the extension theorem, one check each
    for identity, held in krep.check_theorem_constraints(ZQ).items():
        t.check(held, ("A(q)(U) violates an extension constraint", identity))
    for at_q0, label in ((False, "generic"), (True, "q=0")):
        det = krep.independence_determinant(krep.A_Q, ZQ, at_q0)
        t.check(not det.is_zero(), f"{label} independence determinant vanishes")
    _check_multiplicative(t, krep.rep_A, lambda: random_hecke(rng, "iwahori"), 40, "rep_A not multiplicative")
    # A(q)(S) acts as the operator -D_s(q): T_S x acts on a as -D(q) after x
    for _ in range(10):
        x = random_hecke(rng, "iwahori", n_terms=1)
        a = random_group_ring(rng, ZQ)
        lhs = krep.apply_matrix_k(krep.rep_A(T_S("iwahori", ZQ) * x), a)
        rhs = -demazure_k(krep.apply_matrix_k(krep.rep_A(x), a), "D(q)")
        t.check(lhs == rhs, "matrix action incompatible with composition")
    return t.report()


def suite_krep_theta(p: int = 3, f: int = 1) -> dict:
    """Pittie-Steinberg matrices, faithfulness iff tau1^2 != tau2, and
    irreducibility of the supersingular reductions over GF(q^2).  A theta
    whose check raises ValueError, as a reduction that fails its relations
    does, is one failed check."""
    tower = build_tower(p, f)
    ring = FieldRing(tower)
    t = Tally("krep-theta")
    elements = tower.ext_elements()
    for tau1 in elements:
        for tau2 in (x for x in elements if not x.is_zero()):
            try:
                _check_reduction(t, tau1, tau2, ring)
            except ValueError as exc:
                t.check(False, (str(tau1), str(tau2), str(exc)))
    return t.report()


def _check_reduction(t: Tally, tau1, tau2, ring) -> None:
    zero, one = ring.zero, ring.one
    mod = krep.reduce_at_theta((tau1, tau2), ring)
    faithful = krep.faithfulness_rank(mod) == 4  # = dim^2: also krep.is_irreducible(mod), read once
    if tau1.is_zero():  # the supersingular display
        d = mod.gen_dict()
        t.check(d["S"] == ((zero, zero), (zero, -one)), lambda: ("PS matrix S", str(tau2)))
        t.check(d["U"] == ((zero, -tau2), (-one, zero)), lambda: ("PS matrix U", str(tau2)))
        S0 = linalg.mat_mul(linalg.mat_mul(d["U"], d["S"]), d["Uinv"])
        t.check(S0 == ((-one, zero), (zero, zero)), lambda: ("PS matrix S0", str(tau2)))
        t.check(faithful, lambda: ("supersingular reduction reducible", str(tau2)))
        t.check(
            krep.is_isomorphic(mod, krep.standard_module(zero, tau2, ring)),
            lambda: ("reduction != standard module", str(tau2)),
        )
    simple = tau1 * tau1 != tau2
    t.check(faithful == simple, lambda: ("faithfulness criterion", str(tau1), str(tau2)))
    # standard module reducible iff tau1^2 = tau2
    std = krep.standard_module(tau1, tau2, ring)
    t.check(krep.is_irreducible(std) == simple, lambda: ("irreducibility criterion", str(tau1), str(tau2)))


def suite_obstruction() -> dict:
    """The naive square-root obstruction and the Anil theorem conditions,
    for p = 3, 5, 7."""
    t = Tally("obstruction")
    t.check(not chowrep.check_naive_obstruction()["solvable"], "obstruction not refuted")
    for p in (3, 5, 7):
        # parity oracle on sample Laurent polynomials
        for support in [(a, c) for a in range(-2, 3) for c in range(-2, 3)]:
            cand = {support[0]: 1, support[1]: max(1, p - 1)}
            t.check(chowrep.square_has_even_extremes(cand, p), ("square with odd extreme degree", p, support))
        ring = FieldRing(build_tower(p, 1))
        _check_record(t, chowrep.A_NIL, ring, p)
        # cross-check: Anil(U) is multiplication by eta1^2 composed with s
        t.check(chowrep.eta1_squared_s_matrix(ring) == chowrep.A_NIL.U(ring), (p, "Anil(U) != eta1^2 * s"))
    return t.report()


def suite_chowrep(seed: int = 0, n_random: int = 500) -> dict:
    """Nil independence, A2 homomorphism and injectivity, over GF(9)."""
    rng = random.Random(seed)
    ring = FieldRing(build_tower(3, 1))
    t = Tally("chowrep")
    t.check(not krep.independence_determinant(chowrep.A_NIL, ring).is_zero(), "nil independence determinant vanishes")
    nil = lambda: random_hecke(rng, "nil", ring)
    _check_multiplicative(t, chowrep.rep_Anil, nil, 60, "rep_Anil not multiplicative")
    _check_roundtrips(t, nil, 30, "nil normal form roundtrip")  # nil freeness
    h2 = lambda: random_hecke(rng, "h2", ring, n_terms=2)
    _check_multiplicative(t, chowrep.rep_A2, h2, n_random, "rep_A2 not multiplicative")
    # A2 sends the identity to the identity and e_i to block projectors
    mat = chowrep.rep_A2(HeckeElement.one("h2", ring))
    t.check(mat == linalg.mat_identity(SymElement.one(ring), 4), "A2(1) != Id")
    # injectivity via block decomposition on random supports
    for _ in range(100):
        x = random_hecke(rng, "h2", ring, n_terms=3)
        if x.is_zero():
            continue
        mat = chowrep.rep_A2(x)
        if not t.check(not linalg.is_zero(mat), lambda: ("A2 kills a nonzero element", x.to_json())):
            continue
        # block structure: block (i, j) is the Anil image of the part of x
        # supported on idempotent i with w moving j to i
        for i in (1, 2):
            for j in (1, 2):
                part = {w: c for (ii, w), c in x.terms.items() if ii == i and weyl.act_on_index(w, j) == i}
                block = chowrep.a2_block(mat, i, j)
                decomposes = block == chowrep.rep_Anil(HeckeElement("nil", ring, part))
                # Anil is injective (independence over a domain), so a
                # nonzero part must give a nonzero block
                injective = not part or not linalg.is_zero(block)
                t.check(
                    decomposes and injective,
                    lambda: ("A2 block", i, j, {"decomposes": decomposes, "injective": injective}, x.to_json()),
                )
    return t.report()


def suite_h2_model(seed: int = 0) -> dict:
    """The 2x2 matrix model of h2 at q = 0."""
    rng = random.Random(seed)
    t = Tally("h2-model")
    Z = hecke.ZRingElement
    # displayed images of the central elements
    z1 = zeta1_embedded("h2", ZQ)
    xy = Z.gen("X") + Z.gen("Y")
    t.check(hecke.h2_matrix_model(z1) == ((xy, Z()), (Z(), xy)), "zeta1 image")
    z2 = zeta2_embedded("h2", ZQ)
    t.check(hecke.h2_matrix_model(z2) == ((Z.gen("z2"), Z()), (Z(), Z.gen("z2"))), "zeta2 image")
    # S^2 -> 0 (the product is taken in H2(0): specialize q = 0)
    s = T_S("h2", ZQ)
    t.check(linalg.is_zero(hecke.h2_matrix_model(hecke.specialize_q0(s * s))), "S^2 image nonzero")
    # e1 + e2 -> Id
    one_mat = hecke.h2_matrix_model(HeckeElement.one("h2", ZQ))
    t.check(one_mat == ((Z.const(1), Z()), (Z(), Z.const(1))), "1 does not map to Id")
    # multiplicativity on random q = 0 pairs: specialize_q0 leaves them unchanged
    model = lambda x: hecke.h2_matrix_model(hecke.specialize_q0(x))
    _check_multiplicative(t, model, lambda: _random_h2_q0(rng), 60, "model not multiplicative")
    # nonzero generic q rejected
    try:
        hecke.h2_matrix_model(T_S("h2", ZQ).scale(ZQ.q))
        rejected = False
    except ValueError:
        rejected = True
    t.check(rejected, "generic q accepted")
    # Z-center zeta1, zeta2 commute with the generators in H2
    for z in (z1, z2):
        for g in (T_S("h2", ZQ), T_U("h2", ZQ), HeckeElement.basis("h2", ZQ, weyl.E, 1)):
            t.check(z * g == g * z, "h2 center does not commute")
    return t.report()


def _random_h2_q0(rng: random.Random) -> HeckeElement:
    below = rng._randbelow
    draw = lambda: ((1 + below(2), random_weyl(rng, 4)), GenericScalar.const(below(7) - 3))
    return HeckeElement._of(ZQ, _draw_terms(rng, 3, draw), "h2")


def suite_regular_reduction(p: int = 3, f: int = 1) -> dict:
    """The 8-dimensional module: composition series [2,4,6,8], four
    standard factors, non-semisimplicity read off its socle, socle V4 and
    Loewy length 2, and one vector that generates it; for every b in
    GF(q^2)^x.  A value of b whose check raises ArithmeticError, or
    ValueError as a reduction that fails its relations does, is one
    failed check."""
    tower = build_tower(p, f)
    ring = FieldRing(tower)
    t = Tally("regular-reduction")
    nonzero = [x for x in tower.ext_elements() if not x.is_zero()]
    for b in nonzero:
        try:
            _check_regular_module(t, b, ring)
        except (ArithmeticError, ValueError) as exc:
            t.check(False, (str(b), str(exc)))
    return t.report()


def _check_regular_module(t: Tally, b, ring) -> None:
    m8 = chowrep.reduce_regular_at_theta((ring.zero, b), ring)
    report = chowrep.semisimplify(m8, b)
    t.check(report["dims"] == [2, 4, 6, 8], lambda: (str(b), "dims", report["dims"]))
    t.check(report["all_factors_standard"], lambda: (str(b), "factor not standard"))
    # every composition factor is the standard module L, so every simple
    # submodule is L and the socle is the sum of the images of Hom(L, -)
    t.check(report["semisimple"] is False, lambda: (str(b), "M8 is semisimple: its socle is all of it"))
    t.check(report["eigenvectors_in_4dim_stage"], lambda: (str(b), "socle != V4"))
    # the second layer of the socle series: M8 over its computed socle is
    # semisimple, so the Loewy length is 2
    L = report["standard"]
    top = chowrep.quotient_module(m8, report["chain"][3], report["socle"])
    t.check(len(chowrep.socle(top, L)[0]) == top.dim, lambda: (str(b), "M8/socle not semisimple: Loewy length > 2"))
    # d1_1 + d1_2 generates the whole module
    e = linalg.mat_identity(ring.one, 8)
    witness = tuple(x + y for x, y in zip(e[1], e[5]))
    spun = linalg.spin([witness], m8.generator_matrices(), ring)
    t.check(len(spun[0]) == 8, lambda: (str(b), "d1_1 + d1_2 does not generate M8"))


def suite_bijection(p: int, f: int = 1) -> dict:
    tower = build_tower(p, f)
    report = galois.bijection_check(tower)
    q = tower.q
    expected = (q * q - q) // 2 * (q * q - 1)
    passed = (
        report["bijective"]
        and report["classes"] == expected
        and report["orbit_counts"]["total"] == (q * q - q) // 2
    )
    return {"name": f"bijection-q{q}", "passed": passed, "checks": report["classes"], "report": report}


def suite_idempotents(p: int, f: int = 1) -> dict:
    """e_lambda orthogonal idempotents summing to 1 in E[T]; orbit count."""
    tower = build_tower(p, f)
    q = tower.q
    n = q - 1
    t = Tally(f"idempotents-q{q}")
    lambdas = [(m1, m2) for m1 in range(n) for m2 in range(n)]
    idems = {lam: idempotent(tower, (lam,)) for lam in lambdas}
    for lam, e in idems.items():
        t.check(group_algebra_mul(e, e, q) == e, (lam, "not idempotent"))
    for lam in lambdas:
        for mu in lambdas:
            if lam < mu:
                t.check(not group_algebra_mul(idems[lam], idems[mu], q), (lam, mu, "not orthogonal"))
    total: dict = {}
    for e in idems.values():
        for k, c in e.items():
            accumulate(total, k, c)
    t.check(total == {(0, 0): tower.one()}, "idempotents do not sum to the identity")
    orbs = orbits(tower)
    t.check(len(orbs) == (q * q - q) // 2, ("orbit count", len(orbs)))
    # e_gamma is idempotent for each orbit
    for orb in orbs:
        e = idempotent(tower, orb)
        t.check(group_algebra_mul(e, e, q) == e, (orb, "orbit idempotent fails"))
    return t.report()


ALL_SUITES = (
    ("length-oracle", lambda seed: suite_length_oracle()),
    ("relations", lambda seed: suite_relations(seed)),
    ("center", lambda seed: suite_center(seed)),
    ("demazure", lambda seed: suite_demazure(seed)),
    ("krep", lambda seed: suite_krep(seed)),
    ("h2-model", lambda seed: suite_h2_model(seed)),
    ("obstruction", lambda seed: suite_obstruction()),
    ("chowrep", lambda seed: suite_chowrep(seed, n_random=100)),
)


def run_relation_suites(seed: int = 0) -> dict:
    suites = [fn(seed) for _, fn in ALL_SUITES]
    return {"passed": all(s["passed"] for s in suites), "suites": suites}
