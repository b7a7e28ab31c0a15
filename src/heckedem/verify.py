"""Randomized and exhaustive verification suites.

Each suite returns a dict {"name", "passed", "checks", ...} and never
raises on mathematical failure; counterexamples are reported in the
result.  The CLI and the acceptance tests drive these.
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
    xi1_ch,
    xi2_ch,
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
from .weyl import WeylElement, length, length_bfs


# ---------------------------------------------------------------------------
# random generators


def random_weyl(rng: random.Random, max_len: int = 6) -> WeylElement:
    while True:
        w = WeylElement(rng.randint(-4, 4), rng.randint(-4, 4), rng.choice(("e", "s")))
        if length(w) <= max_len:
            return w


def random_scalar(rng: random.Random) -> GenericScalar:
    return GenericScalar([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])


def random_hecke(rng: random.Random, flavor: str, ring=ZQ, n_terms: int = 3) -> HeckeElement:
    terms = {}
    for _ in range(rng.randint(1, n_terms)):
        w = random_weyl(rng)
        key = (rng.choice((1, 2)), w) if flavor == "h2" else w
        c = _random_coeff(rng, ring)
        terms[key] = terms[key] + c if key in terms else c
    return HeckeElement(flavor, ring, terms)


def _random_coeff(rng: random.Random, ring):
    if ring is ZQ:
        return random_scalar(rng)
    return ring.tower.element([rng.randrange(ring.tower.p) for _ in range(2 * ring.tower.f)])


def _random_laurent_terms(rng: random.Random, ring, lo: int, hi: int) -> dict:
    """One to four terms with both exponents in [lo, hi]."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = (rng.randint(lo, hi), rng.randint(lo, hi))
        c = _random_coeff(rng, ring)
        terms[exp] = terms[exp] + c if exp in terms else c
    return terms


def random_group_ring(rng: random.Random, ring=ZQ) -> GroupRingElement:
    return GroupRingElement(ring, _random_laurent_terms(rng, ring, -3, 3))


def random_sym(rng: random.Random, ring=ZQ) -> SymElement:
    return SymElement(ring, _random_laurent_terms(rng, ring, 0, 4), denom=rng.randint(0, 1))


# ---------------------------------------------------------------------------
# suites


def suite_length_oracle() -> dict:
    """Closed-form length vs BFS on the box |n1|, |n2| <= 4."""
    mismatches = []
    count = 0
    for n1 in range(-4, 5):
        for n2 in range(-4, 5):
            for fp in ("e", "s"):
                w = WeylElement(n1, n2, fp)
                count += 1
                if length(w) != length_bfs(w):
                    mismatches.append(w.to_json())
    return {
        "name": "length-oracle",
        "passed": not mismatches,
        "checks": count,
        "counterexamples": mismatches,
    }


def suite_relations(seed: int = 0, n_random: int = 500) -> dict:
    """Braid and quadratic relations, all flavors, generic q.

    Exhaustive over generator pairs plus randomized length-additive pairs.
    """
    rng = random.Random(seed)
    failures = []
    checks = 0
    gens = (weyl.S, weyl.S0, weyl.U, weyl.U_INV)
    for flavor in hecke.FLAVORS:
        # quadratic relations at the affine generators
        for g, name in ((weyl.S, "S"), (weyl.S0, "S0")):
            T = T_w(flavor, ZQ, g)
            sq = T * T
            one = HeckeElement.one(flavor, ZQ)
            if flavor == "iwahori":
                expected = T.scale(ZQ.q - ZQ.one) + one.scale(ZQ.q)
            else:
                expected = one.scale(ZQ.q)
            checks += 1
            if sq != expected:
                failures.append((flavor, f"quadratic at {name}"))
        # braid/length-additive products over all generator pairs
        for g1 in gens:
            for g2 in gens:
                checks += 1
                if length(g1 * g2) == length(g1) + length(g2):
                    lhs = T_w(flavor, ZQ, g1) * T_w(flavor, ZQ, g2)
                    if lhs != T_w(flavor, ZQ, g1 * g2):
                        failures.append((flavor, "braid", g1.to_json(), g2.to_json()))
        # S0 = U S U^{-1}
        checks += 1
        lhs = T_U(flavor, ZQ) * T_S(flavor, ZQ) * T_U(flavor, ZQ, -1)
        if lhs != T_S0(flavor, ZQ):
            failures.append((flavor, "S0 != U S U^-1"))
    # randomized length-additive pairs
    per_flavor = n_random // len(hecke.FLAVORS) + 1
    for flavor in hecke.FLAVORS:
        done = 0
        while done < per_flavor:
            w1, w2 = random_weyl(rng), random_weyl(rng)
            if length(w1 * w2) != length(w1) + length(w2):
                continue
            done += 1
            checks += 1
            lhs = T_w(flavor, ZQ, w1) * T_w(flavor, ZQ, w2)
            if lhs != T_w(flavor, ZQ, w1 * w2):
                failures.append((flavor, "braid-random", w1.to_json(), w2.to_json()))
    # associativity on random triples
    for flavor in hecke.FLAVORS:
        for _ in range(20):
            x, y, z = (random_hecke(rng, flavor) for _ in range(3))
            checks += 1
            if (x * y) * z != x * (y * z):
                failures.append((flavor, "associativity"))
    return {"name": "relations", "passed": not failures, "checks": checks, "counterexamples": failures}


def suite_center(seed: int = 0, n_random: int = 50) -> dict:
    """Central elements commute; normal form over the center recomposes."""
    rng = random.Random(seed)
    failures = []
    checks = 0
    for flavor in ("iwahori", "nil"):
        z1 = zeta1_embedded(flavor, ZQ)
        z2 = zeta2_embedded(flavor, ZQ)
        for z in (z1, z2):
            for g in (T_S(flavor, ZQ), T_U(flavor, ZQ)):
                checks += 1
                if z * g != g * z:
                    failures.append((flavor, "center commutation"))
        # zeta2 = U^2
        checks += 1
        if z2 != T_U(flavor, ZQ) * T_U(flavor, ZQ):
            failures.append((flavor, "zeta2 != U^2"))
        # normal-form roundtrip
        for _ in range(n_random):
            x = random_hecke(rng, flavor)
            checks += 1
            coords = normal_form_over_center(x)
            if recompose_from_center(coords, flavor, ZQ) != x:
                failures.append((flavor, "normal form roundtrip", x.to_json()))
        # central elements have coordinates (c, 0, 0, 0)
        coords = normal_form_over_center(z1)
        checks += 1
        if coords[0] != CenterElement.monomial(ZQ, 1, 0) or any(
            not c.is_zero() for c in coords[1:]
        ):
            failures.append((flavor, "zeta1 coordinates"))
    return {"name": "center", "passed": not failures, "checks": checks, "counterexamples": failures}


def suite_demazure(seed: int = 0, n_random: int = 40, p: int = 3) -> dict:
    """Projector and quadratic identities of the four Demazure operators."""
    rng = random.Random(seed)
    tower = build_tower(p, 1)
    failures = []
    checks = 0
    rings = [ZQ, FieldRing(tower)]
    for ring in rings:
        for _ in range(n_random):
            a = random_group_ring(rng, ring)
            D = lambda x: demazure_k(x, "D")
            Dp = lambda x: demazure_k(x, "D'")
            Dq = lambda x: demazure_k(x, "D(q)")
            checks += 4
            if D(D(a)) != D(a):
                failures.append(("K", "D^2 = D"))
            if Dp(Dp(a)) != Dp(a):
                failures.append(("K", "D'^2 = D'"))
            # D(q)^2 = q - (q-1) D(q)
            lhs = Dq(Dq(a))
            rhs = a.scale(ring.q) - Dq(a).scale(ring.q - ring.one)
            if lhs != rhs:
                failures.append(("K", "D(q)^2 identity"))
            a0, a1 = decompose_k(a)
            if a0 + a1 * GroupRingElement.monomial(ring, -1, 0) != a:
                failures.append(("K", "decompose_k recomposition"))
        for _ in range(n_random):
            s = random_sym(rng, ring)
            D = lambda x: demazure_ch(x, "D")
            Dp = lambda x: demazure_ch(x, "D'")
            Dq = lambda x: demazure_ch(x, "D(q)")
            checks += 4
            if not D(D(s)).is_zero():
                failures.append(("Ch", "D^2 = 0"))
            if Dp(Dp(s)) != s:
                failures.append(("Ch", "D'^2 = id"))
            if Dq(Dq(s)) != s.scale(ring.q * ring.q):
                failures.append(("Ch", "D(q)^2 = q^2"))
            if (-D(s)) + Dp(s) != s.s_action():
                failures.append(("Ch", "(-D) + D' = s"))
            if ring.is_field:
                s0, s1 = decompose_ch(s)
                checks += 1
                if s0 + s1 * delta_ch(ring) != s:
                    failures.append(("Ch", "decompose_ch recomposition"))
    return {"name": "demazure", "passed": not failures, "checks": checks, "counterexamples": failures}


def suite_krep(seed: int = 0, n_random: int = 40) -> dict:
    """A(q) theorem identities, ring homomorphism, symbolic independence."""
    rng = random.Random(seed)
    failures = []
    checks = 0
    MS = krep.rep_A0_S(ZQ)
    MU = krep.rep_A_U(ZQ)
    one = krep.gr_identity(ZQ)
    x1 = GroupRingElement(ZQ, {(1, 0): ZQ.one, (0, 1): ZQ.one})
    x2 = GroupRingElement.monomial(ZQ, 1, 1)
    q = GroupRingElement.from_scalar(ZQ, ZQ.q)
    q1 = GroupRingElement.from_scalar(ZQ, ZQ.one - ZQ.q)
    # U^2 = xi2 Id
    checks += 1
    if linalg.mat_mul(MU, MU) != linalg.mat_scale(one, x2):
        failures.append("U^2 != xi2 Id")
    # US + (1-q)U + SU = xi1 Id
    checks += 1
    lhs = linalg.mat_add(
        linalg.mat_add(linalg.mat_mul(MU, MS), linalg.mat_scale(MU, q1)),
        linalg.mat_mul(MS, MU),
    )
    if lhs != linalg.mat_scale(one, x1):
        failures.append("US + (1-q)U + SU != xi1 Id")
    # det A(U) = -e^{(1,1)}
    checks += 1
    if linalg.det(MU) != GroupRingElement(ZQ, {(1, 1): -ZQ.one}):
        failures.append("det A(U) != -e^{(1,1)}")
    # S^2 = (q-1) S + q
    checks += 1
    if linalg.mat_mul(MS, MS) != linalg.mat_add(
        linalg.mat_scale(MS, q - GroupRingElement.one(ZQ)), linalg.mat_scale(one, q)
    ):
        failures.append("S quadratic relation fails in A0")
    # constraint system of the extension theorem
    checks += 3
    try:
        krep.check_theorem_constraints(ZQ)
    except AssertionError as exc:
        failures.append(str(exc))
    # independence determinants
    checks += 2
    det_gen = krep.independence_determinant(ZQ, at_q0=False)
    det_q0 = krep.independence_determinant(ZQ, at_q0=True)
    if det_gen.is_zero():
        failures.append("generic independence determinant vanishes")
    if det_q0.is_zero():
        failures.append("q=0 independence determinant vanishes")
    # ring homomorphism on random pairs
    for _ in range(n_random):
        x = random_hecke(rng, "iwahori")
        y = random_hecke(rng, "iwahori")
        checks += 1
        if krep.rep_A(x * y) != linalg.mat_mul(krep.rep_A(x), krep.rep_A(y)):
            failures.append(("rep_A not multiplicative", x.to_json(), y.to_json()))
    # matrix action matches operator action through decompose_k
    for _ in range(10):
        x = random_hecke(rng, "iwahori", n_terms=1)
        a = random_group_ring(rng, ZQ)
        checks += 1
        via_product = krep.apply_matrix_k(krep.rep_A(x), a)
        # compare against applying the two factors separately
        xs = T_S("iwahori", ZQ)
        lhs = krep.apply_matrix_k(krep.rep_A(xs * x), a)
        rhs = krep.apply_matrix_k(krep.rep_A0_S(ZQ), via_product)
        if lhs != rhs:
            failures.append("matrix action incompatible with composition")
    return {"name": "krep", "passed": not failures, "checks": checks, "counterexamples": failures}


def suite_krep_theta(p: int = 3, f: int = 1) -> dict:
    """Pittie-Steinberg matrices, faithfulness iff tau1^2 != tau2, and
    irreducibility of the supersingular reductions over GF(q^2)."""
    tower = build_tower(p, f)
    ring = FieldRing(tower)
    failures = []
    checks = 0
    zero, one = ring.zero, ring.one
    elements = tower.ext_elements()
    nonzero = [x for x in elements if not x.is_zero()]
    for tau2 in nonzero:
        # supersingular display at tau1 = 0
        mod = krep.reduce_at_theta((zero, tau2), ring)
        d = mod.gen_dict()
        checks += 3
        if d["S"] != ((zero, zero), (zero, -one)):
            failures.append(("PS matrix S", str(tau2)))
        if d["U"] != ((zero, -tau2), (-one, zero)):
            failures.append(("PS matrix U", str(tau2)))
        S0 = linalg.mat_mul(linalg.mat_mul(d["U"], d["S"]), d["Uinv"])
        if S0 != ((-one, zero), (zero, zero)):
            failures.append(("PS matrix S0", str(tau2)))
        # irreducibility by exhaustive spinning
        checks += 1
        if not krep.is_irreducible(mod):
            failures.append(("supersingular reduction reducible", str(tau2)))
        # isomorphic to the standard module
        checks += 1
        if not krep.is_isomorphic(mod, krep.standard_module(zero, tau2, ring)):
            failures.append(("reduction != standard module", str(tau2)))
    # faithfulness iff tau1^2 != tau2, all theta over GF(q^2)
    for tau1 in elements:
        for tau2 in nonzero:
            mod = krep.reduce_at_theta((tau1, tau2), ring)
            checks += 1
            faithful = krep.faithfulness_rank(mod) == 4
            if faithful != (tau1 * tau1 != tau2):
                failures.append(("faithfulness criterion", str(tau1), str(tau2)))
            # standard module reducible iff tau1^2 = tau2
            std = krep.standard_module(tau1, tau2, ring)
            checks += 1
            if krep.is_irreducible(std) != (tau1 * tau1 != tau2):
                failures.append(("irreducibility criterion", str(tau1), str(tau2)))
    return {"name": "krep-theta", "passed": not failures, "checks": checks, "counterexamples": failures}


def suite_obstruction(primes=(3, 5, 7)) -> dict:
    """The naive square-root obstruction and the Anil theorem conditions."""
    failures = []
    checks = 0
    report = chowrep.check_naive_obstruction()
    checks += 1
    if report["solvable"]:
        failures.append("obstruction not refuted")
    # parity oracle on sample Laurent polynomials
    import itertools

    for p in primes:
        for support in itertools.product(range(-2, 3), repeat=2):
            cand = {support[0]: 1, support[1]: max(1, p - 1)}
            checks += 1
            if not chowrep.square_has_even_extremes(cand, p):
                failures.append(("square with odd extreme degree", p, support))
    for p in primes:
        tower = build_tower(p, 1)
        ring = FieldRing(tower)
        MS = chowrep.rep_A0nil_S(ring)
        MU = chowrep.rep_Anil_U(ring)
        ident = chowrep.sym_identity(ring)
        x1, x2 = xi1_ch(ring), xi2_ch(ring)
        checks += 3
        # condition 1: S^2 = 0 at q = 0
        if any(not e.is_zero() for row in linalg.mat_mul(MS, MS) for e in row):
            failures.append((p, "S^2 != 0"))
        # condition 2: U^2 = xi2^2 Id
        if linalg.mat_mul(MU, MU) != linalg.mat_scale(ident, x2 * x2):
            failures.append((p, "U^2 != xi2^2 Id"))
        # condition 3: US + SU = -xi1 Id
        anti = linalg.mat_add(linalg.mat_mul(MU, MS), linalg.mat_mul(MS, MU))
        if anti != linalg.mat_scale(ident, -x1):
            failures.append((p, "US + SU != -xi1 Id"))
        # det Anil(U) = -xi2^2
        checks += 1
        if linalg.det(MU) != -(x2 * x2):
            failures.append((p, "det Anil(U) != -xi2^2"))
        # cross-check: Anil(U) is multiplication by eta1^2 composed with s
        checks += 1
        if chowrep.eta1_squared_s_matrix(ring) != MU:
            failures.append((p, "Anil(U) != eta1^2 * s"))
    return {"name": "obstruction", "passed": not failures, "checks": checks, "counterexamples": failures}


def suite_chowrep(seed: int = 0, n_random: int = 500, p: int = 3) -> dict:
    """Nil independence, A2 homomorphism and injectivity."""
    rng = random.Random(seed)
    tower = build_tower(p, 1)
    ring = FieldRing(tower)
    failures = []
    checks = 0
    checks += 1
    if chowrep.nil_independence_determinant(ring).is_zero():
        failures.append("nil independence determinant vanishes")
    # Anil ring homomorphism
    for _ in range(60):
        x = random_hecke(rng, "nil", ring)
        y = random_hecke(rng, "nil", ring)
        checks += 1
        if chowrep.rep_Anil(x * y) != linalg.mat_mul(chowrep.rep_Anil(x), chowrep.rep_Anil(y)):
            failures.append(("rep_Anil not multiplicative", x.to_json(), y.to_json()))
    # nil freeness roundtrip
    for _ in range(30):
        x = random_hecke(rng, "nil", ring)
        checks += 1
        coords = normal_form_over_center(x)
        if recompose_from_center(coords, "nil", ring) != x:
            failures.append(("nil normal form roundtrip", x.to_json()))
    # A2 ring homomorphism on randomized pairs
    for _ in range(n_random):
        x = random_hecke(rng, "h2", ring, n_terms=2)
        y = random_hecke(rng, "h2", ring, n_terms=2)
        checks += 1
        lhs = chowrep.rep_A2(x * y)
        rhs = linalg.mat_mul(chowrep.rep_A2(x), chowrep.rep_A2(y))
        if lhs != rhs:
            failures.append(("rep_A2 not multiplicative", x.to_json(), y.to_json()))
    # A2 sends the identity to the identity and e_i to block projectors
    ident = HeckeElement.one("h2", ring)
    mat = chowrep.rep_A2(ident)
    checks += 1
    expected = [[SymElement.zero(ring)] * 4 for _ in range(4)]
    for i in range(4):
        expected[i][i] = SymElement.one(ring)
    if mat != tuple(tuple(r) for r in expected):
        failures.append("A2(1) != Id")
    # injectivity via block decomposition on random supports
    for _ in range(100):
        x = random_hecke(rng, "h2", ring, n_terms=3)
        if x.is_zero():
            continue
        checks += 1
        mat = chowrep.rep_A2(x)
        if chowrep.a2_is_zero(mat):
            failures.append(("A2 kills a nonzero element", x.to_json()))
            continue
        # block structure: block (i, j) is the Anil image of the part of x
        # supported on idempotent i with w moving j to i
        for i in (1, 2):
            for j in (1, 2):
                part = HeckeElement(
                    "h2",
                    ring,
                    {
                        (ii, w): c
                        for (ii, w), c in x.terms.items()
                        if ii == i and weyl.act_on_index(w, j) == i
                    },
                )
                shadow = HeckeElement(
                    "nil", ring, {w: c for (_, w), c in part.terms.items()}
                )
                checks += 1
                if chowrep.a2_block(mat, i, j) != chowrep.rep_Anil(shadow):
                    failures.append(("A2 block decomposition", i, j, x.to_json()))
                # Anil is injective (independence over a domain), so a
                # nonzero part must give a nonzero block
                if not part.is_zero() and all(
                    e.is_zero() for row in chowrep.a2_block(mat, i, j) for e in row
                ):
                    failures.append(("A2 block vanishes on nonzero part", i, j))
    return {"name": "chowrep", "passed": not failures, "checks": checks, "counterexamples": failures}


def suite_h2_model(seed: int = 0, n_random: int = 60) -> dict:
    """The 2x2 matrix model of h2 at q = 0."""
    rng = random.Random(seed)
    failures = []
    checks = 0
    Z = hecke.ZRingElement
    # displayed images of the central elements
    z1 = zeta1_embedded("h2", ZQ)
    mat = hecke.h2_matrix_model(z1)
    xy = Z.gen("X") + Z.gen("Y")
    checks += 1
    if mat != ((xy, Z()), (Z(), xy)):
        failures.append("zeta1 image")
    z2 = zeta2_embedded("h2", ZQ)
    mat = hecke.h2_matrix_model(z2)
    checks += 1
    if mat != ((Z.gen("z2"), Z()), (Z(), Z.gen("z2"))):
        failures.append("zeta2 image")
    # S^2 -> 0 (the product is taken in H2(0): specialize q = 0)
    s = T_S("h2", ZQ)
    checks += 1
    if not all(e.is_zero() for row in hecke.h2_matrix_model(hecke.specialize_q0(s * s)) for e in row):
        failures.append("S^2 image nonzero")
    # e1 + e2 -> Id
    checks += 1
    one_mat = hecke.h2_matrix_model(HeckeElement.one("h2", ZQ))
    if one_mat != ((Z.const(1), Z()), (Z(), Z.const(1))):
        failures.append("1 does not map to Id")
    # multiplicativity on random q = 0 pairs
    for _ in range(n_random):
        x = _random_h2_q0(rng)
        y = _random_h2_q0(rng)
        checks += 1
        lhs = hecke.h2_matrix_model(hecke.specialize_q0(x * y))
        mx, my = hecke.h2_matrix_model(x), hecke.h2_matrix_model(y)
        rhs = linalg.mat_mul(mx, my)
        if lhs != rhs:
            failures.append(("model not multiplicative", x.to_json(), y.to_json()))
    # nonzero generic q rejected
    checks += 1
    try:
        hecke.h2_matrix_model(T_S("h2", ZQ).scale(ZQ.q))
        failures.append("generic q accepted")
    except ValueError:
        pass
    # Z-center zeta1, zeta2 commute with the generators in H2
    for z in (z1, z2):
        for g in (T_S("h2", ZQ), T_U("h2", ZQ), hecke.idem_element(ZQ, 1)):
            checks += 1
            if z * g != g * z:
                failures.append("h2 center does not commute")
    return {"name": "h2-model", "passed": not failures, "checks": checks, "counterexamples": failures}


def _random_h2_q0(rng: random.Random) -> HeckeElement:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = (rng.choice((1, 2)), random_weyl(rng, 4))
        c = GenericScalar.const(rng.randint(-3, 3))
        terms[key] = terms[key] + c if key in terms else c
    return HeckeElement("h2", ZQ, terms)


def suite_regular_reduction(p: int = 3, f: int = 1) -> dict:
    """The 8-dimensional module: composition series [2,4,6,8], four
    standard factors, non-semisimplicity; for every b in GF(q^2)^x."""
    tower = build_tower(p, f)
    ring = FieldRing(tower)
    failures = []
    checks = 0
    zero = ring.zero
    nonzero = [x for x in tower.ext_elements() if not x.is_zero()]
    for b in nonzero:
        m8 = chowrep.reduce_regular_at_theta((zero, b), ring)
        report = chowrep.semisimplify(m8, b)
        checks += 3
        if report["dims"] != [2, 4, 6, 8]:
            failures.append((str(b), "dims", report["dims"]))
        if not report["all_factors_standard"]:
            failures.append((str(b), "factor not standard"))
        if not report["eigenvectors_in_4dim_stage"]:
            failures.append((str(b), "affine eigenvectors escape the 4-dim stage"))
        # reduced-seed spinning: every found invariant subspace respects
        # the chain dimensions; the chain members themselves are found
        seeds = chowrep.reduced_spin_seeds(ring)
        found = {}
        for v in seeds:
            sub = linalg.spin([v], m8.generator_matrices(), ring)
            found[sub[0]] = sub
        dims_found = sorted({len(rows) for rows in found})
        checks += 1
        chain_rows = {c[0] for c in chowrep.explicit_chain(m8)}
        if not chain_rows <= set(found):
            failures.append((str(b), "chain member missed by reduced spinning"))
        checks += 1
        if 8 not in dims_found:
            failures.append((str(b), "whole module not generated"))
    return {
        "name": "regular-reduction",
        "passed": not failures,
        "checks": checks,
        "counterexamples": failures,
    }


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
    failures = []
    checks = 0
    lambdas = [(m1, m2) for m1 in range(n) for m2 in range(n)]
    idems = {lam: idempotent(tower, lam).as_dict() for lam in lambdas}
    for lam, e in idems.items():
        checks += 1
        if group_algebra_mul(e, e, q) != e:
            failures.append((lam, "not idempotent"))
    for lam in lambdas:
        for mu in lambdas:
            if lam >= mu:
                continue
            checks += 1
            if group_algebra_mul(idems[lam], idems[mu], q):
                failures.append((lam, mu, "not orthogonal"))
    total: dict = {}
    for e in idems.values():
        for k, c in e.items():
            total[k] = total[k] + c if k in total else c
    total = {k: c for k, c in total.items() if not c.is_zero()}
    checks += 1
    if total != {(0, 0): tower.one()}:
        failures.append("idempotents do not sum to the identity")
    orbs = orbits(tower)
    checks += 1
    if len(orbs) != (q * q - q) // 2:
        failures.append(("orbit count", len(orbs)))
    # e_gamma is idempotent for each orbit
    for orb in orbs:
        e = idempotent(tower, orb).as_dict()
        checks += 1
        if group_algebra_mul(e, e, q) != e:
            failures.append((orb, "orbit idempotent fails"))
    return {"name": f"idempotents-q{q}", "passed": not failures, "checks": checks, "counterexamples": failures}


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
