"""Verification suites: quantitative checks run against the engine.

Each suite produces a deterministic report of (id, expected, computed)
records.  Records carry a status: `pass`/`fail` for asserted checks,
`report` for measured values that are printed but not asserted, and `skip`
for degenerate cases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from . import fock
from .basis import basis_words, dim_component
from .rewrite import normal_form
from .signature import (
    Signature,
    SignatureError,
    make_signature,
    pairing,
    weight_neg,
)
from .words import (
    FreeElement,
    Gen,
    Prod,
    binomial,
    evaluate,
    gen_element,
    product,
)


@dataclass
class CheckRecord:
    id: str
    expected: str
    computed: str
    status: str  # pass | fail | report | skip

    @property
    def passed(self) -> bool:
        return self.status != "fail"


@dataclass
class SuiteReport:
    suite: str
    checks: list = field(default_factory=list)

    def add(self, id: str, expected, computed, ok=None, status=None):
        if status is None:
            status = "pass" if ok else "fail"
        self.checks.append(CheckRecord(id, str(expected), str(computed), status))

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def counts(self):
        out = {"pass": 0, "fail": 0, "report": 0, "skip": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def render_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for c in self.checks:
            lines.append(f"  [{c.status}] {c.id}: expected {c.expected}; computed {c.computed}")
        counts = self.counts()
        verdict = "PASS" if self.all_pass else "FAIL"
        lines.append(
            f"result: {verdict} ({counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['report']} report, {counts['skip']} skip)"
        )
        return "\n".join(lines)

    def render_machine(self) -> str:
        """One record per check, byte for byte `json.dumps(record, sort_keys=True)`."""
        suite = encode_basestring_ascii(self.suite)
        return "\n".join(
            _RECORD
            % (
                encode_basestring_ascii(c.computed),
                encode_basestring_ascii(c.expected),
                encode_basestring_ascii(c.id),
                "true" if c.passed else "false",
                encode_basestring_ascii(c.status),
                suite,
            )
            for c in self.checks
        )


# The machine record of a check: its keys in the sorted order of json.dumps(..., sort_keys=True).
_RECORD = '{"computed": %s, "expected": %s, "id": %s, "pass": %s, "status": %s, "suite": %s}'


# --- quantitative Dong check --------------------------------------------------


def dong_locality(sig: Signature, a: int, b: int, c: int, k: int) -> int:
    """Closed form for the locality order of c against b [N(a,b)-k-1] a."""
    nac = sig.n(a, c)
    nbc = sig.n(b, c)
    if nbc > 0 or k <= -nbc:
        return nac + nbc + k
    return nac


def verify_dong(sig: Signature, k_max: int = 4) -> SuiteReport:
    """Compare the closed form with brute-force locality in the lattice algebra."""
    report = SuiteReport("dong")
    names = sig.generators
    units = [sig.unit_weight(c) for c in range(sig.size)]
    for a, alpha in enumerate(units):
        for b, beta in enumerate(units):
            # y_k = v_beta [N(a,b)-k-1] v_alpha does not depend on c: one scan of y_k serves every c
            scans = []
            for k in range(k_max + 1):
                expected = [dong_locality(sig, a, b, c, k) for c in range(sig.size)]
                queries = [(gamma, e - 1) for gamma, e in zip(units, expected)]
                scans.append((expected, fock.vacuum_product_orders(sig, beta, sig.n(a, b) - k - 1, alpha, queries)))
            for c in range(sig.size):
                for k, (expected, orders) in enumerate(scans):
                    # the product is +-S_k(b) v_(a+b) with k >= 0, never 0, so orders is a list
                    true_order = orders[c]
                    if true_order is None:
                        true_order = f"< {expected[c]}"
                    cid = f"{names[a]},{names[b]},{names[c]},k={k}"
                    report.add(cid, expected[c], true_order, true_order == expected[c])
    return report


# --- locality function ---------------------------------------------------------


def _tree_shapes(nleaves: int):
    if nleaves == 1:
        yield None
        return
    for i in range(1, nleaves):
        for left in _tree_shapes(i):
            for right in _tree_shapes(nleaves - i):
                yield (i, left, right)


def _build_expr(shape, gens, modes, offset=0):
    if shape is None:
        return Gen(gens[offset]), 1
    lsize, lshape, rshape = shape
    left, lused = _build_expr(lshape, gens, modes, offset)
    right, rused = _build_expr(rshape, gens, modes, offset + lused)
    return Prod(left, modes[offset + lused - 1], right), lused + rused


def verify_locfun(sig: Signature, lengths=(2, 3, 4)) -> SuiteReport:
    """Exhaustively confirm the maximal nonzero conformal mode sum.

    Scans every parenthesization, generator tuple and mode tuple with entries
    in [0, S+1]; the computed value is the largest mode sum whose normal form
    is nonzero.
    """
    for row in sig.locality:
        if any(x < 0 for x in row):
            raise SignatureError("locality function requires nonnegative locality bounds")
    maxn = max(max(row) for row in sig.locality)
    report = SuiteReport("locfun")
    for l in lengths:
        s_formula = l * (l - 1) // 2 * maxn - l + 1
        cap = s_formula + 1
        shapes = list(_tree_shapes(l))
        gen_tuples = list(itertools.product(range(sig.size), repeat=l))
        nonzero_totals = (
            total
            for total in range((l - 1) * cap, -1, -1)
            for modes in _compositions(total, l - 1, cap)
            for shape, gens in itertools.product(shapes, gen_tuples)
            if not normal_form(sig, evaluate(sig, _build_expr(shape, gens, modes)[0])).result.is_zero()
        )
        computed = next(nonzero_totals, None)
        if computed is None:
            # a negative bound predicts that every conformal monomial vanishes
            report.add(f"l={l}", s_formula, "none (all monomials vanish)", s_formula < 0)
        else:
            report.add(f"l={l}", s_formula, computed, computed == s_formula)
    return report


def _compositions(total, slots, cap):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, cap), -1, -1):
        for rest in _compositions(total - first, slots - 1, cap):
            yield (first,) + rest


# --- lattice presentation ------------------------------------------------------


def _invert(mat):
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _check_equal(report: SuiteReport, sig: Signature, id: str, expected, computed):
    """A pass/fail record that two Fock elements are equal, both printed."""
    report.add(id, fock.format_fock(sig, expected), fock.format_fock(sig, computed), computed == expected)


def verify_presentation(sig: Signature) -> SuiteReport:
    """Check the presentation relations of the lattice algebra built on sig.

    sig carries N = -Gram, so sig.gram recovers the lattice form.  Also
    checks the corresponding identities of the free algebra over the doubled
    generator set via the embedding, and reports the Virasoro products when
    the form is nondegenerate.
    """
    report = SuiteReport("presentation")
    r = sig.size
    names = sig.generators
    vac = fock.vacuum_element(sig)
    signed = [(s, i) for i in range(r) for s in (1, -1)]

    def charge(s, i):
        w = sig.unit_weight(i)
        return w if s == 1 else weight_neg(w)

    def label(s, i):
        return names[i] if s == 1 else "-" + names[i]

    def atil_word(ch):
        norm = pairing(sig, ch, ch)
        return ((ch, norm - 2), (weight_neg(ch), -1))

    def atil_elem(ch):
        return fock.charge_act(sig, ch, -1, vac)

    for (s1, i1) in signed:
        a = charge(s1, i1)
        wa = atil_word(a)
        for (s2, i2) in signed:
            b = charge(s2, i2)
            form = pairing(sig, a, b)
            pair = f"{label(s1, i1)},{label(s2, i2)}"
            ab = atil_elem(b)
            _check_equal(report, sig, f"(i) {pair} mode 0", fock.FOCK_ZERO, fock.product_word(sig, wa, 0, ab))
            _check_equal(report, sig, f"(i) {pair} mode 1", vac.scale(form), fock.product_word(sig, wa, 1, ab))
            vb = fock.vacuum_element(sig, b)
            _check_equal(report, sig, f"(ii) {pair}", vb.scale(form), fock.product_word(sig, wa, 0, vb))
        va = fock.vacuum_element(sig, a)
        lhs = fock.product_word(sig, wa, -1, va)
        _check_equal(report, sig, f"(iv) {label(s1, i1)}", fock.translate(sig, va), lhs)

    for i in range(r):
        a = sig.unit_weight(i)
        norm = pairing(sig, a, a)
        lhs = fock.vacuum_product(sig, a, norm - 1, weight_neg(a))
        _check_equal(report, sig, f"(iii) {names[i]}", vac, lhs)
        lhs = fock.vacuum_product(sig, weight_neg(a), norm - 1, a)
        _check_equal(report, sig, f"(qs) {names[i]}", vac, lhs)

    _presentation_free_identities(sig, report)
    _virasoro_checks(sig, report)
    return report


def _presentation_free_identities(sig: Signature, report: SuiteReport):
    """The free-algebra identities behind relations (i), (ii), (iv).

    Built over the doubled generator set (one barred copy per generator,
    with the form negated across the blocks) and verified through the
    embedding into the corresponding lattice algebra.
    """
    r = sig.size
    gram = [[sig.gram(i, j) for j in range(r)] for i in range(r)]
    names = sig.generators
    doubled_names = list(names) + [n + "_" for n in names]
    loc = [[0] * (2 * r) for _ in range(2 * r)]
    for i in range(r):
        for j in range(r):
            loc[i][j] = -gram[i][j]
            loc[i][j + r] = gram[i][j]
            loc[i + r][j] = gram[i][j]
            loc[i + r][j + r] = -gram[i][j]
    sigf = make_signature(doubled_names, loc)

    def x_elem(s, i):
        return gen_element(i if s == 1 else i + r)

    def norm(i):
        return gram[i][i]

    def kh(s, i):
        xa = x_elem(s, i)
        xm = x_elem(-s, i)
        return (
            product(sigf, xa, norm(i) - 1, xm),
            product(sigf, xa, norm(i) - 2, xm),
        )

    signed = [(s, i) for i in range(r) for s in (1, -1)]
    for (s1, i1) in signed:
        ka, ha = kh(s1, i1)
        for (s2, i2) in signed:
            kb, hb = kh(s2, i2)
            form = s1 * s2 * gram[i1][i2]
            pair = f"{'-' if s1 < 0 else ''}{names[i1]},{'-' if s2 < 0 else ''}{names[i2]}"
            for k in (0, 1):
                lhs = fock.embed(sigf, product(sigf, ha, k, hb))
                rhs = fock.embed(sigf, product(sigf, ka, k - 2, kb)).scale(form)
                _check_equal(report, sigf, f"(idF1) {pair} k={k}", rhs, lhs)
            xb = x_elem(s2, i2)
            lhs = fock.embed(sigf, product(sigf, ha, 0, xb))
            rhs = fock.embed(sigf, product(sigf, ka, -1, xb)).scale(form)
            _check_equal(report, sigf, f"(idF2) {pair}", rhs, lhs)
        xa = x_elem(s1, i1)
        lhs = fock.embed(sigf, product(sigf, ha, -1, xa))
        rhs = fock.embed(
            sigf,
            product(sigf, xa, -2, ka) + product(sigf, ka, -2, xa).scale(s1 * s1 * gram[i1][i1]),
        )
        _check_equal(report, sigf, f"(idF3) {'-' if s1 < 0 else ''}{names[i1]}", rhs, lhs)


def _virasoro_checks(sig: Signature, report: SuiteReport):
    r = sig.size
    gram = [[sig.gram(i, j) for j in range(r)] for i in range(r)]
    inv = _invert(gram)
    if inv is None:
        report.add("virasoro", "nondegenerate form", "degenerate form", status="skip")
        return
    # omega = 1/2 sum_ij (G^-1)_ij h_i(-1) h_j(-1) v_0
    vac = fock.vacuum_element(sig)
    omega = fock.FOCK_ZERO
    for i in range(r):
        for j in range(r):
            omega = omega + fock.heis_act(sig, i, -1, fock.heis_act(sig, j, -1, vac)).scale(Fraction(inv[i][j], 2))

    lhs = fock.product_state(sig, omega, 0, omega)
    _check_equal(report, sig, "omega [0] omega = D omega", fock.translate(sig, omega), lhs)
    _check_equal(report, sig, "omega [1] omega = 2 omega", omega.scale(2), fock.product_state(sig, omega, 1, omega))
    _check_equal(report, sig, "omega [2] omega = 0", fock.FOCK_ZERO, fock.product_state(sig, omega, 2, omega))
    lhs = fock.product_state(sig, omega, 3, omega)
    report.add(
        "omega [3] omega (central scalar, reported)",
        "scalar multiple of v[0]",
        fock.format_fock(sig, lhs),
        status="report",
    )

    samples = [fock.vacuum_element(sig, sig.unit_weight(0))]
    samples.append(fock.heis_act(sig, 0, -2, vac))
    if r > 1:
        samples.append(
            fock.heis_act(sig, 1, -1, fock.vacuum_element(sig, weight_neg(sig.unit_weight(0))))
        )
    for idx, x in enumerate(samples):
        lhs = fock.product_state(sig, omega, 0, x)
        _check_equal(report, sig, f"omega [0] sample{idx} = D sample{idx}", fock.translate(sig, x), lhs)
        d2 = fock.state_deg2(sig, next(iter(x.terms)))
        lhs = fock.product_state(sig, omega, 1, x)
        _check_equal(report, sig, f"omega [1] sample{idx} = deg * sample{idx}", x.scale(Fraction(d2, 2)), lhs)


# --- boson-fermion suite --------------------------------------------------------


FERMION_SIG = make_signature(["a"], [[-1]])

# Resolved sign of the charged-vacuum coefficient formula: applying the
# mode-n coefficient of p_m to the charge-1 vacuum yields
# (-1)^(m+1) D^((m-n)) v_1 for m >= n (and 0 otherwise).  The printed form
# with (-1)^m contradicts p_0 = -atil, which pure Heisenberg arithmetic
# forces; see the pm-sign report rows.
def _flp_sign(m: int) -> int:
    return -1 if m % 2 == 0 else 1


@lru_cache(maxsize=None)
def _partitions_at_most(n: int, k: int) -> int:
    if n == 0:
        return 1
    if k == 0 or n < 0:
        return 0
    return _partitions_at_most(n - k, k) + _partitions_at_most(n, k - 1)


def _p_word(m: int):
    return (((-1,), -m - 1), ((1,), -1))


def _p_elem(sig, m: int):
    return fock.vacuum_product(sig, (-1,), -m - 1, (1,))


def verify_boson_fermion(k_max: int = 4, d_max: int = 6) -> SuiteReport:
    """Boson-fermion checks in the rank-one odd lattice algebra."""
    sig = FERMION_SIG
    report = SuiteReport("boson-fermion")
    vac = fock.vacuum_element(sig)
    atil = fock.heis_act(sig, 0, -1, vac)

    # Heisenberg and Virasoro generators
    _check_equal(report, sig, "p0 = -atil", atil.scale(-1), _p_elem(sig, 0))
    rhs = fock.heis_act(sig, 0, -1, atil).scale(Fraction(1, 2)) - fock.translate(sig, atil).scale(
        Fraction(1, 2)
    )
    _check_equal(report, sig, "p1 = 1/2 atil[-1]atil - 1/2 D atil", rhs, _p_elem(sig, 1))

    # multiplication table p_m [k] p_n
    for m in range(3):
        for n in range(3):
            pn = _p_elem(sig, n)
            for k in range(0, m + n + 3):
                lhs = fock.product_word(sig, _p_word(m), k, pn)
                rhs = fock.FOCK_ZERO
                idx = m + n - k
                if idx >= 0:
                    rhs = rhs + _p_elem(sig, idx).scale(binomial(idx, m))
                for s in range(0, m - k + 1):
                    jdx = m + n - k - s
                    coeff = binomial(jdx, n)
                    if (k + s) & 1:
                        coeff = -coeff
                    rhs = rhs - fock.translate(sig, _p_elem(sig, jdx), s).scale(coeff)
                if k == m + n + 1:
                    rhs = rhs + vac.scale(-1 if m & 1 else 1)
                cid = f"p{m} [k={k}] p{n}"
                if k <= m + n:
                    _check_equal(report, sig, cid, rhs, lhs)
                else:
                    # negative indices enter the printed table here (taken as
                    # zero); reported without asserting
                    report.add(
                        cid + " (outside table domain)",
                        fock.format_fock(sig, rhs),
                        fock.format_fock(sig, lhs),
                        status="report",
                    )

    # coefficient action on the charge-one vacuum
    v1 = fock.vacuum_element(sig, (1,))
    for m in range(5):
        for n in range(0, m + 3):
            lhs = fock.product_word(sig, _p_word(m), n, v1)
            if n <= m:
                rhs = fock.translate(sig, v1, m - n).scale(_flp_sign(m))
            else:
                rhs = fock.FOCK_ZERO
            _check_equal(report, sig, f"p{m}({n}) v1", rhs, lhs)
    report.add(
        "p_m(n) v1 sign convention",
        "(-1)^m as printed",
        "(-1)^(m+1) measured; printed form contradicts p0 = -atil",
        status="report",
    )

    # graded dimensions against an independent bounded-partition count
    for k in range(1, k_max + 1):
        for d in range(0, d_max + 1):
            expected = _partitions_at_most(d, k)
            computed = dim_component(sig, (k,), k * k + 2 * d)
            report.add(f"dim F({k}) d={d}", expected, computed, expected == computed)

    # stability of the embedded free algebra under the coefficients
    lam = (1,)
    for (m, n) in ((1, 0), (2, 0), (2, 1), (1, 1)):
        for d2 in (1, 3, 5):
            words = basis_words(sig, lam, d2)
            target_d2 = d2 + 2 * (m - n)
            span = [fock.embed(sig, FreeElement({w: 1})) for w in basis_words(sig, lam, target_d2)]
            images = [fock.product_word(sig, _p_word(m), n, fock.embed(sig, FreeElement({w: 1}))) for w in words]
            # the images lie in the span exactly when adding them leaves its rank unchanged
            ok = fock.rank(span + images) == fock.rank(span)
            report.add(
                f"p{m}({n}) preserves embedded algebra at d2={d2}",
                "image in embedded component",
                "yes" if ok else "no",
                ok,
            )
    return report
