"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them on success). Every comparison is
exact; the timed criteria also assert their runtime budgets.
"""

import random
import time
from fractions import Fraction
from math import gcd

from tunnelslopes import (
    INFINITY,
    ResidueSlope,
    Target,
    TunnelKind,
    TunnelParams,
    change_of_basis,
    cf_eval,
    check_uniqueness,
    enumerate_even_cfs,
    even_cf_expand,
    linking_number,
    make_form,
    mirror,
    random_word_dictionary_check,
    residue_of,
    st_convert,
    st_convert_via_matrix,
    two_bridge_slopes,
    validate,
    word_product,
)
from tunnelslopes.cli import main


def record(name, ok, elapsed=None):
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"{'PASS' if ok else 'FAIL'}: {name}{suffix}")
    assert ok, name


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def sample_odd_slopes(count, seed, bound=10**6):
    rng = random.Random(seed)
    samples = []
    while len(samples) < count:
        q = rng.randint(-bound, bound) | 1
        p = rng.randint(1, bound)
        if gcd(abs(q), p) == 1:
            samples.append(Fraction(q, p))
    return samples


def test_reference_output_convert(capsys):
    start = time.perf_counter()
    ok = True
    for arg, want in [("55", "-55\n"), ("(59/35)", "-299/35\n"), ("(-299/35)", "59/35\n")]:
        code, out = run_cli(capsys, "convert", arg)
        ok = ok and code == 0 and out == want
    code, out = run_cli(capsys, "convert-range", "100102", "17255", "17265")
    ok = ok and code == 0 and out == (
        "17255/100102, -2843767/100102\n"
        "17257/100102, -6541753/100102\n"
        "17259/100102, 345051565/100102\n"
        "17261/100102, 5593835/100102\n"
        "17263/100102, 1775313/100102\n"
        "17265/100102, 158447/100102\n"
    )
    elapsed = time.perf_counter() - start
    record("reference output (convert), byte-for-byte under 1 s", ok and elapsed < 1.0, elapsed)


def test_reference_output_slopes(capsys):
    start = time.perf_counter()
    expected = {
        "(33/19)": "[ 1/3 ], 3, 5/3\n",
        "(64793/31710)": "[ 2/3 ], -3/2, 3, 3, 3, 3, 3, 7/3, 3, 3, 3, 3, 49/24\n",
        "(3860981/2689048)": "[ 13/27 ], 3, 3, 3, 5/3, 3, 7/3, 15/8, -5/3, -1, -3\n",
        "(5272967/2616517)": "[ 5/9 ], 11/5, 21/10, -23/11, -131/66\n",
    }
    ok = True
    for arg, want in expected.items():
        code, out = run_cli(capsys, "slopes", arg)
        ok = ok and code == 0 and out == want
    elapsed = time.perf_counter() - start
    record("reference output (slopes), byte-for-byte under 1 s", ok and elapsed < 1.0, elapsed)


def test_involution_and_modular_law():
    start = time.perf_counter()
    ok = True
    for x in sample_odd_slopes(10**4, seed=20260808):
        y = st_convert(x)
        if y.denominator != x.denominator:
            ok = False
            break
        if (x.numerator * y.numerator + 1) % x.denominator != 0:
            ok = False
            break
        if st_convert(y) != x:
            ok = False
            break
    elapsed = time.perf_counter() - start
    record("involution and modular law on 10^4 seeded slopes under 30 s", ok and elapsed < 30.0, elapsed)


def test_route_equivalence():
    start = time.perf_counter()
    ok = True
    for x in sample_odd_slopes(10**4, seed=20260808):
        basis = change_of_basis(x)
        inverse = basis.inverse()
        if basis.determinant() != 1 or inverse.determinant() != 1:
            ok = False
            break
        if st_convert(x) != st_convert_via_matrix(x):
            ok = False
            break
    elapsed = time.perf_counter() - start
    record("formula and matrix routes agree, all matrices unimodular", ok, elapsed)


def test_even_cf_certification():
    start = time.perf_counter()
    rng = random.Random(1729)
    ok = True
    for _ in range(10**4):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        if cf_eval(even_cf_expand(x).entries()) != x:
            ok = False
            break
    report = check_uniqueness(enumerate_even_cfs(4, 6))
    ok = ok and report.ok
    elapsed = time.perf_counter() - start
    record(
        "even expansion: 10^4 round trips and exhaustive uniqueness under 60 s",
        ok and elapsed < 60.0,
        elapsed,
    )


def test_cf_matrix_dictionary():
    report = random_word_dictionary_check(200, 1)
    record("200 seeded words satisfy all four matrix dictionary identities", report.ok)


def test_two_bridge_structure():
    rng = random.Random(424242)
    checked = 0
    ok = True
    while checked < 10**3:
        b = rng.randint(3, 10**5) | 1
        a = rng.randint(1, b - 1)
        if gcd(b, a) != 1:
            continue
        if rng.random() < 0.5:
            a -= b
        checked += 1
        form = make_form(b, a)
        t = two_bridge_slopes(form)
        twists = sum(abs(x) for x in form.expansion.a_entries)
        if len(t.slopes) + 1 != twists:
            ok = False
            break
        if any(m.numerator % 2 == 0 for m in t.slopes):
            ok = False
            break
        if t.m0.denominator % 2 == 0:
            ok = False
            break
        cls = validate(t)
        expected_kind = TunnelKind.SEMISIMPLE if t.slopes else TunnelKind.SIMPLE_KNOT
        if cls.kind is not expected_kind or cls.target is not Target.KNOT:
            ok = False
            break
    record("10^3 random 2-bridge invariants give valid semisimple knot tunnels", ok)


def enumerate_small_tuples(height=9):
    tuples = [TunnelParams(ResidueSlope(INFINITY))]
    residues = []
    for q in range(1, height + 1):
        for p in range(q):
            if gcd(p, q) == 1:
                residues.append(Fraction(p, q))
    tuples.extend(TunnelParams(residue_of(r)) for r in residues)
    odd_m0 = [r for r in residues if r.denominator % 2 == 1 and r != 0]
    slopes = sorted(
        {
            Fraction(num, den)
            for num in range(-height, height + 1)
            for den in range(1, height + 1)
            if max(abs(num), den) <= height
        }
    )
    for r in odd_m0:
        for m in slopes:
            tuples.append(TunnelParams(residue_of(r), (m,)))
    return tuples


def test_amphichirality_census():
    tuples = enumerate_small_tuples()
    for t in tuples:
        validate(t)
    fixed = [t for t in tuples if mirror(t) == t]
    expected = {
        TunnelParams(residue_of(Fraction(0))),
        TunnelParams(ResidueSlope(INFINITY)),
        TunnelParams(residue_of(Fraction(1, 2))),
    }
    ok = set(fixed) == expected and len(fixed) == 3
    ok = ok and linking_number(TunnelParams(residue_of(Fraction(1, 2)))) == 1
    record(
        "census at height 9 finds exactly the three mirror-fixed tuples; Hopf linking number 1",
        ok,
    )
