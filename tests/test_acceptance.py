"""Acceptance suite: one check per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them on success).  Budgets are wall-clock
and generous; exact values carry zero tolerance."""

import random
import time

from meadows import (
    MD, REF, SIP,
    NotRegular, Q_ZERO,
    build_galois_field, build_mdk, build_prime_field, characteristic,
    check_axiom_set, check_conditional, check_equation, decompose,
    derived_identity_suite, encode_conditional, eval_rational,
    expand_inverse_table, expand_to_meadow, is_squarefree, is_zt_field,
    ln_equation, parse_equation, parse_term, random_conditional,
    sample_check, standard_battery, zmod_ring,
)
from meadows import structures
from meadows.cli import cmd_table

SQUAREFREE_210 = [k for k in range(1, 211) if is_squarefree(k)]


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def inverse_row(model: str) -> str:
    text, code = cmd_table(model)
    assert code == 0
    return text.split("inv:\n", 1)[1].splitlines()[0]


def test_criterion_01_md6_inverse_row():
    start = time.perf_counter()
    row = inverse_row("mdk:6")
    elapsed = time.perf_counter() - start
    ok = row == "0 1 2 3 4 5" and elapsed < 1.0
    report(1, ok, f"table mdk:6 inverse row {row!r} in {elapsed:.3f}s (< 1s)")


def test_criterion_02_md10_inverse_row():
    start = time.perf_counter()
    row = inverse_row("mdk:10")
    elapsed = time.perf_counter() - start
    ok = row == "0 1 8 7 4 5 6 3 2 9" and elapsed < 1.0
    report(2, ok, f"table mdk:10 inverse row {row!r} in {elapsed:.3f}s (< 1s)")


def test_criterion_03_exhaustive_meadow_laws_up_to_210(monkeypatch):
    # The moduli on which the checker looked up field factors and found
    # some, and those that were fields whose own polynomials decided a law;
    # every law holds, so those laws were decided on the factors or by
    # polynomials.
    certified, by_polynomials = set(), set()
    lookup = structures.field_factors
    fold = structures._same_polynomial

    def spy(s):
        factors = lookup(s)
        if factors:
            certified.add(s.name)
        return factors

    def fold_spy(s, *args):
        same = fold(s, *args)
        if same:
            by_polynomials.add(s.name)
        return same

    monkeypatch.setattr(structures, "field_factors", spy)
    monkeypatch.setattr(structures, "_same_polynomial", fold_spy)
    start = time.perf_counter()
    failures = []
    for k in SQUAREFREE_210:
        verdicts = check_axiom_set(build_mdk(k), MD)
        bad = [name for name, v in verdicts.items() if not v.holds]
        if bad:
            failures.append((k, bad))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    moduli = {f"Md_{k}" for k in SQUAREFREE_210}
    report(
        3,
        ok,
        f"all 10 meadow laws exhaust on {len(SQUAREFREE_210)} squarefree "
        f"moduli <= 210 in {elapsed:.1f}s (< 60s), {len(certified)} of them "
        f"through field factors and {len(moduli & by_polynomials)} by "
        f"polynomials; failures={failures}",
    )


def test_criterion_04_battery_characteristics_squarefree():
    battery = standard_battery()
    offenders = [
        (s.name, characteristic(s))
        for s in battery
        if not is_squarefree(characteristic(s))
    ]
    ok = len(battery) >= 20 and not offenders
    report(
        4,
        ok,
        f"{len(battery)} battery meadows (>= 20), characteristics all "
        f"squarefree; offenders={offenders}",
    )


def test_criterion_05_unique_expansion_up_to_210():
    start = time.perf_counter()
    mismatched = []
    for k in SQUAREFREE_210:
        ring = zmod_ring(k)
        ascending = expand_inverse_table(ring, prefer_greatest=False)
        descending = expand_inverse_table(ring, prefer_greatest=True)
        expanded = expand_to_meadow(ring)
        target = build_mdk(k)
        if not (
            ascending == descending == expanded.inv == target.inv
            and expanded.add == target.add
            and expanded.mul == target.mul
            and expanded.neg == target.neg
        ):
            mismatched.append(k)
    rejects = {}
    for k in (4, 8):
        try:
            expand_to_meadow(zmod_ring(k))
            rejects[k] = None
        except NotRegular as exc:
            rejects[k] = exc.witness
    elapsed = time.perf_counter() - start
    ok = not mismatched and rejects == {4: 2, 8: 2}
    report(
        5,
        ok,
        f"expansion identical to the minimal-meadow tables for all "
        f"squarefree k <= 210 (both selector orders) in {elapsed:.1f}s; "
        f"Z/4, Z/8 rejected with witnesses {rejects}",
    )


def test_criterion_06_decomposition():
    start = time.perf_counter()
    md30 = decompose(build_mdk(30))
    names = [h.target.name for h in md30.components]
    md30_ok = (
        names == ["Z_2", "Z_3", "Z_5"]
        and all(h.is_surjective for h in md30.components)
        and md30.diagonal.is_injective
        and md30.product.size == 30
        and sorted(md30.diagonal.mapping) == list(range(30))  # bijective
    )
    failures = []
    for s in standard_battery():
        if s.zero == s.one or s.size > 100:
            continue
        result = decompose(s)
        if not result.diagonal.is_injective:
            failures.append(s.name)
    elapsed = time.perf_counter() - start
    ok = md30_ok and not failures and elapsed < 30.0
    report(
        6,
        ok,
        f"Md_30 -> Z_2 x Z_3 x Z_5 bijectively; every battery meadow of "
        f"size <= 100 decomposes injectively in {elapsed:.1f}s (< 30s); "
        f"failures={failures}",
    )


def test_criterion_07_conditional_encoding_soundness():
    # The guard/merge encoding matches the conditional on the class of
    # structures: on every field the two verdicts coincide pointwise, a
    # valid encoding forces the conditional on every meadow, and across the
    # whole battery the two validity verdicts agree.  (Pointwise agreement
    # on a single non-field meadow is provably too strong: a vacuous
    # premise can leave a nonzero idempotent in the guard.)
    start = time.perf_counter()
    rng = random.Random(0)
    battery = [s for s in standard_battery() if s.size <= 30]
    fields = [s for s in battery if is_zt_field(s)]
    cases = 0
    disagreements = []
    for i in range(200):
        ce = random_conditional(rng, ("x", "y", "z"), 4, 3)
        encoded = encode_conditional(ce)
        conditional_on = {}
        encoded_on = {}
        for s in battery:
            conditional_on[s.name] = check_conditional(s, ce).holds
            encoded_on[s.name] = check_equation(s, encoded).holds
            cases += 1
        for s in fields:
            if conditional_on[s.name] != encoded_on[s.name]:
                disagreements.append((i, "field", s.name))
        for s in battery:
            if encoded_on[s.name] and not conditional_on[s.name]:
                disagreements.append((i, "direction", s.name))
        if all(conditional_on.values()) != all(encoded_on.values()):
            disagreements.append((i, "battery", "-"))
    elapsed = time.perf_counter() - start
    ok = not disagreements and elapsed < 120.0
    report(
        7,
        ok,
        f"200 random conditionals, {cases} (formula, meadow) checks, "
        f"encoding agreement 100% in {elapsed:.1f}s (< 120s); "
        f"disagreements={disagreements[:5]}",
    )


def test_criterion_08_derived_identity_suite():
    failures = []
    for s in standard_battery():
        for name, verdict in derived_identity_suite(s).items():
            if not verdict.holds:
                failures.append((s.name, name))
    gf4 = build_galois_field(2, 2)
    square_inverse = check_equation(gf4, parse_equation("inv(x) = x*x"))
    pointwise = all(gf4.inv[x] == gf4.mul[x][x] for x in range(4))
    ok = not failures and square_inverse.holds and pointwise
    report(
        8,
        ok,
        f"derived identities exhaust on all {len(standard_battery())} "
        f"battery meadows; GF(4) satisfies x^-1 = x^2 at all four elements; "
        f"failures={failures}",
    )


def test_criterion_09_squares_schemes():
    l4 = ln_equation(4)
    q_verdict = sample_check(l4, 1000, seed=0)
    z3_holds = check_equation(build_prime_field(3), ln_equation(1)).holds
    witnesses = {}
    for p in (2, 3, 5, 7, 11, 13):
        verdict = check_equation(build_prime_field(p), l4)
        if verdict.holds:
            witnesses[p] = None
        else:
            w = verdict.witness
            witnesses[p] = w
            print(
                f"  L4 fails in Z_{p} at "
                + ",".join(f"{k}={w[k]}" for k in sorted(w))
            )
    all_fail = all(w is not None for w in witnesses.values())
    consistent = all(
        (1 + sum(w[f"x{i}"] ** 2 for i in range(1, 5))) % p == 0
        for p, w in witnesses.items()
        if w is not None
    )
    ok = q_verdict.holds and z3_holds and all_fail and consistent
    report(
        9,
        ok,
        "L4 clean on 1000 rational samples; L1 exhausts in Z_3; L4 fails "
        f"in Z_p for p in (2,3,5,7,11,13) with printed witnesses",
    )


def test_criterion_10_exact_rational_identities():
    failures = []
    for name, eq in {**MD, **SIP, **REF}.items():
        verdict = sample_check(eq, 1000, seed=0)
        if not verdict.holds:
            failures.append((name, verdict.counterexample))
    trace = eval_rational(parse_term("x/x"), {"x": Q_ZERO})
    flag_ok = trace.value == Q_ZERO and trace.unsafe_division_used
    ok = not failures and flag_ok
    report(
        10,
        ok,
        "meadow, strong-inverse and reflection laws exact at 1000 seeded "
        f"samples each; 0/0 evaluates to 0 with unsafe=true; "
        f"failures={failures}",
    )
