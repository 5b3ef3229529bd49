"""The four workloads: inputs, one round of operations, and the checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns.  A run repeats whole rounds, so every run
attempts the same mix of operations.  The program is reached only through
``Api``; the benchmark's inputs come from ``gen`` and are judged by
``oracle``, neither of which imports ``meadows``.
"""

from __future__ import annotations

import io
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import gen
from spans import boundary

# ``oracle`` is imported inside the functions that need it: it imports numpy,
# which the timed set-up must import cold, through ``import meadows``.

# Brute-force checks in pure Python are limited to grids of at most this many
# cells; larger grids are judged by the vectorised oracle or by theory.
GRID_BOUND = 512
# Number of (formula, member) pairs whose verdicts are re-derived by brute force.
SUBSAMPLE = 24
# Seeded equations checked on each Md_k in exhaust-laws.
SEEDED_PER_K = 4
# encode-soundness: members per formula in the timed loop, and how often a
# formula is completed on the whole battery afterwards.
MEMBERS_PER_FORMULA = 2
# Coprime to the cycle of four premise counts, so the audited formulas carry
# every premise count equally often.
AUDIT_EVERY = 127


class Api:
    """The program functions the benchmark calls, wrapped when tracing."""

    NAMES = {
        "structures": ("check_equation", "check_conditional", "generating_set"),
        "finite_meadows": ("build_mdk", "build_galois_field", "decompose"),
        "logic": ("parse_equation", "parse_conditional", "encode_conditional"),
        "suites": ("standard_battery", "derived_identity_suite"),
        "cli": ("main",),
    }

    def __init__(self, tracer=None):
        import importlib

        self.modules = {m: importlib.import_module(f"meadows.{m}") for m in self.NAMES}
        self.raw = {
            name: getattr(self.modules[m], name)
            for m, names in self.NAMES.items() for name in names
        }
        self.rebind(tracer)

    def rebind(self, tracer) -> None:
        for name, fn in self.raw.items():
            setattr(self, name, boundary(tracer, fn))


def verdict(v):
    return v.holds, v.witness


class Workload:
    name = ""
    # Whether each round starts from a collected heap (see ExhaustLaws).
    collect_between_rounds = False
    # Rounds of a smoke run: enough for every kind of operation to occur.
    smoke_rounds = 1

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self.rng = random.Random(f"{self.name}:{seed}")
        self.kept: dict = {}
        self.mismatches: list = []

    def keep(self, key, label, result) -> None:
        """Record a small summary of an operation's result; a repeated
        operation must give the same summary in every round."""
        summary = self.summarize(label, result)
        if key in self.kept:
            if self.kept[key] != summary:
                self.mismatches.append(key)
        else:
            self.kept[key] = summary

    def summarize(self, label, result):
        return result

    def close(self) -> None:
        pass


# --- exhaust-laws --------------------------------------------------------------------

class ExhaustLaws(Workload):
    """MD, SIP and the derived-identity suite on every squarefree Md_k, k <= 210,
    with GIL and seeded two-variable equations as negative controls."""

    name = "exhaust-laws"
    # The bulk evaluator's memo of full-grid arrays stays alive until the
    # cyclic collector runs, so the peak RSS depends on where the collector's
    # counters stand when the largest checks run.  Collecting before each
    # round, and running the seeded equations after all the fixed checks,
    # gives every round and every seed the same peak.
    collect_between_rounds = True

    def setup(self, api: Api) -> None:
        import oracle

        top = 70 if self.smoke else 210
        self.ks = [k for k in range(1, top + 1) if oracle.is_squarefree(k)]
        self.structures = [api.build_mdk(k) for k in self.ks]
        # Every structure gets its own seeded equations, so a seed's mix of
        # small and large terms averages out over the structures.
        self.eq_terms = [[gen.equation(self.rng, ("x", "y"), 3) for _ in range(SEEDED_PER_K)]
                         for _ in self.ks]
        self.eqs = [[api.parse_equation(gen.show_equation(e)) for e in eqs]
                    for eqs in self.eq_terms]
        logic = api.modules["logic"]
        self.laws = list(logic.MD.items()) + list(logic.SIP.items())
        self.gil = logic.GIL
        self.api = api

    def round(self, r: int):
        api = self.api
        for si, s in enumerate(self.structures):
            for name, law in self.laws:
                yield name, (si, name), lambda s=s, law=law: verdict(api.check_equation(s, law))
            yield "derived", (si, "derived"), lambda s=s: {
                n: verdict(v) for n, v in api.derived_identity_suite(s).items()}
            yield "GIL", (si, "GIL"), lambda s=s: verdict(api.check_conditional(s, self.gil))
        for si, s in enumerate(self.structures):
            for j, eq in enumerate(self.eqs[si]):
                yield "seeded", (si, j), lambda s=s, eq=eq: verdict(api.check_equation(s, eq))

    def check(self) -> list[str]:
        import oracle

        errors = []
        gil = oracle.Formula(*gen.GIL)
        for si, (k, s) in enumerate(zip(self.ks, self.structures)):
            expected = oracle.zk(k)
            if not oracle.tables_equal(oracle.tables_of(s), expected):
                errors.append(f"build_mdk({k}) differs from Z/{k} arithmetic")
                continue
            # Z/k with this inverse is a meadow, so every law and every
            # derived identity holds.
            for name, _ in self.laws:
                if self.kept.get((si, name)) != (True, None):
                    errors.append(f"{name} on Md_{k}: {self.kept.get((si, name))}")
            derived = self.kept.get((si, "derived"), {})
            if not derived or any(v != (True, None) for v in derived.values()):
                errors.append(f"derived identities on Md_{k}: {derived}")
            want = gil.least_falsifier(expected)
            if self.kept.get((si, "GIL")) != (want is None, want):
                errors.append(f"GIL on Md_{k}: {self.kept.get((si, 'GIL'))}, want {want}")
            for j, eq in enumerate(self.eq_terms[si]):
                want = oracle.equation_formula(*eq).least_falsifier_grid(expected)
                if self.kept.get((si, j)) != (want is None, want):
                    errors.append(f"seeded equation {j} on Md_{k}: "
                                  f"{self.kept.get((si, j))}, want {want}")
        return errors


# --- encode-soundness --------------------------------------------------------------------

class EncodeSoundness(Workload):
    """Seeded conditionals and their guard/merge encodings on the battery
    members of size <= 30.

    A round is one formula on MEMBERS_PER_FORMULA members, taken in turn
    from a seeded permutation of the battery.  The pairs of one formula cost
    alike, so checking every formula on the whole battery would let a few
    hundred formulas set a run's percentiles; spread over thousands of
    formulas they hardly move with the seed.  Every AUDIT_EVERY-th formula
    is completed on the whole battery after the run, for the battery-wide
    property.  Formulas are generated as the run goes, so the set-up is the
    import and the battery alone.
    """

    name = "encode-soundness"
    # One formula of each premise count, each audited.
    smoke_rounds = 4

    def setup(self, api: Api) -> None:
        self.battery = [s for s in api.standard_battery() if s.size <= 30]
        order = list(range(len(self.battery)))
        self.rng.shuffle(order)
        self.blocks = [order[b:b + MEMBERS_PER_FORMULA]
                       for b in range(0, len(order), MEMBERS_PER_FORMULA)]
        self.audited: dict = {}
        self.errors: list[str] = []
        self.members = None
        self.api = api

    def round(self, r: int):
        """Formula r, generated on demand; its text is parsed and encoded
        inside the first operation on it."""
        api = self.api
        # The premise count cycles through 0..3: it sets most of a formula's
        # cost, and a fixed mix keeps the seed from moving the throughput.
        ce_terms = gen.conditional(self.rng, ("x", "y", "z"), 4, r % 4)
        text = gen.show_conditional(ce_terms)
        cell = {}

        def pair(s, first):
            if first:
                cell["ce"] = api.parse_conditional(text)
                cell["enc"] = api.encode_conditional(cell["ce"])
            return (verdict(api.check_conditional(s, cell["ce"])),
                    verdict(api.check_equation(s, cell["enc"])))

        # Rotate the block once per cycle of premise counts, so that every
        # premise count meets every block equally often.
        block = self.blocks[(r // 4) % len(self.blocks)]
        for n, j in enumerate(block):
            yield "pair", (r, j), lambda s=self.battery[j], first=(n == 0): pair(s, first)
        # Judge the pairs now, so that no formula outlives its round.
        if "enc" in cell:
            self._judge(r, self._compile(ce_terms, cell["enc"]), block)
            if self.smoke or r % AUDIT_EVERY == 0:
                self.audited[r] = dict(cell, terms=ce_terms)
            else:
                for j in block:
                    self.kept.pop((r, j), None)

    def _compile(self, ce_terms, enc):
        import oracle

        if self.members is None:
            self.members = [oracle.tables_of(s) for s in self.battery]
            self.fields = [oracle.is_field_scan(t) for t in self.members]
        cond = oracle.Formula(*gen.atoms(ce_terms))
        lhs, rhs = oracle.from_program(enc.lhs), oracle.from_program(enc.rhs)
        return cond, oracle.equation_formula(lhs, rhs)

    def _judge(self, i, compiled, block) -> None:
        """Witnesses falsify, fields agree, and a valid encoding forces the conditional."""
        cond, enc = compiled
        for j in block:
            if (i, j) not in self.kept:
                continue
            t = self.members[j]
            (c_ok, c_wit), (e_ok, e_wit) = self.kept[(i, j)]
            where = f"formula {i} on {t.name}"
            if c_wit is not None and not cond.falsified_at(t, c_wit):
                self.errors.append(f"{where}: conditional witness {c_wit} holds")
            if e_wit is not None and not enc.falsified_at(t, e_wit):
                self.errors.append(f"{where}: encoding witness {e_wit} holds")
            if (c_wit is None) != c_ok or (e_wit is None) != e_ok:
                self.errors.append(f"{where}: verdict without witness")
            if self.fields[j] and c_ok != e_ok:
                self.errors.append(f"{where}: field, conditional {c_ok}, encoding {e_ok}")
            if e_ok and not c_ok:
                self.errors.append(f"{where}: encoding valid, conditional invalid")

    def check(self) -> list[str]:
        errors = self.errors
        api = self.api
        everyone = range(len(self.battery))
        audited = {}
        for i, cell in sorted(self.audited.items()):
            audited[i] = self._compile(cell["terms"], cell["enc"])
            for j in everyone:
                if (i, j) not in self.kept:
                    s = self.battery[j]
                    self.kept[(i, j)] = (verdict(api.check_conditional(s, cell["ce"])),
                                         verdict(api.check_equation(s, cell["enc"])))
            self._judge(i, audited[i], everyone)
            verdicts = [self.kept[(i, j)] for j in everyone]
            if all(v[0][0] for v in verdicts) != all(v[1][0] for v in verdicts):
                errors.append(f"formula {i}: battery verdicts of conditional and encoding differ")

        # Re-derive a seeded subsample by brute force: the least falsifier of
        # both sides, and on fields agreement at every point.  The sample is
        # drawn evenly from the four premise counts.
        rng = random.Random(f"{self.name}:check:{self.seed}")
        sample = []
        for count in range(4):
            eligible = [(i, j) for i in audited if len(self.audited[i]["terms"][0]) == count
                        for j in everyone
                        if audited[i][1].cells(self.members[j].size) <= GRID_BOUND]
            sample += rng.sample(eligible, min(SUBSAMPLE // 4, len(eligible)))
        for i, j in sample:
            t = self.members[j]
            cond, enc = audited[i]
            (c_ok, c_wit), (e_ok, e_wit) = self.kept[(i, j)]
            if cond.least_falsifier(t) != c_wit:
                errors.append(f"formula {i} on {t.name}: conditional witness {c_wit} "
                              f"is not the least falsifier {cond.least_falsifier(t)}")
            if enc.least_falsifier(t) != e_wit:
                errors.append(f"formula {i} on {t.name}: encoding witness {e_wit} "
                              f"is not the least falsifier {enc.least_falsifier(t)}")
            if cond.variables != enc.variables:
                errors.append(f"formula {i}: encoding has variables {enc.variables}")
            elif self.fields[j]:
                c_points = [not p or c for p, c in cond.pointwise(t)]
                e_points = [c for _, c in enc.pointwise(t)]
                if c_points != e_points:
                    errors.append(f"formula {i} on field {t.name}: pointwise disagreement")
        return errors


# --- decompose ----------------------------------------------------------------------------

# Squarefree k are drawn one per band; within a band decompose(Md_k) costs
# about the same, so the seed changes the inputs but not the round's cost.
# No band lies between 120 and 148: with the 16 Galois fields fixed, the op
# at a round's 90th percentile is then build_galois_field(3, 5), whatever
# the seed.
BANDS = ((30, 47), (51, 62), (65, 79), (82, 97), (101, 119),
         (149, 170), (173, 190), (191, 210))
GALOIS = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
          (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2), (11, 2), (13, 2))


class Decompose(Workload):
    """decompose on the non-trivial battery and on Md_k for seeded k, and
    build_galois_field up to 256 elements."""

    name = "decompose"

    def setup(self, api: Api) -> None:
        import oracle

        bands = ((6, 15), (21, 30)) if self.smoke else BANDS
        self.ks = [self.rng.choice([k for k in range(lo, hi + 1) if oracle.is_squarefree(k)])
                   for lo, hi in bands]
        self.battery = [s for s in api.standard_battery() if s.zero != s.one]
        self.mdk = [api.build_mdk(k) for k in self.ks]
        self.galois = [pm for pm in GALOIS if pm[0] ** pm[1] <= 16] if self.smoke else list(GALOIS)
        ops = ([("decompose", ("battery", i)) for i in range(len(self.battery))]
               + [("decompose", ("mdk", i)) for i in range(len(self.mdk))]
               + [("galois", ("galois", i)) for i in range(len(self.galois))])
        self.rng.shuffle(ops)
        self.ops = ops
        self.api = api

    def round(self, r: int):
        api = self.api
        for label, key in self.ops:
            kind, i = key
            if kind == "galois":
                yield label, key, lambda pm=self.galois[i]: api.build_galois_field(*pm)
            else:
                s = (self.battery if kind == "battery" else self.mdk)[i]
                yield label, key, lambda s=s: api.decompose(s)

    def summarize(self, label, result):
        import oracle

        if label == "galois":
            return oracle.tables_of(result)
        comps = tuple((oracle.tables_of(h.target), tuple(h.mapping)) for h in result.components)
        return comps, result.product.size, tuple(result.diagonal.mapping)

    def check(self) -> list[str]:
        import math

        import oracle

        errors = []
        for key, summary in self.kept.items():
            kind, i = key
            if kind == "galois":
                errors += self._check_galois(*self.galois[i], summary)
                continue
            s = (self.battery if kind == "battery" else self.mdk)[i]
            src = oracle.tables_of(s)
            where = f"decompose({s.name})"
            comps, product_size, diagonal = summary
            sizes = [t.size for t, _ in comps]
            for t, mapping in comps:
                if not oracle.is_field_scan(t):
                    errors.append(f"{where}: target {t.name} is not a field")
                errors += [f"{where} -> {t.name}: {e}"
                           for e in oracle.homomorphism_errors(src, t, mapping)]
            if product_size != math.prod(sizes):
                errors.append(f"{where}: product size {product_size}, want {math.prod(sizes)}")
            want = [oracle.product_index([m[z] for _, m in comps], sizes) for z in range(src.size)]
            if list(diagonal) != want or len(set(diagonal)) != src.size:
                errors.append(f"{where}: diagonal is not the injective product of the components")
            if kind == "mdk":
                k = self.ks[i]
                if not oracle.tables_equal(src, oracle.zk(k)):
                    errors.append(f"build_mdk({k}) differs from Z/{k} arithmetic")
                if sorted(sizes) != oracle.primes_of(k) or product_size != k:
                    errors.append(f"{where}: component sizes {sizes}, want {oracle.primes_of(k)}")
        return errors

    def _check_galois(self, p, m, t) -> list[str]:
        import oracle

        where = f"build_galois_field({p}, {m})"
        if t.size != p**m:
            return [f"{where}: size {t.size}"]
        low = oracle.modulus_of(t, p, m)
        errors = [f"{where}: {e}" for e in oracle.least_irreducible_errors(low, p)]
        if not oracle.tables_equal(t, oracle.gf(p, low)):
            errors.append(f"{where}: tables differ from GF({p}^{m}) mod {low}")
        if not oracle.is_field_scan(t):
            errors.append(f"{where}: not a field")
        return errors


# --- cli-session ---------------------------------------------------------------------------

class CliSession(Workload):
    """A fixed script of all seven commands through meadows.cli.main."""

    name = "cli-session"

    def setup(self, api: Api) -> None:
        import oracle

        self.api = api
        self.dir = self.scratch / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        md30 = oracle.zk(30)
        md30.name = "file_md30"
        ring42 = oracle.product([oracle.zk(6), oracle.zk(7)])
        ring42.name = "Z6xZ7"
        files = {"md30": (md30, True), "ring30": (oracle.zk(30), False), "ring42": (ring42, False)}
        self.files = {}
        for name, (tables, with_inv) in files.items():
            path = self.dir / f"{name}.txt"
            path.write_text(oracle.write_structure(tables, with_inv), encoding="utf-8")
            self.files[name] = (str(path), tables)
        self.script = self._script()

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _script(self) -> list[tuple[list[str], object]]:
        rng = self.rng
        v2, v3 = ("x", "y"), ("x", "y", "z")
        t30 = gen.term(rng, v2, 3)
        a30 = {v: rng.randrange(30) for v in v2}
        t13 = gen.term(rng, v3, 3)
        a13 = {v: rng.randrange(13) for v in v3}
        tq = gen.term(rng, v2, 3)
        aq = {v: _fraction(rng) for v in v2}
        eq = gen.equation(rng, v2, 3)
        ce = gen.conditional(rng, v3, 2, 2)
        ce_enc = gen.conditional(rng, v3, 3, 3)
        x, y = ("var", "x"), ("var", "y")
        ril = (("mul", x, ("mul", x, ("inv", x))), x)
        sip2 = (("inv", ("mul", x, y)), ("mul", ("inv", x), ("inv", y)))
        unit = (("mul", x, ("inv", x)), gen.ONE)
        implicit = (((("mul", x, y), gen.ONE),), (("inv", x), y))
        return [
            (["eval", _arg(gen.show(t30)), "--model", "mdk:30", "--assign", _assign(a30)],
             lambda o: self._eval_finite(o, t30, a30, "mdk:30")),
            (["eval", _arg(gen.show(t13)), "--model", "zp:13", "--assign", _assign(a13)],
             lambda o: self._eval_finite(o, t13, a13, "zp:13")),
            (["eval", _arg(gen.show(tq)), "--model", "q", "--assign", _assign(aq)],
             lambda o: self._eval_q(o, tq, aq)),
            (["eval", "5000", "--model", "zp:7"], lambda o: _literal(o, 0, "2\n")),
            (["check", _arg(gen.show_equation(eq)), "--model", "zp:7", "--model", "mdk:30",
              "--model", "gf:2,2", "--model", "prod:zp:2,zp:3"],
             lambda o: self._check(o, gen.atoms(((), eq)),
                                   ["zp:7", "mdk:30", "gf:2,2", "prod:zp:2,zp:3"])),
            (["check", _arg(gen.show_conditional(ce)), "--model", "zp:5", "--model", "mdk:6"],
             lambda o: self._check(o, gen.atoms(ce), ["zp:5", "mdk:6"])),
            (["check", "x*(x*x^-1) = x", "--model", "mdk:30", "--model", "gf:3,2",
              "--model", "q", "--samples", "200"],
             lambda o: self._check(o, gen.atoms(((), ril)), ["mdk:30", "gf:3,2", "q"])),
            (["check", "(x*y)^-1 = x^-1*y^-1", "--model", "zp:11", "--model", "q",
              "--samples", "200"],
             lambda o: self._check(o, gen.atoms(((), sip2)), ["zp:11", "q"])),
            (["check", "x*x^-1 = 1", "--model", "zp:5", "--model", "q", "--samples", "200"],
             lambda o: self._check(o, gen.atoms(((), unit)), ["zp:5", "q"], q="refuted")),
            (["check", "x != 0 -> x*x^-1 = 1", "--model", "zp:7", "--model", "mdk:10",
              "--model", "q", "--samples", "100"],
             lambda o: self._check(o, gen.GIL, ["zp:7", "mdk:10", "q"])),
            (["check", "x*y = 1 -> x^-1 = y", "--model", "mdk:6", "--model", "q",
              "--samples", "100"],
             lambda o: self._check(o, gen.atoms(implicit), ["mdk:6", "q"])),
            (["check", "5000 = 2", "--model", "q"], lambda o: _literal(o, 1, "Q0\tinvalid\t{}\n")),
            (["check", "1500 = 2", "--model", "mdk:6"],
             lambda o: _literal(o, 1, "Md_6\tinvalid\t{}\n"
                                "# fields: valid\tmeadows: invalid\tagree: no\n")),
            (["table", "mdk:6"], lambda o: self._table(o, "mdk:6", False)),
            (["table", "file:" + self.files["md30"][0]],
             lambda o: self._table(o, self.files["md30"][1], True)),
            (["table", "gf:2,3"], lambda o: self._table(o, "gf:2,3", False)),
            (["encode", _arg(gen.show_conditional(ce_enc))], lambda o: self._encode(o, ce_enc)),
            (["encode", "x*y = 1 -> x^-1 = y"], lambda o: self._encode(o, implicit)),
            (["expand", self.files["ring30"][0]], lambda o: self._expand(o, "ring30")),
            (["expand", self.files["ring42"][0]], lambda o: self._expand(o, "ring42")),
            (["decompose", "mdk:30"], lambda o: self._decompose(o, "mdk:30")),
            (["decompose", "prod:zp:2,zp:5"], lambda o: self._decompose(o, "prod:zp:2,zp:5")),
            (["classify", "--bound", "60"], lambda o: self._classify(o, 60)),
        ]

    def round(self, r: int):
        for n, (argv, _) in enumerate(self.script):
            yield f"cli.{argv[0]}", n, lambda argv=argv: self._run(argv)

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.api.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self) -> list[str]:
        errors = []
        for n, (argv, judge) in enumerate(self.script):
            if n not in self.kept:
                continue  # raised in every round: counted as failed
            try:
                problems = judge(self.kept[n])
            except (ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output {self.kept[n]!r}: {exc}"]
            errors += [f"meadows {' '.join(argv)[:80]}: {p}" for p in problems]
        return errors

    # -- expected outputs, from the oracles --

    def _model(self, spec: str):
        import oracle

        kind, _, arg = spec.partition(":")
        if kind in ("mdk", "zp"):
            return oracle.zk(int(arg))
        if kind == "gf":
            p, m = map(int, arg.split(","))
            return _galois(p, m)
        if kind == "prod":
            return oracle.product([self._model(part) for part in arg.replace(",zp:", " zp:").split()])
        raise ValueError(spec)

    def _eval_finite(self, outcome, term, env, spec):
        import oracle

        code = oracle.Code()
        slot = code.add(term)
        value = code.values(self._model(spec), env)[slot]
        return _literal(outcome, 0, f"{value}\n")

    def _eval_q(self, outcome, term, env):
        import oracle

        value, unsafe = oracle.q_eval(term, env)
        return _literal(outcome, 0, f"{oracle.q_show(value)}{' (unsafe)' if unsafe else ''}\n")

    def _check(self, outcome, formula, specs, q="valid"):
        """``formula`` is in atom form, as ``gen.atoms`` gives it."""
        import oracle

        f = oracle.Formula(*formula)
        code, out, err = outcome
        lines = out.splitlines()
        errors = []
        all_valid = finite_valid = fields_valid = True
        for spec, line in zip(specs, lines):
            name, word, witness = line.split("\t")
            if spec == "q":
                # Only formulas valid over Q, or refuted at a point the
                # sampler is sure to draw, are sent to q.
                if q == "valid" and (word, witness) != ("valid", "-"):
                    errors.append(f"q: {word} {witness}, want valid")
                if q == "refuted" and (word != "invalid" or not _q_falsified(
                        formula, oracle.parse_assignment(witness, as_int=False))):
                    errors.append(f"q: {word} {witness}, want a counterexample")
                all_valid &= word == "valid"
                continue
            t = self._model(spec)
            want = f.least_falsifier(t)
            shown = "-" if want is None else (
                ",".join(f"{k}={want[k]}" for k in sorted(want)) or "{}")
            if word != ("valid" if want is None else "invalid") or witness != shown:
                errors.append(f"{spec}: {word} {witness}, want {shown}")
            all_valid &= want is None
            finite_valid &= want is None
            if oracle.is_field_scan(t):
                fields_valid &= want is None
        if len(lines) != len(specs) + 1:
            errors.append(f"{len(lines)} output lines for {len(specs)} models")
        else:
            agree = "yes" if fields_valid == finite_valid else "no"
            summary = (f"# fields: {'valid' if fields_valid else 'invalid'}"
                       f"\tmeadows: {'valid' if finite_valid else 'invalid'}\tagree: {agree}")
            if lines[-1] != summary:
                errors.append(f"summary {lines[-1]!r}, want {summary!r}")
        if code != (0 if all_valid else 1):
            errors.append(f"exit code {code}")
        return errors

    def _table(self, outcome, spec, keep_name):
        import oracle

        code, out, err = outcome
        want = spec if not isinstance(spec, str) else self._model(spec)
        got = oracle.read_structure(out)
        errors = [] if code == 0 else [f"exit code {code}"]
        if not oracle.tables_equal(got, want):
            errors.append("tables differ from the oracle")
        if keep_name and got.name != want.name:
            errors.append(f"name {got.name!r}, want {want.name!r}")
        return errors

    def _encode(self, outcome, ce):
        import oracle

        code, out, err = outcome
        lhs, rhs = oracle.read_equation(out.strip())
        cond = oracle.Formula(*gen.atoms(ce))
        enc = oracle.equation_formula(lhs, rhs)
        errors = [] if code == 0 else [f"exit code {code}"]
        if enc.variables != cond.variables:
            return errors + [f"encoding has variables {enc.variables}"]
        for p in (5, 7):
            t = oracle.zk(p)
            c_points = [not prem or concl for prem, concl in cond.pointwise(t)]
            e_points = [concl for _, concl in enc.pointwise(t)]
            if c_points != e_points:
                errors.append(f"encoding disagrees with the conditional on Z_{p}")
        return errors

    def _expand(self, outcome, name):
        import oracle

        code, out, err = outcome
        # The ring file was written from these tables without their inverse.
        want = self.files[name][1]
        errors = [] if code == 0 else [f"exit code {code}"]
        if not oracle.tables_equal(oracle.read_structure(out), want):
            errors.append("expansion differs from the meadow inverse")
        return errors

    def _decompose(self, outcome, spec):
        import oracle

        code, out, err = outcome
        src = self._model(spec)
        lines = out.splitlines()
        errors = [] if code == 0 else [f"exit code {code}"]
        count = int(lines[0].split(": ")[1])
        comps = []
        for line in lines[1:1 + count]:
            head, maps = line.split(" map: ")
            size = int(head.rsplit(" size ", 1)[1])
            comps.append((oracle.zk(size), [int(v) for v in maps.split()]))
        sizes = [t.size for t, _ in comps]
        primes = sorted(oracle.primes_of(src.size)) if spec.startswith("mdk") else [2, 5]
        if sorted(sizes) != primes:
            errors.append(f"component sizes {sizes}, want {primes}")
        for t, mapping in comps:
            errors += oracle.homomorphism_errors(src, t, mapping)
        diagonal = [oracle.product_index([m[z] for _, m in comps], sizes) for z in range(src.size)]
        tail = lines[1 + count:]
        want_tail = [f"product size: {src.size}", "diagonal injective: yes",
                     "diagonal map: " + " ".join(map(str, diagonal))]
        if tail != want_tail:
            errors.append(f"summary {tail!r}, want {want_tail!r}")
        return errors

    def _classify(self, outcome, bound):
        import oracle

        code, out, err = outcome
        want = ["# k\tsize\tcharacteristic\tminimal\tfield"]
        for k in range(1, bound + 1):
            if oracle.is_squarefree(k):
                field = "yes" if oracle.is_prime(k) else "no"
                want.append(f"{k}\t{k}\t{k}\tyes\t{field}")
        errors = [] if code == 0 else [f"exit code {code}"]
        if out.splitlines() != want:
            errors.append("rows differ from the squarefree survey")
        return errors


_GALOIS_CACHE: dict = {}


def _galois(p: int, m: int):
    """GF(p^m) modulo the least monic irreducible, found with sympy."""
    import oracle

    if (p, m) not in _GALOIS_CACHE:
        rank = 0
        while not oracle.sympy_irreducible(oracle.digits(rank, p, m), p):
            rank += 1
        _GALOIS_CACHE[p, m] = oracle.gf(p, oracle.digits(rank, p, m))
    return _GALOIS_CACHE[p, m]


def _arg(text: str) -> str:
    """Formula text as a command-line argument.  argparse reads a leading '-'
    as an option, so a leading negation -(...) goes in brackets."""
    if not text.startswith("-"):
        return text
    depth = 0
    for end, c in enumerate(text):
        depth += (c == "(") - (c == ")")
        if c == ")" and depth == 0:
            return f"({text[:end + 1]}){text[end + 1:]}"
    raise ValueError(f"unbalanced {text!r}")


def _fraction(rng: random.Random):
    from fractions import Fraction

    roll = rng.random()
    if roll < 0.2:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _assign(env: dict) -> str:
    from fractions import Fraction

    def show(v):
        if isinstance(v, Fraction):
            return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        return str(v)

    return ",".join(f"{k}={show(v)}" for k, v in sorted(env.items()))


def _literal(outcome, want_code: int, want_out: str) -> list[str]:
    code, out, err = outcome
    errors = []
    if code != want_code:
        errors.append(f"exit code {code}, want {want_code}")
    if out != want_out:
        errors.append(f"output {out!r}, want {want_out!r}")
    return errors


def _q_falsified(formula, env) -> bool:
    """Whether a rational point falsifies a formula in atom form (premises
    hold, the conclusion fails), by the Fraction evaluator."""
    import oracle

    premises, conclusion = formula

    def holds(lhs, rhs, is_eq):
        return (oracle.q_eval(lhs, env)[0] == oracle.q_eval(rhs, env)[0]) == is_eq

    return all(holds(*p) for p in premises) and not holds(*conclusion)


WORKLOADS = {w.name: w for w in (ExhaustLaws, EncodeSoundness, Decompose, CliSession)}
