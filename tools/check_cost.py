"""What an exhaustive check costs, and which route decides it.

    python3 tools/check_cost.py [--number 2000] [--repeat 7] [--top 210]
                                [--rounds 2] [--seeded 4] [--seed 3]

Prints two tables, from the ``meadows`` of this checkout alone.

The first gives microseconds per check, best of ``--repeat`` runs of
``--number`` checks each, for four checks that show the checker's fixed
cost: ``mul_one`` on Md_210, ``add_comm`` on Md_6, and ``distrib`` and
``implicit_inverse`` on Md_30.  Each structure is built once and checked a
few times before it is timed, so the time is that of a structure that
keeps what its earlier checks paid for; the route column says which route
decided the timed check.

The second is a route census of one round: MD, SIP, the derived identities
and GIL, then ``--seeded`` equations in x and y from ``random_equation``,
on every squarefree Md_k <= ``--top``.  The structures are built once and
the round runs ``--rounds`` times; the last one is counted, so structures
that have paid for their ``decompose`` are seen as a session of many checks
sees them.  Per route it gives the checks and the time they took.  The
routes are:

- ``grid 1eD``: the structure's own grid, of 10^D to 10^(D+1) cells, was
  searched up to its least falsifier or to its end;
- ``first block``: the search stopped at its first block, head value 0
  alone, which held the least falsifier;
- ``fold``: the structure is a field and both sides folded to one
  polynomial;
- ``factors``: the formula held on every field factor of the structure.

The routes are read by wrapping ``_search``, ``_broadcast_eval`` and
``_same_polynomial`` of ``meadows.structures`` for the census only.
"""

import argparse
import random
import sys
import time
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import meadows.structures as structures  # noqa: E402
from meadows import (  # noqa: E402
    DERIVED_IDENTITIES, GIL, MD, SIP, build_mdk, check_conditional,
    random_equation,
)

CHECKS = (
    ("mul_one", 210, MD["mul_one"]),
    ("add_comm", 6, MD["add_comm"]),
    ("distrib", 30, MD["distrib"]),
    ("implicit_inverse", 30, DERIVED_IDENTITIES["implicit_inverse"]),
)


class Routes:
    """While active, records what decided each check made through it."""

    def __init__(self):
        self.searches = []  # [structure, blocks, first block's head values, witness]
        self.folded = []  # the structures whose polynomials decided

    def __enter__(self):
        self.saved = {
            name: getattr(structures, name)
            for name in ("_search", "_broadcast_eval", "_same_polynomial")
        }
        search, evaluate, fold = self.saved.values()

        def search_spy(s, *args):
            record = [s, 0, None, None]
            self.searches.append(record)
            record[3] = search(s, *args)
            return record[3]

        def evaluate_spy(s, ops, env):
            record = self.searches[-1]
            if not record[1]:
                free = sorted(v for v, x in env.items() if hasattr(x, "shape"))
                record[2] = env[free[0]].size if free else None
            record[1] += 1
            return evaluate(s, ops, env)

        def fold_spy(s, *args):
            same = fold(s, *args)
            if same:
                self.folded.append(s)
            return same

        structures._search = search_spy
        structures._broadcast_eval = evaluate_spy
        structures._same_polynomial = fold_spy
        return self

    def __exit__(self, *exc):
        for name, real in self.saved.items():
            setattr(structures, name, real)

    def check(self, s, formula):
        """Check formula on s: (route, seconds)."""
        self.searches.clear()
        self.folded.clear()
        start = time.perf_counter()
        check_conditional(s, formula)
        elapsed = time.perf_counter() - start
        own = [r for r in self.searches if r[0] is s]
        if own:
            _, blocks, first, witness = own[0]
            if blocks == 1 and first == 1 < s.size and witness is not None:
                return "first block", elapsed
            _, _, _, _, cells = structures._compile(s, formula.program)
            return f"grid 1e{len(str(cells)) - 1}", elapsed
        if any(f is s for f in self.folded):
            return "fold", elapsed
        return "factors", elapsed


def per_check(number: int, repeat: int) -> list[tuple[str, str, float, str]]:
    """(law, structure, microseconds per check, route) for CHECKS."""
    out = []
    for name, k, formula in CHECKS:
        s = build_mdk(k)
        for _ in range(5):
            check_conditional(s, formula)
        with Routes() as routes:
            route, _ = routes.check(s, formula)
        best = min(timeit.repeat(
            lambda: check_conditional(s, formula), number=number, repeat=repeat
        ))
        out.append((name, s.name, best / number * 1e6, route))
    return out


def census(top: int, rounds: int, seeded: int, seed: int) -> dict[str, list]:
    """Route -> [checks, seconds] over the last of rounds rounds."""
    rng = random.Random(seed)
    squarefree = [
        k for k in range(1, top + 1)
        if all(k % (p * p) for p in range(2, int(k**0.5) + 1))
    ]
    laws = [*MD.values(), *SIP.values(), *DERIVED_IDENTITIES.values(), GIL]
    work = [
        (s, laws + [random_equation(rng, ("x", "y"), 3) for _ in range(seeded)])
        for s in map(build_mdk, squarefree)
    ]
    for _ in range(rounds - 1):
        for s, formulas in work:
            for formula in formulas:
                check_conditional(s, formula)
    out: dict[str, list] = {}
    with Routes() as routes:
        for s, formulas in work:
            for formula in formulas:
                route, elapsed = routes.check(s, formula)
                tally = out.setdefault(route, [0, 0.0])
                tally[0] += 1
                tally[1] += elapsed
    return out


def _order(route: str):
    return (route.startswith("grid"), route)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, default=2000,
                        help="checks per timed run (default 2000)")
    parser.add_argument("--repeat", type=int, default=7,
                        help="timed runs, the best counts (default 7)")
    parser.add_argument("--top", type=int, default=210,
                        help="census on squarefree Md_k, k <= top (default 210)")
    parser.add_argument("--rounds", type=int, default=2,
                        help="rounds run, the last one counted (default 2)")
    parser.add_argument("--seeded", type=int, default=4,
                        help="seeded equations per structure (default 4)")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)

    print(f"per check, best of {args.repeat} x {args.number}:")
    for name, where, us, route in per_check(args.number, args.repeat):
        print(f"  {name:18s} {where:8s} {us:9.2f} us   {route}")

    routes = census(args.top, args.rounds, args.seeded, args.seed)
    checks = sum(n for n, _ in routes.values())
    seconds = sum(t for _, t in routes.values())
    print(f"route census, round {args.rounds} of {args.rounds} on squarefree "
          f"Md_k <= {args.top}: {checks} checks, {seconds * 1e3:.1f} ms")
    for route in sorted(routes, key=_order):
        n, t = routes[route]
        print(f"  {route:12s} {n:6d} checks {t * 1e3:9.2f} ms {t / n * 1e6:9.1f} us/check")
    return 0


if __name__ == "__main__":
    sys.exit(main())
