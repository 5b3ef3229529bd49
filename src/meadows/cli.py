"""Command-line front end.

Model references:

* ``mdk:<k>``        minimal meadow of characteristic radical(k)
* ``zp:<p>``         zero-totalized prime field
* ``gf:<p>,<m>``     Galois field GF(p^m)
* ``q``              the zero-totalized rationals (sampled, never exhaustive)
* ``file:<path>``    a structure file
* ``prod:<a>,<b>``   product of model references (one level deep)

Exit codes: 0 success/valid, 1 some checked formula is invalid, 2 parse or
model error, 3 unbound variable or missing inverse table, 4 a size or
search bound was hit, 5 the ring is not regular, 6 no field decomposition:
the input is not a non-trivial meadow.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    DecompositionNotFound, MeadowError, MissingInverseTable,
    NoFiniteCharacteristic, NotPrime, NotRegular, ParseError, FormatError,
    SearchBoundExceeded, SizeOverflow, UnboundVariable, UniquenessViolated,
    UnsupportedPremise,
)
from .finite_meadows import (
    build_galois_field, build_mdk, build_prime_field, classify_minimal,
    decompose,
)
from .logic import encode_conditional, format_equation, parse_formula
from .rationals import eval_rational, parse_rational, sample_check_conditional
from .structures import (
    FiniteStructure, dump_structure, eval_term, load_structure, product,
)
from .suites import battery_check
from .terms import parse_term, term_size
from .vnr import expand_to_meadow

__all__ = ["main"]

DEFAULT_SEED = 0
DEFAULT_SAMPLES = 500


@dataclass(frozen=True)
class RationalModel:
    name: str = "Q0"


_PREFIXES = ("mdk:", "zp:", "gf:", "file:", "prod:")


def _split_product(body: str) -> list[str]:
    # Chunks that do not start a new model reference belong to the previous
    # one (gf:2,2 contains a comma).  Nesting prod inside prod is ambiguous
    # in this flat syntax and not supported.
    parts: list[str] = []
    for chunk in body.split(","):
        if chunk == "q" or chunk.startswith(_PREFIXES):
            parts.append(chunk)
        elif parts:
            parts[-1] += "," + chunk
        else:
            raise ParseError(f"bad product component {chunk!r}")
    return parts


def _int_arg(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {text!r}") from None


def resolve_model(spec: str):
    """Turn a model reference into a structure or the rational domain."""
    if spec == "q":
        return RationalModel()
    if spec.startswith("mdk:"):
        return build_mdk(_int_arg(spec[4:], "k"))
    if spec.startswith("zp:"):
        return build_prime_field(_int_arg(spec[3:], "p"))
    if spec.startswith("gf:"):
        parts = spec[3:].split(",")
        if len(parts) != 2:
            raise ParseError(f"gf takes p,m: {spec!r}")
        return build_galois_field(
            _int_arg(parts[0], "p"), _int_arg(parts[1], "m")
        )
    if spec.startswith("file:"):
        path = Path(spec[5:])
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from None
        return load_structure(text)
    if spec.startswith("prod:"):
        factors = []
        for part in _split_product(spec[5:]):
            factor = resolve_model(part)
            if isinstance(factor, RationalModel):
                raise ParseError("q cannot be a product factor")
            factors.append(factor)
        return product(factors)
    raise ParseError(f"unknown model reference {spec!r}")


def _parse_assignment(text: str, value_of) -> dict:
    """Comma-separated name=value pairs; value_of(name, text) reads a value."""
    out = {}
    for item in text.split(",") if text else ():
        name, eq, value = item.partition("=")
        if not eq or not name:
            raise ParseError(f"assignments look like x=2, got {item!r}")
        out[name.strip()] = value_of(name.strip(), value)
    return out


def _carrier_value(s: FiniteStructure, name: str, text: str) -> int:
    v = _int_arg(text.strip(), f"value for {name}")
    if not 0 <= v < s.size:
        raise UnboundVariable(f"{name}={v} is outside the carrier of {s.name}")
    return v


def _format_witness(witness) -> str:
    if not witness:
        return "{}" if witness is not None else "-"
    return ",".join(f"{k}={witness[k]}" for k in sorted(witness))


# --- commands ----------------------------------------------------------------

def cmd_eval(term_text: str, model_spec: str, assign_text: str) -> tuple[str, int]:
    term = parse_term(term_text)
    model = resolve_model(model_spec)
    if isinstance(model, RationalModel):
        binding = _parse_assignment(assign_text, lambda _, text: parse_rational(text))
        trace = eval_rational(term, binding)
        suffix = " (unsafe)" if trace.unsafe_division_used else ""
        return f"{trace.value}{suffix}\n", 0
    binding = _parse_assignment(assign_text, functools.partial(_carrier_value, model))
    return f"{eval_term(term, model, binding)}\n", 0


def cmd_check(
    formula_text: str,
    model_specs: list[str],
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> tuple[str, int]:
    if samples < 1:
        raise ParseError(f"--samples must be at least 1, got {samples}")
    formula = parse_formula(formula_text)
    models = [resolve_model(spec) for spec in model_specs]
    report = battery_check(
        formula, [m for m in models if not isinstance(m, RationalModel)]
    )
    finite_rows = iter(report.rows)
    lines = []
    all_valid = report.meadows_valid
    for model in models:
        if isinstance(model, RationalModel):
            verdict = sample_check_conditional(formula, samples, seed)
            name, witness = model.name, verdict.counterexample
        else:
            name, verdict = next(finite_rows)
            witness = verdict.witness
        all_valid = all_valid and verdict.holds
        word = "valid" if verdict.holds else "invalid"
        lines.append(f"{name}\t{word}\t{_format_witness(witness)}")
    if report.rows:
        lines.append(
            f"# fields: {'valid' if report.fields_valid else 'invalid'}"
            f"\tmeadows: {'valid' if report.meadows_valid else 'invalid'}"
            f"\tagree: {'yes' if report.agreement else 'no'}"
        )
    return "\n".join(lines) + "\n", 0 if all_valid else 1


def cmd_table(model_spec: str) -> tuple[str, int]:
    model = resolve_model(model_spec)
    if isinstance(model, RationalModel):
        raise ParseError("the rationals have no finite table")
    return dump_structure(model), 0


# The encoding shares its subterms but prints as a tree, in which k
# premises occur 4^(k-1) times over (u_merge uses each side four times).
# This many nodes print to about 3 MB, at nine premises; 15 would be 11 GB.
_MAX_PRINTED_NODES = 1 << 21


def cmd_encode(formula_text: str) -> tuple[str, int]:
    encoded = encode_conditional(parse_formula(formula_text))
    nodes = term_size(encoded.lhs) + term_size(encoded.rhs)
    if nodes > _MAX_PRINTED_NODES:
        raise SizeOverflow(
            f"the encoding has {nodes} nodes, above the bound of "
            f"{_MAX_PRINTED_NODES} that encode prints"
        )
    return format_equation(encoded) + "\n", 0


def cmd_expand(path_text: str) -> tuple[str, int]:
    try:
        text = Path(path_text).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path_text}: {exc}") from None
    return dump_structure(expand_to_meadow(load_structure(text))), 0


def cmd_decompose(model_spec: str) -> tuple[str, int]:
    model = resolve_model(model_spec)
    if isinstance(model, RationalModel):
        raise ParseError("decomposition needs a finite model")
    result = decompose(model)
    lines = [f"components: {len(result.components)}"]
    for i, hom in enumerate(result.components, start=1):
        onto = "onto" if hom.is_surjective else "into"
        mapped = " ".join(map(str, hom.mapping))
        lines.append(
            f"component {i}: {onto} {hom.target.name} size {hom.target.size}"
            f" map: {mapped}"
        )
    lines.append(f"product size: {result.product.size}")
    lines.append(
        "diagonal injective: "
        + ("yes" if result.diagonal.is_injective else "no")
    )
    lines.append("diagonal map: " + " ".join(map(str, result.diagonal.mapping)))
    return "\n".join(lines) + "\n", 0


def cmd_classify(bound: int) -> tuple[str, int]:
    rows = classify_minimal(bound)
    lines = ["# k\tsize\tcharacteristic\tminimal\tfield"]
    for row in rows:
        lines.append(
            f"{row.k}\t{row.size}\t{row.characteristic}"
            f"\t{'yes' if row.minimal else 'no'}"
            f"\t{'yes' if row.field else 'no'}"
        )
    return "\n".join(lines) + "\n", 0


# --- wiring ------------------------------------------------------------------

_EXIT_CODES: list[tuple[type, int]] = [
    (ParseError, 2),
    (FormatError, 2),
    (NotPrime, 2),
    (UnsupportedPremise, 2),
    (NoFiniteCharacteristic, 2),
    (UniquenessViolated, 2),
    (UnboundVariable, 3),
    (MissingInverseTable, 3),
    (SizeOverflow, 4),
    (SearchBoundExceeded, 4),
    (NotRegular, 5),
    (DecompositionNotFound, 6),
]


def _exit_code(exc: Exception) -> int:
    for kind, code in _EXIT_CODES:
        if isinstance(exc, kind):
            return code
    return 2


# Built once per process: each command's run looks its cmd_* function up
# when it is called, so rebinding one later still takes effect.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meadows",
        description="Evaluate, model-check and decompose meadows.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate a term in a model")
    p.add_argument("term")
    p.add_argument("--model", required=True)
    p.add_argument("--assign", default="")
    p.set_defaults(run=lambda a: cmd_eval(a.term, a.model, a.assign))

    p = sub.add_parser("check", parents=[common], help="check an equation or conditional")
    p.add_argument("formula")
    p.add_argument("--model", action="append", required=True)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(run=lambda a: cmd_check(a.formula, a.model, a.samples, a.seed))

    p = sub.add_parser("table", parents=[common], help="print a model's tables as a structure file")
    p.add_argument("model")
    p.set_defaults(run=lambda a: cmd_table(a.model))

    p = sub.add_parser("encode", parents=[common], help="encode a conditional equation as an equation")
    p.add_argument("formula")
    p.set_defaults(run=lambda a: cmd_encode(a.formula))

    p = sub.add_parser("expand", parents=[common], help="expand a regular ring file with its inverse")
    p.add_argument("file")
    p.set_defaults(run=lambda a: cmd_expand(a.file))

    p = sub.add_parser("decompose", parents=[common], help="decompose a meadow into fields")
    p.add_argument("model")
    p.set_defaults(run=lambda a: cmd_decompose(a.model))

    p = sub.add_parser("classify", parents=[common], help="survey minimal meadows up to a bound")
    p.add_argument("--bound", type=int, default=30)
    p.set_defaults(run=lambda a: cmd_classify(a.bound))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = args.run(args)
    except MeadowError as exc:
        print(str(exc), file=sys.stderr)
        return _exit_code(exc)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
