"""Workbench for meadows: commutative rings with a total inverse.

A meadow is a commutative ring with unit carrying a unary inverse that
satisfies reflection ((x^-1)^-1 = x) and the restricted inverse law
(x*(x*x^-1) = x); necessarily 0^-1 = 0.  Zero-totalized fields and their
products are meadows, and every non-trivial finite meadow is isomorphic
to a finite product of zero-totalized fields — the `decompose` operation
exhibits that isomorphism concretely.

The package provides the term language, finite structures as operation
tables with exhaustive equation checking, constructors for prime fields,
Galois fields and the minimal meadows of each squarefree characteristic,
the expansion of von Neumann regular rings, exact zero-totalized rational
arithmetic, and a CLI tying it together.
"""

from .errors import (
    DecompositionNotFound, FormatError, MeadowError, MissingInverseTable,
    NoFiniteCharacteristic, NotAMeadow, NotPrime, NotRegular, ParseError,
    SearchBoundExceeded, SizeOverflow, UnboundVariable, UniquenessViolated,
    UnsupportedPremise,
)
from .terms import (
    ONE, ZERO, Add, Inv, Mul, Neg, One, Term, Var, Zero,
    div, free_vars, local_unit, numeral, parse_term, print_term, sub,
    substitute, term_size,
)
from .logic import (
    AXIOM_SETS, CR, DERIVED_IDENTITIES, GIL, MD, REF, RIL, SEP, SIP, ZIL,
    Atom, ConditionalEquation, Disequation, Equation,
    c_guard, encode_conditional, format_atom, format_conditional,
    format_equation, ln_equation, normalize_to_zero, parse_conditional,
    parse_equation, parse_formula, u_merge, z_term,
)
from .structures import (
    MAX_TABLE_ENTRIES, Assignment, FiniteStructure, Homomorphism,
    PrincipalIdeal, Verdict,
    characteristic, check_axiom_set, check_conditional, check_equation,
    dump_structure, eval_term, field_factors, find_homomorphisms,
    generating_set, idempotents, is_meadow, is_minimal, is_nontrivial,
    is_zt_field,
    load_structure, principal_ideal, product, product_coords, product_index,
    satisfies_iel, subalgebra_generated, unit_of,
)
from .finite_meadows import (
    Decomposition, MeadowDescriptor, MinimalMeadowRow,
    build_galois_field, build_mdk, build_prime_field, classify_minimal,
    decompose, distinct_primes, galois_descriptor, inverse_by_power_cycle,
    is_prime, is_squarefree, least_irreducible, mdk_descriptor, radical,
)
from .vnr import (
    RegularityReport, expand_inverse_table, expand_to_meadow,
    explicit_inverse_check, is_regular, pseudoinverses,
    unique_double_pseudoinverse, zmod_ring,
)
from .rationals import (
    EvalTrace, Q_ONE, Q_ZERO, RationalZT, SampleVerdict, eval_rational,
    parse_rational, q_add, q_inv, q_mul, q_neg, rational,
    sample_assignments, sample_check, sample_check_conditional,
)
from .suites import (
    BatteryReport, battery_check, derived_identity_suite, random_conditional,
    random_equation, random_term, standard_battery,
)

__version__ = "0.1.0"
