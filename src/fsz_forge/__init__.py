"""Exact arithmetic for a family of p-groups and FSZ_n decisions.

The family S(p,j) is an abelian group of mixed moduli extended by an
order-p^j automorphism.  The library builds the automorphism matrix,
verifies its defining identities, evaluates p^j-th powers in closed
form, counts the sets G_n(u,g) two independent ways, and turns count
mismatches into non-FSZ witnesses.
"""

from .mixedmod import (
    EndoMatrix,
    GroupParams,
    MatrixInvariantError,
    MixedVector,
    ParameterError,
)
from .construction import (
    build_b,
    build_shift,
    build_y,
    verify_construction,
)
from .spgroup import (
    ElementSyntaxError,
    EnumerationLimitError,
    SElement,
    SpjGroup,
    format_element,
    parse_element,
    power_pj,
    structure_report,
)
from .gncount import (
    GnCount,
    TableError,
    TableGroup,
    exponent,
    gn_count_bruteforce,
    gn_count_structured,
    load_table_group,
    validate_table,
)
from .fszcheck import (
    FszVerdict,
    FszWitness,
    VerificationError,
    check_fsz,
    check_fsz_n,
    residue_witness_classes,
    spj_witness,
)
from .cli import run, serialize_report

__version__ = "0.1.0"

__all__ = [
    "EndoMatrix",
    "GroupParams",
    "MatrixInvariantError",
    "MixedVector",
    "ParameterError",
    "build_b",
    "build_shift",
    "build_y",
    "verify_construction",
    "ElementSyntaxError",
    "EnumerationLimitError",
    "SElement",
    "SpjGroup",
    "format_element",
    "parse_element",
    "power_pj",
    "structure_report",
    "GnCount",
    "TableError",
    "TableGroup",
    "exponent",
    "gn_count_bruteforce",
    "gn_count_structured",
    "load_table_group",
    "validate_table",
    "FszVerdict",
    "FszWitness",
    "VerificationError",
    "check_fsz",
    "check_fsz_n",
    "residue_witness_classes",
    "spj_witness",
    "run",
    "serialize_report",
    "__version__",
]
