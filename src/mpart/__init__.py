"""Exact enumeration of m-ary partitions, gap-free variants, and congruences."""

from .bijection import BetaSeq, enumerate_members, is_member, phi, phi_inv
from .budgets import (
    BudgetExceeded,
    EnumerationBudgetExceeded,
    LoopBudgetExceeded,
    TableBudgetExceeded,
)
from .congruence import (
    Residue,
    afs_c_mod,
    b_mod_product,
    c_mod_formula,
    churchhouse_check,
)
from .counting import (
    count_b_gf,
    count_b_nested,
    count_b_poly,
    count_b_recurrence,
    count_c_nested,
    count_c_poly,
    recurrence_table,
)
from .partitions import (
    MaryPartition,
    count_b_enum,
    count_c_enum,
    enumerate_b,
    enumerate_c,
    is_gap_free,
    weight,
)
from .polysum import IntPolynomial
from .radix import BaseRepr, chi_vector, to_base

__version__ = "0.1.0"

__all__ = [
    "BaseRepr",
    "BetaSeq",
    "BudgetExceeded",
    "EnumerationBudgetExceeded",
    "IntPolynomial",
    "LoopBudgetExceeded",
    "MaryPartition",
    "Residue",
    "TableBudgetExceeded",
    "afs_c_mod",
    "b_mod_product",
    "c_mod_formula",
    "chi_vector",
    "churchhouse_check",
    "count_b_enum",
    "count_b_gf",
    "count_b_nested",
    "count_b_poly",
    "count_b_recurrence",
    "count_c_enum",
    "count_c_nested",
    "count_c_poly",
    "enumerate_b",
    "enumerate_c",
    "enumerate_members",
    "is_gap_free",
    "is_member",
    "phi",
    "phi_inv",
    "recurrence_table",
    "to_base",
    "weight",
]
