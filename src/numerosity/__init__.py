"""Exact numerosity arithmetic: ordinals, a symbolic ordered field, counting
chains, definable sets, a finite label-tree laboratory, and a surreal-number
fragment, with a calculator front end."""

from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ord,
    cantor_add,
    cantor_mul,
    format_ordinal,
    is_indecomposable,
    natural_add,
    natural_mul,
    ord_cmp,
    ord_exp,
)
from .field import (
    ALPHA,
    BETA,
    BETH1,
    X2W,
    AxiomTable,
    NumExpr,
    apply_bb,
    embed,
    format_numexpr,
    gamma_measure,
    nf_add,
    nf_cmp,
    nf_div,
    nf_eq,
    nf_mul,
    nf_pow,
    nf_sub,
    numexpr_to_json,
    standard_part,
)
from .chains import (
    ChainKind,
    CountingFn,
    cf_eval,
    cf_compare,
)
from .sets import (
    counting_fn,
    measure,
    num,
    subset_certified,
)
from .surreal import (
    SignExpansion,
    birthday,
    options,
    s_add,
    s_mul,
    s_neg,
    se_cmp,
    se_from_dyadic,
    se_value,
    simplest,
)
from .labtree import (
    PivotalTree,
    check_comparison_map,
    check_instance,
    check_counting_axioms,
    label,
    standard_instance,
    validate_labeltree,
    validate_pivotal,
)

__version__ = "0.1.0"
