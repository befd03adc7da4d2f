"""Exact arithmetic for Kloosterman sums, double cosets of the odd orthogonal
and symplectic groups over GF(2^r), the binary codes their traces define, and
the recursive formulas tying code weight data to trace-one power moments."""

from .classical import (
    DEFAULT_BUDGET,
    ORTHOGONAL,
    SYMPLECTIC,
    BudgetError,
    CosetData,
    GroupOrders,
    coset_transversal,
    dc_trace_histogram,
    enumerate_double_coset,
    enumerate_parabolic,
    group_order_data,
    sigma_r,
)
from .dcsum import CellConstants, cell_constants, closed_histogram, expsum_closed, expsum_dc
from .gf2r import Field
from .ksum import kloosterman, kloosterman_gl, kloosterman_gl_bruteforce, ktable, moments
from .pmi import RecursionReport, full_moment_identity, mk_via_identity, pless_check, stirling2, t1k_recursive
from .wcode import (
    code_bruteforce_wd,
    delsarte_check,
    dual_enumerate,
    dual_kernel,
    dual_weight,
    weight_prefix,
    weight_prefix_closed,
)

__version__ = "0.1.0"
