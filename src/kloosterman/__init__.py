"""Exact arithmetic for Kloosterman sums, double cosets of the odd orthogonal
and symplectic groups over GF(2^r), the binary codes their traces define, and
the recursive formulas tying code weight data to trace-one power moments."""

from .dcsum import (
    CellConstants, GroupOrders, cell_constants, closed_histogram, dc_trace_histogram, expsum_closed,
    expsum_dc, group_order_data,
)
from .gf2r import Field
from .guards import DEFAULT_BUDGET, ORTHOGONAL, SYMPLECTIC, BudgetError
from .ksum import kloosterman, kloosterman_gl, ktable, moments
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
