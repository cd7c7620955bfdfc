"""Truncated odd-class symbol calculus on the circle with KP-hierarchy
solvers and verification pipelines."""

from .loopfn import LoopFn
from .symbol import (
    Symbol,
    TruncParams,
    commutator,
    compose,
    conj,
    hs_inner,
    invert,
    power,
    realize_matrix,
    split_DS,
)
from .tseries import (
    Path,
    TMono,
    TSeries,
    conj_t,
    ddt,
    eval_t,
    product_integral,
    scale_h,
    tcommutator,
    texp,
    tinvert,
    tmul,
)
from .factorization import (
    KPJet,
    build_U,
    conj_consistency,
    conj_from,
    ds_rhs_gap,
    kp_residual,
    kp_solve,
    mulase_factorize,
)
from .zerocurv import (
    ConnForm,
    Curvature2Form,
    build_Z,
    curvature,
    curvature_entry,
    ym_value,
    zs_residual,
)
from .kp2 import (
    FlowBlowup,
    FlowState,
    UPair,
    check_t12,
    check_t13,
    check_t23,
    equiv_t23,
    eval_taylor,
    extract_u,
    flow_delinearized,
    flows_commute,
    taylor_jet,
)

__version__ = "0.1.0"
