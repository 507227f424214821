"""Exterior bialgebra engine with Hodge duality, spin groups, Riemannian
charts and a gauge field-model layer."""

__version__ = "0.1.0"

from .metric import GafieldsError, Metric, new_metric, minor, is_isometry
from .multivector import (
    Multivector,
    ProductTable,
    build_product_table,
    wedge,
    basis_convert,
    grade_project,
    reversion,
    conjugate_star,
    trace,
    scalar_product,
    hodge_star,
    star_inverse,
    volume_form,
    exp_mv,
)
from .expr import CExpr, Expr, parse, diff, evaluate, to_str
from .spin import NotSpinIsometry, is_spin_member, isometry_of, factor_isometry
from .manifold import (
    Chart,
    FormField,
    CoordinateChange,
    d_op,
    delta_op,
    upsilon_op,
    laplace,
)
from .fields import (
    FieldConfig,
    main_residual,
    gauge_transform,
    conservation_defect,
    system_residuals,
)
from .dirac import gamma_matrices, rep_map, minkowski_metric

__all__ = [
    "GafieldsError",
    "Metric", "new_metric", "minor", "is_isometry",
    "Multivector", "ProductTable", "build_product_table",
    "wedge", "basis_convert", "grade_project",
    "reversion", "conjugate_star", "trace", "scalar_product",
    "hodge_star", "star_inverse", "volume_form", "exp_mv",
    "CExpr", "Expr", "parse", "diff", "evaluate", "to_str",
    "NotSpinIsometry", "is_spin_member", "isometry_of", "factor_isometry",
    "Chart", "FormField", "CoordinateChange",
    "d_op", "delta_op", "upsilon_op", "laplace",
    "FieldConfig", "main_residual", "gauge_transform",
    "conservation_defect", "system_residuals",
    "gamma_matrices", "rep_map", "minkowski_metric",
]
