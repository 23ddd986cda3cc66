"""Three-sorted formulas: syntax, printing, finite-precision semantics, and
residue point counting."""

from .nodes import (And, Exists, Formula, Node, Not, Or, RfAc, RfAdd,
                    RfConst, RfEq, RfMul, RfNe, RfNeg, RfPow, RfSub, RfVar,
                    Sort, VfAdd, VfConst, VfEq, VfMul, VfNeg, VfPow, VfSub,
                    VfUnif, VfVar, ZzAdd, ZzCong, ZzConst, ZzEq, ZzInf,
                    ZzLe, ZzLt, ZzNeg, ZzOrd, ZzScale, ZzSub, ZzVar,
                    free_vars, walk)
from .parse import parse, parse_term
from .printer import pretty_print
from .interpret import Truth3, eval_vf_term, interpret
from .count import count_rf_points

__all__ = [
    "And", "Exists", "Formula", "Node", "Not", "Or", "RfAc", "RfAdd",
    "RfConst", "RfEq", "RfMul", "RfNe", "RfNeg", "RfPow", "RfSub", "RfVar",
    "Sort", "Truth3", "VfAdd", "VfConst", "VfEq", "VfMul", "VfNeg", "VfPow",
    "VfSub", "VfUnif", "VfVar", "ZzAdd", "ZzCong", "ZzConst", "ZzEq",
    "ZzInf", "ZzLe", "ZzLt", "ZzNeg", "ZzOrd", "ZzScale", "ZzSub", "ZzVar",
    "count_rf_points", "eval_vf_term", "free_vars", "interpret", "parse",
    "parse_term", "pretty_print", "walk",
]
