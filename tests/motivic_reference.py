"""Reference integration for the differential tests in test_motivic.py.

This is the earlier `integrate_cells`, kept verbatim: it checks the family
and re-splits and re-sizes every residue class on each call, with
`_class_size` factoring the excluded residues as it finds them.  The
library's plan must give the same value, excluded primes and derivation.
"""

from fractions import Fraction

from dpcalc.errors import UnsupportedZeroCell
from dpcalc.formula import Formula, RfNe, Sort, pretty_print
from dpcalc.formula.nodes import conjuncts
from dpcalc.motivic import (ZERO_CELL, ConstructibleFn, IntegrationResult,
                            _center_notes, _check_disjoint, _check_room,
                            _fold_and, _freeze_bad, _linear_residue_parts,
                            _note, _split_components, _vf_degree, bad_primes)
from dpcalc.poly import factor
from dpcalc.presburger import PresTerm, SymSum
from dpcalc.presburger import sum as pres_sum
from dpcalc.symring import ONE, ZERO, L, SymA


def _class_size(phi, reserved, budget):
    """Exact class size for a conjunction of linear disequalities over
    non-parameter residue variables: each variable contributes L minus its
    number of excluded residues.  Returns (SymA, notes) or None when the
    class has to stay a formula.  notes lists (prime, reason) pairs for
    primes where the excluded residues degenerate."""
    names = [n for n, _ in phi.free]
    if any(n in reserved for n in names):
        return None
    if any(s is not Sort.RF for _, s in phi.free):
        return None
    excluded = {n: set() for n in names}
    notes = []
    for conj in conjuncts(phi.expr):
        if not isinstance(conj, RfNe):
            return None
        left = _linear_residue_parts(conj.left)
        right = _linear_residue_parts(conj.right)
        if left is None or right is None:
            return None
        coeffs = dict(left[0])
        for v, c in right[0].items():
            coeffs[v] = coeffs.get(v, 0) - c
        coeffs = {v: c for v, c in coeffs.items() if c}
        const = left[1] - right[1]
        if not coeffs:
            if const == 0:
                return ZERO, notes
            continue
        if len(coeffs) != 1:
            return None
        (v, c), = coeffs.items()
        value = Fraction(-const, c)
        if abs(c) != 1:
            for p in factor(c, budget):
                notes.append((p, "coefficient %d on %s is not invertible"
                              % (c, v)))
        if value.denominator != 1:
            for p in factor(value.denominator, budget):
                notes.append((p, "excluded residue %s is not integral"
                              % value))
        excluded[v].add(value)
    size = ONE
    for v in names:
        vals = sorted(excluded[v])
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                for p in factor((vals[j] - vals[i]).numerator, budget):
                    notes.append((p, "residues %s and %s of %s collide"
                                  % (vals[i], vals[j], v)))
        size = size * (L - SymA.from_int(len(vals)))
    return size, notes


def integrate_cells(cells, params=(), budget=None):
    """Integrate the coefficients over a disjoint family of cells.

    Every 1-cell contributes its residue class tensored with the
    exact sum of psi * L^(-alpha - 1) over its value-group variables;
    parameter-free classes cut out by linear disequalities collapse to
    their ring cardinality.  0-cells contribute nothing to the value; their
    counting terms go to the derivation log, and non-affine centers are
    rejected."""
    cells = tuple(cells)
    _check_disjoint(cells)

    param_names = {n for n, _ in params}
    bad = {}
    derivation = []
    terms = []

    for cell in cells:
        _center_notes(cell, bad, budget)
        if cell.class_formula is not None:
            for p, reasons in bad_primes(cell.class_formula,
                                         budget).items():
                for r in reasons:
                    _note(bad, p, r)

        if cell.kind == ZERO_CELL:
            if cell.center_term is None or _vf_degree(cell.center_term) > 1:
                raise UnsupportedZeroCell(
                    "cell %s: only affine centers are supported, got %s"
                    % (cell.cell_id, cell.center_text))
            counting = SymSum((cell.psi,))
            contribution = ConstructibleFn.zero(params)
            note = ("measure zero; counting term %s recorded only"
                    % counting.render())
        else:
            _check_room(cell)
            psi = cell.psi
            summed = pres_sum(cell.z_domain, PresTerm(
                psi.coefficient, psi.exponent - cell.alpha - 1))
            cls = cell.class_formula
            note = ""
            if cls is not None:
                kept = []
                sized = []
                for _, nodes in _split_components(cls):
                    sub = Formula(_fold_and(nodes))
                    collapsed = _class_size(sub, param_names, budget)
                    if collapsed is None:
                        kept.extend(nodes)
                        continue
                    size, notes = collapsed
                    for p, r in notes:
                        _note(bad, p, r)
                    summed = summed * size
                    sized.append((pretty_print(sub), size.render()))
                if sized:
                    note = "; ".join("class factor [%s] collapsed to %s"
                                     % pair for pair in sized)
                    cls = Formula(_fold_and(kept)) if kept else None
            contribution = ConstructibleFn(
                ((cls, cell.param_domain, summed),), params)
        derivation.append((cell.cell_id, contribution, note))
        terms.extend(contribution.terms)

    return IntegrationResult(value=ConstructibleFn(terms, params),
                             bad_primes=_freeze_bad(bad),
                             derivation=tuple(derivation))
