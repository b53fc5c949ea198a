"""The package's numerical tolerances: one name per meaning, defined only here.

Every pass/fail verdict compares a measured value with one of these. A check
that raises also fails on NaN, and its message names the entry and the value.
"""

NORM_TOL = 1e-9  # absolute: |squared norm - 1| of an input state, and |prior sum - 1|
RANK_TOL = 1e-8  # absolute: span cut; singular values at or below it add no direction
DEPENDENCY_TOL = 1e-8  # absolute: miss of M u = a, of the product rule or of the span cut
PSD_TOL = 1e-9  # absolute: most negative success-Gram eigenvalue still counted feasible
OPERATOR_TOL = 1e-10  # absolute: positivity or unitarity defect counted as rounding
PROB_TOL = 1e-12  # absolute: probabilities or squared weights this close count as equal
