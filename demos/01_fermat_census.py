"""
Counting the quadratic representations of the Fermat quartic
============================================================

"""

# parse the quartic from plain text; coefficients are kept exact
from quartic_sos import parse_quartic

f = parse_quartic("x^4 + y^4 + z^4")
print("input:", f)

# run the full pipeline: exact smoothness test, rank-3 solve over the Gram
# family, non-negativity read off its PSD classes (the sphere search and
# eigenvalue ascent run only when there are none), classification of every class
from quartic_sos import SolveConfig, theorem1_check

report = theorem1_check(f, SolveConfig())
counts = report.solution_set.counts
print("classes found:", counts[0])
print("real classes:", counts[1])
print("sums of three squares:", counts[2])
print("certified:", report.passed)

# the eight positive-semidefinite classes are honest sums of three squares;
# print one and re-verify it by expanding the squares coefficientwise
from quartic_sos import QuadraticForm, verify_representation


def tidy(form):
    # drop numerical dust far below the leading coefficient, for display only
    top = max(abs(complex(c)) for c in form.coeffs)
    return QuadraticForm(tuple(
        0.0 if abs(complex(c)) < 1e-9 * top else round(complex(c).real, 12)
        for c in form.coeffs
    ))


sos = [r for r in report.representations if r.is_sum_of_squares]
rep = sos[0]
print("\none certificate, f = p1^2 + p2^2 + p3^2 with")
for k, form in enumerate(rep.forms, start=1):
    print(f"  p{k} =", tidy(form))
[verdict] = verify_representation(f, [rep])
print("re-expansion residual:", verdict.residual)
print("verified:", verdict.passed)

# the remaining real classes all mix signs, and the non-real classes
# come in conjugate pairs; the count report records both facts
cr = report.count_report
print("\nmixed-sign real classes:", report.mixed_real_total)
print("non-real classes:", cr["nonreal_total"], "in", cr["conjugate_pairs"], "pairs")
