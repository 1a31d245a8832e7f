"""
What happens on inputs outside the theorem's hypotheses
=======================================================

"""

# an indefinite quartic: smooth, but takes negative values
from quartic_sos import build_family, eval_quartic, nonnegativity_test, parse_quartic, smoothness_test

f = parse_quartic("x^4 + y^4 - z^4")
print("input:", f)
print("smooth:", smoothness_test(f).smooth)

positivity = nonnegativity_test(f, build_family(f))
print("nonnegative:", positivity.nonnegative)
print("witness point:", tuple(round(c, 6) for c in positivity.counterexample))
print("value there:", eval_quartic(f, positivity.counterexample))

# no positive-semidefinite Gram point can exist for it, and none is found
from quartic_sos import SolveConfig, solve_all

solution = solve_all(build_family(f), SolveConfig())
print("classes:", solution.counts[0], " sums of three squares:", solution.counts[2])

# a singular quartic: the exact Macaulay test refuses it up front,
# so the pipeline asserts nothing rather than reporting shaky counts
from quartic_sos import HypothesisFailed, theorem1_check

g = parse_quartic("(x^2 + y^2 + z^2)^2")
print("\ninput:", g)
status = smoothness_test(g)
print("smooth:", status.smooth, " method:", status.method)
try:
    theorem1_check(g, SolveConfig())
except HypothesisFailed as exc:
    print("pipeline refused:", exc.hypothesis, "-", exc.detail)
