"""Complete isometry sampled at matrix level two.

The boundary restriction preserves norms of matrices over the holomorphic
subalgebra, not just of single elements.  This script compares ball and
boundary norms for 2x2 matrices (and a row) of star-free entries.
"""

from qball import make_schedule, max_principle_report, parse_expression

q = 0.5
schedule = make_schedule([6, 9, 12], 64)

for text in ["[z1, z2; 0, z1]", "[z1, z2]", "[z1, 0; 0, z2]"]:
    F = parse_expression(text, 2)
    report = max_principle_report(F, q, schedule)
    print(f"{text}:")
    print(f"  ball     = {report.ball.final:.9f}")
    print(f"  boundary = {report.boundary.final:.9f}")
    print(f"  gap      = {report.gap:.2e}")
