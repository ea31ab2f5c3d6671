"""The q-maximum principle at desk scale.

For star-free (holomorphic) elements the ball and boundary norms agree in
the limit; for the sphere relation they differ by 1, exhibiting a genuine
boundary ideal.  All reported values are certified lower bounds on nested
truncation schedules.
"""

from qball import make_schedule, max_principle_report, parse_expression

q = 0.5


def show(text, n, schedule):
    f = parse_expression(text, n)
    report = max_principle_report(f, q, schedule)
    print(f"  {text!r}  (n={n}, holomorphic={report.holomorphic})")
    for (N, M), b, d in zip(schedule, report.ball.values(),
                            report.boundary.values()):
        print(f"    N={N:3d} M={M:5d}  "
              f"ball={b:.9f}  boundary={d:.9f}  gap={abs(b - d):.2e}")


print("== holomorphic elements: gap -> 0 ==")
show("1+z1", 1, make_schedule([10, 20, 40], 4096))
show("z1+z2", 2, make_schedule([6, 9, 12], 64))
show("z1*z2 + q*z2^2", 2, make_schedule([6, 9, 12], 64))

print()
print("== the sphere relation: boundary norm vanishes, ball norm is 1 ==")
show("1 - z1*z1'", 1, make_schedule([8, 16], 64))
