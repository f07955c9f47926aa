"""Products and the symmetric eight-manifolds.

Two short stories.  First: on a Riemannian product the spin-3/2 index is
a cross-combination of each factor's spin-3/2 and spinor indices, and
the parallel fields count the same way; both are checked against direct
evaluation.  Second: the compact symmetric eight-manifolds that carry
kernel fields, with their exact kernel dimensions.
"""

from rslab import (
    CISpec,
    ParallelCounts,
    build_ci,
    holonomy_model,
    product_parallel_rs,
    product_rs_index,
    rs_index,
    symmetric_space_catalog,
)

k3 = build_ci(CISpec(2, (4,))).profile
quadric6 = build_ci(CISpec(3, (2,))).profile

for name, left, right in [
    ("K3 x K3", k3, k3),
    ("K3 x Q3", k3, quadric6),
]:
    li, ri = rs_index(left), rs_index(right)
    combined = li.total * ri.dirac - li.dirac * ri.dirac + li.dirac * ri.total
    direct = product_rs_index(left, right)
    assert direct == combined
    print(f"{name:<10} ind Q = {direct}"
          f"  (factors contribute {li.total}*{ri.dirac},"
          f" -{li.dirac}*{ri.dirac}, {li.dirac}*{ri.total})")

print()
print("parallel fields on products:")
for ltoken, rtoken in [("sp", "sp"), ("su", "su"), ("g2", "g2")]:
    left = holonomy_model(ltoken, 2 if ltoken != "g2" else None)
    right = holonomy_model(rtoken, 2 if rtoken != "g2" else None)
    left_counts, right_counts = (
        ParallelCounts(m.parallel_spinor_dimension(), m.parallel_rs_dimension(),
                       m.real_dimension)
        for m in (left, right)
    )
    report = product_parallel_rs(left_counts, right_counts)
    caveat = "" if report.proven else f"  [{report.note}]"
    print(f"    {left.group} x {right.group}: {report.count}{caveat}")

print()
print("compact symmetric eight-manifolds with kernel fields:")
for entry in symmetric_space_catalog():
    index = "no index data" if entry.rs_index is None else f"ind Q = {entry.rs_index}"
    print(f"    {entry.name:<10} dim ker Q = {entry.kernel_dimension}  ({index})")
    print(f"        {entry.detail}")
