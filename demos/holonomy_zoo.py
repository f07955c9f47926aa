"""Spin-3/2 decompositions across the holonomy zoo.

For each special holonomy group the spin-3/2 bundle splits into
irreducible summands; the trivial ones are exactly the parallel
Rarita-Schwinger fields.  The eight-dimensional quaternion-Kaehler case
gets special attention because its curvature term leaves two summands
with a vanishing lower bound, which is where the kernel lives.
"""

from rslab import holonomy_model, qk_kernel_analysis, sphere_check

FAMILIES = [
    ("su", 3, "Calabi-Yau threefold"),
    ("su", 4, "Calabi-Yau fourfold"),
    ("sp", 2, "hyperkaehler, dim 8"),
    ("sp", 3, "hyperkaehler, dim 12"),
    ("sp1sp", 2, "quaternion-Kaehler, dim 8"),
    ("g2", None, "exceptional, dim 7"),
    ("spin7", None, "exceptional, dim 8"),
    ("so", 9, "generic holonomy, dim 9"),
]

for kind, parameter, blurb in FAMILIES:
    model = holonomy_model(kind, parameter)
    sigma = model.sigma_three_half()
    dims = sorted(
        model.system.weyl_dimension(w)
        for w, mult in sigma.total.sorted_terms()
        for _ in range(mult)
    )
    print(f"{model.group:<12} {blurb}")
    print(f"    spin-3/2 = {' + '.join(map(str, dims))}  (total {sigma.total.dimension})")
    print(f"    parallel spinors {model.parallel_spinor_dimension()},"
          f" parallel spin-3/2 fields {model.parallel_rs_dimension()}")

print()
print("curvature bounds for Sp(1)Sp(2):")
report = qk_kernel_analysis(2)
for entry in report.entries:
    marker = "  <-- kernel candidate" if entry.bound == 0 else ""
    print(f"    {entry.summand.label():<32} dim {entry.dimension:>3}"
          f"  bound {entry.bound}{marker}")
print(f"    kernel dimension on a positive QK eight-manifold: {report.kernel_formula}")

for m in range(3, 7):
    assert qk_kernel_analysis(m).survivors == ()
print("    for m = 3..6 every bound is strictly positive: no kernel")

print()
print("round spheres (the operator has no kernel there either):")
for n in (3, 7, 8, 15, 16):
    chk = sphere_check(n)
    print(f"    S^{n:<3} {chk.realization:<4} casimir {chk.casimir_value},"
          f" margin above the threshold {chk.margin}")
