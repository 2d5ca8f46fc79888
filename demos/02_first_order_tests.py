#!/usr/bin/env python3
"""The first-order battery at exact boundary points.

One constructed stationary point per flavor of boundary sample:
  * interior box-QP solution  -> no flat extreme rays (equality constraints only)
  * edge box-QP solution      -> one flat extreme ray
  * orthogonal gradient factor-> both ray directions flat
  * flipped residual sign     -> the extreme-ray test finds strict descent
  * infeasible slope identity -> the box QP itself fails (zero not in the set)
"""

import numpy as np

from sospcheck import (
    SquaredLoss,
    boundary_analysis,
    construct_boundary_fosp,
    extreme_ray,
    increasing_check,
    per_sample_derivatives,
    solve_subdiff_qp,
)

loss = SquaredLoss()

for mode in ("interior", "edge", "orthogonal", "ray_descent", "subdiff_descent"):
    point = construct_boundary_fosp(d_x=3, d_h=2, d_y=1, seed=11, mode=mode)
    params, data = point.params, point.data
    k = point.unit
    bundle = per_sample_derivatives(params, data, loss)
    boundary = boundary_analysis(params, data, loss, bundle=bundle)
    print("=" * 64)
    print(f"mode {mode!r}: unit {k} has boundary samples {boundary.boundary_indices[k].tolist()}")
    res = solve_subdiff_qp(k, params, boundary, bundle)
    print(f"  box QP: s* = {np.round(res.s_star, 6)}  objective = {res.objective:.2e} "
          f"(zero => the generalized gradient set contains zero)")
    if not res.certifies_zero(res.scale):
        print(f"  zero is NOT in the set: descent along -residual "
              f"{np.round(-res.residual_vector, 4)}")
        continue
    ray = extreme_ray(k, int(boundary.boundary_indices[k][0]), boundary)
    print(f"  extreme ray for the first boundary sample: {np.round(ray, 4)}")
    inc = increasing_check(k, params, boundary, bundle, res.s_star)
    if inc.descent_found:
        print(f"  increasing test: STRICT DESCENT along {np.round(inc.descent_v, 4)}")
    else:
        print(f"  increasing test: pass, sign-row entries per sample: "
              f"pinned {inc.pinned.tolist()}, free {inc.free.tolist()}")
    print(f"  per-ray products (+ray, -ray): "
          f"{[(f'{a:+.2e}', f'{b:+.2e}') for a, b in inc.products]}")
print()
print("pinned 0: no flat ray, an equality constraint downstream; pinned 1 or -1:")
print("one flat ray, an inequality of that sign; free: both rays flat, and the")
print("sample's sign is enumerated in the second-order stage.")
