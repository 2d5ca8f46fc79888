#!/usr/bin/env python3
"""Classifying cone-constrained quadratic forms.

Equality-constrained case: the eigenvalue signs of the form projected onto
the constraint null space decide (the checker's ECQP decider). The paper's
projected gradient descent cross-checks them: it converges to zero
(strictly positive), to a nonzero fixed point (flat direction), or diverges
exponentially along negative curvature.

Inequality-constrained case: one orthonormal change of variables (a basis
of the equality null space, then the singular value decomposition of the
inequality rows on it) reduces the cone to a sign constraint, and a
positive-semidefiniteness check plus a copositivity check of an r x r Schur
complement decide the class. A positive definite Schur complement is
strictly copositive outright. A positive semidefinite one is decided in
polynomial time: by a zero diagonal entry (a flat unit vector), or else by
one nonnegative least-squares solve of the standard quadratic program on the
simplex with its Frank-Wolfe lower bound. Only the rest, indefinite ones
among them, are decided by enumerating the Pareto spectrum.
"""

import numpy as np

from sospcheck import (
    ConeQP,
    copositivity_classify,
    pareto_spectrum,
    projected_spectrum_oracle,
    solve_ecqp_pgd,
    solve_icqp,
)

print("=" * 64)
print("Equality-constrained forms on {eta : A eta = 0}")
print("=" * 64)
cases = [
    ("positive definite", np.diag([1.0, 1.0]), "T1"),
    ("flat direction", np.diag([1.0, 0.0]), "T2"),
    ("negative curvature", np.diag([1.0, -1.0]), "T3"),
]
a_mat = np.array([[1.0, 0.0]])
for name, q_mat, want in cases:
    res = solve_ecqp_pgd(q_mat, a_mat, seed=0)
    oracle = projected_spectrum_oracle(q_mat, a_mat)
    norms = res.diagnostics["norms"]
    print(f"  {name:20s}: PGD {res.verdict} in {res.diagnostics['iterations']:5d} iters, "
          f"oracle {oracle.verdict} (expected {want})")
    if res.verdict == "T3":
        grow = np.log(norms[: int(np.argmax(norms)) + 1])
        slope = np.polyfit(np.arange(len(grow)), grow, 1)[0]
        print(f"  {'':20s}  log-norm slope {slope:+.3f} per iteration (exponential escape)")

print()
print("=" * 64)
print("Pareto spectra and copositivity")
print("=" * 64)
schur_examples = (
    np.eye(2),  # positive definite
    np.array([[1.0, 0.0], [0.0, 0.0]]),  # singular, with a zero diagonal entry
    np.array([[1.0, -1.0], [-1.0, 1.0]]),  # singular, flat along (1, 1) >= 0
    np.array([[0.0, 1.0], [1.0, 0.0]]),  # indefinite, copositive
    np.array([[1.0, -3.0], [-3.0, 1.0]]),  # indefinite, negative along (1, 1)
)
for s in schur_examples:
    pairs, _ = pareto_spectrum(s)
    res = copositivity_classify(s)
    spectrum = sorted(round(p.value, 6) for p in pairs)
    print(f"  S = {s.tolist()}")
    print(f"    Pareto spectrum {spectrum} -> {res.kind} (by {res.diagnostics['cp_by']})"
          + (f", witness {np.round(res.witness, 4)}" if res.witness is not None else ""))

print()
print("=" * 64)
print("Inequality-constrained forms on {eta : B eta >= 0}")
print("=" * 64)
for q_mat, want in ((np.diag([-1.0, 1.0]), "T3"), (np.diag([0.0, 1.0]), "T2"), (np.eye(2), "T1")):
    qp = ConeQP(q_mat, np.zeros((0, 2)), np.array([[1.0, 0.0]]))
    res = solve_icqp(qp)
    extra = ""
    if res.witness is not None:
        w = res.witness / np.linalg.norm(res.witness)
        extra = f", witness {np.round(w, 4)} with value {w @ q_mat @ w:+.3f}"
    diag_entries = tuple(float(v) for v in np.diag(q_mat))
    print(f"  Q = diag{diag_entries}: {res.verdict} (expected {want})"
          f" via {res.diagnostics['psd']}/{res.diagnostics.get('cp', '-')}{extra}")
