"""Acceptance gate: one test per criterion, printed as PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -s`` to see the line-by-line
report including the per-criterion runtimes. Work done in module
fixtures is timed where it is built and listed on every line that reads
it; fixtures are shared, so one fixture's time can show on several lines.

Criteria 1, 2 and 4 check the temporal order, so they measure each
final field against the exact solution of the method-of-lines system on
the same spatial grid (``oracles.mol_reference``), not against the exact
PDE solution: at the fixed N = 64 and N = 128 of these criteria the
tau-independent O(h^2) spatial error is as large as the temporal error
on the finest step counts and would take part in the observed order.
Their ``-s`` output lists the errors against both references and the
spatial floor |reference - exact| between them.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fisherkpp import linsolve, stepper
from fisherkpp.analysis import (ConvergenceTable, exact_final_field, l2_error,
                                linf_error, spatial_sweep)
from fisherkpp.coeffs import nonuniform_coeffs, uniform_coeffs
from fisherkpp.linsolve import ShiftedOperator, cg_solve, direct_solve_small
from fisherkpp.problems import example1, example2
from fisherkpp.spatial import apply_laplacian, boundary_contribution, eval_interior
from fisherkpp.stepper import bdf_imex_step, integrate
from fisherkpp.timegrid import TimeGrid, graded_grid, uniform_grid

from oracles import (dense_step_oracle, lagrange_coeffs, mol_reference,
                     pde_residual, residual_sample_points)

SQRT2 = math.sqrt(2.0)
BETAS = {"sqrt2": SQRT2, "2": 2.0, "pi": math.pi}
M_LIST = [10, 20, 40, 80]


def report(criterion, violations, elapsed, detail="", notes=(), fixtures=()):
    """One PASS/FAIL line; ``fixtures`` lists (label, seconds) of the
    module fixtures whose results the criterion reads."""
    status = "PASS" if not violations else "FAIL"
    cost = f"{elapsed:.1f}s" + "".join(f" + {label} {sec:.1f}s"
                                       for label, sec in fixtures)
    print(f"[{status}] criterion {criterion} ({cost}) {detail}")
    for note in notes:
        print(f"       {note}")
    for v in violations:
        print(f"       - {v}")
    assert not violations, f"criterion {criterion}: " + "; ".join(violations)


def in_band(value, lo, hi):
    return lo <= value <= hi


class SemiDiscreteReference:
    """Method-of-lines solution at t = T for one (problem, N) pair."""

    def __init__(self, problem, n):
        t0 = time.perf_counter()
        self.problem = problem
        self.n = n
        self.sgrid = problem.space_grid(n, n)
        self.u = mol_reference(problem, self.sgrid, rtol=1e-10)
        self.exact = exact_final_field(problem, self.sgrid, problem.T)
        self.floor = linf_error(self.u, self.exact)
        self.timing = (f"MOL reference N={n}", time.perf_counter() - t0)

    def sweep(self, beta, gamma=None):
        """Temporal sweep over M_LIST with errors against the MOL solution.

        Returns the table and the per-M Linf errors against the exact
        solution, for the report.
        """
        p, sgrid = self.problem, self.sgrid
        errors, vs_exact = [], []
        for m in M_LIST:
            tg = uniform_grid(p.T, m) if gamma is None \
                else graded_grid(p.T, m, gamma)
            u, _ = integrate(p, tg, sgrid, beta)
            vs_exact.append(linf_error(u, self.exact))
            errors.append((linf_error(u, self.u), l2_error(u, self.u, sgrid)))
        return ConvergenceTable.from_errors("temporal", M_LIST, errors, {}), vs_exact

    def describe(self, label, table, vs_exact):
        """One report line: Linf per M against both references, and the floor."""
        mol = ", ".join(f"{r.param}:{r.linf:.2e}" for r in table.rows)
        pde = ", ".join(f"{m}:{e:.2e}" for m, e in zip(M_LIST, vs_exact))
        return (f"{label}: Linf per M vs MOL [{mol}], vs exact [{pde}], "
                f"floor |MOL - exact| {self.floor:.2e}")


def order_violations(label, table, lo, hi):
    last = table.rows[-1]
    return [f"{label}: {kind}={order:.3f} outside [{lo}, {hi}]"
            for kind, order in (("order_inf", last.order_inf),
                                ("order_2", last.order_2))
            if not in_band(order, lo, hi)]


@pytest.fixture(scope="module")
def ex1_reference():
    return SemiDiscreteReference(example1(), 64)


@pytest.fixture(scope="module")
def ex1_uniform_tables(ex1_reference):
    """Uniform-grid sweeps per beta, and the (label, seconds) they took."""
    t0 = time.perf_counter()
    tables = {name: ex1_reference.sweep(beta) for name, beta in BETAS.items()}
    return tables, ("uniform sweeps", time.perf_counter() - t0)


def test_criterion_01_temporal_order_example1(ex1_reference, ex1_uniform_tables):
    t0 = time.perf_counter()
    tables, sweep_timing = ex1_uniform_tables
    violations, notes = [], []
    for name, (table, vs_exact) in tables.items():
        line = ex1_reference.describe(f"beta={name}", table, vs_exact)
        notes.append(line)
        violations += [f"{v} ({line})" for v in
                       order_violations(f"beta={name}", table, 1.7, 2.3)]
    report(1, violations, time.perf_counter() - t0,
           "Example 1 uniform temporal orders at N=64 against the MOL solution",
           notes, fixtures=(ex1_reference.timing, sweep_timing))


def test_criterion_02_temporal_order_graded(ex1_reference, ex1_uniform_tables):
    t0 = time.perf_counter()
    uniform_tables, sweep_timing = ex1_uniform_tables
    violations, notes = [], []
    for gamma in (0.75, 1.0, 1.5):
        for name, beta in BETAS.items():
            table, vs_exact = ex1_reference.sweep(beta, gamma=gamma)
            label = f"gamma={gamma} beta={name}"
            line = ex1_reference.describe(label, table, vs_exact)
            notes.append(line)
            violations += [f"{v} ({line})" for v in
                           order_violations(label, table, 1.7, 2.3)]
            if gamma == 0.75:
                uniform = uniform_tables[name][0]
                ratio = table.rows[-1].linf / uniform.rows[-1].linf
                if not ratio <= 1.5:
                    violations.append(
                        f"beta={name}: gamma=3/4 finest error is {ratio:.2f}x "
                        "uniform (limit 1.5x)"
                    )
    report(2, violations, time.perf_counter() - t0,
           "Example 1 graded temporal orders and gamma=3/4 error ratio "
           "against the MOL solution", notes,
           fixtures=(ex1_reference.timing, sweep_timing))


def test_criterion_03_spatial_order_example1():
    t0 = time.perf_counter()
    p = example1()
    tables = {label: spatial_sweep(p, [SQRT2], [8, 16, 32, 64], 2000, gamma=g)[0]
              for label, g in (("uniform", None), ("gamma=3/4", 0.75))}
    violations = []
    for label, table in tables.items():
        for row in table.rows[1:]:
            for kind, order in (("order_inf", row.order_inf),
                                ("order_2", row.order_2)):
                if not in_band(order, 1.8, 2.2):
                    violations.append(
                        f"{label} N={row.param}: {kind}={order:.3f} "
                        "outside [1.8, 2.2]"
                    )
    for ru, rg in zip(tables["uniform"].rows, tables["gamma=3/4"].rows):
        for kind, a, b in (("Linf", ru.linf, rg.linf), ("L2", ru.l2, rg.l2)):
            rel = abs(a - b) / a
            if rel > 0.05:
                violations.append(
                    f"N={ru.param}: uniform vs gamma=3/4 {kind} differ by "
                    f"{rel:.2%} (limit 5%)"
                )
    report(3, violations, time.perf_counter() - t0,
           "Example 1 spatial orders at M=2000, uniform vs graded")


@pytest.fixture(scope="module")
def ex2_reference():
    return SemiDiscreteReference(example2(), 128)


def test_criterion_04_temporal_order_example2(ex2_reference):
    t0 = time.perf_counter()
    violations, notes = [], []
    for label, gamma in (("uniform", None), ("gamma=3/4", 0.75)):
        table, vs_exact = ex2_reference.sweep(2.0, gamma=gamma)
        line = ex2_reference.describe(label, table, vs_exact)
        notes.append(line)
        violations += [f"{v} ({line})" for v in
                       order_violations(label, table, 1.6, 2.4)]
    report(4, violations, time.perf_counter() - t0,
           "Example 2 temporal orders at N=128 against the MOL solution", notes,
           fixtures=(ex2_reference.timing,))


def test_supplementary_etdrk4_over_the_whole_interval(ex1_reference, ex2_reference):
    """Not a numbered criterion: ``etd_init`` run over all of [0, T] is a
    second method-of-lines reference, with exact diffusion, that must agree
    with ``oracles.mol_reference`` (scipy's RK45) to 2e-9 on Example 1 at
    N = 64 and on Example 2 at N = 128."""
    t0 = time.perf_counter()
    violations, notes = [], []
    for label, ref in (("example1", ex1_reference), ("example2", ex2_reference)):
        u0 = eval_interior(ref.problem.initial, ref.sgrid)
        u, rec = stepper.etd_init(ref.problem, ref.sgrid, 0.0, ref.problem.T, u0)
        gap = linf_error(u, ref.u)
        notes.append(f"{label} N={ref.n}: |ETDRK4 - MOL| = {gap:.2e} "
                     f"({rec.header()})")
        if not gap <= 2e-9:
            violations.append(f"{label} N={ref.n}: |ETDRK4 - MOL| = {gap:.2e} "
                              "above 2e-9")
    report("supplementary", violations, time.perf_counter() - t0,
           "ETDRK4 over [0, T] against the MOL solution", notes,
           fixtures=(ex1_reference.timing, ex2_reference.timing))


def test_criterion_05_coefficient_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_consistency = 0.0
    worst_lagrange = 0.0
    for _ in range(1000):
        start = rng.uniform(-5.0, 5.0)
        tau1, tau2 = rng.uniform(0.05, 2.0, size=2)
        beta = rng.uniform(1.01, 4.0)
        nodes = (start, start + tau1, start + tau1 + tau2)
        cf = nonuniform_coeffs(*nodes, beta)
        d = np.array(nodes) - cf.t_eval
        a, b, c = np.array(cf.a), np.array(cf.b), np.array(cf.c)
        quad = rng.uniform(-2.0, 2.0, size=3)
        poly = lambda t: quad[0] + quad[1] * t + quad[2] * t * t
        line = lambda t: quad[0] + quad[1] * t
        gaps = [
            a.sum(),
            a @ d - 1.0,
            a @ d**2,
            b.sum() - 1.0,
            b @ d[1:],
            c.sum() - 1.0,
            c @ d[:2],
            sum(w * poly(t) for w, t in zip(a, nodes))
            - (quad[1] + 2.0 * quad[2] * cf.t_eval),
            b @ [line(nodes[1]), line(nodes[2])] - line(cf.t_eval),
            c @ [line(nodes[0]), line(nodes[1])] - line(cf.t_eval),
        ]
        worst_consistency = max(worst_consistency, max(abs(g) for g in gaps))
        cl = lagrange_coeffs(*nodes, beta)
        for v, l in zip(cf.a + cf.b + cf.c, cl.a + cl.b + cl.c):
            worst_lagrange = max(worst_lagrange, abs(v - l) / max(abs(v), 1e-30))
    violations = []
    if worst_consistency > 1e-11:
        violations.append(f"consistency gap {worst_consistency:.2e} > 1e-11")
    if worst_lagrange > 1e-12:
        violations.append(f"Lagrange disagreement {worst_lagrange:.2e} > 1e-12")
    report(5, violations, time.perf_counter() - t0,
           f"1000 samples: worst consistency {worst_consistency:.1e}, "
           f"worst route disagreement {worst_lagrange:.1e}")


def test_criterion_06_discretization_oracle(monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.setattr(linsolve, "TOL", 1e-12)
    violations = []
    worst = 0.0
    for problem_fn in (example1, example2):
        p = problem_fn()
        g = p.space_grid(7, 7)  # 6x6 interior
        for path in ("uniform", "nonuniform"):
            if path == "uniform":
                tg = uniform_grid(1.0, 10)
                n = 3
            else:
                nodes = np.array([0.0, 0.11, 0.19, 0.34, 0.52, 0.78, 1.0])
                tg = TimeGrid(T=1.0, M=6, nodes=nodes)
                n = 2
            t_prev, t_curr, t_next = tg.nodes[n - 1:n + 2]
            u_prev = eval_interior(p.exact, g, t=t_prev)
            u_curr = eval_interior(p.exact, g, t=t_curr)
            liftings = (boundary_contribution(p.boundary, t_curr, g),
                        boundary_contribution(p.boundary, t_next, g))
            oracle = dense_step_oracle(p, g, t_prev, t_curr, t_next, 2.0,
                                       u_prev, u_curr)
            for sine, solve in ((False, "cg"), (True, "sine")):
                u_next, result = bdf_imex_step(
                    u_prev, u_curr, nonuniform_coeffs(t_prev, t_curr, t_next, 2.0),
                    liftings, p, g, sine)
                if (result.iterations == 0) != sine:
                    violations.append(f"{p.name}/{path}/{solve}: "
                                      f"{result.iterations} CG iterations")
                gap = np.abs(u_next - oracle).max()
                worst = max(worst, gap)
                if gap > 1e-11:
                    violations.append(
                        f"{p.name}/{path}/{solve}: max gap {gap:.2e} > 1e-11")
    report(6, violations, time.perf_counter() - t0,
           "one step with CG (tol 1e-12) and one with the sine-basis solve "
           "against the dense oracle on a uniform and a nonuniform step, "
           f"worst gap {worst:.1e}")


def test_criterion_07_linear_solver_oracle(monkeypatch):
    t0 = time.perf_counter()
    p = example1()
    g = p.space_grid(9, 9)  # 8x8 interior
    op = ShiftedOperator(sigma=25.0, kappa=2.0, grid=g)
    rng = np.random.default_rng(7)
    violations = []
    worst = 0.0
    monkeypatch.setattr(linsolve, "TOL", 1e-12)
    for k in range(20):
        rhs = rng.standard_normal(g.n_interior)
        out = cg_solve(op, rhs)
        gap = np.abs(out.x - direct_solve_small(op, rhs).x).max()
        worst = max(worst, gap)
        if gap > 1e-9:
            violations.append(f"rhs {k}: cg vs direct gap {gap:.2e} > 1e-9")
        # the target 1e-12 on the true residual, with room for the rounding
        # by which CG's updated residual drifts from it
        true = np.linalg.norm(rhs - op.sigma * out.x
                              + op.kappa * apply_laplacian(out.x, g))
        if not true <= 2e-12 * np.linalg.norm(rhs):
            violations.append(f"rhs {k}: true residual {true:.2e} above 2e-12 ||rhs||")
    report(7, violations, time.perf_counter() - t0,
           f"20 right-hand sides, worst cg-vs-direct gap {worst:.1e}")


def test_criterion_08_exact_solution_residuals():
    t0 = time.perf_counter()
    violations = []
    for problem_fn, seed in ((example1, 42), (example2, 43)):
        p = problem_fn()
        worst = max(abs(pde_residual(p, x, y, t))
                    for x, y, t in residual_sample_points(p, 100, seed))
        if worst > 1e-10:
            violations.append(f"{p.name}: worst residual {worst:.2e} > 1e-10")
    report(8, violations, time.perf_counter() - t0,
           "manufactured source and traveling wave satisfy the PDE")


def test_criterion_09_graded_grid_endpoints():
    t0 = time.perf_counter()
    violations = []
    T = 1.0
    for m_exp in range(2, 11):          # M = 4 .. 1024
        m = 2 ** m_exp
        for gamma in (0.5, 0.75, 1.0, 1.5):
            tg = graded_grid(T, m, gamma)
            if tg.nodes[0] != 0.0:
                violations.append(f"M={m} gamma={gamma}: t_0 != 0")
            if abs(tg.nodes[-1] - T) > np.spacing(T):
                violations.append(f"M={m} gamma={gamma}: t_M misses T")
            if not np.all(np.diff(tg.nodes) > 0.0):
                violations.append(f"M={m} gamma={gamma}: not strictly increasing")
    report(9, violations, time.perf_counter() - t0,
           "graded grids hit both endpoints and are strictly increasing")


def test_supplementary_floor_isolated_temporal_orders():
    """Not a numbered criterion: a second route to the criterion 1/2/4 orders.

    Criteria 1, 2 and 4 measure the temporal order against the oracle's
    method-of-lines solution, so the fixed-N spatial error floor cancels
    from their errors. This check removes the floor by a different route:
    its reference is the library's own integration on the same spatial
    grid at M = 640, so it shares no code with the oracle. The last
    observed order must sit inside the same bands.
    """
    t0 = time.perf_counter()
    violations = []
    p1 = example1()
    g1 = p1.space_grid(64, 64)
    for name, beta in BETAS.items():
        ref, _ = integrate(p1, uniform_grid(1.0, 640), g1, beta)
        errs = [linf_error(integrate(p1, uniform_grid(1.0, m), g1, beta)[0], ref)
                for m in M_LIST]
        order = math.log2(errs[-2] / errs[-1])
        if not in_band(order, 1.7, 2.3):
            violations.append(
                f"example1 beta={name}: floor-isolated order {order:.3f}")
    p2 = example2()
    g2 = p2.space_grid(128, 128)
    for label, gamma in (("uniform", None), ("gamma=3/4", 0.75)):
        make = (lambda m: uniform_grid(1.0, m)) if gamma is None \
            else (lambda m: graded_grid(1.0, m, gamma))
        ref, _ = integrate(p2, make(640), g2, 2.0)
        errs = [linf_error(integrate(p2, make(m), g2, 2.0)[0], ref)
                for m in M_LIST]
        order = math.log2(errs[-2] / errs[-1])
        if not in_band(order, 1.6, 2.4):
            violations.append(
                f"example2 {label}: floor-isolated order {order:.3f}")
    report("supplementary", violations, time.perf_counter() - t0,
           "temporal orders against step-converged references")


def test_criterion_10_code_path_equivalence(monkeypatch):
    """``integrate`` on a uniform grid against ``integrate`` with the
    paper's closed-form uniform weights in place of the per-step
    weights from the node triple: a / tau from the unit-step triple and
    t* = t_n + beta * tau."""
    t0 = time.perf_counter()
    p = example1()
    g = p.space_grid(32, 32)
    tg = uniform_grid(1.0, 20)
    beta = 2.0
    ua, _ = integrate(p, tg, g, beta)

    tau = tg.T / tg.M
    unit = uniform_coeffs(beta)

    def closed_form(t_prev, t_curr, t_next, beta):
        return replace(unit, a=tuple(w / tau for w in unit.a),
                       t_eval=t_curr + beta * tau)

    monkeypatch.setattr(stepper, "nonuniform_coeffs", closed_form)
    ub, _ = integrate(p, tg, g, beta)
    gap = float(np.abs(ua - ub).max())
    violations = []
    if gap > 1e-12:
        violations.append(f"pipelines differ by {gap:.2e} > 1e-12")
    report(10, violations, time.perf_counter() - t0,
           f"integrate vs closed-form uniform weights gap {gap:.1e}")
