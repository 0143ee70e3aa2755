"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` (or ``-s``) to see every
line.  Three value checks are known to fail and are documented in the
project notes: the published one-group deterministic endpoint (412.13 /
315.93) is not the solution of the stated system (whose start is its exact
equilibrium), the published six-group deterministic neutron densities
(200.005 / 139.61) differ from the exact solutions (179.95 / 135.00,
independently confirmed with a stiff Radau integration), and the
Euler-Maruyama c1 reference (315.96) sits 5.05% from the true mean (300.0)
against a 5% tolerance.  The assertions are kept at their stated values.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from stokin import (
    TimeGrid,
    delta_table,
    deterministic_solve,
    diffusion_matrix,
    drift_matrix,
    euler_maruyama_solve,
    event_rates,
    expm,
    load_scenario,
    psd_sqrt,
    run_ensemble,
    sample_increments,
    stochastic_pca_solve,
)
from stokin.cli import main as cli_main

from conftest import one_group_params, random_params, random_state


class Criterion:
    def __init__(self, number, name):
        self.number = number
        self.name = name
        self.checks = []
        self.t0 = time.perf_counter()

    def check(self, label, ok, detail=""):
        self.checks.append((label, bool(ok), detail))

    def within(self, label, value, reference, rel_tol):
        dev = abs(value - reference) / abs(reference)
        self.check(
            label,
            dev <= rel_tol,
            f"value={value:.6g} ref={reference:.6g} dev={dev:.2%} tol={rel_tol:.2%}",
        )

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        failed = [c for c in self.checks if not c[1]]
        verdict = "PASS" if not failed else "FAIL"
        print(f"ACCEPTANCE {self.number} [{self.name}]: {verdict} ({elapsed:.1f}s)")
        for label, ok, detail in self.checks:
            mark = "ok" if ok else "FAILED"
            print(f"    - {label}: {mark} {detail}")
        assert not failed, (
            f"criterion {self.number} failed checks: "
            + "; ".join(f"{c[0]} ({c[2]})" for c in failed)
        )


def _ensemble(scenario, method, samples, seed, record=None):
    scn = load_scenario(scenario)
    p = scn.build_parameters()
    x0 = scn.build_initial(p)
    cfg = replace(
        scn.ensemble_config(method, seed, samples), record_times=record or (0.0, scn.horizon)
    )
    return run_ensemble(p, x0, scn.grid(method), cfg)


# ---------------------------------------------------------------------------

def test_criterion_1_deterministic_table1():
    crit = Criterion(1, "deterministic table-1 endpoint")
    scn = load_scenario("table1")
    p = scn.build_parameters()
    x0 = scn.build_initial(p)
    t0 = time.perf_counter()
    traj = deterministic_solve(p, x0, scn.grid("det"))
    runtime = time.perf_counter() - t0
    crit.within("n(2) vs 412.13 (0.1%)", traj.final_state[0], 412.13, 0.001)
    crit.within("c1(2) vs 315.93 (0.1%)", traj.final_state[1], 315.93, 0.001)
    crit.check("runtime < 1 s", runtime < 1.0, f"{runtime:.3f}s")
    crit.finish()


def test_criterion_2_deterministic_stiff_tables():
    crit = Criterion(2, "deterministic table-2/3 endpoints")
    t0 = time.perf_counter()
    results = {}
    for name in ("table2", "table3"):
        scn = load_scenario(name)
        p = scn.build_parameters()
        x0 = scn.build_initial(p)
        traj = deterministic_solve(p, x0, scn.grid("det"))
        results[name] = traj.final_state
    runtime = time.perf_counter() - t0
    crit.within("table2 n(0.1) vs 200.005 (0.5%)", results["table2"][0], 200.005, 0.005)
    crit.within(
        "table2 sum c(0.1) vs 4.497e5 (0.5%)", results["table2"][1:].sum(), 4.497e5, 0.005
    )
    crit.within("table3 n(0.001) vs 139.61 (0.5%)", results["table3"][0], 139.61, 0.005)
    crit.within(
        "table3 sum c(0.001) vs 4.463e5 (0.5%)", results["table3"][1:].sum(), 4.463e5, 0.005
    )
    crit.check("runtime < 5 s", runtime < 5.0, f"{runtime:.3f}s")
    crit.finish()


def test_criterion_3_table1_stochastic_moments():
    crit = Criterion(3, "table-1 stochastic means/sigmas, 1e4 paths")
    refs = {
        "mc": (400.03, 300.01, 27.311),
        "pca": (395.32, 300.67, 29.411),
        "em": (412.23, 315.96, 34.391),
    }
    t0 = time.perf_counter()
    for method, (ref_n, ref_c, ref_sig) in refs.items():
        summary = _ensemble("table1", method, 10_000, seed=1000 + len(method))
        assert summary.n_samples >= 10_000
        e_n = summary.mean[-1, 0]
        e_c = summary.mean[-1, 1]
        s_n = summary.std[-1, 0]
        crit.within(f"{method} E(n(2)) vs {ref_n} (5%)", e_n, ref_n, 0.05)
        crit.within(f"{method} E(c1(2)) vs {ref_c} (5%)", e_c, ref_c, 0.05)
        crit.within(f"{method} sigma(n(2)) vs {ref_sig} (25%)", s_n, ref_sig, 0.25)
    runtime = time.perf_counter() - t0
    crit.check("runtime < 120 s", runtime < 120.0, f"{runtime:.1f}s")
    crit.finish()


def test_criterion_4_stiff_stochastic_means():
    crit = Criterion(4, "table-3 stochastic means + table-2 substitute")
    t0 = time.perf_counter()
    refs3 = {"mc": 135.66, "pca": 134.55, "em": 139.57}
    for method, ref in refs3.items():
        summary = _ensemble("table3", method, 2000, seed=2000 + len(method))
        assert summary.n_samples >= 2000
        crit.within(f"table3 {method} E(n(0.001)) vs {ref} (10%)",
                    summary.mean[-1, 0], ref, 0.10)
    # table-2 horizon at full event rates is not desk-scale for the event MC;
    # the SDE ensembles stand in (the MC one-step moments are criterion 6)
    refs2 = {"pca": 186.31, "em": 208.6}
    for method, ref in refs2.items():
        summary = _ensemble("table2", method, 2000, seed=3000 + len(method))
        crit.within(f"table2 {method} E(n(0.1)) vs {ref} (15%)",
                    summary.mean[-1, 0], ref, 0.15)
    runtime = time.perf_counter() - t0
    crit.check("runtime < 600 s", runtime < 600.0, f"{runtime:.1f}s")
    crit.finish()


def test_criterion_5_linear_reactivity():
    crit = Criterion(5, "linear reactivity ramp: monotone growth + cross-method")
    scn = load_scenario("linear-rho")
    p = scn.build_parameters()
    x0 = scn.build_initial(p)
    record = tuple(scn.record_times())

    det = deterministic_solve(p, x0, scn.grid("det"))
    nodes = det.times
    det_n = det.states[:, 0]
    after = nodes >= 0.01  # past the initial transient
    diffs = np.diff(det_n[np.flatnonzero(after)])
    crit.check(
        "deterministic n increasing for t >= 0.01",
        bool(np.all(diffs > 0)),
        f"min increment {diffs.min():.3g}",
    )

    pca = _ensemble("linear-rho", "pca", 1000, seed=51, record=record)
    idx = pca.times >= 0.01
    pd = np.diff(pca.mean[idx, 0])
    crit.check(
        "PCA ensemble mean increasing for t >= 0.01",
        bool(np.all(pd > 0)),
        f"min increment {pd.min():.3g}",
    )

    em = _ensemble("linear-rho", "em", 1000, seed=52, record=record)
    m_p, m_e = pca.mean[-1, 0], em.mean[-1, 0]
    se_p = pca.ci_halfwidth[-1, 0] / 1.96
    se_e = em.ci_halfwidth[-1, 0] / 1.96
    gap = abs(m_p - m_e)
    bound = 3.0 * math.hypot(se_p, se_e)
    crit.check(
        "PCA vs EM mean at t=0.1 within 3 combined SE",
        gap <= bound,
        f"pca={m_p:.4g} em={m_e:.4g} gap={gap:.3g} bound={bound:.3g}",
    )
    crit.finish()


def test_criterion_6_property_suite():
    crit = Criterion(6, "property suite")
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)

    # drift/covariance consistency on 100 random states
    worst_mean, worst_cov = 0.0, 0.0
    for _ in range(100):
        p = random_params(rng)
        x = random_state(rng, p.m)
        rates = event_rates(p, x, 0.0)
        deltas = delta_table(p)
        mean_change = rates @ deltas
        expected = drift_matrix(p, 0.0) @ x
        expected[0] += p.source(0.0)
        scale = np.abs(expected).max() + 1e-30
        worst_mean = max(worst_mean, np.abs(mean_change - expected).max() / scale)
        B = diffusion_matrix(p, x, 0.0)
        second = np.einsum("k,ki,kj->ij", rates, deltas, deltas)
        worst_cov = max(worst_cov, np.abs(second - B).max() / (np.abs(B).max() + 1e-30))
    crit.check("mean-change identity <= 1e-10", worst_mean <= 1e-10, f"worst {worst_mean:.2e}")
    crit.check("covariance identity <= 1e-10", worst_cov <= 1e-10, f"worst {worst_cov:.2e}")

    # one-step MC mean and covariance at 1e6 samples, 4 SE
    p1 = one_group_params(beta1=0.05)
    x1 = np.array([400.0, 300.0])
    dt = 1e-4
    inc = sample_increments(p1, x1, 0.0, dt, 1_000_000, np.random.default_rng(66))
    A1 = np.array(drift_matrix(p1, 0.0))
    target = (A1 @ x1 + np.array([200.0, 0.0])) * dt
    se = inc.std(axis=0, ddof=1) / 1000.0
    crit.check(
        "one-step MC mean within 4 SE",
        bool(np.all(np.abs(inc.mean(axis=0) - target) <= 4 * se)),
        f"devs {np.abs(inc.mean(axis=0) - target) / se}",
    )
    B1 = np.array(diffusion_matrix(p1, x1, 0.0))
    prods = np.einsum("ni,nj->nij", inc, inc)
    se_c = prods.std(axis=0, ddof=1) / 1000.0
    crit.check(
        "one-step MC covariance within 4 SE",
        bool(np.all(np.abs(prods.mean(axis=0) - B1 * dt) <= 4 * se_c)),
        "",
    )

    # zero-noise reductions
    grid = TimeGrid(0.5, 0.005)
    em_z = euler_maruyama_solve(p1, x1, grid, np.random.default_rng(0), zero_noise=True)
    x = x1.copy()
    ok = True
    for k in range(grid.n_steps):
        step = A1 @ x
        step[0] += 200.0
        x = x + grid.dt * step
        ok &= np.abs(em_z.states[k + 1] - x).max() <= 1e-12 * np.abs(x).max()
    crit.check("EM zero-noise reduces to explicit Euler", ok, "")
    scn3 = load_scenario("table3")
    p3 = scn3.build_parameters()
    x3 = scn3.build_initial(p3)
    g3 = scn3.grid("pca")
    pca_z = stochastic_pca_solve(p3, x3, g3, np.random.default_rng(0), zero_noise=True)
    det3 = deterministic_solve(p3, x3, g3)
    crit.check(
        "PCA zero-noise matches deterministic",
        np.abs(pca_z.states - det3.states).max() <= 1e-9 * np.abs(det3.states).max(),
        "",
    )

    # matrix exponential oracles
    ok = np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
    E = expm(np.diag([1.0, -1.0]))
    ok &= abs(E[0, 0] - np.e) <= 1e-13 and abs(E[1, 1] - 1 / np.e) <= 1e-13
    ok &= np.array_equal(expm(np.array([[0.0, 1.0], [0.0, 0.0]])), [[1.0, 1.0], [0.0, 1.0]])
    M = rng.standard_normal((5, 5))
    ok &= np.abs(expm(M) @ expm(-M) - np.eye(5)).max() <= 1e-9
    s, t = rng.uniform(0, 2, 2)
    lhs = expm((s + t) * M)
    ok &= np.abs(lhs - expm(s * M) @ expm(t * M)).max() <= 1e-9 * np.abs(lhs).max()
    crit.check("matrix exponential oracles", ok, "")

    # psd sqrt reconstruction on the table-1 diffusion matrix
    Bm = np.array(diffusion_matrix(p1, x1, 0.0))
    S = psd_sqrt(Bm).matrix
    crit.check(
        "psd_sqrt reconstruction",
        np.abs(S @ S - Bm).max() <= 1e-9 * np.abs(Bm).max(),
        "",
    )

    # drift column sums and conservation at rho=0, q=0
    ok = True
    for _ in range(20):
        pr = random_params(rng)
        Ar = drift_matrix(pr, 0.0)
        sums = Ar.sum(axis=0)
        ok &= abs(sums[0] - pr.reactivity(0.0) / pr.gen_time) <= 1e-12 * max(
            1.0, abs(sums[0])
        )
        ok &= np.abs(sums[1:]).max() <= 1e-12
    crit.check("drift column-sum identity", ok, "")
    pc = one_group_params(rho=0.0, q=0.0, beta1=0.005)
    tr = deterministic_solve(pc, np.array([100.0, 40.0]), TimeGrid(1.0, 0.05))
    totals = tr.states.sum(axis=1)
    crit.check(
        "population conserved under drift at rho=0, q=0",
        np.abs(totals - totals[0]).max() <= 1e-10 * totals[0],
        f"max drift {np.abs(totals - totals[0]).max():.2e}",
    )

    runtime = time.perf_counter() - t0
    crit.check("runtime < 60 s", runtime < 60.0, f"{runtime:.1f}s")
    crit.finish()


def test_criterion_7_reproducibility(tmp_path):
    crit = Criterion(7, "byte-identical reruns of stochastic commands")
    commands = {
        "solve-em": ["solve", "--scenario", "table1", "--method", "em", "--seed", "7"],
        "solve-pca": ["solve", "--scenario", "table3", "--method", "pca", "--seed", "7"],
        "solve-mc": ["solve", "--scenario", "table3", "--method", "mc", "--seed", "7"],
        "ensemble-em": [
            "ensemble", "--scenario", "table1", "--method", "em",
            "--samples", "100", "--seed", "11",
        ],
        "ensemble-pca": [
            "ensemble", "--scenario", "table3", "--method", "pca",
            "--samples", "100", "--seed", "11",
        ],
        "ensemble-mc": [
            "ensemble", "--scenario", "table3", "--method", "mc",
            "--samples", "60", "--seed", "11",
        ],
        "plotdata": [
            "plotdata", "--scenario", "table3", "--method", "pca",
            "--samples", "60", "--seed", "13",
        ],
        "reproduce": ["reproduce", "--table", "3", "--samples", "60", "--seed", "17"],
    }
    for name, args in commands.items():
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            code = cli_main(args + ["--out", str(out)])
            assert code == 0, f"{name} run {run} exited {code}"
            outs.append(
                {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            )
        identical = outs[0] == outs[1]
        crit.check(f"{name} rerun identical", identical,
                   f"files: {sorted(outs[0])}")
    crit.finish()
