"""Manufactured-solution, error-norm, study-driver and CLI tests.

Symbolic differentiation provides the oracle for the closed-form solution
bundles; the study drivers run at levels 0-2 where everything is cheap.
"""

import argparse
import dataclasses
import json
import re
import weakref
from functools import partial

import numpy as np
import pytest
import sympy

from cutprec import assembly, experiments, solver
from cutprec.cli import _add_config_options, main
from cutprec.experiments import (ExperimentConfig, ManufacturedSolution,
                                 StudyResult, LevelResult, ErrorNorms,
                                 build_system, error_norms,
                                 fictitious_solution, interface_solution,
                                 run_study, spectral_pencils, write_tables)
from cutprec.geometry import SphereLevelSet, build_cut_info
from cutprec.mesh import MeshHierarchy
from cutprec.solver import estimate_condition
from cutprec.space import FICTITIOUS, INTERFACE, build_dof_layout

X0 = np.array([0.001, 0.002, 0.003])
ALPHA1, ALPHA2 = 1.0, 10.0


def sphere_points(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    return X0 + v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def symbolic_bundle():
    """Independent symbolic model of the closed-form solutions."""
    x, y, z = sympy.symbols("x y z")
    xh = sympy.Matrix([x - X0[0], y - X0[1], z - X0[2]])
    p = 3 * xh[0] ** 2 * xh[1] - xh[1] ** 3
    E = sympy.exp(1 - xh.dot(xh))
    xyz = (x, y, z)

    def bundle(expr):
        grad = [sympy.diff(expr, s) for s in xyz]
        lap = sum(sympy.diff(expr, s, 2) for s in xyz)
        return (sympy.lambdify(xyz, expr, "numpy"),
                sympy.lambdify(xyz, grad, "numpy"),
                sympy.lambdify(xyz, sympy.simplify(lap), "numpy"))

    return {"fd": bundle(p * E),
            1: bundle(p * (E - 1) / ALPHA1),
            2: bundle(p * (E - 1) / ALPHA2)}


def test_interface_conditions_on_sphere():
    # [u] = 0 and [-alpha grad u] . n = 0 at 10^4 random sphere points
    sol = interface_solution(X0, ALPHA1, ALPHA2)
    pts = sphere_points(10_000)
    normals = pts - X0
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    jump_u = sol.u(pts, 1) - sol.u(pts, 2)
    flux1 = ALPHA1 * np.einsum("px,px->p", sol.u_and_grad(pts, 1)[1],
                               normals)
    flux2 = ALPHA2 * np.einsum("px,px->p", sol.u_and_grad(pts, 2)[1],
                               normals)
    assert np.max(np.abs(jump_u)) <= 1e-12
    assert np.max(np.abs(flux1 - flux2)) <= 1e-12


def test_interface_solution_matches_symbolic(symbolic_bundle):
    sol = interface_solution(X0, ALPHA1, ALPHA2)
    rng = np.random.default_rng(3)
    pts = X0 + rng.uniform(-1.2, 1.2, size=(60, 3))
    cols = (pts[:, 0], pts[:, 1], pts[:, 2])
    for side in (1, 2):
        uref, gref, lref = symbolic_bundle[side]
        assert np.allclose(sol.u(pts, side), uref(*cols), atol=1e-12)
        u, grad = sol.u_and_grad(pts, side)
        assert np.array_equal(u, sol.u(pts, side))
        gr = np.stack(np.broadcast_arrays(*gref(*cols)), axis=1)
        assert np.allclose(grad, gr, atol=1e-12)
        # the load is side independent: f = -alpha_i lap(u_i) on both sides
        alpha = ALPHA1 if side == 1 else ALPHA2
        assert np.allclose(sol.f(pts), -alpha * lref(*cols), atol=1e-10)


def test_fd_solution_matches_symbolic(symbolic_bundle):
    sol = fictitious_solution(X0)
    uref, gref, lref = symbolic_bundle["fd"]
    rng = np.random.default_rng(4)
    pts = X0 + rng.uniform(-1.1, 1.1, size=(60, 3))
    cols = (pts[:, 0], pts[:, 1], pts[:, 2])
    assert np.allclose(sol.u(pts), uref(*cols), atol=1e-12)
    u, grad = sol.u_and_grad(pts)
    assert np.array_equal(u, sol.u(pts))
    gr = np.stack(np.broadcast_arrays(*gref(*cols)), axis=1)
    assert np.allclose(grad, gr, atol=1e-12)
    assert np.allclose(sol.f(pts), -lref(*cols), atol=1e-10)


def affine_solution():
    c = np.array([0.3, -0.7, 0.2])

    def u(pts, side=1):
        return pts @ c + 0.5

    def u_and_grad(pts, side=1):
        return u(pts), np.broadcast_to(c, (pts.shape[0], 3)).copy()

    return ManufacturedSolution(u=u, u_and_grad=u_and_grad,
                                f=lambda pts: np.zeros(pts.shape[0]))


@pytest.mark.parametrize("problem", [INTERFACE, FICTITIOUS])
def test_error_norms_affine_exact(problem):
    # P1 spaces reproduce affine functions on both integration paths
    mesh = MeshHierarchy.build(0).levels[0]
    cutinfo = build_cut_info(mesh, SphereLevelSet(center=X0))
    layout = build_dof_layout(mesh, cutinfo, problem)
    sol = affine_solution()
    y = np.zeros(layout.dim)
    y[layout.v1_dof[layout.v1_vertices]] = sol.u(
        mesh.vertices[layout.v1_vertices], 1)
    if problem == INTERFACE:
        y[layout.v2_dof[layout.v2_vertices]] = sol.u(
            mesh.vertices[layout.v2_vertices], 2)
    err = error_norms(mesh, cutinfo, layout, y, sol)
    assert err.l2 <= 1e-10
    assert err.h1_semi <= 1e-10
    assert err.h1_full <= 2e-10


def test_order_computation_is_log2_ratio():
    cfg = ExperimentConfig(max_level=1)
    rows = [LevelResult(level=k, h=0.75 / 2 ** k, N0=1, N1=1,
                        errors=ErrorNorms(l2=e, h1_semi=2 * e, h1_full=3 * e),
                        kappa2=1.0, kappa2_converged=True,
                        kappa2_steps=0, iterations={k2: 5 for k2 in
                                                cfg.preconditioners})
            for k, e in enumerate([0.4, 0.1])]
    d = StudyResult(cfg, rows).row_dicts()
    assert "l2_order" not in d[0]
    assert d[1]["l2_order"] == pytest.approx(2.0, abs=1e-14)
    assert d[1]["h1_semi_order"] == pytest.approx(2.0, abs=1e-14)
    assert d[1]["h1_full_order"] == pytest.approx(2.0, abs=1e-14)


def write_config(config, path):
    """Save a config as the JSON object ExperimentConfig.from_file reads."""
    data = {k: list(v) if isinstance(v, tuple) else v
            for k, v in config.__dict__.items()}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_config_roundtrip_and_validation(tmp_path):
    cfg = ExperimentConfig(max_level=2, deltas=(0.0, 0.01), gamma=100.0,
                           beta=0.0)
    path = tmp_path / "cfg.json"
    write_config(cfg, path)
    assert ExperimentConfig.from_file(path) == cfg

    data = json.loads(path.read_text())
    data["typo_key"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="typo_key"):
        ExperimentConfig.from_file(bad)

    for kwargs in (dict(problem="stokes"), dict(tol=0.0),
                   dict(max_level=-1), dict(x0=(0.0, 0.0)),
                   dict(preconditioners=("Cholesky",)),
                   dict(preconditioners=()), dict(gamma=-1.0)):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


@pytest.mark.parametrize("key, value", [
    ("max_level", 1.0), ("max_level", True), ("tol", "1e-6"),
    ("deltas", 0.01), ("deltas", [0.0, "0.01"]), ("preconditioners", "SGS"),
    ("preconditioners", [1]), ("output_dir", None), ("problem", 0)])
def test_config_file_rejects_wrong_types(tmp_path, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_file(path)


def test_config_file_takes_integers_for_floats(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"x0": [0, 0, 1], "gamma": 20, "tol": 1}))
    cfg = ExperimentConfig.from_file(path)
    assert (cfg.x0, cfg.gamma, cfg.tol) == ((0, 0, 1), 20, 1)


# removed config fields with the one value each was ever run with
REMOVED_KEYS = {"base_order": 4, "alpha_bar_rule": "harmonic",
                "nitsche_length_rule": None, "ghost_length_rule": "global",
                "mg_cycles": 3, "strip_sweeps": None,
                "cond_method": "per-level"}


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_config_rejects_removed_base_order(tmp_path, key):
    # a saved config still carrying a removed key is an error naming the
    # key, not a silently ignored setting
    path = tmp_path / "old.json"
    write_config(ExperimentConfig(), path)
    data = json.loads(path.read_text())
    data[key] = REMOVED_KEYS[key]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_file(path)


def test_cli_flags_match_config_fields():
    # one flag per config field (the problem is fixed by the subcommand or
    # the config file) and no flag without a field
    parser = argparse.ArgumentParser()
    _add_config_options(parser)
    dests = [a.dest for a in parser._actions
             if a.dest not in ("help", "config")]
    fields = set(ExperimentConfig.__dataclass_fields__) - {"problem"}
    assert len(dests) == len(set(dests))
    assert set(dests) == fields


@pytest.fixture
def failing_factorization(monkeypatch):
    def refuse(self, M):
        raise ValueError("factorization failed: singular matrix")

    monkeypatch.setattr(solver.DirectSolve, "__init__", refuse)


def test_row_failure_names_level_and_preconditioner(failing_factorization):
    with pytest.raises(RuntimeError,
                       match=r"BlockExact set-up failed at level 0: "
                             r"factorization failed"):
        run_study(ExperimentConfig(max_level=0))


def test_row_failure_names_delta(failing_factorization):
    cfg = ExperimentConfig(delta_level=0, deltas=(0.05,),
                           preconditioners=("BlockDiagSGS",))
    with pytest.raises(RuntimeError,
                       match=r"BlockDiagSGS set-up failed at level 0, "
                             r"delta 0.05"):
        run_study(cfg, deltas=True)


def test_study_row_factors_each_block_once(monkeypatch):
    """A row factors A0, A1 and the multigrid coarse operator once each
    (the A0 factor serves BlockExact and BlockDiagSGS) and frees every
    factor before its condition estimate."""
    made, at_kappa = [], []
    init = solver.DirectSolve.__init__

    def counted(self, M):
        init(self, M)
        made.append(weakref.ref(self))

    def estimate(*args, **kwargs):
        at_kappa.append((len(made), sum(r() is not None for r in made)))
        return estimate_condition(*args, **kwargs)

    monkeypatch.setattr(solver.DirectSolve, "__init__", counted)
    monkeypatch.setattr(experiments, "estimate_condition", estimate)
    run_study(ExperimentConfig(max_level=1))
    assert at_kappa == [(3, 0), (6, 0)]


def test_cli_cond_builds_each_solve_at_its_pencil(monkeypatch):
    """`cutprec cond` estimates kappa(Ahat) with no factor alive, then
    kappa(DA^-1 Ahat) with the A0 and A1 factors, then kappa(D1^-1 A1)
    with no factor alive and none built for it."""
    made, at_kappa = [], []
    init = solver.DirectSolve.__init__

    def counted(self, M):
        init(self, M)
        made.append(weakref.ref(self))

    def at_call(estimate):
        def call(*args, **kwargs):
            at_kappa.append((len(made), sum(r() is not None for r in made)))
            return estimate(*args, **kwargs)
        return call

    monkeypatch.setattr(solver.DirectSolve, "__init__", counted)
    for name in ("estimate_condition", "splitting_estimate"):
        monkeypatch.setattr(experiments, name,
                            at_call(getattr(experiments, name)))
    assert main(["cond", "--level", "0"]) == 0
    assert at_kappa == [(0, 0), (2, 2), (2, 0)]


@pytest.fixture(scope="module")
def tiny_interface_study():
    return run_study(ExperimentConfig(max_level=0))


def test_emission_idempotent(tiny_interface_study, tmp_path):
    first = write_tables(tiny_interface_study, tmp_path, "study")
    before = [p.read_bytes() for p in first]
    second = write_tables(tiny_interface_study, tmp_path, "study")
    assert [p.read_bytes() for p in second] == before

    # a fresh run of the same configuration reproduces the bytes too
    again = run_study(ExperimentConfig(max_level=0))
    third = write_tables(again, tmp_path / "again", "study")
    assert [p.read_bytes() for p in third] == before


def test_delta_zero_run_deterministic(tmp_path):
    cfg = ExperimentConfig(delta_level=0, deltas=(0.0,))
    a = write_tables(run_study(cfg, deltas=True), tmp_path / "a", "sweep")
    b = write_tables(run_study(cfg, deltas=True), tmp_path / "b", "sweep")
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]


def test_study_row_contents(tiny_interface_study):
    row = tiny_interface_study.rows[0]
    assert (row.N0, row.N1) == (27, 27)
    assert set(row.iterations) == set(tiny_interface_study.config.
                                      preconditioners)
    assert all(n > 0 for n in row.iterations.values())
    assert row.kappa2 > 1.0 and row.kappa2_converged
    tsys = build_system(ExperimentConfig(max_level=0))
    assert tsys.Ahat.shape == (54, 54)
    est = estimate_condition(tsys.Ahat)
    assert row.kappa2 == est.kappa
    assert row.kappa2_steps == est.iterations > 0
    assert "kappa2_steps" not in tiny_interface_study.row_dicts()[0]


def test_delta_sweep_kappa_same_order_of_magnitude():
    # moving the cut position shifts kappa2 but not its magnitude
    cfg = ExperimentConfig(delta_level=1, deltas=(0.0, 0.05),
                           preconditioners=("BlockExact",))
    res = run_study(cfg, deltas=True)
    k0, k5 = (r.kappa2 for r in res.rows)
    assert max(k0 / k5, k5 / k0) <= 4.0


def test_ghost_penalty_controls_conditioning():
    # dropping the ghost penalty (gamma raised to keep Nitsche coercive)
    # sends the condition number far above the stabilized value
    stab = build_system(ExperimentConfig(max_level=2))
    k_stab = estimate_condition(stab.Ahat).kappa
    plain = build_system(ExperimentConfig(max_level=2, beta=0.0,
                                          gamma=100.0))
    est = estimate_condition(plain.Ahat, budget=300)
    # exhausted budget yields a lower bound, enough for the comparison
    assert est.kappa >= k_stab


def test_fd_strip_dimension_growth():
    # the cut strip is a surface layer: dofs scale by ~4 per refinement
    cfg = ExperimentConfig(problem=FICTITIOUS, max_level=2,
                           preconditioners=("SGS",))
    res = run_study(cfg)
    n1 = [r.N1 for r in res.rows]
    assert 3.0 <= n1[2] / n1[1] <= 5.0


def test_cli_interface_study(tmp_path, capsys):
    out = tmp_path / "tables"
    code = main(["interface-study", "--max-level", "0",
                 "--output-dir", str(out)])
    assert code == 0
    assert (out / "interface_study.csv").exists()
    assert (out / "interface_study.md").exists()
    header = (out / "interface_study.csv").read_text().splitlines()[0]
    assert header.startswith("level,h,N0,N1")
    assert "Dimensions" in capsys.readouterr().out


def test_cli_delta_sweep_and_fd_study(tmp_path):
    assert main(["delta-sweep", "--delta-level", "0", "--deltas", "0.0",
                 "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "delta_sweep.csv").exists()
    assert main(["fd-study", "--max-level", "0",
                 "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "fd_study.csv").exists()


def test_cli_cond(capsys):
    assert main(["cond", "--max-level", "0"]) == 0
    out = capsys.readouterr().out
    assert "kappa2(Ahat)" in out
    assert "kappa(DA^-1 Ahat)" in out
    assert "kappa(D1^-1 A1)" in out


def test_cli_cond_prints_shared_pencils(capsys):
    # each kappa line of `cond` prints the estimate of the same label from
    # spectral_pencils, so the two cannot drift apart; the D_A line alone
    # carries the splitting constant gamma
    assert main(["cond", "--level", "0"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("kappa")]
    estimates = {label: estimate() for label, estimate in spectral_pencils(
        build_system(ExperimentConfig(), level=0)).items()}
    assert [ln.split("=")[0].rstrip() for ln in lines] == list(estimates)
    for ln, est in zip(lines, estimates.values()):
        assert ln.split("=")[1].split()[0] == f"{est.kappa:.4e}"
        gamma = "" if est.gamma is None else f"  gamma={est.gamma:.4e}"
        assert f"{est.lam_max:.4e}]{gamma}  steps={est.iterations}" in ln
    assert estimates["kappa(DA^-1 Ahat)"].gamma is not None


def test_cli_cond_marks_lower_bounds(monkeypatch, capsys):
    # each line gives the Lanczos step count after the eigenvalue range
    # (and gamma); an unconverged estimate is a lower bound and says so
    # after the count
    steps = []

    def unconverged(tsys):
        def marked(estimate):
            est = estimate()
            est.converged = False
            steps.append(est.iterations)
            return est
        return {label: partial(marked, estimate)
                for label, estimate in spectral_pencils(tsys).items()}

    monkeypatch.setattr("cutprec.cli.spectral_pencils", unconverged)
    assert main(["cond", "--max-level", "0"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("kappa")]
    assert len(lines) == 3 and all(n > 0 for n in steps)
    for ln, n in zip(lines, steps):
        assert re.search(rf"\]  (gamma=\S+  )?steps={n}  lower bound: "
                         "Lanczos not converged$", ln), ln


def test_cli_cond_failure_names_label_and_level(capsys):
    # a penalty far too small leaves Ahat indefinite
    assert main(["cond", "--level", "0", "--x0", "0.3", "0.3", "0.3",
                 "--gamma", "1e-9"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: kappa2(Ahat) failed at level 0: operator is not positive "
        "definite")


@pytest.mark.parametrize("problem, study", [(INTERFACE, "interface-study"),
                                            (FICTITIOUS, "fd-study")])
def test_only_studies_integrate_the_load(problem, study, monkeypatch,
                                         tmp_path):
    """`cutprec cond` reads only Ahat, A0 and A1 and evaluates no
    volume-load point; a level-0 study integrates the load once per
    side."""
    sides, points = [], []
    add_loads, solution = assembly._add_loads, experiments._solution

    def counted_loads(acc, mesh, cutinfo, side, f, vdof):
        sides.append(side)
        add_loads(acc, mesh, cutinfo, side, f, vdof)

    def counted_solution(*args):
        sol = solution(*args)

        def f(pts):
            points.append(len(pts))
            return sol.f(pts)
        return dataclasses.replace(sol, f=f)

    monkeypatch.setattr(assembly, "_add_loads", counted_loads)
    monkeypatch.setattr(experiments, "_solution", counted_solution)
    config = tmp_path / "config.json"
    write_config(ExperimentConfig(problem=problem), config)
    assert main(["cond", "--level", "0", "--config", str(config)]) == 0
    assert sides == points == []
    assert main([study, "--max-level", "0",
                 "--output-dir", str(tmp_path)]) == 0
    assert sides == ([1, 2] if problem == INTERFACE else [1])
    assert points and all(n > 0 for n in points)


def test_cli_config_file_with_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(ExperimentConfig(max_level=0, output_dir=str(tmp_path / "a")),
                 cfg_path)
    code = main(["interface-study", "--config", str(cfg_path),
                 "--output-dir", str(tmp_path / "b")])
    assert code == 0
    assert not (tmp_path / "a").exists()
    assert (tmp_path / "b" / "interface_study.csv").exists()


def test_cli_rejects_bad_parameters(capsys):
    assert main(["interface-study", "--gamma", "-1.0"]) == 1
    assert "gamma" in capsys.readouterr().err
    assert main(["cond", "--level", "-1"]) == 1
    assert "level must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("argv, content, named", [
    (["interface-study", "--tol", "nan"], None, "tol must be finite"),
    (["interface-study", "--gamma", "nan"], None, "gamma must be finite"),
    (["interface-study", "--alpha2", "inf"], None, "alpha2 must be finite"),
    (["interface-study", "--x0", "nan", "0", "0"], None,
     "x0 must be finite"),
    (["delta-sweep"], {"deltas": []}, "deltas must not be empty"),
    (["delta-sweep"], {"deltas": [0.0, float("nan")]},
     "deltas must be finite"),
    (["interface-study", "--preconditioners", "SGS", "SGS"], None,
     "preconditioners must not repeat"),
    (["delta-sweep", "--delta-level", "0", "--deltas", "0.0", "0.0"], None,
     "deltas must not repeat"),
    (["delta-sweep", "--delta-level", "0"], {"deltas": [0.05, 0.0, 0.05]},
     "deltas must not repeat")])
def test_cli_rejects_unusable_config_values(tmp_path, capsys, argv, content,
                                            named):
    # each value is refused when the config is made, naming its field,
    # before any system is built
    if content is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(content))
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--max-level", "0", "--output-dir",
                        str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("content, named", [
    ({"x0": 5}, "'x0'"), ({"max_level": "1"}, "'max_level'"),
    (5, "JSON object")])
def test_cli_rejects_wrongly_typed_config_values(tmp_path, capsys, content,
                                                 named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(content))
    assert main(["interface-study", "--config", str(path), "--max-level",
                 "0", "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("command, level", [
    (["interface-study", "--max-level", "1"], 0),
    (["fd-study", "--max-level", "1"], 0),
    (["cond", "--level", "1"], 1)])
def test_cli_rejects_a_sphere_that_cuts_nothing(tmp_path, capsys, command,
                                                level):
    # the sphere around (5, 5, 5) misses the box: the message names x0 and
    # the mesh level, before any table or estimate is written
    assert main(command + ["--x0", "5", "5", "5", "--output-dir",
                          str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert (f"the unit sphere around x0 = (5.0, 5.0, 5.0) cuts no element "
            f"of the level-{level} mesh") in err
    assert out == ""
    assert not list(tmp_path.glob("*.csv"))
