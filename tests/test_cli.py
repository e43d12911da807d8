import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import oscillant
from oscillant import cli
from oscillant.catalog import kg_default_phase, kg_equal
from oscillant.cli import _system_overrides, build_parser, main
from oscillant.experiments import (analyze, flow_bound_experiment, interaction_matrix_factory,
                                   report_inputs, run_simulation, sample_trajectory)
from oscillant.simulate import AmplitudeProfile
from oscillant.system import save_spec
from oscillant.wkb import consistency_residual

from oracles import rotated


def _run(argv):
    try:
        main(argv)
    except SystemExit as exc:
        return exc.code
    return 0


def test_catalog_list(capsys):
    assert _run(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    for cid in ("three-wave", "kg-equal", "kg-diff", "mll-variety"):
        assert cid in out


def test_catalog_emit_roundtrip(tmp_path):
    path = tmp_path / "kg.json"
    assert _run(["catalog", "emit", "kg-equal", "--outfile", str(path)]) == 0
    from oscillant.system import load_spec, save_spec
    spec = load_spec(str(path))
    assert spec.name == "kg-equal" and spec.N == 6
    path2 = tmp_path / "kg2.json"
    save_spec(spec, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_analyze_kg_equal_unstable(tmp_path, capsys):
    out = tmp_path / "out"
    rc = _run(["analyze", "--system", "catalog:kg-equal", "--omega0", "1",
               "--theta0", "0.5", "--k", "1", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "unstable" in text
    doc = json.loads((out / "stability_report.json").read_text())
    assert doc["verdict"] == "unstable"
    assert doc["Gamma_index"] > 0
    res = json.loads((out / "resonance_report.json").read_text())
    assert res["bounded_verdict"] == "bounded"
    assert res["harmonics"] == [-1, 0, 1]


def test_analyze_three_wave_stable(tmp_path, capsys):
    out = tmp_path / "out"
    rc = _run(["analyze", "--system", "catalog:three-wave", "--b", "0,1,-1",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "stability_report.json").read_text())
    assert doc["verdict"] == "stable"


def test_analyze_kg_diff_stable(tmp_path):
    out = tmp_path / "out"
    rc = _run(["analyze", "--system", "catalog:kg-diff", "--iota", "-1",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "stability_report.json").read_text())
    assert doc["verdict"] == "stable"


def test_analyze_strict_exit_code(tmp_path):
    # fully transparent source: verdict stable-by-transparency passes strict;
    # an all-zero coupling with auto pairs only stays degenerate-free here, so
    # exercise strict with an undetermined-free case and the rc-4 degenerate path
    out = tmp_path / "out"
    rc = _run(["analyze", "--system", "catalog:three-wave", "--b", "1,0,0",
               "--out", str(out), "--strict"])
    assert rc == 0
    doc = json.loads((out / "stability_report.json").read_text())
    assert doc["verdict"] == "stable-by-transparency"


def test_analyze_unknown_system_exit_2(tmp_path):
    rc = _run(["analyze", "--system", "catalog:banana", "--out", str(tmp_path / "o")])
    assert rc == 2


def _emitted(cid, path, edit):
    """Emit a catalog system to ``path`` and apply ``edit`` to its JSON document."""
    assert _run(["catalog", "emit", cid, "--outfile", str(path)]) == 0
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("cid", ["three-wave", "brillouin", "kg-equal", "kg-diff"])
def test_renamed_stock_file_analyzed_like_its_catalog_entry(cid, tmp_path):
    # the stock closed forms follow the recorded params; the name is only a label
    path = _emitted(cid, tmp_path / "renamed.json", lambda doc: doc.update(name="renamed"))
    assert _run(["analyze", "--system", path, "--out", str(tmp_path / "file")]) == 0
    assert _run(["analyze", "--system", f"catalog:{cid}", "--out", str(tmp_path / "stock")]) == 0
    for name in ("resonance_report.json", "stability_report.json"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "stock" / name).read_bytes()


def test_analyze_file_without_params_exit_2(tmp_path, capsys):
    path = _emitted("kg-equal", tmp_path / "bare.json", lambda doc: doc.pop("params"))
    assert _run(["analyze", "--system", path, "--out", str(tmp_path / "out")]) == 2
    assert "--omega/--k" in capsys.readouterr().err


def test_analyze_and_flow_report_the_given_h(tmp_path):
    # --h reaches the stability report without --K/--Ka, and the flow's gamma+
    assert _run(["analyze", "--system", "catalog:kg-equal", "--h", "0.3",
                 "--out", str(tmp_path / "a")]) == 0
    doc = json.loads((tmp_path / "a" / "stability_report.json").read_text())
    assert doc["inputs"]["h"] == 0.3
    assert doc["gamma_plus"] == 0.2765774847122608
    assert _run(["flow", "--system", "catalog:kg-equal", "--h", "0.3", "--T", "0.5",
                 "--epsilons", "1e-2,1e-3", "--out", str(tmp_path / "f")]) == 0
    flow = json.loads((tmp_path / "f" / "flow_bound_report.json").read_text())
    assert (flow["h"], flow["gamma_plus"]) == (0.3, doc["gamma_plus"])


def test_flow_honours_width(tmp_path):
    # --width reaches the analysis inputs, the flow bound and the dumped trajectories
    argv = ["flow", "--system", "catalog:kg-equal", "--T", "0.5", "--epsilons", "1e-2,1e-3"]
    docs = {}
    for width in ("1", "3"):
        assert _run(argv + ["--width", width, "--out", str(tmp_path / width)]) == 0
        docs[width] = json.loads((tmp_path / width / "flow_bound_report.json").read_text())
    amplitude = AmplitudeProfile(width=3.0)
    an = analyze(kg_equal(), inputs=report_inputs(1, amplitude, h=0.1))
    rep = flow_bound_experiment(an, [1e-2, 1e-3], T=0.5, h=0.1, amplitude=amplitude)
    assert docs["3"]["Q"] == [float(q) for q in rep.Q] != docs["1"]["Q"]
    assert (docs["3"]["fitted_exponent"], docs["3"]["away_sup"]) == \
        (rep.fitted_exponent, rep.away_sup)
    m = interaction_matrix_factory(an, 0.0, float(np.atleast_1d(an.stability.xi0)[0]), 1e-2,
                                   h=0.1, amplitude=amplitude)
    traj = sample_trajectory(m, 0.5 * abs(np.log(1e-2)), samples=200)
    assert (tmp_path / "3" / "trajectory_eps0.01.csv").read_text() == traj.csv() != \
        (tmp_path / "1" / "trajectory_eps0.01.csv").read_text()


def test_simulate_honours_k(tmp_path, capsys, kg_analysis):
    # the k = 2 wave is simulated, not the default phase's: on 16384 points at
    # eps = 1e-2 it is under-resolved, at eps = 2e-2 it is the k = 2 analysis' run
    argv = ["simulate", "--system", "catalog:kg-equal", "--k", "2", "--grid", "16384",
            "--tend", "0.02", "--out", str(tmp_path)]
    assert _run(argv + ["--epsilon", "1e-2"]) == 2
    assert "points per wavelength" in capsys.readouterr().err
    assert _run(argv + ["--epsilon", "2e-2"]) == 0
    spec = kg_analysis.spec
    run = run_simulation(spec, 2e-2, analysis=analyze(spec, kg_default_phase(spec, k=2.0)),
                         grid_points=16384, t_end=0.02)
    assert (tmp_path / "run.csv").read_text() == run.csv()


def test_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert _run(["analyze", "--system", "catalog:three-wave", "--b", "0,1,1",
                     "--out", str(out)]) == 0
    for name in ("stability_report.json", "resonance_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = _run(["simulate", "--system", "catalog:three-wave", "--b", "0,1,1",
               "--c", "0,0.5,-0.5", "--epsilon", "1e-2", "--width", "2.0",
               "--grid", "2048", "--tend", "0.4", "--out", str(out)])
    assert rc == 0
    lines = (out / "run.csv").read_text().strip().splitlines()
    assert lines[0] == "t,norm_total,norm_dev,norm_dev_ball,sup_dev"
    assert len(lines) > 10
    # the step report goes to stdout only
    assert re.search(r"^dt_used: \S+  halvings: \d+$", capsys.readouterr().out, re.M)
    assert sorted(p.name for p in out.iterdir()) == ["run.csv"]


def test_wkb_check_transparency():
    assert _run(["wkb", "--system", "catalog:kg-equal", "--check-transparency"]) == 0


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("analyze", "flow", "simulate", "sweep", "wkb", "catalog"):
        assert cmd in text


def test_analyze_d2_default_grid_refused_before_allocating(tmp_path, capsys):
    # the default 2048 x 2048 grid at d=2 would need ~4.3 GB of eigenvectors
    import tracemalloc
    tracemalloc.start()
    try:
        rc = _run(["analyze", "--system", "catalog:kg-equal", "--d", "2",
                   "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "GB" in capsys.readouterr().err
    assert peak < 50e6


@pytest.mark.parametrize("argv", [
    ["flow", "--system", "catalog:kg-equal", "--epsilons", "abc"],
    ["flow", "--system", "catalog:kg-equal", "--epsilons", "0"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "0"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "1.5"],
    ["sweep", "--system", "catalog:three-wave", "--epsilons", "1e-2,nan,1e-3"],
    ["wkb", "--system", "catalog:kg-equal", "--residual", "--epsilons", "2"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "1e-2", "--grid", "0"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "1e-2", "--grid", "3"],
    ["flow", "--system", "catalog:kg-equal", "--T", "0"],
    ["flow", "--system", "catalog:kg-equal", "--T", "-1"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "1e-2", "--width", "0"],
    ["analyze", "--system", "catalog:kg-equal", "--K", "3", "--width", "-1"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "1e-2", "--tend", "0"],
    ["analyze", "--system", "catalog:kg-equal", "--window", "-1"],
    ["analyze", "--system", "catalog:kg-equal", "--h", "nan"],
    ["sweep", "--system", "catalog:three-wave", "--rho", "inf"],
    ["analyze", "--system", "catalog:kg-equal", "--K", "nan"],
    ["analyze", "--system", "catalog:kg-equal", "--Ka", "0"],
    ["analyze", "--system", "catalog:kg-equal", "--Ka", "nan"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "1e-2", "--K", "-1"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "1e-2", "--Kprime", "inf"],
    ["sweep", "--system", "catalog:three-wave", "--Kprime", "-0.5"],
    ["analyze", "--system", "catalog:kg-equal", "--omega0", "nan"],
    ["flow", "--system", "catalog:kg-equal", "--theta0", "inf"],
    ["wkb", "--system", "catalog:kg-equal", "--alpha0", "abc"],
    ["analyze", "--system", "catalog:three-wave", "--c", "0,nan,1"],
    ["catalog", "emit", "three-wave", "--b", "0,1,x"],
    ["analyze", "--system", "catalog:kg-equal", "--k", "1", "--omega", "nan"],
    ["wkb", "--system", "catalog:kg-equal", "--check-transparency", "--k", "inf"],
    ["wkb", "--system", "catalog:kg-equal", "--residual", "--epsilons", "1e-2"],
    ["wkb", "--system", "catalog:kg-equal", "--residual", "--epsilons", "1e-2,1e-2"],
    ["flow", "--system", "catalog:kg-equal", "--epsilons", "1e-2"],
    ["sweep", "--system", "catalog:three-wave", "--epsilons", "1e-2,1e-3"],
    ["sweep", "--system", "catalog:three-wave", "--epsilons", "1e-2,1e-3,1e-2"],
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "1e-2", "--grid", "1"],
    ["sweep", "--system", "catalog:three-wave", "--grid", "1"],
])
def test_epsilon_outside_unit_interval_exit_2(argv, capsys):
    """A flag value outside its domain (first the epsilons) exits 2 before
    anything is computed, naming the flag: the last one given."""
    assert _run(argv) == 2
    assert f"argument {argv[-2]}" in capsys.readouterr().err


def test_ka_accepts_inf_and_overrides_parse_as_numbers():
    args = build_parser().parse_args(["analyze", "--system", "catalog:three-wave", "--Ka", "inf",
                                      "--b", "0,1,-1", "--omega0", "1"])
    assert args.Ka == np.inf
    assert _system_overrides(args) == {"omega0": 1.0, "b1": 0.0, "b2": 1.0, "b3": -1.0}


@pytest.mark.parametrize("text, problem", [
    (None, "cannot read"),
    ("not json {", "not JSON"),
    ('{"name": "x"}', "'N'"),
], ids=["missing", "not-json", "no-N"])
def test_unusable_system_file_exit_2(tmp_path, capsys, text, problem):
    path = tmp_path / "system.json"
    if text is not None:
        path.write_text(text)
    assert _run(["analyze", "--system", str(path), "--omega", "1", "--k", "1",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and str(path) in err and problem in err


def test_omega_without_k_exit_2(tmp_path, capsys):
    rc = _run(["analyze", "--system", "catalog:kg-equal", "--omega", "3", "--out", str(tmp_path)])
    assert rc == 2
    assert "--k" in capsys.readouterr().err


def test_wkb_residual_three_wave(capsys):
    # L(2 beta) is singular here: the corrector is the range-checked pseudo-inverse solution
    assert _run(["wkb", "--system", "catalog:three-wave", "--residual"]) == 0
    assert "with-corrector residual order: inf" in capsys.readouterr().out


def test_analyze_and_flow_load_no_scipy(tmp_path):
    # a fresh interpreter, as the console script is: import, analyze, the
    # (rank-one) flow bound on kg-equal and an acoustic phase match leave no
    # scipy module loaded
    code = (
        "import sys, oscillant, oscillant.cli\n"
        "for argv in (['analyze', '--system', 'catalog:kg-equal', '--out', sys.argv[1]],\n"
        "             ['flow', '--system', 'catalog:kg-equal', '--T', '0.5', '--out', sys.argv[1]]):\n"
        "    try:\n"
        "        oscillant.cli.main(argv)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, (argv, exc.code)\n"
        "from oscillant.dispersion import match_phases_on_dispersion\n"
        "match_phases_on_dispersion('euler-maxwell-longitudinal-s',\n"
        "                           {'theta_e': 0.1, 'theta_i': 1e-3}, k1=25.0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(oscillant.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "stability_report.json").exists()
    doc = json.loads((tmp_path / "flow_bound_report.json").read_text())
    assert doc["passed"] and 0.0 < doc["liouville_defect_max"] <= 1e-10
    assert doc["max_step_exponent"] >= 0.1


@pytest.mark.parametrize("entry, edit", [
    ("A0[0, 1] is not finite: nan", lambda doc: doc["A0"][0].__setitem__(1, "nan")),
    ("A1[2, 2] is not finite: inf", lambda doc: doc["Aj"][0][2].__setitem__(2, "inf")),
    ("B triplet (1, 0, 2) has a non-finite value nan", lambda doc: doc["B"][1].__setitem__(3, "nan")),
    ("B triplet (2, 0, 1) has a non-finite value -inf",
     lambda doc: doc["B"][2].__setitem__(3, "-inf")),
], ids=["A0-nan", "A1-inf", "B-nan", "B-minus-inf"])
def test_non_finite_system_entry_exit_2(entry, edit, tmp_path, capsys):
    path = _emitted("three-wave", tmp_path / "bad.json", edit)
    assert _run(["analyze", "--system", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and path in err and entry in err


@pytest.mark.parametrize("cid", ["three-wave", "brillouin", "kg-diff"])
def test_emitted_system_round_trips_byte_identical(cid, tmp_path):
    # kg-equal's round trip is test_catalog_emit_roundtrip
    from oscillant.system import load_spec, save_spec
    path, again = tmp_path / "a.json", tmp_path / "b.json"
    assert _run(["catalog", "emit", cid, "--outfile", str(path)]) == 0
    save_spec(load_spec(str(path)), str(again))
    assert path.read_bytes() == again.read_bytes()


# the default phase of kg-equal, given explicitly: a rotated file has no stock default
KG_PHASE = ["--omega", "1.4142135623730951", "--k", "1"]


@pytest.fixture(scope="module")
def rotated_kg_file(tmp_path_factory):
    """kg-equal conjugated by a random rotation, written without params."""
    Q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(6, 6)))
    path = tmp_path_factory.mktemp("rotated") / "rotated-kg-equal.json"
    save_spec(rotated(kg_equal(), Q), str(path))
    return str(path)


def test_rotated_system_runs_every_command(rotated_kg_file, tmp_path, capsys):
    # no stock closed form applies: every command reads the analysed polarization
    for argv in (["analyze"], ["flow"], ["wkb", "--check-transparency"],
                 ["wkb", "--residual", "--epsilons", "1e-2,3e-3"],
                 ["simulate", "--epsilon", "1e-2", "--grid", "16384", "--tend", "0.02"]):
        assert _run(argv + ["--system", rotated_kg_file, *KG_PHASE,
                            "--out", str(tmp_path)]) == 0, argv
    capsys.readouterr()
    # the default sweep's grid is too coarse for this wave: the refusal names it
    assert _run(["sweep", "--system", rotated_kg_file, *KG_PHASE, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "points per wavelength" in err and "stock" not in err


def test_rotated_system_matches_its_stock_system(rotated_kg_file, kg_analysis, monkeypatch):
    # L2 norms, residual orders and growth rates do not see the rotation; the
    # bounds are about 40x the largest gap measured over six random rotations
    # (orders 6.2e-14 absolute, rate 2.3e-13 and norm_total 9.1e-15 relative)
    fits = []

    def recorded(*args):
        fits.append(fit := consistency_residual(*args))
        return fit
    monkeypatch.setattr(cli, "consistency_residual", recorded)
    for system in ("catalog:kg-equal", rotated_kg_file):
        assert _run(["wkb", "--system", system, *KG_PHASE, "--residual",
                     "--epsilons", "1e-2,3e-3"]) == 0
    assert len(fits) == 4   # leading order and with correctors, per system
    for a, b in zip(fits[:2], fits[2:]):
        assert abs(a.fitted_order - b.fitted_order) <= 4e-12
    spec = cli.load_spec(rotated_kg_file)
    runs = [run_simulation(an.spec, 1e-2, analysis=an, grid_points=16384, t_end=0.02)
            for an in (kg_analysis, analyze(spec, kg_analysis.phase))]
    assert [r.verdict for r in runs] == ["completed"] * 2
    assert runs[0].dt_used == runs[1].dt_used
    assert runs[1].fitted_rate == pytest.approx(runs[0].fitted_rate, rel=1e-11, abs=0)
    np.testing.assert_allclose(runs[1].norm_total, runs[0].norm_total, rtol=4e-13, atol=0)
