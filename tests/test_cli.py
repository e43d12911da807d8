import csv
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oscillant
from oscillant import cli, experiments
from oscillant.catalog import build_catalog_system, kg_equal, three_wave
from oscillant.cli import _system_overrides, build_parser, main
from oscillant.experiments import (analyze, flow_bound_experiment, interaction_matrix_factory,
                                   report_inputs, run_simulation, system_phase)
from oscillant.flow import integrate_flow
from oscillant.simulate import AmplitudeProfile
from oscillant.system import save_spec, spec_to_dict
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


def _drop(*keys):
    """An ``_emitted`` edit removing ``keys`` from the document."""
    return lambda doc: [doc.pop(key) for key in keys]


@pytest.mark.parametrize("cid", ["three-wave", "brillouin", "kg-equal", "kg-diff"])
def test_renamed_stock_file_analyzed_like_its_catalog_entry(cid, tmp_path):
    # the stock closed forms follow the recorded params; the name is only a label
    path = _emitted(cid, tmp_path / "renamed.json", lambda doc: doc.update(name="renamed"))
    assert _run(["analyze", "--system", path, "--out", str(tmp_path / "file")]) == 0
    assert _run(["analyze", "--system", f"catalog:{cid}", "--out", str(tmp_path / "stock")]) == 0
    for name in ("resonance_report.json", "stability_report.json"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "stock" / name).read_bytes()


def test_analyze_file_without_params_exit_2(tmp_path, capsys):
    # neither a phase entry nor stock params to give one: the phase is missing
    path = _emitted("kg-equal", tmp_path / "bare.json", _drop("params", "phase"))
    assert _run(["analyze", "--system", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "no phase entry" in err and "--omega/--k" in err


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
    assert (tmp_path / "3" / "trajectory_eps0.01.csv").read_text() == \
        rep.trajectories[1e-2].csv() != (tmp_path / "1" / "trajectory_eps0.01.csv").read_text()


def test_flow_writes_the_bound_trajectories(tmp_path, monkeypatch):
    # each trajectory is integrated once, 3 epsilons x (9 near-resonance + 6 away
    # samples), and each CSV is the bound's trajectory at (amplitude center, xi0)
    calls = []

    def counted(*args, _f=experiments.integrate_flow, **kw):
        calls.append(args)
        return _f(*args, **kw)
    monkeypatch.setattr(experiments, "integrate_flow", counted)
    assert _run(["flow", "--system", "catalog:kg-equal", "--out", str(tmp_path)]) == 0
    assert len(calls) == 45
    monkeypatch.undo()
    an = analyze(kg_equal(), inputs=report_inputs(1, AmplitudeProfile(), h=0.1))
    rep = flow_bound_experiment(an, [1e-2, 1e-3, 1e-4], T=2.0, h=0.1)
    assert sorted(p.name for p in tmp_path.glob("trajectory_eps*.csv")) == \
        ["trajectory_eps0.0001.csv", "trajectory_eps0.001.csv", "trajectory_eps0.01.csv"]
    for eps, traj in rep.trajectories.items():
        assert (tmp_path / f"trajectory_eps{eps:g}.csv").read_text() == traj.csv()
    xi0 = float(np.atleast_1d(an.stability.xi0)[0])
    m = interaction_matrix_factory(an, 0.0, xi0, 1e-3)
    alone = integrate_flow(m, 2.0 * abs(np.log(1e-3)))
    assert alone.csv() == rep.trajectories[1e-3].csv()


def test_simulate_honours_k(tmp_path, capsys, kg_analysis):
    # the k = 2 wave is simulated, not the default phase's: on 16384 points at
    # eps = 1e-2 it is under-resolved, at eps = 2e-2 it is the k = 2 analysis' run
    argv = ["simulate", "--system", "catalog:kg-equal", "--k", "2", "--grid", "16384",
            "--tend", "0.02", "--out", str(tmp_path)]
    assert _run(argv + ["--epsilon", "1e-2"]) == 2
    assert "points per wavelength" in capsys.readouterr().err
    assert _run(argv + ["--epsilon", "2e-2"]) == 0
    spec = kg_analysis.spec
    run = run_simulation(spec, 2e-2, analysis=analyze(spec, system_phase(spec, 2.0)),
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


def _sweep(cid, out):
    """The sweep.csv columns and the scaling_report.json of a stock sweep at width 2."""
    assert _run(["sweep", "--system", f"catalog:{cid}", "--width", "2", "--out", str(out)]) == 0
    with open(out / "sweep.csv") as f:
        rows = list(csv.DictReader(f))
    return ({key: np.array([float(r[key]) for r in rows]) for key in rows[0]},
            json.loads((out / "scaling_report.json").read_text()))


def test_sweep_reads_the_law_in_the_reduced_clock(tmp_path):
    # Brillouin is three-wave run in a clock eps^(1/2) slower: its t_star and rate
    # columns carry that clock, and the law (the ratio and scaled-rate columns and
    # both spreads) is three-wave's
    tw, tw_doc = _sweep("three-wave", tmp_path / "tw")
    br, br_doc = _sweep("brillouin", tmp_path / "br")
    assert br_doc["rate_spread"] == tw_doc["rate_spread"] <= 0.15
    assert br_doc == tw_doc and not tw_doc["flags"]
    assert np.array_equal(br["rate_scaled"], tw["rate_scaled"])
    assert np.array_equal(br["t_star_ratio"], tw["t_star_ratio"])
    clock = np.sqrt(tw["epsilon"])
    assert br["t_star"] == pytest.approx(tw["t_star"] * clock, rel=1e-10)
    assert br["fitted_rate"] == pytest.approx(tw["fitted_rate"] / clock, rel=1e-10)


def test_analyze_csv_format_flattens_the_json_report(tmp_path):
    for fmt in ("json", "csv"):
        assert _run(["analyze", "--system", "catalog:kg-equal", "--format", fmt,
                     "--out", str(tmp_path / fmt)]) == 0
    doc = json.loads((tmp_path / "json" / "stability_report.json").read_text())
    lines = (tmp_path / "csv" / "stability_report.csv").read_text().splitlines()
    assert lines[0] == "key,value"
    assert [line.split(",", 1) for line in lines[1:]] == \
        [[k, str(v)] for k, v in sorted(doc.items()) if not isinstance(v, (dict, list))]
    assert (tmp_path / "csv" / "resonance_report.json").read_bytes() == \
        (tmp_path / "json" / "resonance_report.json").read_bytes()


@pytest.mark.parametrize("argv, named", [
    # a horizon or cutoff edge that overflows, named before any flow is formed
    (["flow", "--system", "catalog:kg-equal", "--T", "1e308"], "input error: --T 1e+308:"),
    (["flow", "--system", "catalog:kg-equal", "--h", "1e308"], "input error: --h 1e+308:"),
    # step counts past the guards' limits, refused before any step is formed
    (["flow", "--system", "catalog:kg-equal", "--T", "1e7"], "MiB of step matrices"),
    (["simulate", "--system", "catalog:kg-equal", "--epsilon", "1e-2", "--grid", "16384",
      "--tend", "1e308"], "the run needs about inf steps"),
    # catalog parameters, named before any system is built on them
    (["analyze", "--system", "catalog:kg-equal", "--omega0", "1e308"], "--omega0 1e+308"),
    (["catalog", "emit", "kg-equal", "--d", "-1"], "--d -1"),
    # output paths that cannot be written
    (["catalog", "emit", "kg-equal", "--outfile", "{tmp}/missing/x.json"], "{tmp}/missing/x.json"),
    (["catalog", "emit", "kg-equal", "--outfile", "{tmp}/dir"], "cannot write {tmp}/dir:"),
    (["analyze", "--system", "catalog:three-wave", "--out", "{tmp}/file/sub"], "{tmp}/file/sub"),
    # a window with no cell, a grid whose wavenumbers overflow, and a wavenumber or
    # window whose slope radii would overflow when squared
    (["analyze", "--system", "catalog:kg-equal", "--window", "1e-300"], "--window: [-1e-300,"),
    (["analyze", "--system", "catalog:kg-equal", "--window", "1e-308"], "--window: [-1e-308,"),
    (["simulate", "--system", "catalog:three-wave", "--epsilon", "1e-2", "--width", "1e-308"],
     "--width 1e-308:"),
    (["sweep", "--system", "catalog:three-wave", "--width", "1e-308"], "--width 1e-308:"),
    (["analyze", "--system", "catalog:kg-equal", "--k", "1e308"],
     "--k 1e+308: wavenumber too large: |k| must be below 1e+150"),
    (["analyze", "--system", "catalog:kg-equal", "--window", "1e200"], "--window/--k:"),
    # a residual grid past its limit: 7e13 points at eps 1e-4, 512 TiB for x alone
    (["wkb", "--system", "catalog:kg-equal", "--residual", "--k", "1e8"],
     "--k 1e+08: the residual grid at eps 0.0001 needs 7.04e+13 points"),
    # an explicit phase's wavenumber is held to the same bound as the entry's, on every command
    *[([*command, "--system", "catalog:kg-equal", "--omega", "1", "--k", "1e308"],
       "input error: --k 1e+308: wavenumber too large: |k| must be below 1e+150")
      for command in (["analyze"], ["flow"], ["simulate", "--epsilon", "1e-2"], ["sweep"],
                      ["wkb", "--residual"], ["wkb", "--check-transparency"])],
])
def test_refused_inputs_exit_2_naming_the_cause(argv, named, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    if "--out" not in argv and argv[0] not in ("catalog", "wkb"):
        argv = argv + ["--out", "{tmp}/out"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert named.replace("{tmp}", str(tmp_path)) in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["dir", "file"]   # no output, no temporary file


def test_slopes_are_read_past_a_wide_field(tmp_path):
    # a field reaching past the first slope radius (55 on kg-equal): the slopes'
    # outward march starts at the field's edge, so their radii start past it
    for flags in (["--window", "60"], ["--k", "10"]):
        assert _run(["analyze", "--system", "catalog:kg-equal", *flags,
                     "--out", str(tmp_path / flags[1])]) == 0


def test_huge_cutoff_edge_bisects_without_overflow_warning(tmp_path):
    # at --h 4.4e307 (4h still finite) the detuning search's sign products
    # overflow to +-inf; they keep their sign, so the bisection warns of nothing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(["flow", "--system", "catalog:kg-equal", "--h", "4.4e307",
                     "--out", str(tmp_path / "out")]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        [str(w.message) for w in caught]


@pytest.mark.parametrize("argv", [
    ["simulate", "--system", "catalog:three-wave", "--epsilon", "1e-2"],
    ["flow", "--system", "catalog:kg-equal"]], ids=["simulate", "flow"])
def test_tiny_width_runs_without_overflow_warning(argv, tmp_path):
    # off its center a gaussian of width 1e-300 squares past the float range:
    # exp(-inf) = 0 there, with no warning, as under -W error::RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run(argv + ["--width", "1e-300", "--out", str(tmp_path / "out")]) == 0


def test_huge_K_reads_inf_observation_times_without_warning(tmp_path):
    # at --K 1e308 the observation times' quotients leave the float range: the report
    # reads inf there, with no warning, as under -W error::RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run(["analyze", "--system", "catalog:kg-equal", "--K", "1e308",
                     "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "stability_report.json").read_text())
    assert doc["T0"] == doc["T0_doubleprime"] == doc["T_inf"] == "inf"
    assert doc["K0_doubleprime"] == "-inf" and doc["verdict"] == "unstable"


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
    ["wkb", "--system", "catalog:kg-equal", "--residual", "--epsilons", "1e-2,1e-2,1e-3"],
    ["flow", "--system", "catalog:kg-equal", "--epsilons", "1e-2,1e-2,1e-3"],
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
    assert _system_overrides(args) == {"omega0": 1.0, "b": [0.0, 1.0, -1.0]}


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
    out = ["--out", str(tmp_path)]
    for argv in (["analyze", *out], ["flow", *out], ["wkb", "--check-transparency"],
                 ["wkb", "--residual", "--epsilons", "1e-2,3e-3"],
                 ["simulate", "--epsilon", "1e-2", "--grid", "16384", "--tend", "0.02", *out]):
        assert _run(argv + ["--system", rotated_kg_file, *KG_PHASE]) == 0, argv
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


def _loaded(*argv):
    """The system and phase a command takes from its flags."""
    args = build_parser().parse_args(["analyze", *argv])
    spec = cli._load_system(args)
    return spec, cli._phase_from(args, spec)


@pytest.mark.parametrize("cid", ["three-wave", "brillouin", "kg-equal", "kg-diff"])
def test_legacy_file_gets_the_builders_phase_entries(cid, tmp_path):
    # a file without phase entries but with stock params is its catalog system,
    # entry for entry, so every report comes out the same
    path = _emitted(cid, tmp_path / "legacy.json", lambda doc: [
        doc.pop(key) for key in ("phase", "reference_direction") if key in doc])
    assert "phase" not in json.loads((tmp_path / "legacy.json").read_text())
    spec, phase = _loaded("--system", path)
    stock = build_catalog_system(cid)
    assert spec_to_dict(spec) == spec_to_dict(stock) and phase is spec.phase


def test_parameter_flags_on_a_system_file_exit_2(tmp_path, capsys):
    # a file is the whole system: --omega0/--d cannot rebuild it
    path = _emitted("kg-equal", tmp_path / "kg.json", lambda doc: None)
    assert _run(["analyze", "--system", path, "--omega0", "2", "--d", "2", "--c", "1,2,3",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: --omega0, --d, --c:") and path in err
    assert not (tmp_path / "out").exists()


# the parameter flags each catalog entry declares, and a value each accepts
CATALOG_PARAMS = {"three-wave": {"c", "b"}, "brillouin": {"c", "b"},
                  "kg-equal": {"omega0", "theta0", "d"},
                  "kg-diff": {"omega0", "theta0", "alpha0", "iota", "d"},
                  "mll-variety": set(), "em-dispersion": set()}
PARAM_VALUES = {"omega0": "2", "theta0": "0.3", "alpha0": "2", "iota": "-1", "d": "2",
                "c": "1,0.5,-0.5", "b": "0,1,-1"}


@pytest.mark.parametrize("cid", sorted(CATALOG_PARAMS))
@pytest.mark.parametrize("key", sorted(PARAM_VALUES))
def test_catalog_entries_take_only_their_parameter_flags(cid, key, tmp_path, capsys):
    # a flag the entry declares builds it; any other exits 2 naming the flag,
    # before anything is computed
    flag = [f"--{key}", PARAM_VALUES[key]]
    rc = _run(["catalog", "emit", cid, *flag, "--outfile", str(tmp_path / "entry.json")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if key in CATALOG_PARAMS[cid]:
        assert rc == 0 and (tmp_path / "entry.json").exists()
        return
    assert rc == 2 and f"--{key}:" in err
    assert _run(["analyze", "--system", f"catalog:{cid}", *flag,
                 "--out", str(tmp_path / "out")]) == 2
    assert (err := capsys.readouterr().err).startswith(f"input error: --{key}:"), err
    assert not (tmp_path / "out").exists()


def test_three_wave_takes_three_values_of_c_and_b(capsys):
    # a partial list does not take the missing components from the defaults
    for argv, counts in ((["--c", "1,2"], "2 and 3"), (["--b", "0,1,-1,2"], "3 and 4")):
        assert _run(["analyze", "--system", "catalog:three-wave", *argv]) == 2
        assert capsys.readouterr().err == ("input error: --c, --b: three-wave systems take "
                                           f"three values each, got {counts}\n")


@pytest.mark.parametrize("argv, unread", [
    (["simulate", "--system", "catalog:three-wave", "--epsilon", "1e-2"], ["--strict"]),
    (["sweep", "--system", "catalog:three-wave"], ["--strict"]),
    (["wkb", "--system", "catalog:kg-equal", "--check-transparency"], ["--strict"]),
    (["wkb", "--system", "catalog:kg-equal", "--check-transparency"], ["--width", "1"]),
    (["wkb", "--system", "catalog:kg-equal", "--check-transparency"], ["--out", "x"]),
])
def test_flags_a_command_does_not_read_exit_2(argv, unread, capsys):
    assert _run(argv + unread) == 2
    assert f"unrecognized arguments: {' '.join(unread)}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["analyze"], ["flow"], ["simulate", "--epsilon", "1e-2"],
                                     ["sweep"]])
def test_out_naming_a_file_exit_2(command, tmp_path, capsys):
    path = tmp_path / "report"
    path.write_text("kept\n")
    assert _run(command + ["--system", "catalog:three-wave", "--out", str(path)]) == 2
    assert f"argument --out: '{path}' is a file" in capsys.readouterr().err
    assert path.read_text() == "kept\n"


def test_flow_writes_one_csv_per_distinct_epsilon(tmp_path):
    # 1e-2 and 1.0000001e-2 share their 6 leading digits, not their file
    assert _run(["flow", "--system", "catalog:kg-equal", "--T", "0.3",
                 "--epsilons", "1e-2,1.0000001e-2,1e-3", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "flow_bound_report.json").read_text())
    assert doc["epsilons"] == [0.010000001, 0.01, 0.001]
    assert sorted(p.name for p in tmp_path.glob("trajectory_eps*.csv")) == \
        ["trajectory_eps0.001.csv", "trajectory_eps0.01.csv", "trajectory_eps0.010000001.csv"]


def test_k_takes_the_phase_entry_branch(tmp_path, capsys):
    # the stored k returns the stored omega; another k the eigenvalue of the
    # stored branch (5 of 6 ascending on kg-equal, 4 on kg-diff)
    assert _loaded("--system", "catalog:kg-equal", "--k", "1")[1].omega == 1.4142135623730951
    assert _loaded("--system", "catalog:kg-equal", "--k", "2")[1].omega == pytest.approx(
        np.sqrt(5.0), rel=1e-15)
    path = _emitted("kg-diff", tmp_path / "kg-diff.json", lambda doc: None)
    assert _loaded("--system", path, "--k", "2.5")[1].omega == pytest.approx(
        np.sqrt(1 + 0.25 * 2.5 ** 2), rel=1e-15)
    # the gate |k| < 2.7495 comes from the file, not from its params
    path = _emitted("kg-diff", tmp_path / "gate.json", lambda doc: doc.pop("params"))
    argv = ["analyze", "--out", str(tmp_path / "x"), "--system"]
    assert _run(argv + [path, "--k", "3"]) == 2
    assert "wavenumber too large" in capsys.readouterr().err
    # three-wave's (0, 0) is a triple eigenvalue: it names no branch
    assert _run(argv + ["catalog:three-wave", "--k", "2"]) == 2
    assert "not a simple eigenvalue" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_reference_direction_must_lie_in_the_kernel(tmp_path, capsys):
    # c1 = c2: the kernel at (1, 1) is span(u1, u2), so the direction (0, 0, 1) is refused
    argv = ["analyze", "--omega", "1", "--k", "1", "--out", str(tmp_path / "out"), "--system"]
    assert _run(["catalog", "emit", "three-wave", "--c", "1,1,-0.5",
                 "--outfile", str(tmp_path / "tw.json")]) == 0
    doc = json.loads((tmp_path / "tw.json").read_text())
    for direction, rc in ((["0", "1", "0"], 0), (["0", "0", "1"], 2)):
        doc["reference_direction"] = direction
        (tmp_path / "tw.json").write_text(json.dumps(doc))
        assert _run(argv + [str(tmp_path / "tw.json")]) == rc
    assert "reference_direction is not in it" in capsys.readouterr().err
    doc.pop("reference_direction")
    (tmp_path / "tw.json").write_text(json.dumps(doc))
    assert _run(argv + [str(tmp_path / "tw.json")]) == 2
    assert "has dimension 2" in (err := capsys.readouterr().err) and "reference_direction" in err


def test_simulate_K_sets_the_observation_time(tmp_path, capsys):
    # --K 4 perturbs at eps^4 and runs to T0 of K = 4 (3.5 against 2.5 for K = 3)
    eps = 1e-2
    assert _run(["simulate", "--system", "catalog:three-wave", "--epsilon", str(eps),
                 "--K", "4", "--grid", "1024", "--out", str(tmp_path)]) == 0
    t0 = {K: analyze(three_wave(), inputs=report_inputs(1, K=K)).stability.t0 for K in (3, 4)}
    assert t0[4] > t0[3]
    t_end = float((tmp_path / "run.csv").read_text().splitlines()[-1].split(",")[0])
    assert t_end == pytest.approx(t0[4] * np.sqrt(eps) * abs(np.log(eps)), rel=1e-9)
    # run_simulation without an analysis analyses with the run's own K
    assert run_simulation(three_wave(), eps, K=4.0, grid_points=1024).csv() == \
        (tmp_path / "run.csv").read_text()


# the CLI matrix: every command on every kind of system input returns a
# documented exit code, and a refusal names what is missing
MATRIX_COMMANDS = {
    "analyze": ["analyze"],
    "flow": ["flow", "--T", "0.5", "--epsilons", "1e-2,1e-3"],
    "simulate": ["simulate", "--epsilon", "5e-2", "--tend", "0.02"],
    "sweep": ["sweep", "--epsilons", "1e-2,5e-3,2.5e-3", "--T", "0.5"],
    "wkb": ["wkb", "--residual", "--epsilons", "1e-2,3e-3"],
}
# input -> (system flags, what a refusal names, the exit codes in command
# order); the sweep's default grid of 4096 points resolves 2.6 points a
# wavelength of kg-equal's carrier
MATRIX_INPUTS = {
    "catalog": (["--system", "catalog:kg-equal"], "points per wavelength", (0, 0, 0, 2, 0)),
    "emitted": ("emitted", "points per wavelength", (0, 0, 0, 2, 0)),
    "bare": ("bare", "no phase entry", (2, 2, 2, 2, 2)),
    "legacy": ("legacy", "points per wavelength", (0, 0, 0, 2, 0)),
    "rotated": ("rotated", "no phase entry", (2, 2, 2, 2, 2)),
    "d2": (["--system", "catalog:kg-equal", "--d", "2"],
           "GB of eigenvectors|one spatial dimension", (2, 2, 2, 2, 2)),
}


@pytest.mark.parametrize("kind", sorted(MATRIX_INPUTS))
def test_cli_matrix(kind, rotated_kg_file, tmp_path, capsys):
    system, named, want = MATRIX_INPUTS[kind]
    if isinstance(system, str):
        edit = {"emitted": lambda doc: None, "bare": _drop("phase", "params"),
                "legacy": _drop("phase")}
        system = ["--system", rotated_kg_file if system == "rotated" else
                  _emitted("kg-equal", tmp_path / "kg.json", edit[system])]
    codes = []
    for name, argv in MATRIX_COMMANDS.items():
        capsys.readouterr()
        # wkb writes nothing, so it takes no --out
        out = [] if name == "wkb" else ["--out", str(tmp_path / name)]
        codes.append(_run(argv + system + out))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 2, 3, 4) and "Traceback" not in err, (name, err)
        assert codes[-1] != 2 or re.search(named, err), (name, err)
    assert tuple(codes) == want
