import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twistlab import cli, kernel
from twistlab.cli import main, parse_config
from twistlab.kernel import Params
from twistlab.spectrum import mode_cutoff


def run(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def test_kernel_command(tmp_path):
    code, out = run(["kernel", "--name", "upsilon0"], tmp_path, "u0")
    assert code == 0
    payload = json.loads((out / "kernel.json").read_text())
    assert payload["schema"] == 1
    assert payload["results"]["value"] == pytest.approx(0.4065, abs=1e-3)
    assert (out / "kernel.csv").read_text().splitlines()[0] == "name,value"

    code, out = run(["kernel", "--name", "w-hat", "--r", "0.25", "--k", "1"], tmp_path, "wh")
    val = json.loads((out / "kernel.json").read_text())["results"]["value"]
    assert val == pytest.approx(2.0 / math.pi)

    code, out = run(["kernel", "--name", "c3", "--q", "2", "--k", "1", "--m", "3",
                     "--r", "0.3"], tmp_path, "c3")
    assert code == 0


def test_kernel_command_missing_m_is_usage_error(tmp_path, capsys):
    code = main(["kernel", "--name", "c3", "--q", "2", "--k", "1", "--r", "0.3",
                 "--out", str(tmp_path / "x")])
    assert code == 2


KERNEL_FLAGS = {
    "w-hat": {"r": "0.25", "k": "3"},
    "c1": {"q": "5", "k": "2", "r": "0.2"},
    "c2": {"q": "5", "k": "2", "r": "0.2"},
    "c3": {"q": "2", "k": "1", "m": "3", "r": "0.3"},
    "c4": {"q": "2", "k": "1", "m": "3", "r": "0.3"},
    "c5": {"q": "5", "k": "2", "r": "0.2"},
    "c6": {"q": "5", "k": "2", "r": "0.2"},
    "tail-limit": {"q": "5", "r": "0.2"},
    "lambda0": {"q": "8", "r": "0.3"},
    "big-h": {"q": "8", "r": "0.3"},
    "cap-x": {"q": "2", "r": "0.3"},
    "iota": {"upsilon": "0.5"},
    "upsilon0": {},
}


def test_kernel_every_name_runs_and_needs_each_of_its_flags(tmp_path):
    from twistlab import cli

    assert set(KERNEL_FLAGS) == set(cli._KERNEL_QUANTITIES)
    for name, flags in KERNEL_FLAGS.items():
        argv = ["kernel", "--name", name]
        code, out = run(argv + [f"--{k}={v}" for k, v in flags.items()], tmp_path, name)
        assert code == 0, name
        assert math.isfinite(json.loads((out / "kernel.json").read_text())["results"]["value"])
        for missing in flags:
            rest = [f"--{k}={v}" for k, v in flags.items() if k != missing]
            code, out = run(argv + rest, tmp_path, f"{name}-no-{missing}")
            assert code == 2, (name, missing)
            assert not out.exists()


def test_out_of_range_values_are_usage_errors(tmp_path):
    # the library rejects these (the CLI only --q-max, which no library call
    # reads); the CLI maps its ValueError to exit 2 before anything is written
    for argv in (["kernel", "--name", "w-hat", "--r", "0.7", "--k", "1"],
                 ["kernel", "--name", "upsilon0", "--r", "0"],
                 ["spectrum", "--q", "5", "--r", "0.7"],
                 ["spectrum", "--q", "5", "--r", "0.2", "--tol", "0"],
                 ["gamma", "--q", "5", "--r0", "0.7"],
                 ["gamma", "--q", "2", "--family", "t-family", "--r0", "0.75"],
                 ["gamma", "--q-max", "1"],
                 ["simulate", "--M", "100", "--r", "0.7"],
                 ["equilibrium", "--M", "100", "--r=-0.1"],
                 ["stability-map", "--r", "0.1:x:5", "--lambda", "0:6:3"],
                 ["thresholds", "--q", "5", "--kind", "attractive", "--M", "0"]):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2, argv
        assert not (tmp_path / "o").exists(), argv


def test_spectrum_csv_header_and_values(tmp_path):
    code, out = run(["spectrum", "--q", "5", "--r", "0.118", "--tol", "1e-4",
                     "--kmax", "15"], tmp_path, "spec")
    assert code == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "k,c1"
    assert len(lines) == 16
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["results"]["sup_attained_at"] == 5


def test_spectrum_without_kmax_writes_the_certified_listing(tmp_path):
    code, out = run(["spectrum", "--q", "5", "--r", "0.2"], tmp_path, "spec")
    assert code == 0
    res = json.loads((out / "spectrum.json").read_text())["results"]
    assert (res["sup_value"], res["sup_attained_at"]) == (0.20000000000000004, 5)
    assert res["tail"] == 1.5592687330077504e-17
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert len(lines) == res["modes_listed"] + 1
    assert res["modes_listed"] < mode_cutoff(5, 1e-6)


def test_spectrum_kmax_lists_modes_one_to_n(tmp_path):
    # N past the certified listing still writes N modes, the values of c1
    code, out = run(["spectrum", "--q", "5", "--r", "0.005", "--kmax", "200"], tmp_path, "spec")
    assert code == 0
    res = json.loads((out / "spectrum.json").read_text())["results"]
    assert res["modes_listed"] == 200
    rows = [line.split(",") for line in (out / "spectrum.csv").read_text().splitlines()[1:]]
    assert [int(k) for k, _ in rows] == list(range(1, 201))
    expected = kernel.c1(5, np.arange(1, 201), Params(0.005))
    assert np.array_equal([float(v) for _, v in rows], expected)
    assert int(np.argmin(expected)) + 1 > 64  # the most negative mode lies past the listing
    for bad in ("0", "-5"):
        assert main(["spectrum", "--q", "5", "--r", "0.2", "--kmax", bad,
                     "--out", str(tmp_path / "bad")]) == 2, bad
        assert not (tmp_path / "bad").exists()


def test_thresholds_domain_error_exit_code(tmp_path, capsys):
    code = main(["thresholds", "--q", "1", "--kind", "repulsive",
                 "--out", str(tmp_path / "t")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "NoBifurcationError"


def test_memory_error_exit_code(tmp_path, capsys, monkeypatch):
    # a listing too large to allocate (spectrum --kmax 99999999999) left a
    # traceback and exit 1; raised here without allocating
    def too_large(config):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setitem(cli._RUNNERS, "spectrum", too_large)
    code = main(["spectrum", "--q", "5", "--r", "0.2", "--kmax", "99999999999",
                 "--out", str(tmp_path / "m")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "MemoryError", "message": "Unable to allocate 745. GiB for an array"}
    assert not (tmp_path / "m").exists()


def test_usage_error_exit_code(tmp_path):
    assert main(["simulate", "--r", "0.7", "--out", str(tmp_path / "s")]) == 2


def test_io_error_exit_code(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = main(["kernel", "--name", "upsilon0", "--out", str(blocker / "sub")])
    assert code == 4


def test_gamma_reference_run(tmp_path):
    code, out = run(["gamma", "--q", "5", "--at", "attractive-threshold",
                     "--s0=-1e-4"], tmp_path, "g")
    assert code == 0
    payload = json.loads((out / "gamma.json").read_text())
    res = payload["results"]
    assert res["gamma1"] == pytest.approx(9.494e-3, rel=1e-2)
    assert res["gamma2"] == pytest.approx(8.400e-2, rel=1e-2)
    assert res["a_app"] == pytest.approx(2.974e-2, rel=1e-2)
    assert ["gamma1", "fig5"] in payload["provenance"]
    rows = dict(line.split(",", 1) for line in
                (out / "gamma.csv").read_text().splitlines()[1:])
    assert float(rows["gamma1"]) == pytest.approx(res["gamma1"])


def test_gamma_repulsive_threshold_autodetects_mode(tmp_path):
    code, out = run(["gamma", "--q", "5", "--at", "repulsive-threshold",
                     "--s0=-1e-5"], tmp_path, "gr")
    assert code == 0
    res = json.loads((out / "gamma.json").read_text())["results"]
    assert res["ell"] == 11
    assert res["gamma1"] == pytest.approx(1.38e-3, rel=5e-2)
    assert res["gamma2"] == pytest.approx(2.12, rel=5e-2)
    assert res["a_app"] == pytest.approx(0.0394 * math.pi, rel=2e-2)


def test_thresholds_r_star(tmp_path):
    code, out = run(["thresholds", "--q", "8", "--kind", "r-star"], tmp_path, "rs")
    assert code == 0
    res = json.loads((out / "thresholds.json").read_text())["results"]
    assert 0.0 < res["r0"] < 0.5


def test_thresholds_finite_r_star_is_a_usage_error(tmp_path, capsys):
    # r-star has no finite-ring counterpart; it used to write the repulsive
    # finite threshold under an r-star label
    assert main(["thresholds", "--q", "5", "--kind", "r-star", "--M", "200",
                 "--out", str(tmp_path / "rsm")]) == 2
    assert "r-star" in capsys.readouterr().err
    assert not (tmp_path / "rsm").exists()


def test_kernel_iota_value(tmp_path):
    code, out = run(["kernel", "--name", "iota", "--upsilon", "0.5"], tmp_path, "ki")
    assert code == 0
    res = json.loads((out / "kernel.json").read_text())["results"]
    assert res["value"] == pytest.approx(0.5, rel=1e-12)


def test_gamma_t_family(tmp_path):
    code, out = run(["gamma", "--q", "2", "--family", "t-family", "--r0", "0.3",
                     "--t=-0.2"], tmp_path, "gt")
    assert code == 0
    res = json.loads((out / "gamma.json").read_text())["results"]
    from twistlab import kernel
    assert res["gamma2"] == pytest.approx(-5.0 * kernel.w_hat(0.3, 2))


def test_iota_command(tmp_path):
    code, out = run(["iota", "--from", "0.5", "--to", "5", "--steps", "64"], tmp_path, "i")
    assert code == 0
    lines = (out / "iota.csv").read_text().splitlines()
    assert lines[0] == "upsilon,iota"
    vals = np.array([[float(a) for a in line.split(",")] for line in lines[1:]])
    res = json.loads((out / "iota.json").read_text())["results"]
    assert res["all_positive_above_upsilon0"] is True
    assert np.all(vals[:, 1] > 0)


def test_branch_csv_header(tmp_path):
    code, out = run(["branch", "--q", "5", "--s0=-1e-4", "--M", "120"], tmp_path, "b")
    assert code == 0
    lines = (out / "branch.csv").read_text().splitlines()
    assert lines[0] == "x,psi_q,z1,z2"
    assert len(lines) == 121
    eq_lines = (out / "equilibrium.csv").read_text().splitlines()
    assert eq_lines[0] == "index,x,theta"


def test_branch_error_scaling(tmp_path, monkeypatch):
    from twistlab import ring

    solved = []
    newton = ring.newton_equilibrium
    monkeypatch.setattr(ring, "newton_equilibrium",
                        lambda *a: solved.append(newton(*a)) or solved[-1])
    code, out = run(["branch", "--q", "5", "--s0=-1e-4", "--M", "200", "--error-scaling"],
                    tmp_path, "es")
    assert code == 0
    lines = (out / "error-scaling.csv").read_text().splitlines()
    assert lines[0] == "s,a_app,err_z1,err_z2"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == [-1e-5, -3e-5, -1e-4, -3e-4, -1e-3]
    res = json.loads((out / "branch.json").read_text())["results"]
    assert math.isfinite(res["error_slope_z1"]) and math.isfinite(res["error_slope_z2"])
    # every row's equilibrium lies on the branch, not back on the twisted state
    assert len(solved) == 1 + len(rows)
    for eq, (s, amp, _, _) in zip(solved[1:], rows):
        assert np.max(np.abs(eq.theta - ring.twisted_state(200, 5))) > amp / 2, s


def test_branch_makes_no_eigensolve(tmp_path, monkeypatch):
    # branch reports Newton's residual and its distances to the profiles,
    # never a spectrum, so its Newton solve must not pay for one
    from twistlab import ring

    calls = []
    spectrum_of = ring.jacobian_spectrum
    monkeypatch.setattr(ring, "jacobian_spectrum",
                        lambda *a, **k: calls.append(a) or spectrum_of(*a, **k))
    code, out = run(["branch", "--q", "5", "--s0=-1e-4", "--M", "200"], tmp_path, "b")
    assert code == 0
    res = json.loads((out / "branch.json").read_text())["results"]
    assert res["newton_residual"] < 1e-12 and res["newton_iterations"] > 0
    assert calls == []


def test_branch_fig5_solves_on_the_odd_band(tmp_path, caplog):
    # fig5's start is the twisted state plus an odd profile, and its ring is
    # narrow pairwise: Newton factors the odd block, a band of half-width p = 66
    import logging

    with caplog.at_level(logging.DEBUG, logger="twistlab"):
        code, out = run(["branch", "--preset", "fig5"], tmp_path, "f5")
    assert code == 0
    res = json.loads((out / "branch.json").read_text())["results"]
    assert res["newton_residual"] < 1e-12
    newton = [r.getMessage() for r in caplog.records
              if r.name == "twistlab" and r.getMessage().startswith("newton_equilibrium")]
    assert len(newton) == 1
    assert newton[0].startswith(f"newton_equilibrium: odd band, half-bandwidth 66, "
                                f"{res['newton_iterations']} iterations, ")


def test_package_import_sets_the_openblas_environment_fallback():
    # the environment default is the one-thread pin only for an OpenBLAS
    # that exports no thread setter and loads after the import; it leaves a
    # count the caller set, which ring's setter then overrides where it can
    import twistlab

    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = str(Path(twistlab.__file__).parents[1])
    code = "import twistlab, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    for preset, expected in ((None, "1"), ("3", "3")):
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == expected


_IMPORT_ORDER_SCRIPT = """
import ctypes, glob, hashlib, json, os, sys, tempfile
from pathlib import Path
if sys.argv[1] == "scipy":
    import scipy.linalg
from twistlab import cli, ring  # ring: the import that sets the thread count
import numpy, scipy
threads = []
for package, symbol in ((scipy, "scipy_openblas_get_num_threads"),
                        (numpy, "scipy_openblas_get_num_threads64_")):
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                        package.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        getter = getattr(ctypes.CDLL(path), symbol)
        getter.argtypes, getter.restype = [], ctypes.c_int
        threads.append(getter())
out = tempfile.mkdtemp(dir=sys.argv[2])
assert cli.main(["equilibrium", "--M", "800", "--q", "5", "--lambda=0.01", "--init", "z1",
                 "--s0=-1e-4", "--out", out]) == 0
results = json.loads(Path(out, "equilibrium.json").read_text())["results"]
data = Path(out, "equilibrium.csv").read_bytes() + json.dumps(results, sort_keys=True).encode()
print(json.dumps([threads, hashlib.sha256(data).hexdigest()]))
"""


def test_openblas_pin_holds_whatever_is_imported_first(tmp_path):
    # loading the finite-ring layer sets both bundled OpenBLAS libraries to
    # one thread, whatever OPENBLAS_NUM_THREADS says and whether scipy loaded
    # its library before twistlab; so the dense-path LUs and eigensolve of a
    # triplet-spec Newton at M=800, whose leading eigenvalue moves in its
    # last digits between one and two threads, give the same bytes every way
    import twistlab

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(twistlab.__file__).parents[1])
    runs = []
    for count in (None, "2"):
        env.pop("OPENBLAS_NUM_THREADS", None)
        if count is not None:
            env["OPENBLAS_NUM_THREADS"] = count
        runs += [json.loads(subprocess.run(
            [sys.executable, "-c", _IMPORT_ORDER_SCRIPT, first, str(tmp_path)], env=env,
            capture_output=True, text=True, check=True, timeout=300).stdout.splitlines()[-1])
            for first in ("scipy", "twistlab")]
    assert [threads for threads, _ in runs] == [[1, 1]] * 4
    assert len({digest for _, digest in runs}) == 1


def test_openblas_pin_skips_a_build_without_the_setter(monkeypatch, caplog, tmp_path):
    # another BLAS, or a library that does not load, is left alone with a DEBUG line
    import logging
    from types import SimpleNamespace

    from twistlab import ring

    (tmp_path / "scipy.libs").mkdir()
    (tmp_path / "scipy.libs" / "libscipy_openblas-0.so").write_bytes(b"not a library")
    for name in ("scipy", "np"):
        fake = SimpleNamespace(__file__=str(tmp_path / name / "__init__.py"), __name__=name)
        monkeypatch.setattr(ring, name, fake)
    with caplog.at_level(logging.DEBUG, logger="twistlab"):
        ring._pin_openblas_threads()
    assert [r.getMessage() for r in caplog.records if r.name == "twistlab"] == [
        f"no {symbol} in {tmp_path / libs}; its OpenBLAS keeps its thread count"
        for symbol, libs in (("scipy_openblas_set_num_threads", "scipy.libs"),
                             ("scipy_openblas_set_num_threads64_", "np.libs"))]


_IMPORT_PATH_SCRIPT = """
import sys
import twistlab, twistlab.cli
from twistlab import cli

scipy_loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
out = sys.argv[1]
assert cli.main(["thresholds", "--q", "5", "--kind", "attractive", "--out", out + "/a"]) == 0
assert cli.main(["gamma", "--preset", "fig3a", "--out", out + "/b"]) == 0
assert scipy_loaded() == [], scipy_loaded()[:5]
from twistlab import SystemSpec, integrate
assert twistlab.integrate is twistlab.ring.integrate and "integrate" in dir(twistlab)
assert "scipy" in scipy_loaded()
# ring's solvers load on first use: LAPACK with the first Newton
# factorization, LSODA with the first integrate at M <= DENSE_CAP
heavy = lambda: [m for m in ("scipy.integrate", "scipy.linalg") if m in sys.modules]
assert cli.main(["thresholds", "--q", "5", "--M", "1000", "--kind", "repulsive",
                 "--out", out + "/c"]) == 0
assert heavy() == [], heavy()
assert cli.main(["simulate", "--M", "2048", "--q", "2", "--r", "0.3", "--t-end", "0.1",
                 "--n-runs", "1", "--out", out + "/d"]) == 0
assert heavy() == [], heavy()
assert cli.main(["branch", "--preset", "fig5", "--out", out + "/e"]) == 0
assert heavy() == ["scipy.linalg"], heavy()
assert cli.main(["simulate", "--M", "200", "--q", "2", "--r", "0.3", "--t-end", "0.1",
                 "--n-runs", "1", "--out", out + "/f"]) == 0
assert "scipy.integrate" in sys.modules
assert hasattr(twistlab.ring, "solve_ivp")   # resolves lazily, so only after the checks
print("ok")
"""


def test_closed_form_commands_import_no_scipy(tmp_path):
    # the closed forms need only numpy; the finite-ring layer loads when a
    # finite-ring name is first used, with scipy's package (for the OpenBLAS
    # pin) but not its solvers: thresholds --M and an ETDRK4 simulate above
    # DENSE_CAP load neither LSODA nor LAPACK, branch loads only LAPACK. A
    # fresh interpreter, so no other test's imports count.
    import twistlab

    env = dict(os.environ, PYTHONPATH=str(Path(twistlab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PATH_SCRIPT, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split()[-1] == "ok"


def test_stability_map_rerun_is_byte_identical(tmp_path):
    runs = {
        "t1": (["stability-map", "--q", "8", "--r", "0.2:0.4:6", "--lambda", "0:6:9",
                "--tol", "1e-3"], ("grid.csv", "boundary.csv", "stability-map.json")),
        # Newton's LU solves, row after row of the branch continuation
        "t2": (["branch", "--q", "5", "--s0=-1e-4", "--M", "200", "--error-scaling"],
               ("branch.csv", "equilibrium.csv", "error-scaling.csv", "branch.json")),
    }
    for name, (args, files) in runs.items():
        _, out = run(args, tmp_path, name)
        before = {f: (out / f).read_bytes() for f in files}
        # identical config (including out dir): byte-identical files
        assert main(args + ["--out", str(out)]) == 0
        assert {f: (out / f).read_bytes() for f in before} == before, args[0]


def test_stability_map_range_errors_are_usage_errors(tmp_path):
    for r_range in ("0.3:0.4:1", "0.3:0.4:0", "0.3:0.7:5", "0.3:0.4"):
        code = main(["stability-map", "--r", r_range, "--lambda", "0:6:3",
                     "--out", str(tmp_path / "m")])
        assert code == 2, r_range
    assert not (tmp_path / "m").exists()


def test_config_file_merge_and_unknown_keys(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("q = 5\nkind = attractive\n# comment\n")
    code, out = run(["thresholds", "--config", str(conf), "--q", "7",
                     "--kind", "attractive"], tmp_path, "cfg")
    assert code == 0
    # explicit flag overrides the file value
    assert json.loads((out / "thresholds.json").read_text())["results"]["q"] == 7

    # file values reach the subcommand, typed as their options
    spec = tmp_path / "spec.conf"
    spec.write_text("tol = 0.001\nkmax = 5\n")
    code, out = run(["spectrum", "--q", "5", "--r", "0.2", "--config", str(spec)],
                    tmp_path, "spec")
    assert code == 0
    params = json.loads((out / "spectrum.json").read_text())["config"]["parameters"]
    assert params["tol"] == 0.001
    assert len((out / "spectrum.csv").read_text().splitlines()) == 6

    # built-in defaults < preset < config file < explicit flags
    layered = tmp_path / "layered.conf"
    layered.write_text("steps = 7\nhi = 2.0\n")
    cfg = parse_config(["iota", "--preset", "fig7", "--config", str(layered),
                        "--to", "1.5", "--out", str(tmp_path / "x")])
    assert cfg.parameters == {"lo": 0.05, "hi": 1.5, "steps": 7, "preset": "fig7"}
    cfg = parse_config(["iota", "--config", str(layered), "--out", str(tmp_path / "x")])
    assert cfg.parameters == {"lo": 0.3, "hi": 2.0, "steps": 7, "preset": None}
    preset_file = tmp_path / "preset.conf"
    preset_file.write_text("preset = fig7\nsteps = 9\n")
    cfg = parse_config(["iota", "--config", str(preset_file), "--out", str(tmp_path / "x")])
    assert cfg.parameters == {"lo": 0.05, "hi": 3.0, "steps": 9, "preset": "fig7"}

    # a boolean flag takes a truthy word from the file
    flags = tmp_path / "flags.conf"
    flags.write_text("error_scaling = true\n")
    cfg = parse_config(["branch", "--config", str(flags), "--out", str(tmp_path / "x")])
    assert cfg.parameters["error_scaling"] is True
    assert parse_config(["branch", "--out", str(tmp_path / "x")]).parameters["error_scaling"] is False

    bad = tmp_path / "bad.conf"
    bad.write_text("nonsense = 1\n")
    assert main(["thresholds", "--config", str(bad), "--q", "5",
                 "--kind", "attractive", "--out", str(tmp_path / "z")]) == 2
    bad.write_text("preset = fig9\n")
    assert main(["iota", "--config", str(bad), "--out", str(tmp_path / "z")]) == 2
    bad.write_text("init = bogus\n")  # checked against the option's choices
    assert main(["equilibrium", "--M", "120", "--config", str(bad),
                 "--out", str(tmp_path / "z")]) == 2
    assert not (tmp_path / "z").exists()

    # an abbreviated flag is explicit too
    code, out = run(["gamma", "--preset", "fig3b", "--q-ma", "3"], tmp_path, "ab")
    assert code == 0
    assert len((out / "fig3b.csv").read_text().splitlines()) == 3  # header, q = 2 and 3


def test_simulate_small_ring(tmp_path):
    code, out = run(["simulate", "--M", "100", "--q", "3", "--r", "0.2",
                     "--t-end", "200", "--amplitude", "1e-3", "--n-runs", "2",
                     "--seed", "5"], tmp_path, "sim")
    assert code == 0
    payload = json.loads((out / "simulate.json").read_text())
    assert len(payload["results"]["runs"]) == 2
    assert (out / "state_run0.csv").read_text().splitlines()[0] == "index,x,theta"
    assert payload["results"]["weights_sha256"]
    # same seeds: rerun reproduces the payload exactly
    code2, out2 = run(["simulate", "--M", "100", "--q", "3", "--r", "0.2",
                       "--t-end", "200", "--amplitude", "1e-3", "--n-runs", "2",
                       "--seed", "5"], tmp_path, "sim2")
    a = json.loads((out / "simulate.json").read_text())["results"]
    b = json.loads((out2 / "simulate.json").read_text())["results"]
    assert a == b
    assert (out / "state_run1.csv").read_bytes() == (out2 / "state_run1.csv").read_bytes()


def test_simulate_needs_positive_n_runs_and_t_end(tmp_path, capsys):
    base = ["simulate", "--M", "100", "--q", "2", "--r", "0.3"]
    for flag, bad in (("--n-runs", "0"), ("--n-runs", "-1"), ("--t-end", "-5")):
        code, out = run(base + [flag, bad], tmp_path, "sim")
        assert code == 2 and "usage error" in capsys.readouterr().err, (flag, bad)
        assert not out.exists()


def test_simulate_rejects_non_finite_amplitude(tmp_path, capsys):
    # a NaN or infinite amplitude reached numpy's uniform and exited 1 with a traceback
    base = ["simulate", "--M", "100", "--q", "2", "--r", "0.3"]
    for bad in ("nan", "inf", "-1e-3"):
        code, out = run(base + [f"--amplitude={bad}"], tmp_path, "sim")
        err = capsys.readouterr().err
        assert code == 2 and "usage error" in err and "amplitude" in err, bad
        assert not out.exists()


def test_simulate_default_tol_reaches_equilibrium_stop(tmp_path):
    code, out = run(["simulate", "--M", "100", "--q", "1", "--r", "0.3", "--lambda=0.5",
                     "--mu=0.3", "--t-end", "1e3", "--n-runs", "1", "--seed", "1"],
                    tmp_path, "simeq")
    assert code == 0
    (run0,) = json.loads((out / "simulate.json").read_text())["results"]["runs"]
    assert run0["stop_reason"] == "equilibrium"
    assert run0["t_reached"] < 1e3
    assert run0["method"] == "lsoda"   # M <= DENSE_CAP


def test_equilibrium_command(tmp_path):
    code, out = run(["equilibrium", "--M", "150", "--q", "5", "--init", "z1",
                     "--s0=-1e-4"], tmp_path, "eq")
    assert code == 0
    res = json.loads((out / "equilibrium.json").read_text())["results"]
    assert res["residual_norm"] < 1e-12
    assert len(res["leading_eigenvalues"]) == 10


def test_equilibrium_radius_follows_sign(tmp_path):
    # without --r the ring sits --s0 from the finite threshold of its own sign
    from twistlab import ring

    code, out = run(["equilibrium", "--M", "200", "--q", "5", "--sign", "repulsive"],
                    tmp_path, "rep")
    assert code == 0
    res = json.loads((out / "equilibrium.json").read_text())["results"]
    assert res["r"] == ring.finite_threshold(5, 200, ring.REPULSIVE) - 1e-4
    assert res["r"] == pytest.approx(0.11444, abs=1e-5)
    # just below the repulsive threshold the twisted state is weakly unstable
    assert res["iterations"] == 0 and 0.0 < res["leading_eigenvalues"][0] < 1e-3


def test_equilibrium_past_dense_cap_reports_the_closed_form(tmp_path):
    # Newton takes no step from the twisted state, so it builds no dense Jacobian
    from twistlab import ring

    M, q, r = ring.DENSE_CAP + 1, 2, 0.3
    code, out = run(["equilibrium", "--M", str(M), "--q", str(q), "--r", str(r)],
                    tmp_path, "eq")
    assert code == 0
    res = json.loads((out / "equilibrium.json").read_text())["results"]
    assert res["iterations"] == 0 and res["residual_norm"] < ring.NEWTON_TOL
    expected = ring.jacobian_spectrum(ring.twisted_state(M, q), ring.SystemSpec(Params(r)),
                                      ring.build_weights(M, r), n_eigs=10)
    assert res["leading_eigenvalues"] == [float(v) for v in expected]


def test_equilibrium_has_no_newton_knobs(tmp_path, capsys):
    # Newton's iteration limit and tolerance are library constants
    for flag in ("--max-iter", "--tol"):
        code, out = run(["equilibrium", "--M", "150", "--q", "5", flag, "5"], tmp_path, "eq")
        assert code == 2 and flag in capsys.readouterr().err
        assert not out.exists()


def test_equilibrium_z1_start_needs_attractive_sign_or_r(tmp_path, capsys):
    # the z1 profile is built on the attractive crossing
    code, out = run(["equilibrium", "--M", "200", "--q", "5", "--sign", "repulsive",
                     "--init", "z1"], tmp_path, "z1rep")
    assert code == 2 and "--init z1" in capsys.readouterr().err
    assert not out.exists()


def test_formats_subset(tmp_path):
    code, out = run(["kernel", "--name", "upsilon0", "--formats", "json"], tmp_path, "fj")
    assert code == 0
    assert (out / "kernel.json").exists()
    assert not (out / "kernel.csv").exists()
    assert main(["kernel", "--name", "upsilon0", "--formats", "yaml",
                 "--out", str(tmp_path / "bad")]) == 2


def test_spectrum_preset_fig2(tmp_path):
    code, out = run(["spectrum", "--preset", "fig2"], tmp_path, "f2")
    assert code == 0
    payload = json.loads((out / "spectrum.json").read_text())
    res = payload["results"]
    assert res["r0_attractive"] == pytest.approx(0.06632, abs=1e-4)
    assert res["r0_repulsive"] == pytest.approx(0.1170, abs=1.2e-3)
    lines = (out / "fig2.csv").read_text().splitlines()
    assert lines[0] == "r,k,c1"
    assert ["r0_attractive", "fig2"] in payload["provenance"]


def test_gamma_ratio_sweep_preset_override(tmp_path):
    # fig3a preset with an explicit small sweep bound for speed
    code, out = run(["gamma", "--preset", "fig3a", "--q-max", "6"], tmp_path, "f3")
    assert code == 0
    lines = (out / "fig3a.csv").read_text().splitlines()
    assert lines[0] == "q,ell,r0,gamma1,gamma2,ratio"
    assert len(lines) == 6  # q = 2..6
    last = lines[-1].split(",")
    assert float(last[5]) == pytest.approx(1.77, rel=5e-2)


def _gamma_outputs(args, tmp_path, name):
    code, out = run(["gamma", "--q", "5"] + args, tmp_path, name)
    assert code == 0
    results = json.loads((out / "gamma.json").read_text())["results"]
    return (out / "gamma.csv").read_bytes(), results


def test_gamma_mixed_direction_reproduces_the_linear_families(tmp_path, capsys):
    base = ["--at", "attractive-threshold"]
    for direction, family in (("1,0,0", "r-linear"), ("0,1,0", "lambda-linear")):
        mixed = _gamma_outputs(base + ["--family", "mixed", "--direction", direction],
                               tmp_path, "mixed_" + family)
        assert mixed == _gamma_outputs(base + ["--family", family], tmp_path, family)
    capsys.readouterr()
    code, out = run(["gamma", "--q", "5", "--family", "mixed"] + base, tmp_path, "nodir")
    assert code == 2 and "--direction" in capsys.readouterr().err
    assert not out.exists()


def test_gamma_explicit_ell_matches_the_computed_threshold(tmp_path):
    explicit = _gamma_outputs(["--r0", "0.06632201078639745", "--ell", "1"], tmp_path, "ell")
    assert explicit == _gamma_outputs(["--at", "attractive-threshold"], tmp_path, "at")


def test_gamma_explicit_base_detects_crossing_mode(tmp_path, capsys):
    # the attractive q = 5 threshold, written out: mode 1 crosses there
    code, out = run(["gamma", "--q", "5", "--r0", "0.06632201078639745"], tmp_path, "g")
    assert code == 0
    assert json.loads((out / "gamma.json").read_text())["results"]["ell"] == 1
    capsys.readouterr()
    code, _ = run(["gamma", "--q", "5", "--r0", "0.3"], tmp_path, "g2")
    assert code == 2  # q r = 3/2: every fifth mode is near zero
    assert len(capsys.readouterr().err.encode()) < 1000
