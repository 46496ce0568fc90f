import json
import math

import numpy as np
import pytest

import kplane as K
from kplane.cli import main


def run(args):
    return main(args)


class TestTransformCommand:
    def test_extremizer_preset(self, tmp_path):
        out = tmp_path / "tf.csv"
        code = run(["transform", "--k", "2", "--d", "3", "--preset", "extremizer",
                    "--grid-n", "1024", "--rmax", "10", "--out", str(out)])
        assert code == 0
        r, v, meta = K.read_profile_csv(out)
        assert np.abs(v - (1 + r ** 2) ** (-0.5)).max() < 1e-6
        assert meta["version"]

    def test_invalid_kd_exits_2(self, capsys):
        assert run(["transform", "--k", "3", "--d", "3", "--preset", "extremizer"]) == 2

    def test_empty_csv_exits_2(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("r,value\n")
        assert run(["transform", "--k", "1", "--d", "3", "--input", str(src)]) == 2

    @pytest.mark.parametrize("rmax", ["-1", "nan", "5e-4"])
    def test_rmax_keeping_no_node_exits_2(self, tmp_path, capsys, rmax):
        # r_0 is 7.7e-4 at --grid-n 2048: refused before T f is computed,
        # where it wrote a CSV with no rows that --input refuses
        out = tmp_path / "tf.csv"
        code = run(["transform", "--k", "1", "--d", "3", "--preset", "extremizer",
                    "--grid-n", "2048", "--rmax", rmax, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--rmax" in err and "r_0 = 0.000767" in err
        assert not out.exists()

    def test_missing_required_flag_exits_2(self):
        assert run(["constant", "--k", "1", "--d", "2"]) == 2

    def test_grid_over_dense_budget_exits_2(self, fresh_cache, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(fresh_cache, "DENSE_BUDGET_BYTES", 8 * 512 * 512)
        code = run(["transform", "--k", "1", "--d", "3", "--preset", "extremizer",
                    "--grid-n", "1024", "--out", str(tmp_path / "tf.csv")])
        assert code == 2
        assert "budget" in capsys.readouterr().err
        assert not (tmp_path / "tf.csv").exists()


@pytest.mark.parametrize("argv", [
    ["transform", "--k", "1", "--d", "3", "--preset", "extremizer", "--out", "OUT"],
    ["constant", "--k", "1", "--d", "3", "--which", "B"],
    ["search", "--k", "1", "--d", "3", "--out-prefix", "OUT"]])
def test_grid_over_dense_budget_refused_before_it_is_built(tmp_path, capsys, argv):
    # the grid of 2 million nodes alone would take over 100 MiB
    import tracemalloc
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    tracemalloc.start()
    try:
        code = run(argv + ["--grid-n", "2000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "on 2000000 grid points" in capsys.readouterr().err
    assert peak < 2 ** 20, peak


class TestConstantCommand:
    def test_b24(self, capsys):
        assert run(["constant", "--k", "2", "--d", "4", "--which", "B",
                    "--grid-n", "2048"]) == 0
        payload = json.loads(capsys.readouterr().out)
        target = (1 / 3) ** 0.2 / (2 / 3) ** 0.6
        assert abs(payload["value"] - target) / target < 1e-6
        assert payload["est_error"] < 1e-6

    def test_b_grid_below_32_exits_2_naming_the_halving(self, capsys):
        assert run(["constant", "--k", "1", "--d", "3", "--which", "B", "--grid-n", "20"]) == 2
        err = capsys.readouterr().err
        assert "resolution >= 32, got 20" in err and "resolution // 2 = 10" in err

    def test_a12(self, capsys):
        assert run(["constant", "--k", "1", "--d", "2", "--which", "A"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["value"] - (math.pi / 2) ** (1 / 3)) < 1e-12


class TestSearchCommand:
    def test_indicator_converges(self, tmp_path, capsys):
        prefix = str(tmp_path / "s")
        code = run(["search", "--k", "1", "--d", "3", "--init", "indicator",
                    "--max-iter", "200", "--tol", "1e-8",
                    "--grid-n", "512", "--out-prefix", prefix])
        assert code == 0
        trace = json.loads((tmp_path / "s_trace.json").read_text())
        assert trace["converged"]
        b = K.constant_B(K.make_params(1, 3), resolution=1024)
        assert trace["phi"][-1] >= (1 - 2e-3) * b

    def test_deterministic_random_init(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            prefix = str(tmp_path / tag)
            run(["search", "--k", "1", "--d", "3", "--init", "random:42",
                 "--max-iter", "40", "--grid-n", "512", "--out-prefix", prefix])
            outs.append(((tmp_path / f"{tag}_trace.json").read_bytes(),
                         (tmp_path / f"{tag}_profile.csv").read_bytes()))
        assert outs[0] == outs[1]

    def test_max_iter_one_exits_3(self, tmp_path):
        code = run(["search", "--k", "1", "--d", "3", "--init", "indicator",
                    "--max-iter", "1", "--grid-n", "512",
                    "--out-prefix", str(tmp_path / "m")])
        assert code == 3


class TestDiagnoseCommand:
    @pytest.mark.parametrize("family,expected", [
        ("tight", "Tight"), ("vanishing", "Vanishing"), ("dichotomy:0.4", "Dichotomy")])
    def test_synthetic(self, tmp_path, family, expected):
        out = tmp_path / "diag.json"
        code = run(["diagnose", "--k", "1", "--d", "3", "--synthetic", family,
                    "--grid-n", "1024", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["verdict"] == expected
        if family.startswith("dichotomy"):
            assert abs(payload["alpha_estimate"] - 0.4) < 0.05

    def test_unnormalized_input_rejected(self, tmp_path):
        grid = K.make_halfline_grid(1024)
        params = K.make_params(1, 3)
        f = K.extremizer_profile(params, 1.0, grid)
        src = tmp_path / "prof.csv"
        with open(src, "w") as fh:
            K.write_profile_csv(fh, grid.nodes, f.values)
        out = tmp_path / "d.json"
        assert run(["diagnose", "--k", "1", "--d", "3", "--inputs", str(src),
                    "--grid-n", "1024", "--out", str(out)]) == 2
        assert run(["diagnose", "--k", "1", "--d", "3", "--inputs", str(src),
                    "--grid-n", "1024", "--auto-normalize", "--out", str(out)]) == 0


class TestVerifyCommand:
    def test_superadd_passes(self, tmp_path):
        out = tmp_path / "r.jsonl"
        code = run(["verify", "--suite", "superadd", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines and all(json.loads(ln)["passed"] for ln in lines)

    def test_unknown_suite_exits_2(self):
        assert run(["verify", "--suite", "bogus"]) == 2

    @pytest.mark.parametrize("argv", [["--suite", "truncation", "--trials", "1"],
                                      ["--suite", "compactness", "--k", "3"]],
                             ids=["truncation-trials", "compactness-k"])
    def test_argument_the_suite_does_not_read_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "r.jsonl"
        assert run(["verify", *argv, "--out", str(out)]) == 2
        assert f"suite '{argv[1]}' does not read {argv[2][2:]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suite", ["concentration-k1", "superadd", "compactness",
                                       "interaction"])
    def test_seed_the_suite_does_not_read_exits_2(self, tmp_path, capsys, suite):
        out = tmp_path / "r.jsonl"
        assert run(["verify", "--suite", suite, "--seed", "3", "--out", str(out)]) == 2
        assert f"suite '{suite}' does not read seed" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_defaults_to_seven(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(["verify", "--suite", "slide", "--trials", "5", "--out", str(a)])
        run(["verify", "--suite", "slide", "--seed", "7", "--trials", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_trials_reach_the_suite_that_reads_them(self, tmp_path):
        out = tmp_path / "r.jsonl"
        assert run(["verify", "--suite", "slide", "--trials", "1", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 1

    def test_reproducible_jsonl(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(["verify", "--suite", "slide", "--seed", "5", "--trials", "20",
             "--out", str(a)])
        run(["verify", "--suite", "slide", "--seed", "5", "--trials", "20",
             "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_all_suite_within_budget(self, tmp_path):
        import time
        t0 = time.time()
        code = run(["verify", "--suite", "all", "--seed", "7", "--trials", "100",
                    "--out", str(tmp_path / "all.jsonl"),
                    "--summary", str(tmp_path / "all.csv")])
        elapsed = time.time() - t0
        assert code == 0
        assert elapsed < 600.0
        assert (tmp_path / "all.csv").read_text().startswith("name,passed")


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "slide", "--seed", "-1"],
    ["verify", "--suite", "slide", "--trials", "0"],
    ["verify", "--suite", "concentration-k2", "--trials", "0"],
    ["search", "--k", "1", "--d", "3", "--init", "random:-4"],
    ["search", "--k", "1", "--d", "3", "--init", "random:abc"],
    ["diagnose", "--k", "1", "--d", "3", "--synthetic", "tight", "--eps", "1.5"],
    ["diagnose", "--k", "1", "--d", "3", "--synthetic", "tight", "--separation-min", "0"],
], ids=["seed-negative", "slide-trials-0", "k2-trials-0", "random-negative",
        "random-not-int", "eps-above-1", "separation-0"])
def test_bad_input_exits_2(tmp_path, capsys, argv):
    where = {"verify": ["--out", str(tmp_path / "r.jsonl")],
             "search": ["--grid-n", "256", "--out-prefix", str(tmp_path / "s")],
             "diagnose": ["--grid-n", "256", "--out", str(tmp_path / "d.json")]}
    assert run(argv + where[argv[0]]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(tmp_path.iterdir())


class TestVersionAndThreads:
    def test_one_version_everywhere(self, tmp_path, capsys):
        assert run(["--version"]) == 0
        assert capsys.readouterr().out.strip() == K.__version__
        out = tmp_path / "tf.csv"
        assert run(["transform", "--k", "1", "--d", "3", "--preset", "extremizer",
                    "--grid-n", "64", "--out", str(out)]) == 0
        assert K.read_profile_csv(out)[2]["version"] == K.__version__

    @pytest.mark.parametrize("explicit,expected", [(None, "1"), ("2", "2")])
    def test_kplane_threads_caps_blas_at_import(self, explicit, expected):
        # the BLAS pools read their variable once, when numpy loads, so the
        # cap must be in place once `import kplane` has finished
        import os
        import pathlib
        import subprocess
        import sys
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["KPLANE_THREADS"] = "1"
        env["PYTHONPATH"] = str(pathlib.Path(K.__file__).parents[1])
        if explicit is not None:
            env["OPENBLAS_NUM_THREADS"] = explicit
        probe = ("import os, sys, kplane; assert 'numpy' in sys.modules; "
                 "print(os.environ['OPENBLAS_NUM_THREADS'])")
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == expected


class TestNumpyOnly:
    def test_every_command_runs_without_scipy(self, tmp_path):
        # scipy is a test-only extra: a blocked import must not matter to the CLI
        import os
        import pathlib
        import subprocess
        import sys
        grid = K.make_halfline_grid(300)
        f = K.extremizer_profile(K.make_params(1, 3), 1.0, grid)
        with open(tmp_path / "prof.csv", "w") as fh:
            K.write_profile_csv(fh, grid.nodes, f.values)
        kd = ["--k", "1", "--d", "3"]
        commands = [
            ["constant", *kd, "--which", "B", "--grid-n", "256"],
            ["transform", *kd, "--preset", "extremizer", "--grid-n", "256", "--out", "a.csv"],
            ["transform", *kd, "--input", "prof.csv", "--grid-n", "256", "--out", "b.csv"],
            ["search", *kd, "--max-iter", "200", "--grid-n", "256", "--out-prefix", "s"],
            ["diagnose", *kd, "--synthetic", "dichotomy:0.4", "--grid-n", "512",
             "--out", "diag.json"],
            ["verify", "--suite", "slide", "--trials", "5", "--out", "v.jsonl"],
        ]
        probe = ("import json, sys\n"
                 "sys.modules['scipy'] = None\n"
                 "from kplane.cli import main\n"
                 f"codes = [main(c) for c in {commands!r}]\n"
                 "assert not [m for m in sys.modules if m.startswith('scipy.')]\n"
                 "print(json.dumps(codes))\n")
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(K.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.strip().splitlines()[-1]) == [0] * len(commands)
        assert json.loads((tmp_path / "diag.json").read_text())["verdict"] == "Dichotomy"
        assert K.read_profile_csv(tmp_path / "b.csv")[1].size > 0


def test_operator_path_never_imports_numpy_ma(tmp_path):
    # numpy 2.4's np.unique and np.union1d import numpy.ma (11-12 ms of a
    # fresh process on a 2-core x86-64 host); the one-shot commands and a
    # verify suite call neither
    import os
    import pathlib
    import subprocess
    import sys
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(K.__file__).parents[1]))

    def probe(code):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.strip().splitlines()[-1])

    if probe("import json, sys, numpy; print(json.dumps('numpy.ma' in sys.modules))"):
        pytest.skip("import numpy alone loads numpy.ma")
    kd = ["--k", "1", "--d", "3"]
    commands = [["constant", *kd, "--which", "B", "--grid-n", "256"],
                ["transform", *kd, "--preset", "extremizer", "--grid-n", "600", "--out", "t.csv"],
                ["verify", "--suite", "truncation", "--out", "v.jsonl"]]
    loaded = probe("import json, sys\n"
                   "from kplane.cli import main\n"
                   f"codes = [main(c) for c in {commands!r}]\n"
                   "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n")
    assert loaded == [[0] * len(commands), False]


def test_search_trace_records_stop_and_mixing(tmp_path):
    prefix = str(tmp_path / "s")
    assert run(["search", "--k", "2", "--d", "4", "--grid-n", "256",
                "--out-prefix", prefix]) == 0
    trace = json.loads((tmp_path / "s_trace.json").read_text())
    assert trace["schema"] == 1 and trace["converged"]
    assert trace["stop"] == "residual"
    assert trace["residual"][-1] <= trace["tol"]
    assert set(trace["accelerated_steps"]) <= set(range(2, trace["iterations_used"] + 1))
