"""Command-line driver: run, compare, gen, exit codes, manifests."""

import platform
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import blockstoch
import blockstoch.io
from blockstoch.cli import METHODS, build_parser, main
from blockstoch.io import read_manifest, read_trace, load_libsvm
from blockstoch import AdamParams, RunConfig, Schedule, SvmProblem, make_quadratic


PEGASOS_NEEDS_SVM = "error: pegasos needs an SVM problem (--data), not --synthetic\n"


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def svm_file(tmp_path):
    path = tmp_path / "train.libsvm"
    code = run_cli("gen", "separable-svm", "--m", "80", "--n", "6",
                   "--seed", "3", "--out", str(path))
    assert code == 0
    return path


class TestGen:
    def test_separable_is_deterministic(self, tmp_path):
        a = tmp_path / "a.libsvm"
        b = tmp_path / "b.libsvm"
        for out in (a, b):
            assert run_cli("gen", "separable-svm", "--m", "50", "--n", "8",
                           "--margin", "0.3", "--seed", "5", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_separable_has_planted_margin(self, tmp_path):
        out = tmp_path / "sep.libsvm"
        run_cli("gen", "separable-svm", "--m", "100", "--n", "10",
                "--margin", "0.4", "--seed", "1", "--out", str(out))
        ds = load_libsvm(out)
        from blockstoch import make_separable_dataset
        _, w_star = make_separable_dataset(100, 10, margin=0.4, seed=1)
        margins = ds.labels * (ds.matrix @ w_star)
        assert np.all(margins >= 0.4 - 1e-9)

    def test_zero_examples_is_usage_error(self, tmp_path, capsys):
        code = run_cli("gen", "separable-svm", "--m", "0",
                       "--out", str(tmp_path / "x"))
        assert code == 2
        assert "--m" in capsys.readouterr().err

    def test_zero_features_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = run_cli("gen", "separable-svm", "--n", "0", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == "error: --n: n=0: must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("margin", ["inf", "0"])
    def test_bad_margin_is_usage_error(self, tmp_path, capsys, margin):
        out = tmp_path / "m.libsvm"
        code = run_cli("gen", "separable-svm", "--margin", margin, "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: --margin: margin={float(margin)}: ")
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "a.libsvm"
        code = run_cli("gen", "separable-svm", "--seed", "-1", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == "error: --seed: seed must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("separable-svm", "--m", "0"),
        ("separable-svm", "--seed", "-1"),
    ], ids=["m", "seed"])
    def test_rejected_gen_leaves_no_directory(self, tmp_path, argv):
        out = tmp_path / "sub" / "deeper" / "x.out"
        assert run_cli("gen", *argv, "--out", str(out)) == 2
        assert list(tmp_path.iterdir()) == []

    def test_gen_makes_missing_directories(self, tmp_path):
        out = tmp_path / "separable-svm" / "nested" / "x.out"
        assert run_cli("gen", "separable-svm", "--out", str(out)) == 0
        assert out.stat().st_size > 0


# (id, command, problem, flags, start of the error line after "error: "); the
# problem is "svm" for the generated training file, else a --synthetic spec.
BAD_VALUES = [
    ("compare-adam-lr-0", ("compare",), "svm", ("--adam-lr", "0"), "--adam-lr: lr=0.0: "),
    ("adam-lr-inf", ("run", "--method", "adam"), "svm", ("--adam-lr", "inf"),
     "--adam-lr: lr=inf: "),
    ("lambda-0", ("run", "--method", "pegasos"), "svm", ("--lambda", "0"),
     "--lambda: lam=0.0: "),
    ("lambda-inf", ("run", "--method", "pegasos"), "svm", ("--lambda", "inf"),
     "--lambda: lam=inf: "),
    ("subsample-0", ("run", "--method", "adam"), "svm", ("--subsample", "0"), "--subsample: "),
    ("subsample-2", ("run", "--method", "adam"), "svm", ("--subsample", "2"), "--subsample: "),
    ("features-neg", ("run", "--method", "adam"), "svm", ("--features", "-2"), "--features: "),
    ("alpha-scale-inf", ("compare",), "svm", ("--alpha-scale", "inf"),
     "--alpha-scale: alpha_scale=inf: "),
    ("rho-avg-inf", ("run", "--method", "avg-sca"), "quad-d4", ("--rho-avg", "inf"),
     "--rho-avg: rho_avg=inf "),
    ("compare-rho-avg-inf", ("compare",), "svm", ("--rho-avg", "inf"),
     "--rho-avg: rho_avg=inf "),
    # The --rho-avg default 1.0 does not exceed an alpha exponent of 1.0.
    ("compare-rho-alpha-1", ("compare",), "svm", ("--rho-alpha", "1.0"),
     "--rho-avg: rho_avg=1.0 "),
    ("term-eps-inf", ("run", "--method", "proposed"), "quad-d4", ("--term-eps", "inf"),
     "--term-eps: term_eps=inf "),
    ("sigma-overflow", ("run", "--method", "proposed"), "quad-d4-s1e999", (),
     "--synthetic: quad-d4-s1e999: noise_stddev=inf: "),
    ("spec-dim-0", ("run", "--method", "proposed"), "quad-d0", (),
     "--synthetic: quad-d0: dim must be positive\n"),
    ("sigma-nan", ("run", "--method", "proposed"), "quad-d4-snan", (),
     "--synthetic: quad-d4-snan: noise_stddev=nan: "),
    ("toy-sigma-neg", ("run", "--method", "proposed"), "noncvx-s-3", (),
     "--synthetic: noncvx-s-3: noise_stddev=-3.0: "),
    ("sigma-unreadable", ("run", "--method", "proposed"), "quad-d4-s1e", (),
     "--synthetic: quad-d4-s1e: "),
]


class TestRun:
    def test_quadratic_reaches_analytic_objective(self, tmp_path):
        outdir = tmp_path / "runs"
        code = run_cli("run", "--method", "proposed", "--synthetic", "quad-d10",
                       "--iters", "10000", "--seed", "7", "--outdir", str(outdir))
        assert code == 0
        manifest = read_manifest(outdir / "proposed.manifest.txt")
        analytic = float(manifest["analytic_objective"])
        assert analytic == pytest.approx(
            make_quadratic(10, target=np.ones(10)).optimal_value())
        final = float(manifest["final_objective"])
        assert abs(final - analytic) <= 1e-3
        trace = read_trace(outdir / "proposed.trace.csv")
        assert trace[-1].k == 10_000
        assert abs(trace[-1].objective - analytic) <= 1e-3

    def test_missing_dataset_names_flag(self, tmp_path, capsys):
        code = run_cli("run", "--method", "pegasos",
                       "--data", str(tmp_path / "absent.libsvm"),
                       "--outdir", str(tmp_path / "r"))
        assert code == 2
        assert "--data" in capsys.readouterr().err

    def test_overflowing_index_is_located_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "huge.libsvm"
        data.write_text("-1 1:1\n+1 99999999999999999999:1\n", encoding="utf-8")
        code = run_cli("run", "--method", "proposed", "--data", str(data),
                       "--outdir", str(tmp_path / "r"))
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"error: {data}: line 2: token '99999999999999999999:1' (column 4): "
                       "bad index\n")

    @pytest.mark.parametrize("train, test, flags, err", [
        ("-1 1:1\n+1 2:1 12:1\n", None, ("--features", "10"),
         "{train}: line 2: token '12:1' (column 8): feature index 12 exceeds --features 10"),
        ("-1 1:1\n+1 2:1\n", "+1 1:1\n\n-1 3:1\n", (),
         "{test}: line 3: token '3:1' (column 4): feature index 3 exceeds "
         "the training data's feature count 2"),
        ("-1 1:1\n+1 x:1\n", "+1 1:1\n", (), "{train}: line 2: token 'x:1' (column 4): bad index"),
        ("-1 1:1\n+1 1:1\n", "+1 1:1\n-1 x:1\n", (),
         "{test}: line 2: token 'x:1' (column 4): bad index"),
        ("-1\n\n+1\n", None, (), "{train}: cannot infer feature count from all-empty examples"),
        ("\n  \n", None, (), "{train}: no examples in input"),
        ("-1 1:1\n", "\n", (), "{test}: no examples in input"),
    ], ids=["features", "test-data", "train-token", "test-token", "all-empty", "blank",
            "test-blank"])
    def test_parse_error_line(self, tmp_path, capsys, train, test, flags, err):
        data, test_data = tmp_path / "train.libsvm", tmp_path / "test.libsvm"
        data.write_text(train, encoding="utf-8")
        if test is not None:
            test_data.write_text(test, encoding="utf-8")
            flags += ("--test-data", str(test_data))
        code = run_cli("run", "--method", "proposed", "--data", str(data), *flags,
                       "--outdir", str(tmp_path / "r"))
        assert code == 1
        assert capsys.readouterr().err == f"error: {err.format(train=data, test=test_data)}\n"

    def test_non_utf8_data_names_the_file_not_a_line(self, tmp_path, capsys):
        data = tmp_path / "junk.libsvm"
        data.write_bytes(b"+1 1:1\n\xff\n")
        code = run_cli("run", "--method", "proposed", "--data", str(data),
                       "--outdir", str(tmp_path / "r"))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {data}: not valid UTF-8 text (")

    @pytest.mark.parametrize("synthetic, outdir", [("quad-d4\n", "r"), ("quad-d4", "r\nx"),
                                                  ("quad-d4", "r\rx")],
                             ids=["synthetic-lf", "outdir-lf", "outdir-cr"])
    def test_line_break_in_an_argument_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                      synthetic, outdir):
        # The manifest's command= line could not record the argument.
        monkeypatch.chdir(tmp_path)
        code = run_cli("run", "--method", "proposed", "--synthetic", synthetic,
                       "--iters", "10", "--eval-every", "10", "--outdir", outdir)
        assert code == 2
        bad = synthetic if "\n" in synthetic else outdir
        assert capsys.readouterr().err == f"error: argument {bad!r} holds a line break\n"
        assert list(tmp_path.iterdir()) == []

    def test_requires_exactly_one_problem(self, tmp_path, capsys):
        assert run_cli("run", "--method", "adam",
                       "--outdir", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert "--data" in err and "--synthetic" in err

    def test_pegasos_manifest_records_lambda(self, svm_file, tmp_path):
        outdir = tmp_path / "out"
        code = run_cli("run", "--method", "pegasos", "--data", str(svm_file),
                       "--lambda", "1e-6", "--iters", "100",
                       "--outdir", str(outdir))
        assert code == 0
        manifest = read_manifest(outdir / "pegasos.manifest.txt")
        assert manifest["lambda"] == "1e-06"
        assert manifest["dataset_checksum"]
        assert manifest["train_accuracy"]

    def test_manifest_command_replays_a_data_run(self, svm_file, tmp_path):
        # The manifest pins both files and the install; its command= run into
        # another --outdir gives the same trace bytes.
        test_file = tmp_path / "test.libsvm"
        assert run_cli("gen", "separable-svm", "--m", "30", "--n", "6", "--seed", "4",
                       "--out", str(test_file)) == 0
        first, second, third = (tmp_path / name for name in ("first", "second", "third"))
        assert run_cli("run", "--method", "proposed", "--data", str(svm_file),
                       "--test-data", str(test_file), "--iters", "200", "--eval-every", "50",
                       "--seed", "3", "--outdir", str(first)) == 0
        manifest = read_manifest(first / "proposed.manifest.txt")
        assert manifest["dataset_checksum"] == blockstoch.io.dataset_checksum(svm_file)
        assert manifest["test_dataset_checksum"] == blockstoch.io.dataset_checksum(test_file)
        assert manifest["blockstoch_version"] == blockstoch.__version__
        assert manifest["numpy_version"] == np.__version__
        assert manifest["python_version"] == platform.python_version()
        argv = shlex.split(manifest["command"])
        assert argv[0] == "blockstoch" and argv.count("--outdir") == 1
        argv[argv.index("--outdir") + 1] = str(second)
        assert run_cli(*argv[1:]) == 0
        assert ((first / "proposed.trace.csv").read_bytes()
                == (second / "proposed.trace.csv").read_bytes())
        replayed = read_manifest(second / "proposed.manifest.txt")
        timings = ("command", "cpu_seconds", "wall_seconds")
        assert ({k: v for k, v in replayed.items() if k not in timings}
                == {k: v for k, v in manifest.items() if k not in timings})
        # A rewritten test file is a different run input, and the manifest says so.
        test_file.write_text(test_file.read_text().replace("+1 ", "-1 ", 1))
        argv[argv.index("--outdir") + 1] = str(third)
        assert run_cli(*argv[1:]) == 0
        rewritten = read_manifest(third / "proposed.manifest.txt")
        assert rewritten["test_dataset_checksum"] != manifest["test_dataset_checksum"]
        assert rewritten["dataset_checksum"] == manifest["dataset_checksum"]

    def test_pegasos_rejects_synthetic(self, tmp_path, capsys):
        outdir = tmp_path / "r"
        code = run_cli("run", "--method", "pegasos", "--synthetic", "quad-d4",
                       "--outdir", str(outdir))
        assert code == 2
        assert capsys.readouterr().err == PEGASOS_NEEDS_SVM
        assert not outdir.exists()

    @pytest.mark.parametrize("batch", ["1", "8"])
    def test_pegasos_records_its_batch_per_iteration(self, svm_file, tmp_path, batch):
        # Pegasos steps on the whole batch it draws, as every method does.
        outdir = tmp_path / "out"
        assert run_cli("run", "--method", "pegasos", "--data", str(svm_file), "--batch", batch,
                       "--iters", "20", "--eval-every", "10", "--outdir", str(outdir)) == 0
        manifest = read_manifest(outdir / "pegasos.manifest.txt")
        assert manifest["batch"] == batch

    def test_trace_reproducible_for_fixed_seed(self, svm_file, tmp_path):
        digests = []
        for rep in ("one", "two"):
            outdir = tmp_path / rep
            assert run_cli("run", "--method", "proposed", "--data", str(svm_file),
                           "--iters", "300", "--seed", "9", "--eval-every", "100",
                           "--outdir", str(outdir)) == 0
            digests.append((outdir / "proposed.trace.csv").read_bytes())
        assert digests[0] == digests[1]

    def test_test_data_accuracy_reported(self, svm_file, tmp_path):
        outdir = tmp_path / "out"
        code = run_cli("run", "--method", "adam", "--data", str(svm_file),
                       "--test-data", str(svm_file), "--iters", "50",
                       "--eval-every", "25", "--outdir", str(outdir))
        assert code == 0
        manifest = read_manifest(outdir / "adam.manifest.txt")
        assert manifest["test_accuracy"] == manifest["train_accuracy"]

    def test_bad_schedule_flags(self, tmp_path, capsys):
        code = run_cli("run", "--method", "proposed", "--synthetic", "quad-d4",
                       "--rho-omega", "0.4", "--outdir", str(tmp_path / "r"))
        assert code == 2
        assert "squared" in capsys.readouterr().err

    def test_bad_synthetic_spec(self, tmp_path, capsys):
        code = run_cli("run", "--method", "proposed", "--synthetic", "cubic-d4",
                       "--outdir", str(tmp_path / "r"))
        assert code == 2

    def test_nonconvex_toy_runs(self, tmp_path):
        outdir = tmp_path / "r"
        code = run_cli("run", "--method", "proposed", "--synthetic", "noncvx",
                       "--iters", "500", "--eval-every", "100", "--seed", "4",
                       "--outdir", str(outdir))
        assert code == 0
        trace = read_trace(outdir / "proposed.trace.csv")
        assert len(trace) == 5

    def test_subsample_flag(self, svm_file, tmp_path):
        outdir = tmp_path / "out"
        code = run_cli("run", "--method", "adam", "--data", str(svm_file),
                       "--subsample", "0.5", "--iters", "40", "--eval-every", "20",
                       "--outdir", str(outdir))
        assert code == 0
        manifest = read_manifest(outdir / "adam.manifest.txt")
        assert manifest["m"] == "40"

    def test_subsample_seed_defaults_to_zero(self, svm_file, tmp_path):
        traces = []
        for seed in ((), ("--subsample-seed", "0"), ("--subsample-seed", "5")):
            outdir = tmp_path / f"out{len(traces)}"
            assert run_cli("run", "--method", "adam", "--data", str(svm_file),
                           "--subsample", "0.5", *seed, "--iters", "40", "--eval-every", "20",
                           "--outdir", str(outdir)) == 0
            traces.append((outdir / "adam.trace.csv").read_bytes())
        assert traces[0] == traces[1] != traces[2]

    def test_subsample_seed_needs_subsample(self, svm_file, tmp_path, capsys):
        outdir = tmp_path / "r"
        code = run_cli("run", "--method", "adam", "--data", str(svm_file),
                       "--subsample-seed", "5", "--outdir", str(outdir))
        assert code == 2
        assert "--subsample-seed applies to --subsample only" in capsys.readouterr().err
        assert not outdir.exists()

    def test_negative_subsample_seed_is_usage_error(self, svm_file, tmp_path, capsys):
        outdir = tmp_path / "r"
        code = run_cli("run", "--method", "adam", "--data", str(svm_file), "--subsample", "0.5",
                       "--subsample-seed", "-1", "--outdir", str(outdir))
        assert code == 2
        assert capsys.readouterr().err == "error: --subsample-seed: need a seed >= 0, got -1\n"
        assert not outdir.exists()

    def test_outdir_default_ignores_the_environment(self, monkeypatch):
        monkeypatch.setenv("BLOCKSTOCH_OUTDIR", "elsewhere")
        args = build_parser().parse_args(["run", "--method", "proposed", "--synthetic", "noncvx"])
        assert args.outdir == "runs"

    @pytest.mark.parametrize("command", [("run", "--method", "proposed"), ("compare",)])
    def test_run_defaults_are_the_library_defaults(self, monkeypatch, command):
        # A factory in place of the CLI's Schedule, as the benchmark's tracer
        # installs: the defaults must be read from instances, not the class.
        monkeypatch.setattr("blockstoch.cli.Schedule", lambda *a: Schedule(*a))
        args = build_parser().parse_args([*command, "--synthetic", "noncvx"])
        config, schedule = RunConfig(), Schedule()
        assert (args.batch, args.seed, args.eval_every, args.term_eps) == \
            (config.batch_size, config.seed, config.eval_every, config.term_eps)
        assert (args.rho_omega, args.rho_alpha, args.alpha_scale) == \
            (schedule.omega_exponent, schedule.alpha_exponent, schedule.alpha_scale)
        assert args.adam_lr == AdamParams().lr

    def test_elapsed_zeroed_unless_requested(self, svm_file, tmp_path):
        plain = tmp_path / "plain"
        timed = tmp_path / "timed"
        run_cli("run", "--method", "adam", "--data", str(svm_file),
                "--iters", "60", "--eval-every", "20", "--outdir", str(plain))
        run_cli("run", "--method", "adam", "--data", str(svm_file),
                "--iters", "60", "--eval-every", "20", "--trace-timing",
                "--outdir", str(timed))
        assert all(r.elapsed_ns == 0 for r in read_trace(plain / "adam.trace.csv"))
        timed_trace = read_trace(timed / "adam.trace.csv")
        assert timed_trace[-1].elapsed_ns > 0


    @pytest.mark.parametrize("method", METHODS)
    def test_term_eps_stops_every_method(self, svm_file, tmp_path, method):
        outdir = tmp_path / "r"
        code = run_cli("run", "--method", method, "--data", str(svm_file),
                       "--iters", "500", "--eval-every", "100", "--term-eps", "1e9",
                       "--outdir", str(outdir))
        assert code == 0
        trace = read_trace(outdir / f"{method}.trace.csv")
        assert [r.k for r in trace] == [1]
        manifest = read_manifest(outdir / f"{method}.manifest.txt")
        assert manifest["iters"] == "500"
        assert manifest["term_eps"] == "1000000000.0"
        assert manifest["final_objective"] == repr(trace[-1].objective)

    def test_rho_avg_must_exceed_rho_alpha(self, tmp_path, capsys):
        outdir = tmp_path / "r"
        code = run_cli("run", "--method", "avg-sca", "--synthetic", "quad-d4",
                       "--rho-avg", "0.5", "--rho-alpha", "0.9", "--outdir", str(outdir))
        assert code == 2
        assert "--rho-avg" in capsys.readouterr().err
        assert not outdir.exists()
        # Only avg-sca averages; the other methods ignore the exponent.
        code = run_cli("run", "--method", "adam", "--synthetic", "quad-d4", "--iters", "10",
                       "--eval-every", "10", "--rho-avg", "0.5", "--outdir", str(outdir))
        assert code == 0
        # rho_avg = 0 pins the averaging weight.
        code = run_cli("run", "--method", "avg-sca", "--synthetic", "quad-d4", "--iters", "10",
                       "--eval-every", "10", "--rho-avg", "0", "--outdir", str(outdir))
        assert code == 0

    @pytest.mark.parametrize("flags", [
        ("--test-data", "/nonexistent/test.libsvm"),
        ("--subsample", "0.5"),
        ("--subsample-seed", "5"),
        ("--features", "9"),
        ("--remap-labels",),
        ("--lambda", "3"),
    ], ids=lambda flags: flags[0])
    def test_data_only_flags_rejected_with_synthetic(self, tmp_path, capsys, flags):
        outdir = tmp_path / "r"
        code = run_cli("run", "--method", "adam", "--synthetic", "quad-d4", *flags,
                       "--iters", "10", "--eval-every", "10", "--outdir", str(outdir))
        assert code == 2
        assert f"{flags[0]} applies to --data only" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("blocks", ["0", "-3"])
    def test_blocks_below_one_is_usage_error(self, tmp_path, capsys, blocks):
        outdir = tmp_path / "r"
        code = run_cli("run", "--method", "proposed", "--synthetic", "quad-d2",
                       "--blocks", blocks, "--iters", "10", "--eval-every", "10",
                       "--outdir", str(outdir))
        assert code == 2
        assert "--blocks" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("synthetic, blocks, ran", [("quad-d2", "4", "2"),
                                                        ("noncvx", "3", "1")])
    def test_manifest_records_blocks_that_ran(self, tmp_path, synthetic, blocks, ran):
        outdir = tmp_path / "r"
        assert run_cli("run", "--method", "proposed", "--synthetic", synthetic,
                       "--blocks", blocks, "--iters", "10", "--eval-every", "10",
                       "--outdir", str(outdir)) == 0
        manifest = read_manifest(outdir / "proposed.manifest.txt")
        assert manifest["blocks"] == ran
        assert "workers" not in manifest

    @pytest.mark.parametrize("flags", [
        ("--batch", "0"),
        ("--iters", "-1"),
        ("--eval-every", "0"),
        ("--iters", "10", "--eval-every", "20"),
        ("--term-eps", "0"),
        ("--seed", "-1"),
    ], ids=" ".join)
    def test_invalid_run_flag_is_usage_error(self, tmp_path, capsys, flags):
        outdir = tmp_path / "r"
        code = run_cli("run", "--method", "proposed", "--synthetic", "quad-d4",
                       "--outdir", str(outdir), *flags)
        assert code == 2
        # The last flag given is the one at fault.
        assert capsys.readouterr().err.startswith(f"error: {flags[-2]}: ")
        assert not outdir.exists()

    @pytest.mark.parametrize("command, problem, flags, err",
                             [case[1:] for case in BAD_VALUES],
                             ids=[case[0] for case in BAD_VALUES])
    def test_bad_value_is_usage_error_before_any_method(self, svm_file, tmp_path, capsys,
                                                        command, problem, flags, err):
        if problem == "svm":
            flags += ("--data", str(svm_file))
        else:
            flags += ("--synthetic", problem)
        outdir = tmp_path / "r"
        code = run_cli(*command, *flags, "--iters", "20", "--eval-every", "10",
                       "--outdir", str(outdir))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {err}")
        assert not outdir.exists()

    def test_pegasos_non_finite_iterate_is_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "sep.libsvm"
        assert run_cli("gen", "separable-svm", "--m", "50", "--n", "6", "--seed", "1",
                       "--out", str(data)) == 0
        code = run_cli("run", "--method", "pegasos", "--data", str(data), "--lambda", "1e-320",
                       "--iters", "20", "--eval-every", "10", "--outdir", str(tmp_path / "r"))
        assert code == 1
        assert re.fullmatch(r"error: non-finite iterate at iteration \d+, block \d+\n",
                            capsys.readouterr().err)


class TestSynthetic:
    """--synthetic takes a spec string only; it names the whole problem."""

    def test_file_named_like_a_spec_does_not_shadow_it(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("quad-d4").write_text("hello\n", encoding="utf-8")
        assert run_cli("run", "--method", "proposed", "--synthetic", "quad-d4",
                       "--iters", "10", "--eval-every", "10", "--outdir", "r") == 0
        assert read_manifest(tmp_path / "r" / "proposed.manifest.txt")["blocks"] == "4"

    def test_toy_sigma_is_part_of_the_spec(self, tmp_path):
        traces = []
        for spec in ("noncvx", "noncvx-s2.5"):
            outdir = tmp_path / spec
            assert run_cli("run", "--method", "proposed", "--synthetic", spec,
                           "--iters", "100", "--eval-every", "50", "--seed", "4",
                           "--outdir", str(outdir)) == 0
            assert read_manifest(outdir / "proposed.manifest.txt")["synthetic"] == spec
            traces.append((outdir / "proposed.trace.csv").read_bytes())
        assert traces[0] != traces[1]

    @pytest.mark.parametrize("spec", ["file", "nonconvex-toy"])
    def test_only_a_spec_string_names_a_problem(self, tmp_path, capsys, spec):
        if spec == "file":
            spec = str(tmp_path / "p.prob")
            Path(spec).write_text("kind=quadratic\ndim=4\nsigma=1.0\n", encoding="utf-8")
        outdir = tmp_path / "r"
        code = run_cli("run", "--method", "proposed", "--synthetic", spec,
                       "--outdir", str(outdir))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --synthetic: {spec!r} is not quad-d<dim>[-s<sigma>] "
            "or noncvx[-s<sigma>]\n")
        assert not outdir.exists()

    @pytest.mark.parametrize("spec", ["quad-d6-s0.5", "noncvx-s2.5"])
    def test_manifest_command_replays_the_run(self, tmp_path, spec):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli("run", "--method", "proposed", "--synthetic", spec, "--blocks", "2",
                       "--iters", "200", "--eval-every", "50", "--seed", "3",
                       "--outdir", str(first)) == 0
        argv = shlex.split(read_manifest(first / "proposed.manifest.txt")["command"])
        assert argv[0] == "blockstoch" and argv.count("--outdir") == 1
        argv[argv.index("--outdir") + 1] = str(second)
        assert run_cli(*argv[1:]) == 0
        assert ((first / "proposed.trace.csv").read_bytes()
                == (second / "proposed.trace.csv").read_bytes())


class TestCompare:
    def test_zero_iterations_yields_header_only_traces(self, svm_file, tmp_path):
        outdir = tmp_path / "cmp"
        code = run_cli("compare", "--data", str(svm_file), "--iters", "0",
                       "--outdir", str(outdir))
        assert code == 0
        for method in ("proposed", "pegasos", "adam", "avg-sca"):
            trace = outdir / f"{method}.trace.csv"
            assert read_trace(trace) == []
        summary = (outdir / "summary.csv").read_text().splitlines()
        assert len(summary) == 5

    def test_sample_streams_identical(self, svm_file, tmp_path, capsys):
        outdir = tmp_path / "cmp"
        code = run_cli("compare", "--data", str(svm_file), "--iters", "120",
                       "--eval-every", "60", "--batch", "2", "--seed", "5",
                       "--log-sample-indices", "--outdir", str(outdir))
        assert code == 0
        assert "identical" in capsys.readouterr().out
        contents = {m: (outdir / f"{m}.samples.txt").read_text()
                    for m in ("proposed", "pegasos", "adam", "avg-sca")}
        assert len(set(contents.values())) == 1
        assert len(contents["proposed"].splitlines()) == 100

    def test_rho_avg_checked_before_any_method_runs(self, svm_file, tmp_path, capsys):
        outdir = tmp_path / "cmp"
        code = run_cli("compare", "--data", str(svm_file), "--iters", "20",
                       "--eval-every", "10", "--rho-alpha", "0.75", "--rho-avg", "0.75",
                       "--outdir", str(outdir))
        assert code == 2
        assert "--rho-avg" in capsys.readouterr().err
        assert not outdir.exists()

    def test_test_data_parsed_once(self, svm_file, tmp_path, monkeypatch):
        calls = []

        def counting_load(*args, **kwargs):
            calls.append(args[0])
            return load_libsvm(*args, **kwargs)

        monkeypatch.setattr(blockstoch.io, "load_libsvm", counting_load)
        outdir = tmp_path / "cmp"
        code = run_cli("compare", "--data", str(svm_file), "--test-data", str(svm_file),
                       "--iters", "20", "--eval-every", "10", "--outdir", str(outdir))
        assert code == 0
        assert len(calls) == 2  # the training file and the test file, once each
        for method in METHODS:
            manifest = read_manifest(outdir / f"{method}.manifest.txt")
            assert manifest["test_accuracy"] == manifest["train_accuracy"]

    def test_one_problem_instance_per_invocation(self, svm_file, tmp_path, monkeypatch):
        built = []
        make_instance = SvmProblem.instance

        def counting_instance(self):
            built.append(make_instance(self))
            return built[-1]

        monkeypatch.setattr(SvmProblem, "instance", counting_instance)
        assert run_cli("compare", "--data", str(svm_file), "--iters", "20",
                       "--eval-every", "10", "--outdir", str(tmp_path / "cmp")) == 0
        assert len(built) == 1
        assert run_cli("run", "--method", "pegasos", "--data", str(svm_file), "--iters", "20",
                       "--eval-every", "10", "--outdir", str(tmp_path / "peg")) == 0
        assert len(built) == 2

    def test_compare_needs_svm(self, tmp_path, capsys):
        outdir = tmp_path / "r"
        code = run_cli("compare", "--synthetic", "quad-d4", "--outdir", str(outdir))
        assert code == 2
        assert capsys.readouterr().err == PEGASOS_NEEDS_SVM
        assert not outdir.exists()

    def test_run_writes_what_compare_writes(self, svm_file, tmp_path):
        # One run path: `run --method m` is `compare` restricted to m.
        common = ("--data", str(svm_file), "--test-data", str(svm_file), "--batch", "3",
                  "--iters", "60", "--eval-every", "20", "--seed", "4",
                  "--log-sample-indices")
        cmp_dir = tmp_path / "cmp"
        assert run_cli("compare", *common, "--outdir", str(cmp_dir)) == 0
        timings = ("command", "cpu_seconds", "wall_seconds")
        for method in METHODS:
            run_dir = tmp_path / method
            assert run_cli("run", "--method", method, *common, "--outdir", str(run_dir)) == 0
            assert sorted(p.name for p in run_dir.iterdir()) == [
                f"{method}.manifest.txt", f"{method}.samples.txt", f"{method}.trace.csv"]
            for suffix in ("trace.csv", "samples.txt"):
                name = f"{method}.{suffix}"
                assert (run_dir / name).read_bytes() == (cmp_dir / name).read_bytes()
            ran, compared = (read_manifest(d / f"{method}.manifest.txt")
                             for d in (run_dir, cmp_dir))
            assert ran["command"].startswith("blockstoch run --method")
            assert ({k: v for k, v in ran.items() if k not in timings}
                    == {k: v for k, v in compared.items() if k not in timings})
