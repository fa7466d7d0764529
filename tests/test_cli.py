import json

import numpy as np
import pytest

from fplab import acceptance
from fplab.cli import main, parse_model, parse_noise, parse_splitting, parse_weight, UsageError
from fplab.operators import Classical, DiscreteFractional, Fractional
from fplab.sde import AlphaStable, CompoundPoisson
from fplab.splitting import ClassicalSplitting, FractionalSplitting


def test_parse_model():
    assert parse_model("classical") == Classical()
    assert parse_model("discrete-classical:0.2").eps == 0.2
    m = parse_model("fractional:1.5")
    from fplab.kernels import symbol_constant

    # default constant resolves to the exact-symbol normalization
    assert isinstance(m, Fractional) and m.constant == pytest.approx(
        symbol_constant(1.5))
    assert parse_model("fractional-raw:1.0").constant == 1.0
    m = parse_model("discrete-fractional:0.2,1.0")
    assert isinstance(m, DiscreteFractional) and (m.eps, m.alpha) == (0.2, 1.0)
    for bad in ("unknown", "fractional:", "discrete-fractional:0.2"):
        with pytest.raises(UsageError):
            parse_model(bad)


def test_parse_weight_and_splitting_and_noise():
    w = parse_weight("2,1,3")
    assert (w.p, w.q, w.s) == (2, 1.0, 3)
    with pytest.raises(UsageError):
        parse_weight("2")
    assert isinstance(parse_splitting("classical:10,6"), ClassicalSplitting)
    s = parse_splitting("fractional:0.5,2,4")
    assert isinstance(s, FractionalSplitting) and s.R == 4.0
    with pytest.raises(UsageError):
        parse_splitting("classical:10")
    assert isinstance(parse_noise("stable:1.5"), AlphaStable)
    assert isinstance(parse_noise("compound:0.2"), CompoundPoisson)
    with pytest.raises(UsageError):
        parse_noise("poisson:1")


def test_exit_code_usage_error(tmp_path):
    assert main(["steady", "--model", "nonsense", "--outdir", str(tmp_path)]) == 2
    assert main(["bogus-subcommand"]) == 2


def test_gap_sweep_prints_exception_type(tmp_path, capsys):
    out = tmp_path / "sweep"
    main(["gap-sweep", "--model", "discrete-classical:1.6", "--sweep", "eps",
          "--params", "1.6", "0.01", "--L", "12", "--n", "161", "--outdir", str(out)])
    assert "[error: ValueError: grid does not resolve the kernel" in capsys.readouterr().out
    rows = json.loads((out / "gap_sweep.json").read_text())["rows"]
    assert rows[0]["error"] is None
    assert rows[1]["error"]["type"] == "ValueError"


def test_steady_writes_outputs(tmp_path):
    out = tmp_path / "run"
    rc = main(["steady", "--model", "classical", "--L", "12", "--n", "257",
               "--outdir", str(out)])
    assert rc == 0
    assert (out / "steady_state.csv").exists()
    assert (out / "resolved_config.json").exists()


def test_accept_writes_every_result_and_exits_1_on_a_failure(tmp_path, monkeypatch):
    def passing():
        return {"name": "passing", "pass": True}

    def raising():
        raise ArithmeticError("no gap")

    monkeypatch.setattr(acceptance, "CRITERIA", [passing, raising])
    assert main(["accept", "--outdir", str(tmp_path)]) == 1
    rep = json.loads((tmp_path / "acceptance.json").read_text())
    assert rep["pass"] is False
    first, second = rep["results"]
    assert first == {"name": "passing", "pass": True, "elapsed_s": first["elapsed_s"]}
    assert second["name"] == "raising" and second["pass"] is False
    assert second["error"] == {"type": "ArithmeticError", "message": "no gap"}
    assert all(r["elapsed_s"] >= 0.0 for r in rep["results"])
    assert rep["slowest"] == max(([r["name"], r["elapsed_s"]] for r in rep["results"]),
                                 key=lambda x: x[1])


def test_decay_writes_its_report_alone_and_swept(tmp_path):
    common = ["--model", "fractional:1.5", "--L", "12", "--n", "129", "--t-end", "2"]
    assert main(["decay", *common, "--outdir", str(tmp_path / "one")]) == 0
    rep = json.loads((tmp_path / "one" / "decay.json").read_text())
    assert set(rep) == {"times", "norms", "fitted_rate", "fitted_prefactor", "fit_window",
                        "residual", "clean", "projected", "skipped"}
    assert rep["projected"] and rep["fitted_rate"] < -0.5
    assert main(["decay", *common, "--sweep", "alpha", "--params", "1.0", "1.5",
                 "--outdir", str(tmp_path / "sweep")]) == 0
    sweep = json.loads((tmp_path / "sweep" / "decay_sweep.json").read_text())
    assert set(sweep) == {"rows", "sup_rate", "a_target", "pass", "warning"}
    assert [r["param"] for r in sweep["rows"]] == [1.0, 1.5]
    assert all(r["error"] is None for r in sweep["rows"]) and sweep["pass"]


def test_spectrum_and_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "classical", "L": 12.0, "n": 257,
                               "outdir": str(tmp_path / "o")}))
    rc = main(["spectrum", "--config", str(cfg)])
    assert rc == 0
    rep = json.loads((tmp_path / "o" / "spectrum.json").read_text())
    assert abs(rep["gap"] + 1.0) <= 0.05


def test_spectrum_reports_its_residual(tmp_path):
    # the residual that certifies a jump generator's rightmost eigenvalues,
    # NaN for Classical and the Fourier side, whose spectra are solved whole
    runs = [(["--model", "discrete-fractional:0.2,1", "--L", "12.8"], True),
            (["--model", "classical", "--L", "12"], False),
            (["--model", "fractional:1.0", "--fourier-side", "--L", "30"], False)]
    for i, (model, certified) in enumerate(runs):
        out = tmp_path / str(i)
        assert main(["spectrum", *model, "--n", "257", "--outdir", str(out)]) == 0
        res = json.loads((out / "spectrum.json").read_text())["residual"]
        assert (0.0 < res <= 1e-12) if certified else np.isnan(res), model
    # a count deep in the spectrum is solved whole
    # (spectra.test_deep_separation_count_is_solved_whole)
    out = tmp_path / "deep"
    assert main(["spectrum", "--model", "fractional:1.0", "--L", "60", "--n", "513",
                 "--a-target", "-12", "--outdir", str(out)]) == 0
    rep = json.loads((out / "spectrum.json").read_text())
    assert rep["separation_count"] > 15 and np.isnan(rep["residual"])


def test_fourier_side_flag_requires_fractional(tmp_path):
    rc = main(["spectrum", "--fourier-side", "--model", "classical",
               "--outdir", str(tmp_path)])
    assert rc == 2


def test_gap_sweep_exit_codes(tmp_path, capsys):
    common = ["gap-sweep", "--model", "discrete-classical:0.4", "--sweep", "eps",
              "--L", "12", "--n", "961", "--params", "0.4", "0.2",
              "--outdir", str(tmp_path / "a")]
    assert main(common) == 0
    fail = ["gap-sweep", "--model", "discrete-classical:0.4", "--sweep", "eps",
            "--L", "12", "--n", "961", "--params", "0.4",
            "--gap-target", "-1.5", "--outdir", str(tmp_path / "b")]
    assert main(fail) == 1
    # a sweep with an errored parameter fails, whatever its other rows read
    errored = ["gap-sweep", "--model", "discrete-fractional:0.2,1", "--sweep", "eps",
               "--params", "0.4", "0.01", "--L", "12.8", "--n", "129",
               "--outdir", str(tmp_path / "c")]
    assert main(errored) == 1
    rep = json.loads((tmp_path / "c" / "gap_sweep.json").read_text())
    assert rep["rows"][1]["error"]["type"] == "ValueError" and rep["pass"] is False
    # an empty sweep passes vacuously and prints the sweep's own warning
    capsys.readouterr()
    out = tmp_path / "empty"
    assert main(["gap-sweep", "--model", "discrete-classical:0.4", "--sweep", "eps",
                 "--L", "12", "--n", "961", "--outdir", str(out)]) == 0
    assert "warning: empty parameter list" in capsys.readouterr().out
    rep = json.loads((out / "gap_sweep.json").read_text())
    assert rep["pass"] is True and rep["rows"] == []
    assert rep["warning"] == "empty parameter list" and rep["gap_target"] == -0.5


def test_verify_refuses_a_weight_its_check_does_not_read(tmp_path):
    # the adjoint check is an L^2 estimate, and the L^1 dissipativity check
    # takes no derivative order
    adjoint = ["verify", "--check", "adjoint", "--model", "discrete-fractional:0.1,1",
               "--L", "25.6", "--n", "1025"]
    dissipativity = ["verify", "--check", "dissipativity", "--n", "129"]
    for argv in ([*adjoint, "--weight", "1,0.4"], [*dissipativity, "--weight", "1,1,2"]):
        out = tmp_path / "refused"
        assert main([*argv, "--outdir", str(out)]) == 2, argv
        assert not out.exists()
    out = tmp_path / "adjoint"
    assert main([*adjoint, "--outdir", str(out)]) == 0
    assert json.loads((out / "resolved_config.json").read_text())["weight"] == "2,0"


def test_verify_psi(tmp_path):
    rc = main(["verify", "--check", "psi", "--L", "12", "--n", "513",
               "--a-target", "-0.5", "--outdir", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "psi.json").read_text())
    assert rep["pass"]


def test_verify_dirichlet(tmp_path):
    rc = main(["verify", "--check", "dirichlet", "--L", "12", "--n", "257",
               "--outdir", str(tmp_path)])
    assert rc == 0


def test_verify_gradient_bound_reports_worst_ratio(tmp_path):
    rc = main(["verify", "--check", "gradient-bound", "--L", "12", "--n", "257",
               "--outdir", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "gradient_bound.json").read_text())
    assert rep["failures"] == 0 and rep["total"] == 64
    assert 0.0 < rep["worst_ratio"] <= 1.0


def test_verify_records_the_defaults_it_runs(tmp_path):
    def resolved(check):
        out = tmp_path / check
        assert main(["verify", "--check", check, "--n", "129", "--outdir", str(out)]) == 0
        return json.loads((out / "resolved_config.json").read_text())

    assert resolved("dissipativity")["splitting"] == "classical:10,6"
    assert resolved("dirichlet")["eps"] == 0.25


def test_verify_refuses_flags_its_check_does_not_read(tmp_path):
    flags = {"model": ["--model", "classical"], "weight": ["--weight", "1,0"],
             "a_target": ["--a-target", "-0.5"], "eps": ["--eps", "0.25"],
             "n_conv": ["--n-conv", "2"], "splitting": ["--splitting", "classical:10,6"]}
    refused = {
        "dissipativity": ("eps", "n_conv"),
        "adjoint": ("eps", "n_conv"),
        "psi": ("model", "weight", "n_conv", "splitting"),
        "dirichlet": ("model", "weight", "a_target", "n_conv", "splitting"),
        "gradient-bound": ("model", "weight", "a_target", "n_conv", "splitting"),
        "regularization": ("weight", "a_target", "eps"),
        "sobolev-id": ("weight", "a_target", "eps", "n_conv", "splitting"),
    }
    for check, keys in refused.items():
        for key in keys:
            out = tmp_path / "refused"
            assert main(["verify", "--check", check, "--n", "129", *flags[key],
                         "--outdir", str(out)]) == 2, (check, key)
            assert not out.exists()
    out = tmp_path / "dirichlet"
    assert main(["verify", "--check", "dirichlet", "--n", "129", "--outdir", str(out)]) == 0
    recorded = json.loads((out / "resolved_config.json").read_text())
    assert not set(refused["dirichlet"]) & set(recorded)
    assert recorded["eps"] == 0.25
    out = tmp_path / "dissipativity"
    assert main(["verify", "--check", "dissipativity", "--n", "129", "--outdir", str(out)]) == 0
    recorded = json.loads((out / "resolved_config.json").read_text())
    assert not set(refused["dissipativity"]) & set(recorded)
    assert (recorded["model"], recorded["weight"], recorded["a_target"],
            recorded["splitting"]) == ("classical", "1,0", -0.5, "classical:10,6")


def test_sde_coupling(tmp_path):
    rc = main(["sde", "--noise", "stable:1.5", "--check", "coupling",
               "--n-paths", "100", "--t-end", "1.0", "--dt", "0.5",
               "--outdir", str(tmp_path)])
    assert rc == 0


def test_sde_refuses_a_step_below_its_floor(tmp_path):
    # the step runs as given, so one below 0.01 is refused before any output
    args = ["sde", "--noise", "stable:1.5", "--check", "coupling", "--n-paths", "10",
            "--t-end", "0.02"]
    out = tmp_path / "fine"
    assert main([*args, "--dt", "0.001", "--outdir", str(out)]) == 2
    assert not (out / "resolved_config.json").exists()
    out = tmp_path / "floor"
    assert main([*args, "--dt", "0.01", "--outdir", str(out)]) == 0
    assert json.loads((out / "resolved_config.json").read_text())["dt"] == 0.01


def test_sde_wasserstein_refuses_off_grid_times(tmp_path):
    # t = 0.5 is not a whole number of 0.3 record steps; t_end = 0.9 is
    rc = main(["sde", "--noise", "stable:1.5", "--check", "wasserstein",
               "--n-paths", "100", "--t-end", "0.9", "--dt", "0.3",
               "--outdir", str(tmp_path)])
    assert rc == 2


def test_sde_refuses_a_t_end_off_the_record_grid(tmp_path):
    # 1.0 is not a whole number of 0.3 record steps: no percentiles that
    # stop at t = 0.9
    rc = main(["sde", "--noise", "stable:1.5", "--check", "ensemble",
               "--n-paths", "10", "--t-end", "1", "--dt", "0.3",
               "--outdir", str(tmp_path)])
    assert rc == 2
    assert not (tmp_path / "ensemble.csv").exists()


def test_wrong_model_family_for_check(tmp_path):
    rc = main(["verify", "--check", "sobolev-id", "--model", "classical",
               "--outdir", str(tmp_path)])
    assert rc == 2


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    import fplab.cli as cli

    def boom(op):
        raise ArithmeticError("synthetic failure")

    monkeypatch.setattr(cli, "steady_state", boom)
    rc = main(["steady", "--model", "classical", "--L", "12", "--n", "257",
               "--outdir", str(tmp_path)])
    assert rc == 3
