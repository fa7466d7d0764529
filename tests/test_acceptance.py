"""The end-to-end acceptance gate: every quantitative claim the package
makes must hold at the stated tolerances.  The full suite runs once per
session (about 35 s on 2 vCPUs) and each criterion is asserted separately."""

import numpy as np
import pytest

from fplab import acceptance, probes


@pytest.fixture(scope="session")
def report():
    return acceptance.run_all(progress=True)


def _result(report, name):
    for r in report["results"]:
        if r["name"] == name:
            return r
    raise AssertionError(f"criterion {name} missing from report")


@pytest.mark.parametrize(
    "name",
    [
        "classical-equilibrium",
        "classical-spectrum",
        "uniform-fractional-gap",
        "discrete-to-classical",
        "operator-convergence",
        "fourier-kernel-inequality",
        "dissipativity",
        "regularization",
        "positivity-and-mass",
        "projector-perturbation",
        "wasserstein-contraction",
        "gap-vs-decay-consistency",
    ],
)
def test_criterion(report, name):
    res = _result(report, name)
    assert res["pass"], res


def test_all_criteria_present(report):
    assert len(report["results"]) == 12
    assert report["pass"] == all(r["pass"] for r in report["results"])


def test_run_all_records_exception_type(monkeypatch):
    def criterion_broken():
        raise ArithmeticError("singular")

    monkeypatch.setattr(acceptance, "CRITERIA", [criterion_broken])
    res = acceptance.run_all()["results"][0]
    assert res["error"] == {"type": "ArithmeticError", "message": "singular"}
    assert not res["pass"]


def test_run_all_times_each_criterion(report):
    times = {r["name"]: r["elapsed_s"] for r in report["results"]}
    assert all(t > 0.0 for t in times.values())
    name, seconds = report["slowest"]
    assert seconds == max(times.values()) and times[name] == seconds


def test_criterion_6_transforms_its_probe_block_once(monkeypatch):
    seeds, transformed = [], []
    family = probes.probe_family

    def counted_family(grid, count=64, seed=0, **options):
        seeds.append(seed)
        return family(grid, count, seed, **options)

    def counted(fft):
        def spy(a, *args, **kwargs):
            transformed.append((fft.__name__, np.shape(a)))
            return fft(a, *args, **kwargs)
        return spy

    monkeypatch.setattr(probes, "probe_family", counted_family)
    monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
    monkeypatch.setattr(np.fft, "rfft", counted(np.fft.rfft))
    res = acceptance.criterion_6()
    assert res["pass"] and res["gradient_total"] == 300
    # one draw of the probe family and one forward FFT of its 513 x 100
    # block serve all three eps; the transform is real (the half spectrum)
    # and no complex FFT runs (the Dirichlet double sum's Toeplitz products
    # transform a 10-probe block in chunks)
    assert seeds.count(6) == 1
    assert [t for t in transformed if t[1][1:] == (100,)] == [("rfft", (513, 100))]
    assert all(name == "rfft" for name, _ in transformed)
    assert 0.9 < res["worst_ratio"] <= 1.0
    # the Toeplitz identity reproduces the reference double sum to roundoff
    assert res["dirichlet_paths_agree"] and res["dirichlet_worst_gap"] <= 1e-14
