import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fplab.sde as sde
import window_oracle
from fplab.kernels import gaussian_reference_kernel, rescale, truncated_fractional_kernel
from fplab.sde import (
    AlphaStable,
    CompoundPoisson,
    JumpOuSpec,
    _final_state,
    _invert_jumps,
    _kernel_jump_table,
    coupled_decay,
    empirical_w1,
    simulate,
    stable_standard,
    wasserstein_contraction_check,
)


K02 = rescale(gaussian_reference_kernel(), 0.2)


def _spec(noise, n_paths=1000, t_end=2.0, seed=5):
    return JumpOuSpec(noise=noise, t_end=t_end, n_paths=n_paths, seed=seed,
                      dt_record=0.5)


def test_spec_validation():
    with pytest.raises(ValueError):
        AlphaStable(alpha=2.5)
    with pytest.raises(ValueError):
        CompoundPoisson(kernel=K02, rate_scale=-1.0)
    with pytest.raises(ValueError):
        JumpOuSpec(noise=AlphaStable(1.5), t_end=-1.0, n_paths=10)
    # simulate would record only round(t_end / dt_record) steps, up to t = 0.9
    with pytest.raises(ValueError, match="whole number"):
        JumpOuSpec(noise=AlphaStable(1.5), t_end=1.0, n_paths=10, dt_record=0.3)
    # 3 * 0.3 is 0.8999999999999999, within the 1e-9 relative rule
    JumpOuSpec(noise=AlphaStable(1.5), t_end=0.9, n_paths=10, dt_record=0.3)


def test_stable_sampler_characteristic_function():
    rng = np.random.default_rng(np.random.Philox(key=123))
    n = 200_000
    for alpha in (0.8, 1.0, 1.5, 2.0):
        s = stable_standard(rng, alpha, n)
        for xi in (0.5, 1.0, 2.0):
            emp = np.mean(np.cos(xi * s))
            assert abs(emp - np.exp(-abs(xi) ** alpha)) <= 4.0 / np.sqrt(n), (alpha, xi)


def _jumps(table, rng, u):
    """The jumps of the uniforms u, as the compound windows of ``_paths``
    draw them: ``_invert_jumps`` with the sign bits from rng."""
    return _invert_jumps(table, rng, u, np.empty(u.size), np.empty(u.size, dtype=np.intp))


def test_kernel_jump_sampler_moments():
    rng = np.random.default_rng(np.random.Philox(key=7))
    draws = _jumps(_kernel_jump_table(K02), rng, rng.random(200_000))
    # normalized kernel has mean 0 and variance 2 * eps^2
    assert abs(np.mean(draws)) <= 0.005
    assert abs(np.var(draws) - 2.0 * 0.2**2) <= 0.005


def _interp_jumps(table, rng, size):
    """The reference sampler: np.interp inversion of the same CDF table, on
    the same draws."""
    u = rng.uniform(0.0, 1.0, size=size)
    return (rng.integers(0, 2, size=size) * 2 - 1) * np.interp(u, table.cdf, table.z)


class _FixedBits:
    """A stand-in generator that hands out given sign bits, each call a new
    array, as a generator does."""

    def __init__(self, bits):
        self.bits = bits

    def integers(self, low, high, size):
        return self.bits.copy()


@pytest.mark.parametrize("kernel", [K02, truncated_fractional_kernel(1.0, 0.1)],
                         ids=["gaussian", "truncated-fractional"])
def test_guide_table_sampler_is_np_interp_bit_for_bit(kernel):
    table = _kernel_jump_table(kernel)
    rng = np.random.default_rng(np.random.Philox(key=21))
    draws = _jumps(table, rng, rng.random(1_000_000))
    ref = _interp_jumps(table, np.random.default_rng(np.random.Philox(key=21)), 1_000_000)
    assert np.array_equal(draws, ref)
    # both kinds of bucket are exercised: some hold a knot, some do not
    assert 0 < np.count_nonzero(table.guide < 0) < table.guide.size
    # edge inputs: 0, every knot below 1 (each sits on a bucket boundary or
    # inside a bucket) and the largest double below 1
    u = np.concatenate([[0.0], table.cdf[:-1], [np.nextafter(1.0, 0.0)]])
    for bit in (0, 1):
        bits = np.full(u.size, bit)
        got = _jumps(table, _FixedBits(bits), u.copy())
        want = (2 * bit - 1) * np.interp(u, table.cdf, table.z)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_compound_simulate_does_not_call_np_interp(monkeypatch):
    def no_interp(*args, **kwargs):
        raise AssertionError("np.interp called")

    monkeypatch.setattr(sde.np, "interp", no_interp)
    ens = simulate(_spec(CompoundPoisson(kernel=K02, rate_scale=25.0), n_paths=500),
                   lambda r, n: np.zeros(n))
    assert np.all(np.isfinite(ens.states))


def test_coupled_checks_run_one_pass_per_pair(monkeypatch):
    # a pass is one run of the window loop, kept whole (``simulate``), down
    # to its last state (the burn-in) or streamed (the check's run)
    calls = []
    real = sde._paths

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sde, "_paths", counted)
    noise = CompoundPoisson(kernel=K02, rate_scale=25.0)
    wasserstein_contraction_check(_spec(noise, n_paths=500), lambda r, n: np.full(n, 3.0),
                                  [0.5, 1.0])
    assert len(calls) == 2  # burn-in, then both clouds in one run
    del calls[:]
    coupled_decay(_spec(noise, n_paths=50), 1.0, 0.0)
    assert len(calls) == 1


@pytest.mark.parametrize("noise", [AlphaStable(1.5),
                                   CompoundPoisson(kernel=K02, rate_scale=25.0)])
def test_stacked_start_equals_separate_runs(noise):
    spec = _spec(noise, n_paths=300)
    starts = np.stack([np.full(300, 3.0), np.linspace(-2.0, 2.0, 300)])
    both = simulate(spec, lambda r, n: starts, stream=23)
    assert both.states.shape == (5, 2, 300)
    for i in range(2):
        alone = simulate(spec, lambda r, n: starts[i], stream=23)
        assert np.array_equal(both.states[:, i], alone.states)


@pytest.mark.parametrize("noise", [AlphaStable(1.5),
                                   CompoundPoisson(kernel=K02, rate_scale=25.0)])
def test_burn_in_state_is_the_last_simulated_state(noise):
    # the burn-in of the contraction check keeps only the last state
    spec = JumpOuSpec(noise=noise, t_end=20.0, n_paths=400, seed=106, dt_record=0.5)
    start = lambda r, n: r.normal(size=n)
    last = _final_state(spec, start, stream=11)
    assert np.array_equal(last, simulate(spec, start, stream=11).states[-1])
    # no window: the start itself
    spec = JumpOuSpec(noise=noise, t_end=0.0, n_paths=400, seed=106, dt_record=0.5)
    assert np.array_equal(_final_state(spec, start, stream=11),
                          simulate(spec, start, stream=11).states[-1])


@pytest.mark.parametrize("noise", [AlphaStable(1.5), AlphaStable(0.6), AlphaStable(1.0),
                                   CompoundPoisson(kernel=K02, rate_scale=25.0),
                                   CompoundPoisson(kernel=truncated_fractional_kernel(1.0, 0.1))],
                         ids=["stable-1.5", "stable-0.6", "stable-1", "compound-gaussian",
                              "compound-truncated-fractional"])
@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stacked"])
def test_in_place_windows_equal_the_plain_formulas(noise, stacked):
    spec = _spec(noise, n_paths=2000)
    if stacked:
        start = lambda r, n: np.stack([np.full(n, 3.0), r.normal(size=n)])
    else:
        start = lambda r, n: r.normal(size=n)
    want = window_oracle.states(spec, start, stream=23)
    got = simulate(spec, start, stream=23).states
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(_final_state(spec, start, stream=23), want[-1])


def test_compound_windows_past_one_sign_chunk_equal_the_plain_formulas():
    # about 75000 jumps per window: the window buffers, kept across windows,
    # hold more than two chunks of sign bits
    spec = _spec(CompoundPoisson(kernel=K02, rate_scale=25.0), n_paths=6000)
    start = lambda r, n: r.normal(size=n)
    got = simulate(spec, start, stream=23).states
    assert np.array_equal(got, window_oracle.states(spec, start, stream=23))
    assert 2 * sde._SIGN_CHUNK < 0.5 * spec.n_paths * 25.0 * K02.l1_norm


def test_simulate_leaves_the_start_array_alone():
    # the windows update a copy, not the array the sampler hands out
    start = np.linspace(-2.0, 2.0, 300)
    kept = start.copy()
    simulate(_spec(CompoundPoisson(kernel=K02, rate_scale=25.0), n_paths=300),
             lambda r, n: start)
    assert np.array_equal(start, kept)


def test_simulate_rejects_a_start_of_the_wrong_shape():
    with pytest.raises(ValueError):
        simulate(_spec(AlphaStable(1.5), n_paths=10), lambda r, n: np.zeros(n + 1))


def test_non_finite_stable_state_raises(monkeypatch):
    monkeypatch.setattr(sde, "stable_standard", lambda rng, alpha, size: np.full(size, np.inf))
    with pytest.raises(FloatingPointError, match="non-finite"):
        simulate(_spec(AlphaStable(1.5), n_paths=10), lambda r, n: np.zeros(n))


def test_determinism():
    spec = _spec(AlphaStable(1.5))
    a = simulate(spec, lambda r, n: np.zeros(n))
    b = simulate(spec, lambda r, n: np.zeros(n))
    assert np.array_equal(a.states, b.states)


def test_different_streams_differ():
    spec = _spec(AlphaStable(1.5))
    a = simulate(spec, lambda r, n: np.zeros(n), stream=0)
    b = simulate(spec, lambda r, n: np.zeros(n), stream=1)
    assert not np.array_equal(a.states, b.states)


@pytest.mark.parametrize("noise", [AlphaStable(1.2), AlphaStable(2.0),
                                   CompoundPoisson(kernel=K02, rate_scale=25.0)])
def test_coupled_decay_exact(noise):
    rep = coupled_decay(_spec(noise, n_paths=200), 1.0, -0.5)
    assert rep["pass"]
    assert rep["max_error"] <= 1e-12


def test_coupled_decay_identical_start():
    rep = coupled_decay(_spec(AlphaStable(1.5), n_paths=100), 2.0, 2.0)
    assert np.max(rep["gaps"]) == 0.0


def test_stationary_law_alpha_stable():
    # long-run characteristic function matches exp(-|xi|^alpha / alpha)
    alpha = 1.5
    spec = JumpOuSpec(noise=AlphaStable(alpha), t_end=20.0, n_paths=100_000,
                      seed=9, dt_record=1.0)
    x = simulate(spec, lambda r, n: r.normal(size=n)).states[-1]
    for xi in (0.5, 1.0, 2.0):
        emp = np.mean(np.cos(xi * x))
        target = np.exp(-abs(xi) ** alpha / alpha)
        assert abs(emp - target) <= 4.0 / np.sqrt(spec.n_paths)


def test_empirical_w1_basics():
    a = np.array([0.0, 1.0, 2.0])
    assert empirical_w1(a, a) == 0.0
    assert empirical_w1(a, a + 3.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        empirical_w1(a, np.array([]))


def test_empirical_w1_translated_gaussians():
    rng = np.random.default_rng(np.random.Philox(key=42))
    a = rng.normal(size=100_000)
    b = rng.normal(size=100_000) + 1.0
    assert abs(empirical_w1(a, b) - 1.0) <= 0.02


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_empirical_w1_metric_properties(seed):
    rng = np.random.default_rng(np.random.Philox(key=seed))
    a, b, c = (rng.normal(size=64) * rng.uniform(0.5, 2.0) + rng.uniform(-2, 2)
               for _ in range(3))
    dab = empirical_w1(a, b)
    assert dab >= 0.0
    assert dab == empirical_w1(b, a)
    assert dab <= empirical_w1(a, c) + empirical_w1(c, b) + 1e-12


@pytest.mark.parametrize("noise", [AlphaStable(1.2),
                                   CompoundPoisson(kernel=K02, rate_scale=25.0)])
def test_wasserstein_contraction(noise):
    spec = JumpOuSpec(noise=noise, t_end=2.0, n_paths=20_000, seed=3,
                      dt_record=0.5)
    rep = wasserstein_contraction_check(spec, lambda r, n: np.full(n, 3.0),
                                        [0.5, 1.0, 2.0])
    assert rep["pass"], rep
    # synchronous coupling predicts near-equality of ratio and e^{-t};
    # heavy tails inflate the empirical-quantile noise, hence the 8x factor
    mc = rep["mc_tol"]
    for row in rep["rows"]:
        ratio = row["w1"] / rep["w1_initial"]
        assert ratio >= np.exp(-row["t"]) * (1.0 - 8.0 * mc)


def test_wasserstein_equilibrium_start():
    spec = JumpOuSpec(noise=AlphaStable(1.5), t_end=1.0, n_paths=20_000, seed=4,
                      dt_record=0.5)
    burn = JumpOuSpec(noise=AlphaStable(1.5), t_end=20.0, n_paths=20_000,
                      seed=4 + 101, dt_record=0.5)
    eq = simulate(burn, lambda r, n: r.normal(size=n), stream=11).states[-1]
    rep = wasserstein_contraction_check(spec, lambda r, n: eq.copy(), [0.5, 1.0])
    assert rep["w1_initial"] <= rep["mc_tol"]


def _check_from_simulate(spec, f0_sampler, t_grid, burn_in=20.0):
    """The contraction check's W1 values, from whole ``simulate`` ensembles."""
    burn = JumpOuSpec(noise=spec.noise, t_end=burn_in, n_paths=spec.n_paths,
                      seed=spec.seed + 101, dt_record=0.5)
    eq0 = np.sort(simulate(burn, lambda r, n: r.normal(size=n), stream=11).states[-1])
    f0 = np.sort(f0_sampler(sde._rng(spec.seed, 999), spec.n_paths))
    run = JumpOuSpec(noise=spec.noise, t_end=max(t_grid), n_paths=spec.n_paths,
                     seed=spec.seed, dt_record=spec.dt_record)
    states = simulate(run, lambda r, n: np.stack([f0, eq0]), stream=23).states
    rows = [empirical_w1(*states[int(round(t / spec.dt_record))]) for t in t_grid]
    return empirical_w1(*states[0]), rows


@pytest.mark.parametrize("noise", [AlphaStable(1.5),
                                   CompoundPoisson(kernel=K02, rate_scale=25.0)])
@pytest.mark.parametrize("dt, t_grid", [(0.5, [0.5, 1.0, 2.0]), (0.25, [1.5, 0.5])])
def test_streamed_check_equals_w1_of_the_simulated_ensemble(noise, dt, t_grid):
    spec = JumpOuSpec(noise=noise, t_end=2.0, n_paths=2000, seed=3, dt_record=dt)
    start = lambda r, n: np.full(n, 3.0)
    rep = wasserstein_contraction_check(spec, start, t_grid)
    w0, rows = _check_from_simulate(spec, start, t_grid)
    assert rep["w1_initial"] == w0
    assert [row["t"] for row in rep["rows"]] == t_grid
    assert [row["w1"] for row in rep["rows"]] == rows


def test_streamed_check_raises_at_a_non_finite_window(monkeypatch):
    # a finite equilibrium start, so only the run's first window is non-finite
    monkeypatch.setattr(sde, "_final_state", lambda spec, sampler, stream=0: np.zeros(spec.n_paths))
    monkeypatch.setattr(sde, "stable_standard", lambda rng, alpha, size: np.full(size, np.inf))
    with pytest.raises(FloatingPointError, match="non-finite"):
        wasserstein_contraction_check(_spec(AlphaStable(1.5), n_paths=10),
                                      lambda r, n: np.full(n, 3.0), [0.5, 1.0])


@pytest.mark.parametrize("dt, t_grid", [(0.3, [0.5]), (0.3, [0.6, 2.0]), (0.7, [2.8]),
                                        (0.7, [-0.7, 1.4])],
                         ids=["off-grid", "off-grid-last", "past-t-end", "negative"])
def test_check_refuses_times_off_the_record_grid(dt, t_grid, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("ran a window")

    monkeypatch.setattr(sde, "_paths", no_run)
    # t_end is 7 steps of 0.3 and 3 of 0.7
    spec = JumpOuSpec(noise=AlphaStable(1.5), t_end=2.1, n_paths=10, dt_record=dt)
    with pytest.raises(ValueError, match="record times"):
        wasserstein_contraction_check(spec, lambda r, n: np.full(n, 3.0), t_grid)


def test_compound_check_holds_a_few_windows_of_memory():
    # the unit is one window's jump array: 8 bytes times the expected jump
    # count n_paths * rate * dt_record (2 MB here); the check holds the start,
    # one (2, n_paths) state and a few of these buffers at once
    noise = CompoundPoisson(kernel=K02, rate_scale=25.0)
    spec = JumpOuSpec(noise=noise, t_end=2.0, n_paths=20_000, seed=3, dt_record=0.5)
    window = 8.0 * spec.n_paths * noise.rate_scale * K02.l1_norm * spec.dt_record
    tracemalloc.start()
    try:
        wasserstein_contraction_check(spec, lambda r, n: np.full(n, 3.0), [0.5, 1.0, 2.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.0 * window, peak / window
