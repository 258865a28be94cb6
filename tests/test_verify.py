"""The verify suites' draws, their two numeric branches and their verdicts.

``sqznet verify --seed N`` prints the same lines as long as each suite draws
the same values, so the stream ``draw_opa`` takes is pinned here against the
``Generator.uniform`` calls it makes, spelled out.  The uncertainty suite
runs its lossy cavities stacked on arrays and its lossless ones on floats;
the stacked half is held to the float branch design by design.  A suite's
verdict is derived from its error, so no result can contradict itself.
"""

import dataclasses
import math

import numpy as np
import pytest

from sqznet import verify
from sqznet.elements import OpaParams


@pytest.mark.parametrize("passive", [True, False])
@pytest.mark.parametrize("shape", [(), (7,), (20, 1)])
def test_draw_opa_keeps_its_uniform_stream(shape, passive):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rates = rng.uniform(1e5, 1e8, size=(3, *shape))
        kappa = rates.sum(axis=0)
        g = 0.0 if passive else rng.uniform(-0.95 * kappa, 0.0)
        expected = (rates[0], rates[1], rates[2], g, rng.random())

        rng = np.random.default_rng(seed)
        opa = verify.draw_opa(rng, passive, shape)
        got = (opa.kappa_ic, opa.kappa_oc, opa.kappa_loss, opa.g, rng.random())
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b, strict=True)


def test_stacked_lossy_cavities_match_each_cavity_on_floats(monkeypatch):
    original = verify.opa_output_variances
    stacked = []

    def spy(opa, omega):
        out = original(opa, omega)
        if not isinstance(omega, float):
            stacked.append((opa, omega, out))
        return out

    monkeypatch.setattr(verify, "opa_output_variances", spy)
    assert verify.check_uncertainty_product(seed=2).passed
    [(opa, omega, (vp, vm))] = stacked
    columns = (opa.kappa_ic, opa.kappa_oc, opa.kappa_loss, opa.g, omega)
    per_design = [
        original(OpaParams(*cavity), w) for *cavity, w in zip(*(c.tolist() for c in columns))
    ]
    ref_p, ref_m = np.array(per_design).T
    assert omega.shape == (1000,)
    assert np.max(abs(vp - ref_p) / ref_p) <= 1e-14
    assert np.max(abs(vm - ref_m) / ref_m) <= 1e-14


def test_consistency_needs_a_draw():
    with pytest.raises(ValueError, match="^draws must be >= 1, got 0$"):
        verify.check_consistency(draws=0)


@pytest.mark.parametrize(
    "max_error, error, passed",
    [
        (1e-12, None, True),
        (math.nextafter(1e-12, 1.0), None, False),
        (math.nan, None, False),
        (math.nan, "KeyError: 'src'", False),
    ],
)
def test_verdict_follows_the_error(max_error, error, passed):
    result = verify.SuiteResult("suite", max_error, 1e-12, error)
    assert result.passed is passed
    assert result.line().startswith("PASS" if passed else "FAIL")
    assert "passed" not in {f.name for f in dataclasses.fields(result)}
