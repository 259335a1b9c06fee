import math

import numpy as np
import pytest

from randstep import (
    NoiseModel,
    centred_gaussian,
    lr_norm_estimate,
    noise_path,
    orlicz_norm_estimate,
    psi2_amplitude,
    sample_noise_matrix,
    sample_path_matrix,
    theoretical_noise_norm,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _h_norms(draws):
    return np.linalg.norm(draws, axis=-1)


class TestValidation:
    def test_spectrum_normalised(self):
        for dim, s in ((1, 1.0), (7, 0.75), (64, 1.5)):
            model = NoiseModel(dim, s=s)
            assert model.spectrum.sum() == pytest.approx(1.0, rel=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            NoiseModel(0)
        with pytest.raises(ValueError):
            NoiseModel(4, p=-0.2)
        with pytest.raises(ValueError):
            NoiseModel(4, c_xi=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(4, s=0.5)
        with pytest.raises(ValueError):
            NoiseModel(4, kind="levy")
        with pytest.raises(ValueError):
            NoiseModel(4, kind="biased", bias_mode=4)
        with pytest.raises(ValueError):
            NoiseModel(4, kind="shared_factor", rho=1.5)

    @pytest.mark.parametrize(
        "field,value",
        [("p", math.nan), ("c_xi", math.inf), ("c_xi", math.nan), ("s", math.nan),
         ("bias_coefficient", math.nan)],
    )
    def test_rejects_non_finite_parameters(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            NoiseModel(4, **{field: value})

    def test_sde_demonstration_mode(self):
        # p = -1/2 is accepted (diffusion scaling, demonstration only)
        model = NoiseModel(2, p=-0.5)
        assert theoretical_noise_norm(model, 0.25) == pytest.approx(math.sqrt(0.25))

    def test_nonpositive_step(self):
        with pytest.raises(ValueError):
            sample_noise_matrix(centred_gaussian(2), _rng(), 0.0, 1)[0]


class TestSecondMoment:
    def test_centred_l2_matches_construction(self):
        # E|xi(h)|_H^2 = c_xi^2 h^(2p+2) exactly; MC at 1e5 within 2%
        model = centred_gaussian(8, p=1.0, c_xi=1.0)
        draws = sample_noise_matrix(model, _rng(42), 0.5, 100_000)
        est = lr_norm_estimate(_h_norms(draws), 2.0)
        assert est == pytest.approx(0.25, rel=0.02)

    def test_biased_mean_norm(self):
        model = NoiseModel(4, p=0.0, c_xi=1.0, kind="biased", bias_mode=1, bias_coefficient=1.0)
        draws = sample_noise_matrix(model, _rng(43), 0.1, 200_000)
        mean = draws.mean(axis=0)
        assert np.linalg.norm(mean) == pytest.approx(0.1, abs=3e-3)

    def test_centred_zero_mean(self):
        # E |mean of M draws|_H^2 = amp^2 / M, so 3x that scale is the gate
        model = centred_gaussian(6, p=0.5, c_xi=2.0)
        m = 100_000
        draws = sample_noise_matrix(model, _rng(44), 0.3, m)
        mc_se = theoretical_noise_norm(model, 0.3) / math.sqrt(m)
        assert np.linalg.norm(draws.mean(axis=0)) <= 3.0 * mc_se

    def test_shared_factor_keeps_marginal(self):
        model = NoiseModel(5, p=1.0, c_xi=1.5, kind="shared_factor", rho=0.8)
        draws = sample_noise_matrix(model, _rng(45), 0.5, 100_000)
        est = lr_norm_estimate(_h_norms(draws), 2.0)
        assert est == pytest.approx(theoretical_noise_norm(model, 0.5), rel=0.02)

    def test_bounded_uniform_support_and_moment(self):
        model = NoiseModel(3, p=0.0, c_xi=2.0, kind="bounded_uniform")
        h = 0.4
        draws = sample_noise_matrix(model, _rng(46), h, 100_000)
        radius = 2.0 * math.sqrt(3.0) * h
        assert np.all(_h_norms(draws) <= radius * (1 + 1e-12))
        est = lr_norm_estimate(_h_norms(draws), 2.0)
        assert est == pytest.approx(theoretical_noise_norm(model, h), rel=0.02)


class TestScalingLaw:
    @pytest.mark.parametrize(
        "model",
        [
            centred_gaussian(8, p=1.0),
            NoiseModel(8, p=0.5, kind="biased", bias_coefficient=0.7),
            NoiseModel(8, p=1.0, kind="shared_factor", rho=0.5),
            NoiseModel(8, p=1.0, kind="bounded_uniform"),
        ],
    )
    def test_l2_scaling(self, model):
        rng = _rng(47)
        base = theoretical_noise_norm(model, 1.0)
        for t in (0.5, 0.25, 0.125):
            draws = sample_noise_matrix(model, rng, t, 100_000)
            est = lr_norm_estimate(_h_norms(draws), 2.0)
            assert est / t ** (model.p + 1.0) == pytest.approx(base, rel=0.02)

    def test_theoretical_norm_examples(self):
        model = centred_gaussian(4, p=1.0, c_xi=2.0)
        assert theoretical_noise_norm(model, 0.1) == pytest.approx(0.02)
        assert theoretical_noise_norm(model, 1.0) == pytest.approx(2.0)

    def test_theoretical_norm_scaling_identity(self):
        model = centred_gaussian(4, p=0.7, c_xi=1.3)
        for kind in ("l2", "psi2"):
            v1 = theoretical_noise_norm(model, 0.4, kind)
            v2 = theoretical_noise_norm(model, 0.1, kind)
            assert v1 / v2 == pytest.approx(4.0 ** (model.p + 1.0), rel=1e-12)

    def test_unsupported_kind(self):
        with pytest.raises(ValueError):
            theoretical_noise_norm(centred_gaussian(2), 0.1, "l7")


class TestDependenceStructure:
    def test_centred_steps_uncorrelated(self):
        model = centred_gaussian(3, p=1.0)
        m = 100_000
        paths = sample_path_matrix(model, _rng(48), np.array([0.25, 0.25]), m)
        corr = np.corrcoef(paths[:, 0, 0], paths[:, 1, 0])[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(m)

    def test_shared_factor_step_correlation(self):
        rho = 0.6
        model = NoiseModel(3, p=1.0, kind="shared_factor", rho=rho)
        m = 100_000
        paths = sample_path_matrix(model, _rng(49), np.array([0.25, 0.25]), m)
        corr = np.corrcoef(paths[:, 0, 0], paths[:, 1, 0])[0, 1]
        assert corr == pytest.approx(rho**2, abs=3.0 / math.sqrt(m))

    def test_markov_concentration(self):
        # P(|xi(t)|_H >= eps) <= (C t^(p+1) / eps)^2, within MC error
        model = centred_gaussian(8, p=1.0, c_xi=1.0)
        t, m = 0.25, 100_000
        norms = _h_norms(sample_noise_matrix(model, _rng(50), t, m))
        amp = theoretical_noise_norm(model, t)
        for factor in (1.0, 1.5, 2.0, 4.0):
            eps = factor * amp
            tail = float(np.mean(norms >= eps))
            assert tail <= min(1.0, (amp / eps) ** 2) + 3.0 / math.sqrt(m)


class TestOrliczBound:
    @pytest.mark.parametrize(
        "model",
        [
            NoiseModel(6, p=1.0, kind="biased", bias_coefficient=1.0),
            NoiseModel(6, p=1.0, kind="shared_factor", rho=0.7),
        ],
    )
    def test_noise_bound_without_independence_or_centredness(self, model):
        # the norm-bound hypothesis only needs an amplitude C with
        # |xi(t)| <= C t^(p+1); the psi2 amplitude estimate supplies it
        amp = psi2_amplitude(model)
        rng = _rng(51)
        for t in (0.5, 0.125):
            norms = _h_norms(sample_noise_matrix(model, rng, t, 50_000))
            est = orlicz_norm_estimate(norms, "psi2")
            assert est <= amp * t ** (model.p + 1.0) * 1.05

    def test_psi2_amplitude_cached_and_deterministic(self):
        model = centred_gaussian(4, p=1.0)
        assert psi2_amplitude(model) == psi2_amplitude(model)
        assert theoretical_noise_norm(model, 0.5, "psi2") == pytest.approx(
            psi2_amplitude(model) * 0.25
        )

    @pytest.mark.parametrize("kind", ["centred_gaussian", "biased", "shared_factor",
                                      "bounded_uniform"])
    def test_psi2_amplitude_blocks_match_one_shot(self, monkeypatch, kind):
        from randstep import randomisation

        model = NoiseModel(5, p=1.0, c_xi=0.8, kind=kind, bias_mode=2,
                           bias_coefficient=0.6, rho=0.3)
        samples = 3001
        # about 700 rows a block: five blocks, the last one short
        monkeypatch.setattr(randomisation, "_PSI2_BLOCK_BYTES", 8 * 5 * 700)
        stream = np.random.default_rng(np.random.SeedSequence(randomisation._PSI2_SEED))
        one_shot = np.linalg.norm(sample_noise_matrix(model, stream, 1.0, samples), axis=1)
        expected = orlicz_norm_estimate(one_shot, "psi2")
        assert psi2_amplitude.__wrapped__(model, samples) == expected

    def test_degenerate_amplitude(self):
        model = centred_gaussian(3, c_xi=0.0)
        assert psi2_amplitude(model) == 0.0
        assert theoretical_noise_norm(model, 0.3, "l2") == 0.0


class TestPathDraws:
    def test_reproducible_paths(self):
        model = NoiseModel(4, p=1.0, kind="shared_factor", rho=0.4)
        steps = np.array([0.1, 0.2, 0.1])
        a = noise_path(model, _rng(7), steps)
        b = noise_path(model, _rng(7), steps)
        assert np.array_equal(a, b)

    def test_path_steps_scale(self):
        model = centred_gaussian(2, p=1.0, c_xi=1.0)
        paths = sample_path_matrix(model, _rng(8), np.array([0.5, 0.25]), 200_000)
        r0 = lr_norm_estimate(_h_norms(paths[:, 0, :]), 2.0)
        r1 = lr_norm_estimate(_h_norms(paths[:, 1, :]), 2.0)
        assert r0 / r1 == pytest.approx(4.0, rel=0.05)

    def test_single_draw_shape(self):
        draw = sample_noise_matrix(centred_gaussian(5), _rng(9), 0.2, 1)[0]
        assert draw.shape == (5,)
