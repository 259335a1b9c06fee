import math
import tracemalloc

import numpy as np
import pytest

from randstep import (
    NoiseModel,
    centred_gaussian,
    lr_norm_estimate,
    noise_path,
    orlicz_norm_estimate,
    psi2_amplitude,
    theoretical_noise_norm,
)
from reference import sample_noise_matrix, sample_path_matrix


def _rng(seed=0):
    return np.random.default_rng(seed)


def _h_norms(draws):
    return np.linalg.norm(draws, axis=-1)


KINDS = ["centred_gaussian", "biased", "shared_factor", "bounded_uniform"]


def _one_shot_reference(model, stream, steps, m):
    """The draws xi_k(h_k) of m rows, shape (m, N, J), read from the stream
    in one go by the stated layout and unit law: the shared-factor kind's
    m factors F, then the raw normals Y, J + 2 a step for the bounded kind
    and J for the others; U = Y, sqrt(1 - rho^2) Y + rho F or Y[:J] / |Y|;
    xi = U c_xi h^(p+1) sqrt(gamma) (times sqrt(3) if bounded), plus
    h^(p+1) b on the biased kind's mode."""
    steps, j = np.asarray(steps, dtype=float), model.dimension
    factors = stream.standard_normal((m, j)) if model.kind == "shared_factor" else None
    y = stream.standard_normal((m, steps.size, j + 2 if model.kind == "bounded_uniform" else j))
    if model.kind == "shared_factor":
        unit = math.sqrt(1.0 - model.rho**2) * y + (model.rho * factors)[:, None, :]
    elif model.kind == "bounded_uniform":
        unit = y[..., :j] / np.sqrt(np.sum(y * y, axis=-1))[..., None]
    else:
        unit = y
    scale = model.c_xi * steps[:, None] ** (model.p + 1.0) * np.sqrt(model.spectrum)
    if model.kind == "bounded_uniform":
        scale = scale * math.sqrt(3.0)
    xi = unit * scale
    if model.kind == "biased":
        xi[..., model.bias_mode] += steps ** (model.p + 1.0) * model.bias_coefficient
    return xi


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
        "kwargs, message",
        [({"dimension": 2.5}, "dimension must be an integer, got 2.5"),
         ({"dimension": 3, "kind": "biased", "bias_mode": 1.5},
          "bias_mode must be an integer, got 1.5"),
         ({"dimension": True}, "dimension must be an integer, got True"),
         ({"dimension": 3, "kind": "biased", "bias_mode": False},
          "bias_mode must be an integer, got False")],
        ids=["dimension", "bias-mode", "dimension-bool", "bias-mode-bool"],
    )
    def test_integer_field_that_is_not_an_integer_named(self, kwargs, message):
        # dimension 2.5 was reported beside a 3-mode spectrum; bias mode 1.5
        # was accepted and raised a bare IndexError at the first draw; a
        # dimension True was reported as True (bool subclasses int)
        with pytest.raises(ValueError, match=f"^{message}$"):
            NoiseModel(**kwargs)

    def test_numpy_integer_fields(self):
        model = NoiseModel(np.int64(3), kind="biased", bias_mode=np.int64(1))
        assert model.spectrum.size == 3

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
            noise_path(centred_gaussian(2), _rng(), [0.0])

    def test_rejects_no_trajectories(self):
        from randstep import randomisation

        with pytest.raises(ValueError, match="need at least one trajectory, got m = 0"):
            next(randomisation._row_blocks(centred_gaussian(2), _rng(), [0.1, 0.1], 0))

    @pytest.mark.parametrize("steps,shape", [(0.5, r"\(\)"), (np.full((2, 2), 0.1), r"\(2, 2\)")],
                             ids=["scalar", "2-d"])
    def test_refuses_steps_that_are_not_1d(self, steps, shape):
        # each raised a bare IndexError from the scale table's indexing
        with pytest.raises(ValueError, match=f"^steps must be a 1-d array, got shape {shape}$"):
            noise_path(centred_gaussian(2), _rng(), steps)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -0.1])
    def test_rejects_non_positive_or_non_finite_step(self, h):
        model = centred_gaussian(2)
        with pytest.raises(ValueError, match=rf"step 1 has size {h}, expected positive and finite"):
            noise_path(model, _rng(), [0.1, h])
        for norm_kind in ("l2", "psi2"):
            with pytest.raises(ValueError, match=rf"step must be positive and finite, got {h}"):
                theoretical_noise_norm(model, h, norm_kind)


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

    @pytest.mark.parametrize("dimension", [1, 3, 8])
    def test_bounded_uniform_fills_the_ball(self, dimension):
        # x = xi / (sqrt(3) c_xi h^(p+1) sqrt(gamma)) uniform in the unit
        # J-ball has |x|^J ~ Uniform(0, 1); the KS test of that law at a
        # fixed seed has a false-alarm rate of 1e-3 for each J
        from scipy.stats import kstest

        model = NoiseModel(dimension, p=0.5, c_xi=1.7, s=0.75, kind="bounded_uniform")
        h = 0.3
        draws = sample_noise_matrix(model, _rng(48), h, 20_000)
        x = draws / (math.sqrt(3.0) * model.c_xi * h ** (model.p + 1.0) * np.sqrt(model.spectrum))
        assert kstest(_h_norms(x) ** dimension, "uniform").pvalue > 1e-3


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

    @pytest.mark.parametrize("kind", KINDS)
    def test_psi2_amplitude_blocks_match_one_shot(self, monkeypatch, kind):
        from randstep import randomisation

        model = NoiseModel(5, p=1.0, c_xi=0.8, kind=kind, bias_mode=2,
                           bias_coefficient=0.6, rho=0.3)
        samples = 3001
        # 350 rows a block for two row buffers, 233 for three (a reader's
        # buffers share a quarter of the budget): 9 or 13 blocks, the last
        # one short
        monkeypatch.setattr(randomisation, "_PSI2_SAMPLES", samples)
        monkeypatch.setattr(randomisation, "BLOCK_BYTES", 4 * 8 * 5 * 700)
        monkeypatch.setattr(randomisation, "_PSI2_AMPLITUDES", {})  # each call draws
        stream = np.random.default_rng(np.random.SeedSequence(randomisation._PSI2_SEED))
        xi = _one_shot_reference(model, stream, [1.0], samples)[:, 0]
        expected = orlicz_norm_estimate(np.sqrt(np.sum(xi * xi, axis=-1)), "psi2")
        assert psi2_amplitude(model) == expected

    @pytest.mark.parametrize("kind", ["centred_gaussian", "shared_factor", "bounded_uniform"])
    def test_psi2_amplitude_memory_is_a_few_blocks(self, monkeypatch, kind):
        # not a timing gate: numpy reports its buffers to tracemalloc.  At
        # J = 512 all 20,000 shared factors at once would take 82 MB; the
        # row blocks reuse one block each of normals, of rho-weighted
        # factors (or the bounded kind's squares) and of squares inside the
        # norm, which share a quarter of BLOCK_BYTES, beside the (samples,)
        # norms and the bisection's one (samples,) scratch
        from randstep import randomisation

        monkeypatch.setattr(randomisation, "_PSI2_SAMPLES", 20_000)
        monkeypatch.setattr(randomisation, "_PSI2_AMPLITUDES", {})  # each call draws
        model = NoiseModel(512, p=1.0, kind=kind, rho=0.4)
        psi2_amplitude(NoiseModel(2, kind=kind, rho=0.4))  # imports outside the trace
        tracemalloc.start()
        try:
            psi2_amplitude(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < randomisation.BLOCK_BYTES + 2**20

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dimension", [8, 128])
    def test_psi2_amplitude_fits_its_norms_beside_a_quarter_block(self, monkeypatch, kind,
                                                                  dimension):
        # not a timing gate: numpy reports its buffers to tracemalloc.  The
        # draw's row buffers share a quarter of BLOCK_BYTES beside the
        # (m,) norms; the bisection then holds the norms and its one (m,)
        # scratch, 16 m bytes in all
        from randstep import randomisation

        m = randomisation._PSI2_SAMPLES
        monkeypatch.setattr(randomisation, "_PSI2_AMPLITUDES", {})  # each call draws
        model = NoiseModel(dimension, p=1.0, kind=kind, bias_mode=1, bias_coefficient=0.5,
                           rho=0.4)
        psi2_amplitude(NoiseModel(2, kind=kind, rho=0.4))  # imports outside the trace
        tracemalloc.start()
        try:
            psi2_amplitude(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * m + randomisation.BLOCK_BYTES // 4

    def test_degenerate_amplitude(self):
        model = centred_gaussian(3, c_xi=0.0)
        assert psi2_amplitude(model) == 0.0
        assert theoretical_noise_norm(model, 0.3, "l2") == 0.0


class TestRowBlocks:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m", [4, 23])
    def test_blocks_match_one_shot_reference(self, monkeypatch, kind, n, m):
        from randstep import randomisation

        model = NoiseModel(3, p=1.0, c_xi=0.8, kind=kind, bias_mode=1,
                           bias_coefficient=0.6, rho=0.3)
        steps = [0.5, 0.25][:n]
        # blocks of 5 rows: the row buffers (raw normals and scratch, plus
        # the shared factors or the bounded kind's squares), each of n
        # steps of raw normals, fill a quarter of the budget: one short
        # block at m = 4, four full ones and a short one at m = 23
        width = 5 if kind == "bounded_uniform" else 3
        buffers = 3 if kind in ("shared_factor", "bounded_uniform") else 2
        monkeypatch.setattr(randomisation, "BLOCK_BYTES", 4 * buffers * 8 * n * width * 5 + 7)
        stream, reference = _rng(12), _rng(12)
        expected = _one_shot_reference(model, reference, steps, m)
        blocks = [(start, xi.copy()) for start, xi in
                  randomisation._row_blocks(model, stream, steps, m)]
        assert [start for start, _ in blocks] == list(range(0, m, 5))
        assert [len(xi) for _, xi in blocks] == [min(5, m - start) for start in range(0, m, 5)]
        assert np.array_equal(np.concatenate([xi for _, xi in blocks]), expected)
        # the reader leaves the stream where the one-shot read does
        assert np.array_equal(stream.standard_normal(4), reference.standard_normal(4))
        assert np.array_equal(sample_path_matrix(model, _rng(12), steps, m), expected)
        if n == 1:
            norms = randomisation._draw_norms(model, _rng(12), steps[0], m)
            assert np.array_equal(norms, np.sqrt(np.sum(expected[:, 0] ** 2, axis=-1)))


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
