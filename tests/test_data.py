import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spheretrain import data
from spheretrain.data import (
    ImageClassSpec,
    SphereClusterSpec,
    gen_image_dataset,
    gen_sphere_dataset,
    sample_vmf,
)
from spheretrain.errors import DomainError


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


class TestSampleVmf:
    def test_outputs_unit_norm(self):
        rng = rng_for(0)
        mean = unit(rng.standard_normal(6))
        out = sample_vmf(mean, 5.0, 500, rng)
        norms = np.linalg.norm(out, axis=1)
        np.testing.assert_allclose(norms, np.ones(500), atol=1e-12, rtol=0)

    def test_huge_concentration_pins_to_mean(self):
        rng = rng_for(1)
        mean = unit(rng.standard_normal(8))
        out = sample_vmf(mean, 1e6, 2000, rng)
        angles = np.arccos(np.clip(out @ mean, -1.0, 1.0))
        assert np.mean(angles < 0.01) > 0.99

    def test_empirical_mean_direction(self):
        rng = rng_for(2)
        mean = unit(rng.standard_normal(8))
        out = sample_vmf(mean, 50.0, 100_000, rng)
        direction = unit(out.mean(axis=0))
        assert float(direction @ mean) > 0.999

    def test_bad_concentration(self):
        with pytest.raises(DomainError):
            sample_vmf(unit([1.0, 0.0]), 0.0, 5, rng_for(3))
        with pytest.raises(DomainError):
            sample_vmf(unit([1.0, 0.0]), -2.0, 5, rng_for(3))

    def test_non_unit_mean_rejected(self):
        with pytest.raises(DomainError):
            sample_vmf(np.array([2.0, 0.0]), 1.0, 5, rng_for(4))

    @pytest.mark.parametrize("mean", [[np.nan, 0.0], [np.inf, 0.0], [np.nan, np.nan]])
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(DomainError):
            sample_vmf(np.array(mean), 1.0, 3, rng_for(4))

    @pytest.mark.parametrize("n", [-1, 2.5, 3.0, "3", None])
    def test_bad_sample_count_rejected(self, n):
        with pytest.raises(DomainError):
            sample_vmf(unit([1.0, 0.0]), 1.0, n, rng_for(4))

    def test_zero_samples(self):
        assert sample_vmf(unit([1.0, 2.0, 2.0]), 1.0, 0, rng_for(4)).shape == (0, 3)

    def test_circle_case_works(self):
        out = sample_vmf(unit([0.0, 1.0]), 10.0, 200, rng_for(5))
        assert out.shape == (200, 2)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


class TestSphereDataset:
    def test_same_seed_identical_bytes(self):
        spec = SphereClusterSpec(num_classes=5, dim=8, kappa=12.0,
                                 samples_per_class=20, seed=7)
        a = gen_sphere_dataset(spec)
        b = gen_sphere_dataset(spec)
        assert a.inputs.tobytes() == b.inputs.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_labels_balanced_exactly(self):
        spec = SphereClusterSpec(num_classes=6, dim=4, kappa=3.0,
                                 samples_per_class=11, seed=0)
        ds = gen_sphere_dataset(spec)
        counts = np.bincount(ds.labels, minlength=6)
        assert (counts == 11).all()

    def test_two_tight_clusters_linearly_separable(self):
        spec = SphereClusterSpec(num_classes=2, dim=16, kappa=200.0,
                                 samples_per_class=2000, seed=1)
        ds = gen_sphere_dataset(spec)
        c0 = unit(ds.inputs[ds.labels == 0].mean(axis=0))
        c1 = unit(ds.inputs[ds.labels == 1].mean(axis=0))
        margin = ds.inputs @ (c0 - c1)
        predicted = (margin <= 0).astype(np.int64)
        accuracy = float(np.mean(predicted == ds.labels))
        assert accuracy > 0.999

    def test_separability_monotone_in_concentration(self):
        accuracies = []
        for kappa in (2.0, 8.0, 50.0):
            spec = SphereClusterSpec(num_classes=6, dim=8, kappa=kappa,
                                     samples_per_class=200, seed=2)
            ds = gen_sphere_dataset(spec)
            centroids = np.stack(
                [unit(ds.inputs[ds.labels == c].mean(axis=0)) for c in range(6)]
            )
            predicted = np.argmax(ds.inputs @ centroids.T, axis=1)
            accuracies.append(float(np.mean(predicted == ds.labels)))
        assert accuracies[0] <= accuracies[1] <= accuracies[2]

    def test_gaussian_model_flag(self):
        spec = SphereClusterSpec(num_classes=3, dim=5, kappa=30.0,
                                 samples_per_class=10, seed=3,
                                 distribution="gaussian")
        ds = gen_sphere_dataset(spec)
        np.testing.assert_allclose(
            np.linalg.norm(ds.inputs, axis=1), 1.0, atol=1e-12
        )

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SphereClusterSpec(num_classes=1, dim=4, kappa=1.0, samples_per_class=2)
        with pytest.raises(DomainError):
            SphereClusterSpec(num_classes=2, dim=4, kappa=0.0, samples_per_class=2)


@pytest.mark.parametrize("build", [
    lambda c: SphereClusterSpec(num_classes=c, dim=4, kappa=1.0, samples_per_class=2),
    lambda c: ImageClassSpec(num_classes=c, image_width=8, samples_per_class=2),
], ids=["sphere", "images"])
def test_class_count_limited_to_one_word_spawn_keys(build):
    assert build(2**32 - 2).num_classes == 2**32 - 2
    for classes in (2**32 - 1, 10**12):
        with pytest.raises(DomainError, match="num_classes must be at most"):
            build(classes)


class TestImageDataset:
    def spec(self, **overrides):
        base = dict(num_classes=4, image_width=8, samples_per_class=10,
                    channels=1, noise_amplitude=0.03, jitter=1,
                    eval_fraction=0.3, seed=5)
        base.update(overrides)
        return ImageClassSpec(**base)

    def test_zero_noise_zero_jitter_collapses_classes(self):
        ds = gen_image_dataset(self.spec(noise_amplitude=0.0, jitter=0))
        for cls in range(4):
            block = ds.images[ds.labels == cls]
            assert (block == block[0]).all()

    def test_splits_are_disjoint_and_stratified(self):
        ds = gen_image_dataset(self.spec())
        assert np.intersect1d(ds.train_indices, ds.eval_indices).size == 0
        assert ds.train_indices.size + ds.eval_indices.size == 40
        eval_labels = ds.labels[ds.eval_indices]
        counts = np.bincount(eval_labels, minlength=4)
        assert (counts == 3).all()  # round(0.3 * 10) per identity

    def test_pixels_clamped(self):
        ds = gen_image_dataset(self.spec(noise_amplitude=0.8))
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_deterministic(self):
        a = gen_image_dataset(self.spec())
        b = gen_image_dataset(self.spec())
        assert a.images.tobytes() == b.images.tobytes()
        assert a.eval_indices.tobytes() == b.eval_indices.tobytes()

    def test_views(self):
        ds = gen_image_dataset(self.spec())
        assert ds.train_view().size == 28
        assert ds.eval_view().size == 12
        assert ds.full_view().size == 40

    def test_classes_are_distinct(self):
        ds = gen_image_dataset(self.spec(noise_amplitude=0.0, jitter=0))
        templates = [ds.images[ds.labels == c][0] for c in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.abs(templates[i] - templates[j]).max() > 0.05


# The per-class generator as it stood before the batched kernel, kept verbatim
# (names prefixed) as the byte oracle for ``gen_sphere_dataset`` and
# ``sample_vmf``.


def _oracle_generator(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


def _oracle_unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _oracle_radial_components(kappa: float, dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    d = dim - 1
    b = d / (np.sqrt(4.0 * kappa * kappa + d * d) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    if not x0 < 1.0:
        raise DomainError(f"cannot sample concentration {kappa} in dimension {dim}")
    c = kappa * x0 + d * np.log(1.0 - x0 * x0)
    out = np.empty(n)
    filled = 0
    while filled < n:
        todo = n - filled
        z = rng.beta(d / 2.0, d / 2.0, size=todo)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.uniform(size=todo)
        with np.errstate(divide="ignore"):
            accept = kappa * w + d * np.log(1.0 - x0 * w) - c >= np.log(u)
        got = int(accept.sum())
        out[filled : filled + got] = w[accept]
        filled += got
    return out


def oracle_sample_vmf(mean: np.ndarray, kappa: float, n: int, rng: np.random.Generator) -> np.ndarray:
    mean = np.asarray(mean, dtype=np.float64).reshape(-1)
    dim = mean.shape[0]
    w = _oracle_radial_components(kappa, dim, n, rng)
    tangent = rng.standard_normal((n, dim))
    tangent -= np.outer(tangent @ mean, mean)
    norms = np.linalg.norm(tangent, axis=1, keepdims=True)
    while np.any(norms < 1e-12):
        bad = norms[:, 0] < 1e-12
        fresh = rng.standard_normal((int(bad.sum()), dim))
        fresh -= np.outer(fresh @ mean, mean)
        tangent[bad] = fresh
        norms = np.linalg.norm(tangent, axis=1, keepdims=True)
    tangent /= norms
    samples = w[:, None] * mean + np.sqrt(np.maximum(0.0, 1.0 - w * w))[:, None] * tangent
    return _oracle_unit_rows(samples)


def oracle_sphere_features(spec: SphereClusterSpec) -> np.ndarray:
    children = np.random.SeedSequence(spec.seed).spawn(spec.num_classes + 1)
    mean_rng = _oracle_generator(children[0])
    means = _oracle_unit_rows(mean_rng.standard_normal((spec.num_classes, spec.dim)))
    blocks = []
    for cls in range(spec.num_classes):
        rng = _oracle_generator(children[cls + 1])
        if spec.distribution == "vmf":
            blocks.append(oracle_sample_vmf(means[cls], spec.kappa, spec.samples_per_class, rng))
        else:
            noise = rng.standard_normal((spec.samples_per_class, spec.dim))
            blocks.append(_oracle_unit_rows(means[cls] + noise / np.sqrt(spec.kappa)))
    return np.concatenate(blocks, axis=0)


class ParallelFirstDraw:
    """A generator whose first normal row is a multiple of ``mean``, so its
    tangent is degenerate and must be redrawn; everything else is Philox."""

    def __init__(self, mean, seed):
        self.rng, self.mean, self.first = rng_for(seed), np.asarray(mean), True

    def beta(self, *args, **kwargs):
        return self.rng.beta(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        return self.rng.uniform(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self.rng.random(*args, **kwargs)

    def standard_normal(self, size, out=None):
        draw = self.rng.standard_normal(size)
        if self.first:
            draw[0], self.first = 3.0 * self.mean, False
        if out is None:
            return draw
        out[...] = draw
        return out


SPHERE_SPECS = st.builds(
    SphereClusterSpec,
    num_classes=st.integers(2, 12),
    dim=st.integers(2, 40),
    kappa=st.floats(-2.0, 5.0).map(lambda e: 10.0**e),
    samples_per_class=st.integers(1, 9),
    seed=st.integers(0, 2**160),
    distribution=st.sampled_from(["vmf", "gaussian"]),
)


class TestBatchedGeneratorBytes:
    """The chunked kernel reproduces the per-class loop byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(spec=SPHERE_SPECS)
    @example(spec=SphereClusterSpec(num_classes=9, dim=2, kappa=0.01, samples_per_class=9))
    @example(spec=SphereClusterSpec(num_classes=3, dim=2, kappa=0.05, samples_per_class=1,
                                    seed=5, distribution="gaussian"))
    def test_dataset_matches_per_class_loop(self, spec):
        assert gen_sphere_dataset(spec).inputs.tobytes() == oracle_sphere_features(spec).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(2, 40), kappa=st.floats(-2.0, 5.0).map(lambda e: 10.0**e),
           n=st.integers(0, 50), seed=st.integers(0, 2**32))
    @example(dim=2, kappa=0.01, n=50, seed=0)
    def test_sample_vmf_matches_per_class_loop(self, dim, kappa, n, seed):
        mean = unit(rng_for(seed).standard_normal(dim))
        got = sample_vmf(mean, kappa, n, rng_for(seed + 1))
        assert got.tobytes() == oracle_sample_vmf(mean, kappa, n, rng_for(seed + 1)).tobytes()

    def test_degenerate_tangent_redrawn_from_its_own_stream(self):
        dim, n, kappa = 5, 6, 4.0
        means = np.stack([unit(rng_for(s).standard_normal(dim)) for s in (10, 11, 12)])
        out = np.empty((3, n, dim))
        rngs = [rng_for(20), ParallelFirstDraw(means[1], 21), rng_for(22)]
        data._vmf_rows(out, means, kappa, rngs)
        expected = [oracle_sample_vmf(means[0], kappa, n, rng_for(20)),
                    oracle_sample_vmf(means[1], kappa, n, ParallelFirstDraw(means[1], 21)),
                    oracle_sample_vmf(means[2], kappa, n, rng_for(22))]
        assert out.tobytes() == np.stack(expected).tobytes()
        np.testing.assert_allclose(np.linalg.norm(out, axis=2), 1.0, atol=1e-12)
        single = sample_vmf(means[1], kappa, n, ParallelFirstDraw(means[1], 21))
        assert single.tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("num_classes", [2, 7, 10])
    @pytest.mark.parametrize("distribution", ["vmf", "gaussian"])
    def test_chunk_boundaries_do_not_change_bytes(self, monkeypatch, chunk, num_classes,
                                                  distribution):
        spec = SphereClusterSpec(num_classes=num_classes, dim=6, kappa=2.0,
                                 samples_per_class=5, seed=3, distribution=distribution)
        default = gen_sphere_dataset(spec).inputs.tobytes()
        monkeypatch.setattr(data, "_CLASS_CHUNK", chunk)
        assert gen_sphere_dataset(spec).inputs.tobytes() == default


class TestSpawnKeys:
    """``_spawn_keys`` and ``_rekey`` reproduce numpy's spawned Philox streams."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**160),
           ids=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8))
    @example(seed=2**128 + 1, ids=[0, 1, 2**32 - 1])
    @example(seed=0, ids=[0])
    def test_keys_match_seed_sequence(self, seed, ids):
        expected = [np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)
                    for i in ids]
        got = data._spawn_keys(seed, np.array(ids, dtype=np.uint32))
        assert got.dtype == np.uint64
        assert got.tobytes() == np.stack(expected).tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 2**40, 2**128 + 1])
    def test_rekeyed_pool_draws_as_a_fresh_generator(self, seed):
        def draws(gen):
            return b"".join(a.tobytes() for a in (
                gen.beta(2.5, 2.5, size=4), gen.uniform(size=3), gen.standard_normal(5),
                gen.integers(0, 2**32, size=4, dtype=np.uint32)))

        keys = data._spawn_keys(seed, np.arange(6, dtype=np.uint32)).tolist()
        pool = data._generators(2)
        for i, key in enumerate(keys):
            rng = pool[i % 2]
            # An odd count of 32-bit draws leaves half a 64-bit word buffered
            # (has_uint32 set), which the re-key must discard.
            rng.integers(0, 2**32, size=3, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"] == 1
            data._rekey(rng, key)
            fresh = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))))
            assert draws(rng) == draws(fresh)
