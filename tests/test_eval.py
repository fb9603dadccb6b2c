import builtins
import errno
import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spheretrain.checkpoint import load_checkpoint, save_checkpoint
from spheretrain.config import TrainConfig
from spheretrain.data import Dataset
from spheretrain.encoders import MLPEncoder
from spheretrain.engine import train
from spheretrain.errors import (
    DegenerateInputError,
    DomainError,
    FileFormatError,
    ProtocolError,
    ShapeError,
)
from spheretrain.evaluate import (
    PairSet,
    angular_projection,
    cluster_stats,
    make_pairs,
    roc_points,
    tar_at_far,
    verification_report,
)
from spheretrain.fileio import (
    read_embeddings,
    read_images,
    read_pairs,
    write_embeddings,
    write_images,
    write_pairs,
    write_projection,
)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def unit_rows(rng, rows, dim):
    x = rng.standard_normal((rows, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def oracle_tar_at_far(genuine, impostor, far):
    """Exhaustive sweep over the observed impostor scores: pick the smallest
    threshold whose false-accept rate stays within the target."""
    genuine = np.asarray(genuine, dtype=np.float64)
    impostor = np.asarray(impostor, dtype=np.float64)
    chosen = None
    for threshold in sorted(set(impostor.tolist())):
        if np.mean(impostor >= threshold) <= far:
            chosen = threshold
            break
    if chosen is None:
        return float(np.mean(genuine > impostor.max()))
    return float(np.mean(genuine >= chosen))


def loop_roc_points(scores, is_match):
    """The per-value sweep ``roc_points`` replaced: one O(G) mean per
    distinct impostor score."""
    genuine, impostor = scores[is_match], scores[~is_match]
    values, first = np.unique(np.sort(impostor), return_index=True)
    points = [(0.0, float(np.mean(genuine > values[-1])))]
    for value, lo in zip(values[::-1], first[::-1]):
        far = (impostor.size - lo) / impostor.size
        points.append((float(far), float(np.mean(genuine >= value))))
    return points


def loop_tar_at_far(scores, is_match, far):
    """The per-value ``tar_at_far`` the ROC arrays replaced."""
    genuine, impostor = scores[is_match], scores[~is_match]
    values, first = np.unique(np.sort(impostor), return_index=True)
    rates = (impostor.size - first) / impostor.size
    ok = np.flatnonzero(rates <= far)
    if ok.size == 0:
        return float(np.mean(genuine > values[-1]))
    return float(np.mean(genuine >= values[ok[0]]))


def combine(genuine, impostor):
    scores = np.concatenate([genuine, impostor])
    flags = np.concatenate([np.ones(len(genuine), bool), np.zeros(len(impostor), bool)])
    return scores, flags


class TestTarAtFar:
    def test_perfect_separation(self):
        scores, flags = combine([0.9, 0.9, 0.9], [0.1, 0.1])
        assert tar_at_far(scores, flags, 0.01) == 1.0

    def test_worked_example(self):
        scores, flags = combine([0.9, 0.2], [0.8, 0.1])
        assert tar_at_far(scores, flags, 0.5) == 0.5

    def test_matches_oracle_on_random_protocols(self):
        rng = rng_for(0)
        for _ in range(1000):
            n_gen = int(rng.integers(1, 30))
            n_imp = int(rng.integers(1, 30))
            # quantized scores force plenty of ties
            genuine = rng.integers(0, 10, size=n_gen) / 10.0
            impostor = rng.integers(0, 10, size=n_imp) / 10.0
            far = float(rng.uniform(0.01, 0.99))
            scores, flags = combine(genuine, impostor)
            assert tar_at_far(scores, flags, far) == oracle_tar_at_far(
                genuine, impostor, far
            )

    def test_non_decreasing_in_far(self):
        rng = rng_for(1)
        for _ in range(50):
            genuine = rng.uniform(size=12)
            impostor = rng.uniform(size=15)
            scores, flags = combine(genuine, impostor)
            tars = [
                tar_at_far(scores, flags, far)
                for far in (0.01, 0.05, 0.1, 0.3, 0.5, 0.9)
            ]
            assert all(a <= b for a, b in zip(tars, tars[1:]))

    def test_no_impostors_rejected(self):
        scores, flags = combine([0.5, 0.6], [])
        with pytest.raises(ProtocolError):
            tar_at_far(scores, flags, 0.1)

    def test_far_domain(self):
        scores, flags = combine([0.5], [0.1])
        with pytest.raises(DomainError):
            tar_at_far(scores, flags, 0.0)
        with pytest.raises(DomainError):
            tar_at_far(scores, flags, 1.0)


class TestRoc:
    def test_monotone_and_strictly_increasing_far(self):
        rng = rng_for(2)
        for _ in range(50):
            genuine = rng.integers(0, 8, size=20) / 8.0
            impostor = rng.integers(0, 8, size=25) / 8.0
            scores, flags = combine(genuine, impostor)
            pts = roc_points(scores, flags)
            fars = [p[0] for p in pts]
            tars = [p[1] for p in pts]
            assert all(a < b for a, b in zip(fars, fars[1:]))
            assert all(a <= b for a, b in zip(tars, tars[1:]))
            assert fars[0] == 0.0 and fars[-1] == 1.0

    def test_consistent_with_tar_at_far(self):
        # every interior ROC point is the exact operating point tar_at_far
        # picks for that false-accept target
        rng = rng_for(3)
        genuine = rng.uniform(size=30)
        impostor = rng.uniform(size=40)
        scores, flags = combine(genuine, impostor)
        for far, tar in roc_points(scores, flags):
            if 0.0 < far < 1.0:
                assert tar_at_far(scores, flags, far) == tar


class TestRocMatchesTheLoop:
    """The sorted sweep gives the per-value loop's ROC and TAR bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(
        levels=st.integers(1, 12),
        genuine=st.lists(st.integers(-1, 12), min_size=1, max_size=30),
        impostor=st.lists(st.integers(-1, 12), min_size=1, max_size=30),
        on_point=st.booleans(),
        pick=st.floats(0.0, 1.0),
    )
    @example(levels=1, genuine=[1], impostor=[0, 1, 1], on_point=True, pick=0.5)
    @example(levels=4, genuine=[0, 3, 3, 4], impostor=[3], on_point=False, pick=0.5)
    @example(levels=4, genuine=[3], impostor=[3], on_point=False, pick=0.99)
    @example(levels=2, genuine=[-1, 1], impostor=[-1, 0, 1], on_point=False, pick=0.5)
    def test_random_protocols(self, levels, genuine, impostor, on_point, pick):
        # few levels force ties within and across the two groups; -1 is a NaN
        # score, as a zero embedding row gives
        scores, flags = combine(*(np.where(np.array(v) < 0, np.nan, np.array(v) / levels)
                                  for v in (genuine, impostor)))
        points = loop_roc_points(scores, flags)
        assert roc_points(scores, flags) == points
        inner = [far for far, _ in points if 0.0 < far < 1.0]
        if on_point and inner:
            far = inner[min(int(pick * len(inner)), len(inner) - 1)]  # exactly a ROC FAR
        else:
            far = min(max(pick, 1e-3), 1.0 - 1e-3)
        assert tar_at_far(scores, flags, far) == loop_tar_at_far(scores, flags, far)

    def test_report_reads_the_same_sweep(self):
        rng = rng_for(16)
        feats = unit_rows(rng, 40, 4)
        labels = rng.integers(0, 4, size=40)
        pairs = make_pairs(labels, rng)
        report = verification_report(feats, labels, pairs, [1e-3, 0.05, 0.5])
        scores = np.einsum("ij,ij->i", feats[pairs.index_a], feats[pairs.index_b])
        assert report.roc == loop_roc_points(scores, pairs.is_match)
        for far in (1e-3, 0.05, 0.5):
            assert report.tar_at[far] == loop_tar_at_far(scores, pairs.is_match, far)


def test_zero_embedding_row_is_named():
    # a zero row has no direction: its cosines would be NaN, not a score
    rng = rng_for(19)
    feats = rng.standard_normal((20, 4))
    feats[[3, 11]] = 0.0
    labels = rng.integers(0, 3, size=20)
    with pytest.raises(DegenerateInputError, match="embedding row 3 "):
        verification_report(feats, labels, make_pairs(labels, rng), [0.1])
    with pytest.raises(DegenerateInputError, match="embedding row 3 "):
        cluster_stats(feats, labels)
    with pytest.raises(DegenerateInputError, match="embedding row 3 "):
        angular_projection(feats, labels)


class TestClusterStats:
    def test_tight_orthogonal_classes(self):
        feats = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 1.0, 0]])
        intra, inter = cluster_stats(feats, [0, 0, 1, 1])
        assert intra == pytest.approx(1.0, abs=1e-12)
        assert inter == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_classes(self):
        feats = np.array([[1.0, 0], [1.0, 0], [-1.0, 0], [-1.0, 0]])
        _, inter = cluster_stats(feats, [0, 0, 1, 1])
        assert inter == pytest.approx(-1.0, abs=1e-12)

    def test_random_labels_near_zero(self):
        rng = rng_for(4)
        feats = unit_rows(rng, 4000, 64)
        labels = rng.integers(0, 8, size=4000)
        intra, inter = cluster_stats(feats, labels)
        assert abs(intra) < 0.01
        assert abs(inter) < 0.15  # only 28 centroid pairs, wider bound

    def test_rotation_invariance(self):
        rng = rng_for(5)
        feats = unit_rows(rng, 60, 10)
        labels = rng.integers(0, 5, size=60)
        q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        a = cluster_stats(feats, labels)
        b = cluster_stats(feats @ q, labels)
        assert abs(a[0] - b[0]) < 1e-9
        assert abs(a[1] - b[1]) < 1e-9

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            cluster_stats(np.eye(3), [0, 0, 0])  # single class
        with pytest.raises(DegenerateInputError):
            cluster_stats(np.eye(3), [0, 1, 2])  # no class with two samples


class TestAngularProjection:
    def test_sample_on_first_reference(self):
        feats = np.vstack([np.eye(4)[0], unit_rows(rng_for(6), 5, 4)])
        labels = np.arange(6)
        proj = angular_projection(feats, labels, ref_policy="axes")
        assert proj.points[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert proj.points[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_sample(self):
        feats = np.vstack([-np.eye(4)[0], unit_rows(rng_for(7), 3, 4)])
        proj = angular_projection(feats, np.arange(4), ref_policy="axes")
        assert proj.points[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_coordinates_in_range(self):
        rng = rng_for(8)
        feats = unit_rows(rng, 50, 6)
        proj = angular_projection(feats, rng.integers(0, 4, size=50))
        coords = proj.points[:, :2]
        assert coords.min() >= 0.0 and coords.max() <= 2.0

    def test_pca_references_orthonormal(self):
        rng = rng_for(9)
        feats = unit_rows(rng, 40, 5)
        proj = angular_projection(feats, np.zeros(40, dtype=int))
        gram = proj.references @ proj.references.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)

    def test_rank_deficient_rejected(self):
        feats = np.tile(np.eye(4)[0], (10, 1))
        with pytest.raises(DomainError):
            angular_projection(feats, np.zeros(10, dtype=int))

    def test_unknown_policy(self):
        with pytest.raises(DomainError):
            angular_projection(np.eye(3), [0, 1, 2], ref_policy="tsne")


def loop_pairs_file(labels, rng, max_genuine=None, max_impostor=None):
    """The pairs file as the per-pair ``make_pairs`` and the line-by-line
    ``write_pairs`` built it."""
    iu = np.triu_indices(labels.shape[0], k=1)
    match = labels[iu[0]] == labels[iu[1]]
    genuine, impostor = np.flatnonzero(match), np.flatnonzero(~match)
    if max_genuine is not None and genuine.size > max_genuine:
        genuine = np.sort(rng.choice(genuine, size=max_genuine, replace=False))
    if max_impostor is not None and impostor.size > max_impostor:
        impostor = np.sort(rng.choice(impostor, size=max_impostor, replace=False))
    lines = ["id_a,id_b,is_match"]
    for rows, flag in ((genuine, 1), (impostor, 0)):
        lines += [f"{int(iu[0][k])},{int(iu[1][k])},{flag}" for k in rows]
    return ("\n".join(lines) + "\n").encode()


class TestVerificationPairs:
    @pytest.mark.parametrize("index_a, index_b, is_match", [
        ([3], [3], [True]),
        ([0, 5], [1, 5], [True, False]),
        ([-1], [2], [False]),
        ([0], [-2], [False]),
        ([0, 1], [1], [True, False]),
        ([0], [1], [True, False]),
        ([[0, 1]], [[2, 3]], [[True, False]]),
    ], ids=["self-pair", "self-pair-second", "negative-a", "negative-b", "short-b",
            "long-flags", "not-1d"])
    def test_invalid_rows_rejected(self, index_a, index_b, is_match):
        with pytest.raises(ShapeError):
            PairSet(index_a, index_b, is_match)

    def test_rows_are_typed_read_only_copies(self):
        index_a = np.array([0, 1], dtype=np.int32)
        pairs = PairSet(index_a, [2, 3], [1, 0])
        assert len(pairs) == 2
        assert (pairs.index_a.dtype, pairs.index_b.dtype, pairs.is_match.dtype) == (
            np.int64, np.int64, bool)
        index_a[0] = 7
        assert pairs.index_a.tolist() == [0, 1]
        with pytest.raises(ValueError):
            pairs.is_match[0] = False

    def test_make_pairs_counts(self):
        labels = np.array([0, 0, 0, 1, 1])
        pairs = make_pairs(labels, rng_for(10))
        assert int(pairs.is_match.sum()) == 3 + 1
        assert int((~pairs.is_match).sum()) == 6
        pairs_capped = make_pairs(labels, rng_for(10), max_genuine=2, max_impostor=3)
        assert int(pairs_capped.is_match.sum()) == 2
        assert int((~pairs_capped.is_match).sum()) == 3

    @pytest.mark.parametrize("caps", [(None, None), (7, 50), (1000, 3)])
    def test_pairs_file_bytes_match_the_per_pair_writer(self, tmp_path, caps):
        labels = rng_for(17).integers(0, 5, size=40)
        path = tmp_path / "pairs.csv"
        write_pairs(path, make_pairs(labels, rng_for(18), *caps))
        assert path.read_bytes() == loop_pairs_file(labels, rng_for(18), *caps)

    def test_report_end_to_end(self):
        rng = rng_for(11)
        centers = unit_rows(rng, 3, 8)
        feats = np.vstack([
            unit_rows(rng, 10, 8) * 0.05 + centers[i] for i in range(3)
        ])
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        labels = np.repeat(np.arange(3), 10)
        report = verification_report(feats, labels, make_pairs(labels, rng), [1e-1, 1e-2])
        assert report.sample_count == 30
        assert 0.0 <= report.tar_at[0.01] <= report.tar_at[0.1] <= 1.0
        assert report.intra_mean_cos > report.inter_mean_cos


# Field values for the pair-table fuzz: what ``int()`` accepts beyond plain
# digits (signs, padding, underscores, non-ASCII digits), out-of-range values,
# and non-integers.
PAIR_FIELDS = ["0", "1", "2", "7", "-1", " 3", "+4", "1_0", "\u0661", "01",
               "9223372036854775807", "9223372036854775808", "-9223372036854775809",
               "2", "x", "", "1.0", "1e3"]


def oracle_read_pairs(path):
    """``read_pairs`` as the line-by-line loop it was before the one-pass
    parse; the fuzz test's oracle."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines or lines[0].strip() != "id_a,id_b,is_match":
        raise FileFormatError(f"{path}: expected header 'id_a,id_b,is_match'")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise FileFormatError(f"{path}:{lineno}: expected three comma-separated fields")
        try:
            a, b, flag = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: non-integer field") from exc
        if flag not in (0, 1):
            raise FileFormatError(f"{path}:{lineno}: is_match must be 0 or 1")
        if a == b or min(a, b) < 0 or max(a, b) >= 2**63:
            raise FileFormatError(f"{path}:{lineno}: need two distinct indices in [0, 2**63)")
        rows.append((a, b, flag))
    return PairSet(*np.array(rows, dtype=np.int64).reshape(-1, 3).T)


class TestFileFormats:
    def test_embedding_round_trip_bit_identical(self, tmp_path):
        rng = rng_for(12)
        feats = rng.standard_normal((20, 8)).astype(np.float32)
        labels = rng.integers(0, 5, size=20)
        path = tmp_path / "e.lvem"
        write_embeddings(path, feats, labels)
        got_feats, got_labels = read_embeddings(path)
        assert got_feats.tobytes() == feats.tobytes()
        np.testing.assert_array_equal(got_labels, labels)
        assert path.read_bytes()[:4] == b"LVEM"

    def test_embedding_header_mismatch(self, tmp_path):
        path = tmp_path / "e.lvem"
        write_embeddings(path, np.zeros((2, 3), np.float32), np.zeros(2, np.int64))
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(FileFormatError):
            read_embeddings(path)

    def test_image_round_trip(self, tmp_path):
        rng = rng_for(13)
        images = rng.uniform(size=(4, 6, 6, 2)).astype(np.float32)
        labels = np.arange(4)
        path = tmp_path / "d.lvim"
        write_images(path, images, labels)
        got_images, got_labels = read_images(path)
        assert got_images.tobytes() == images.tobytes()
        np.testing.assert_array_equal(got_labels, labels)

    def test_pairs_round_trip(self, tmp_path):
        pairs = PairSet([0, 0], [1, 2], [True, False])
        path = tmp_path / "pairs.csv"
        write_pairs(path, pairs)
        got = read_pairs(path)
        for name in ("index_a", "index_b", "is_match"):
            assert getattr(got, name).dtype == getattr(pairs, name).dtype
            np.testing.assert_array_equal(getattr(got, name), getattr(pairs, name))
        assert path.read_text().splitlines()[0] == "id_a,id_b,is_match"

    def test_pairs_bad_header(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("a,b,c\n1,2,1\n")
        with pytest.raises(FileFormatError):
            read_pairs(path)

    @pytest.mark.parametrize("reader, magic", [(read_embeddings, b"LVEM"), (read_images, b"LVIM")])
    def test_header_shorter_than_its_fields(self, tmp_path, reader, magic):
        path = tmp_path / "short.bin"
        path.write_bytes(magic + b"\x01\x00")  # 6 bytes: magic, half a version
        with pytest.raises(FileFormatError):
            reader(path)

    def test_pairs_not_utf8(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_bytes(b"id_a,id_b,is_match\n0,\xff1,1\n")
        with pytest.raises(FileFormatError):
            read_pairs(path)

    @pytest.mark.parametrize("line", ["3,3,1", "-1,2,0", "1,-2,0", "0,9223372036854775808,0"])
    def test_pairs_invalid_pair(self, tmp_path, line):
        path = tmp_path / "pairs.csv"
        path.write_text(f"id_a,id_b,is_match\n0,1,1\n\n{line}\n")
        with pytest.raises(FileFormatError, match=r"pairs\.csv:4: "):
            read_pairs(path)

    @pytest.mark.parametrize("line, what", [
        ("0,1", "expected three comma-separated fields"),
        ("0,1,1,1", "expected three comma-separated fields"),
        ("0,x,1", "non-integer field"),
        ("0,1,", "non-integer field"),
        ("0,1,2", "is_match must be 0 or 1"),
    ])
    def test_pairs_bad_row_names_its_line(self, tmp_path, line, what):
        path = tmp_path / "pairs.csv"
        path.write_text(f"id_a,id_b,is_match\n0,1,1\n\n{line}\n2,3,0\n")
        with pytest.raises(FileFormatError, match=rf"pairs\.csv:4: {what}"):
            read_pairs(path)

    def test_pairs_header_only(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("id_a,id_b,is_match\n\n")
        got = read_pairs(path)
        assert got.index_a.shape == (0,) and got.index_a.dtype == np.int64

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.one_of(
        st.lists(st.sampled_from(PAIR_FIELDS), min_size=1, max_size=5).map(",".join),
        st.sampled_from(["", "  ", "\t"]),
    ), max_size=8))
    @example(rows=["0,1,1,1", "2,3"])
    @example(rows=["0,1", "2,3,1,1", "4,5,0"])
    def test_pairs_match_line_loop(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("pairs") / "p.csv"
        path.write_text("id_a,id_b,is_match\n" + "\n".join(rows), encoding="utf-8")
        try:
            expected = oracle_read_pairs(path)
        except FileFormatError as exc:
            with pytest.raises(FileFormatError) as got:
                read_pairs(path)
            assert str(got.value) == str(exc)
            return
        got = read_pairs(path)
        for name in ("index_a", "index_b", "is_match"):
            assert getattr(got, name).dtype == getattr(expected, name).dtype
            np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))

    def test_projection_csv(self, tmp_path):
        rng = rng_for(14)
        feats = unit_rows(rng, 10, 4)
        proj = angular_projection(feats, rng.integers(0, 3, size=10))
        path = tmp_path / "proj.csv"
        write_projection(path, proj)
        lines = path.read_text().splitlines()
        assert lines[0] == "coord1,coord2,label"
        assert len(lines) == 11
        rows = np.array([line.split(",") for line in lines[1:]], dtype=np.float64)
        assert rows.tobytes() == proj.points.tobytes()

    @pytest.mark.parametrize("kind", ["embeddings", "images", "pairs", "projection",
                                      "checkpoint"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, kind):
        write, old, new = _two_writes(kind)
        path = tmp_path / "artifact"
        write(path, old)
        before = path.read_bytes()
        with monkeypatch.context() as patched:
            patched.setattr(builtins, "open", _DiskFull)
            with pytest.raises(OSError):
                write(path, new)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        write(path, new)
        assert path.read_bytes() != before
        assert list(tmp_path.iterdir()) == [path]


_open = builtins.open


class _DiskFull:
    """A file that keeps half of its first write, then fails as a full disk does."""

    def __init__(self, *args, **kwargs):
        self._fh = _open(*args, **kwargs)

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _two_writes(kind):
    """A writer taking (path, value) and two values that give different files."""
    rng = rng_for(19)
    if kind == "embeddings":
        return (lambda p, x: write_embeddings(p, x, np.arange(3)),
                rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
    if kind == "images":
        return (lambda p, x: write_images(p, x, np.arange(2)),
                rng.uniform(size=(2, 2, 2, 1)), rng.uniform(size=(2, 2, 2, 1)))
    if kind == "pairs":
        return write_pairs, PairSet([0], [1], [True]), PairSet([0, 2], [1, 3], [True, False])
    if kind == "projection":
        feats = unit_rows(rng, 6, 3)
        return (write_projection, angular_projection(feats, np.arange(6)),
                angular_projection(feats, np.arange(6), ref_policy="axes"))
    data = Dataset(unit_rows(rng, 8, 4), np.arange(8) % 2, num_classes=2)
    ckpts = [train(TrainConfig(seed=seed, max_iterations=1, batch_size=4), data,
                   MLPEncoder(4, 8, 4))[0] for seed in (0, 1)]
    return (save_checkpoint, *ckpts)


@functools.lru_cache(maxsize=1)
def _small_checkpoint():
    data = Dataset(unit_rows(rng_for(20), 8, 4), np.arange(8) % 2, num_classes=2)
    return train(TrainConfig(seed=0, max_iterations=1, batch_size=4), data, MLPEncoder(4, 8, 4))[0]


def _valid_files(tmp_path) -> dict:
    """One small valid file per reader, as (reader, bytes)."""
    rng = rng_for(15)
    write_embeddings(tmp_path / "e.lvem", rng.standard_normal((3, 2)), np.arange(3))
    write_images(tmp_path / "i.lvim", rng.uniform(size=(2, 2, 2, 1)), np.arange(2))
    write_pairs(tmp_path / "p.csv", PairSet([0, 2], [1, 10], [True, False]))
    save_checkpoint(tmp_path / "c.lvpc", _small_checkpoint())
    return {
        "embeddings": (read_embeddings, (tmp_path / "e.lvem").read_bytes()),
        "images": (read_images, (tmp_path / "i.lvim").read_bytes()),
        "pairs": (read_pairs, (tmp_path / "p.csv").read_bytes()),
        "checkpoint": (load_checkpoint, (tmp_path / "c.lvpc").read_bytes()),
    }


class TestReaderFuzz:
    """Every truncation and byte corruption of a valid file either loads or
    raises ``FileFormatError``; nothing else escapes a reader."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["embeddings", "images", "pairs", "checkpoint"]),
        cut=st.floats(0.0, 1.0),
        flips=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 255)), max_size=4),
    )
    def test_corrupt_file_loads_or_raises_format_error(self, tmp_path_factory, kind, cut, flips):
        tmp_path = tmp_path_factory.mktemp("fuzz")
        reader, blob = _valid_files(tmp_path)[kind]
        data = bytearray(blob[: int(cut * len(blob))])
        for where, value in flips:
            if data:
                data[min(int(where * len(data)), len(data) - 1)] = value
        path = tmp_path / "corrupt"
        path.write_bytes(bytes(data))
        try:
            reader(path)
        except FileFormatError:
            pass

    @pytest.mark.parametrize("kind", ["embeddings", "images", "pairs", "checkpoint"])
    def test_every_truncation(self, tmp_path, kind):
        reader, blob = _valid_files(tmp_path)[kind]
        path = tmp_path / "cut"
        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            try:
                reader(path)
            except FileFormatError:
                pass
