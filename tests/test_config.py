import io
import json
import os
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheretrain.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from spheretrain.config import TrainConfig, get_float, get_int, get_str, parse_kv_file
from spheretrain.data import Dataset
from spheretrain.encoders import MLPEncoder
from spheretrain.engine import train
from spheretrain.errors import ConfigError, FileFormatError
from spheretrain.scheduler import Phase, StageState


FLOAT_FIELDS = ["s", "m", "m1", "m2", "r", "delta1", "delta2", "learning_rate", "lr_final",
                "beta1", "beta2", "weight_decay", "css_beta"]
INT_FIELDS = ["batch_size", "batch_size_late", "batch_size_switch", "seed", "max_iterations",
              "lr_decay_iterations"]


class TestParseKvFile:
    def test_basic_parsing(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text(
            "# training setup\n"
            "\n"
            "s = 64\n"
            "learning_rate = 1e-3\n"
            "dataset = sphere\n"
            "name = has = equals\n"
        )
        mapping = parse_kv_file(p)
        assert mapping["s"] == "64"
        assert mapping["learning_rate"] == "1e-3"
        assert mapping["name"] == "has = equals"

    def test_later_keys_override(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("a = 1\na = 2\n")
        assert parse_kv_file(p)["a"] == "2"

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("justaword\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_kv_file(p)

    def test_typed_getters(self):
        mapping = {"a": "3", "b": "0.5", "c": "text"}
        assert get_int(mapping, "a") == 3
        assert get_float(mapping, "b") == 0.5
        assert get_str(mapping, "c") == "text"
        assert get_int(mapping, "missing", 9) == 9
        with pytest.raises(ConfigError):
            get_int(mapping, "c")
        with pytest.raises(ConfigError):
            get_float(mapping, "missing")


class TestTrainConfig:
    def test_defaults_match_documented_recipe(self):
        cfg = TrainConfig()
        assert cfg.s == 64.0
        assert cfg.m == 0.4
        assert cfg.m1 == 0.4 and cfg.m2 == 0.4
        assert cfg.r == 0.1
        assert cfg.delta1 == 0.2 and cfg.delta2 == 0.35
        assert cfg.learning_rate == 1e-3
        assert cfg.beta1 == 0.9 and cfg.beta2 == 0.999
        assert cfg.weight_decay == 0.1
        assert cfg.css_beta == 0.9

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(r=0.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(delta1=0.5, delta2=0.4).validate()
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1.0).validate()
        TrainConfig(delta1=1.0, delta2=1.0).validate()  # unreachable thresholds allowed

    def test_lr_schedule(self):
        cfg = TrainConfig(learning_rate=1.0, lr_final=0.0, max_iterations=101)
        assert cfg.lr_at(1) == 1.0
        assert cfg.lr_at(101) == 0.0
        assert cfg.lr_at(51) == pytest.approx(0.5)
        constant = TrainConfig(learning_rate=0.3, max_iterations=10)
        assert constant.lr_at(7) == 0.3

    def test_batch_schedule(self):
        cfg = TrainConfig(batch_size=384, batch_size_late=128, batch_size_switch=60)
        assert cfg.batch_size_at(60) == 384
        assert cfg.batch_size_at(61) == 128
        off = TrainConfig(batch_size=32)
        assert off.batch_size_at(10_000) == 32

    def test_mapping_round_trip(self):
        cfg = TrainConfig(s=16.0, m=0.2, r=0.5, seed=11, max_iterations=77,
                          lr_final=1e-5, batch_size_late=8, batch_size_switch=40)
        again = TrainConfig.from_mapping(cfg.to_mapping())
        assert again == cfg

    def test_from_mapping_ignores_unknown_keys(self):
        cfg = TrainConfig.from_mapping({"s": "8", "dataset": "sphere"})
        assert cfg.s == 8.0

    def test_from_mapping_bad_value(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_mapping({"s": "sixty-four"})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_FIELDS)
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=repr(key)):
            TrainConfig.from_mapping({key: value})
        with pytest.raises(ConfigError, match=repr(key)):
            TrainConfig(**{key: float(value)}).validate()

    @pytest.mark.parametrize("value", ["inf", "-inf", "1e400", "nan"])
    @pytest.mark.parametrize("key", INT_FIELDS)
    def test_non_finite_integer_rejected(self, key, value):
        with pytest.raises(ConfigError, match=repr(key)):
            TrainConfig.from_mapping({key: value})

    @pytest.mark.parametrize("value", ["inf", "1e400", "nan"])
    def test_get_int_names_an_overflowing_key(self, value):
        with pytest.raises(ConfigError, match="'data_seed'"):
            get_int({"data_seed": value}, "data_seed")

    def test_integers_are_read_exactly(self):
        assert get_int({"seed": "9007199254740993"}, "seed") == 9007199254740993
        assert get_int({"seed": "-12"}, "seed") == -12
        assert get_int({"max_iterations": "1e3"}, "max_iterations") == 1000
        assert get_int({"max_iterations": "40.0"}, "max_iterations") == 40
        cfg = TrainConfig.from_mapping({"seed": "9007199254740993", "batch_size": "1e2"})
        assert cfg.seed == 9007199254740993 and cfg.batch_size == 100

    @pytest.mark.parametrize("value", ["2.5", "1e-3", "-0.5"])
    def test_a_fractional_integer_is_rejected(self, value):
        with pytest.raises(ConfigError, match="'mlp_hidden'"):
            get_int({"mlp_hidden": value}, "mlp_hidden")
        for key in INT_FIELDS:
            with pytest.raises(ConfigError, match=repr(key)):
                TrainConfig.from_mapping({key: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="'seed'"):
            TrainConfig(seed=-1).validate()


def toy_checkpoint(seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    rng.standard_normal(10)  # advance so the state is nontrivial
    return Checkpoint(
        encoder_arch={"kind": "mlp", "input_dim": 3, "hidden_dim": 4, "embed_dim": 5},
        encoder_arrays={
            "fc1.w": rng.standard_normal((3, 4)),
            "fc1.b": rng.standard_normal(4),
            "fc2.w": rng.standard_normal((4, 5)),
            "fc2.b": rng.standard_normal(5),
        },
        classifier=rng.standard_normal((5, 7)),
        prototypes=rng.standard_normal((5, 7)),
        prototypes_initialized=np.array([True, False, True, False, True, True, False]),
        optimizer_arrays={"classifier.m": rng.standard_normal((5, 7)),
                          "classifier.v": rng.standard_normal((5, 7))},
        optimizer_counts={"classifier": 13},
        stage=StageState(phase=Phase.STABILIZATION, css_raw=0.31,
                         css_smoothed=0.2987654321, iteration=421),
        rng_state=rng.bit_generator.state,
        config={"s": "64.0", "dataset": "sphere"},
    )


def npy_bytes(arr: np.ndarray) -> bytes:
    out = io.BytesIO()
    np.lib.format.write_array(out, arr)
    return out.getvalue()


def rezipped(blob: bytes, edit) -> bytes:
    """The archive ``blob`` with its members, as a name -> bytes mapping,
    replaced by ``edit(members)``, written as a new well-formed archive."""
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as zf:
        for name, data in edit(members).items():
            zf.writestr(name, data)
    return out.getvalue()


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        ckpt = toy_checkpoint()
        path = tmp_path / "model.lvpc"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.version == FORMAT_VERSION
        assert loaded.encoder_arch == ckpt.encoder_arch
        for name, arr in ckpt.encoder_arrays.items():
            assert loaded.encoder_arrays[name].tobytes() == arr.tobytes()
        assert loaded.classifier.tobytes() == ckpt.classifier.tobytes()
        assert loaded.prototypes.tobytes() == ckpt.prototypes.tobytes()
        np.testing.assert_array_equal(
            loaded.prototypes_initialized, ckpt.prototypes_initialized
        )
        assert loaded.optimizer_counts == ckpt.optimizer_counts
        for name, arr in ckpt.optimizer_arrays.items():
            assert loaded.optimizer_arrays[name].tobytes() == arr.tobytes()
        assert loaded.stage == ckpt.stage
        assert loaded.config == ckpt.config

    def test_rng_state_round_trip_continues_stream(self, tmp_path):
        ckpt = toy_checkpoint(3)
        path = tmp_path / "model.lvpc"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        a = np.random.Generator(np.random.Philox(0))
        a.bit_generator.state = ckpt.rng_state
        b = np.random.Generator(np.random.Philox(0))
        b.bit_generator.state = loaded.rng_state
        np.testing.assert_array_equal(a.standard_normal(32), b.standard_normal(32))

    def test_save_is_deterministic(self, tmp_path):
        ckpt = toy_checkpoint(5)
        p1, p2 = tmp_path / "a.lvpc", tmp_path / "b.lvpc"
        save_checkpoint(p1, ckpt)
        save_checkpoint(p2, ckpt)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FileFormatError, match="magic"):
            load_checkpoint(p)

    def test_truncation_rejected(self, tmp_path):
        ckpt = toy_checkpoint(6)
        p = tmp_path / "model.lvpc"
        save_checkpoint(p, ckpt)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FileFormatError):
            load_checkpoint(p)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda m: {**m, "meta.json": m["meta.json"].replace(b'"arch"', b'"\xffrch"')},
            lambda m: {**m, "meta.json": b"!" + m["meta.json"][1:]},
            lambda m: {k: v for k, v in m.items() if k != "meta.json"},
            lambda m: {k: v for k, v in m.items() if k != "classifier.npy"},
            lambda m: {**m, "meta.json": m["meta.json"].replace(b'"arch"', b'"arcx"')},
            lambda m: {**m, "meta.json": m["meta.json"].replace(b'"stabilization"',
                                                                b'"stabilizatiox"')},
            lambda m: {**m, "meta.json": m["meta.json"].replace(b'"logistic"', b'"logistix"')},
            lambda m: {**m, "meta.json": m["meta.json"].replace(b'"Philox"', b'"Philoy"')},
            lambda m: {**m, "classifier.npy": npy_bytes(np.zeros((5, 7), dtype=np.float32))},
            lambda m: {**m, "prototypes_initialized.npy": npy_bytes(np.ones(7))},
            lambda m: {**m, "stray.npy": npy_bytes(np.ones(7))},
            lambda m: {**m, "encoder/fc1.w": npy_bytes(np.ones((3, 4)))},
        ],
        ids=["non-utf8", "not-json", "no-meta", "no-arrays", "no-arch", "unknown-phase",
             "unknown-activation", "foreign-rng-state", "float32-classifier", "float-flags",
             "stray-member", "member-without-suffix"],
    )
    def test_corrupt_header_rejected(self, tmp_path, corrupt):
        # well-formed archives with bad contents: each reaches the checks past
        # the members' CRCs
        p = tmp_path / "model.lvpc"
        save_checkpoint(p, toy_checkpoint(6))
        blob = p.read_bytes()
        p.write_bytes(rezipped(blob, corrupt))
        assert p.read_bytes() != blob
        with pytest.raises(FileFormatError):
            load_checkpoint(p)

    def test_rezipped_unchanged_archive_loads(self, tmp_path):
        p = tmp_path / "model.lvpc"
        save_checkpoint(p, toy_checkpoint(6))
        p.write_bytes(rezipped(p.read_bytes(), lambda m: m))
        assert load_checkpoint(p).stage == toy_checkpoint(6).stage

    @pytest.mark.parametrize("version", [1, 2, 3, 5])
    def test_old_version_rejected_by_name(self, tmp_path, version):
        # version 1 named the ViT attention parameters per head; version 2 kept
        # a moment pair and a step count per encoder parameter; version 3 was
        # the unchecksummed LVPC container
        ckpt = toy_checkpoint(8)
        ckpt.version = version
        p = tmp_path / "old.lvpc"
        save_checkpoint(p, ckpt)
        with pytest.raises(FileFormatError, match=f"version {version}"):
            load_checkpoint(p)

    def test_lvpc_file_rejected_by_its_version(self, tmp_path):
        # a format-3 file: magic, u32 version, then u64-framed sections
        p = tmp_path / "v3.lvpc"
        p.write_bytes(b"LVPC" + (3).to_bytes(4, "little") + (12).to_bytes(8, "little")
                      + b"\x08\x00\x00\x00" + b'{"meta":{}}')
        with pytest.raises(FileFormatError, match="version 3"):
            load_checkpoint(p)

    def test_magic_literal(self, tmp_path):
        p = tmp_path / "model.lvpc"
        save_checkpoint(p, toy_checkpoint(7))
        assert p.read_bytes()[:4] == MAGIC == b"PK\x03\x04"
        with zipfile.ZipFile(p) as zf:
            assert json.loads(zf.read("meta.json"))["version"] == FORMAT_VERSION
            assert zf.namelist() == ["meta.json", "classifier.npy", "encoder/fc1.b.npy",
                                     "encoder/fc1.w.npy", "encoder/fc2.b.npy",
                                     "encoder/fc2.w.npy", "optimizer/classifier.m.npy",
                                     "optimizer/classifier.v.npy", "prototypes.npy",
                                     "prototypes_initialized.npy"]
            assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}

    def test_arrays_load_with_numpy(self, tmp_path):
        ckpt = toy_checkpoint(7)
        p = tmp_path / "model.lvpc"
        save_checkpoint(p, ckpt)
        with np.load(p) as arrays:
            np.testing.assert_array_equal(arrays["classifier"], ckpt.classifier)
            np.testing.assert_array_equal(arrays["encoder/fc2.w"], ckpt.encoder_arrays["fc2.w"])
            assert arrays["prototypes_initialized"].dtype == bool

    def test_column_major_arrays_round_trip(self, tmp_path):
        ckpt = toy_checkpoint(9)
        ckpt.classifier = np.asfortranarray(ckpt.classifier)
        p = tmp_path / "model.lvpc"
        save_checkpoint(p, ckpt)
        loaded = load_checkpoint(p)
        assert loaded.classifier.flags.f_contiguous
        np.testing.assert_array_equal(loaded.classifier, ckpt.classifier)
        save_checkpoint(tmp_path / "again.lvpc", loaded)
        assert (tmp_path / "again.lvpc").read_bytes() == p.read_bytes()

    def test_save_fsyncs_before_the_rename(self, tmp_path, monkeypatch):
        calls = []

        def recorded(name):
            original = getattr(os, name)

            def call(*args):
                calls.append(name)
                return original(*args)
            return call

        for name in ("fsync", "replace"):
            monkeypatch.setattr(os, name, recorded(name))
        save_checkpoint(tmp_path / "model.lvpc", toy_checkpoint(7))
        assert calls == ["fsync", "replace"]

    def test_save_and_load_peaks_at_100k_classes(self, tmp_path):
        # the live state of a 100k-class run: column-major classifier,
        # moments and prototypes
        d, c = 32, 100_000
        block = d * c * 8
        ckpt = toy_checkpoint(10)
        ckpt.classifier = np.zeros((d, c), order="F")
        ckpt.prototypes = np.zeros((d, c), order="F")
        ckpt.prototypes_initialized = np.zeros(c, dtype=bool)
        ckpt.optimizer_arrays = {f"classifier.{k}": np.zeros((d, c), order="F") for k in "mv"}
        path = tmp_path / "big.lvpc"
        tracemalloc.start()
        try:
            save_checkpoint(path, ckpt)
            save_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del ckpt
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [loaded.classifier, loaded.prototypes, loaded.prototypes_initialized,
                  *loaded.encoder_arrays.values(), *loaded.optimizer_arrays.values()]
        assert save_peak <= block
        assert load_peak <= sum(a.nbytes for a in arrays) + 2**20
        assert loaded.classifier.flags.f_contiguous and loaded.prototypes.flags.f_contiguous


def _arrays(ckpt: Checkpoint) -> dict[str, np.ndarray]:
    return {"classifier": ckpt.classifier, "prototypes": ckpt.prototypes,
            "flags": ckpt.prototypes_initialized,
            **{f"encoder/{k}": v for k, v in ckpt.encoder_arrays.items()},
            **{f"optimizer/{k}": v for k, v in ckpt.optimizer_arrays.items()}}


def assert_same_contents(got: Checkpoint, want: Checkpoint) -> None:
    a, b = _arrays(got), _arrays(want)
    assert sorted(a) == sorted(b)
    for name in b:
        assert (a[name].dtype, a[name].shape) == (b[name].dtype, b[name].shape), name
        assert a[name].tobytes() == b[name].tobytes(), name
    assert got.optimizer_counts == want.optimizer_counts
    assert got.stage == want.stage
    assert (got.encoder_arch, got.config) == (want.encoder_arch, want.config)
    draws = []
    for state in (got.rng_state, want.rng_state):
        rng = np.random.Philox(0)
        rng.state = state
        draws.append(rng.random_raw(4).tolist())
    assert draws[0] == draws[1]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A checkpoint of a small run six iterations in, in refinement with both
    classes' prototypes set, and a directory holding it as ``c.lvpc``."""
    rng = np.random.Generator(np.random.Philox(4))
    x = rng.standard_normal((12, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    data = Dataset(x, np.arange(12) % 2, num_classes=2)
    cfg = TrainConfig(seed=0, max_iterations=6, batch_size=6, delta1=0.01, delta2=0.01)
    ckpt, rows = train(cfg, data, MLPEncoder(4, 8, 4))
    assert rows[-1].phase == "refinement" and ckpt.prototypes_initialized.all()
    workdir = tmp_path_factory.mktemp("trained")
    save_checkpoint(workdir / "c.lvpc", ckpt)
    return ckpt, workdir


class TestCheckpointCorruption:
    """A truncated checkpoint, or one with one to four flipped bits, either
    raises ``FileFormatError`` or loads the contents that were saved."""

    def test_clean_file_loads_what_was_saved(self, trained):
        ckpt, workdir = trained
        assert_same_contents(load_checkpoint(workdir / "c.lvpc"), ckpt)

    @settings(max_examples=400, deadline=None)
    @given(
        flips=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 7)),
                       min_size=1, max_size=4),
        cut=st.none() | st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_damaged_file_raises_or_loads_the_same(self, trained, flips, cut):
        ckpt, workdir = trained
        data = bytearray((workdir / "c.lvpc").read_bytes())
        for where, bit in flips:
            data[int(where * len(data))] ^= 1 << bit
        if cut is not None:
            data = data[: int(cut * len(data))]
        path = workdir / "damaged.lvpc"
        path.write_bytes(bytes(data))
        try:
            loaded = load_checkpoint(path)
        except FileFormatError:
            return
        assert_same_contents(loaded, ckpt)

    def test_central_directory_offset_flip_is_rejected(self, trained):
        # the offset's top bit sends zipfile to seek before the file's start
        _, workdir = trained
        data = bytearray((workdir / "c.lvpc").read_bytes())
        data[-22 + 19] ^= 0x80  # in the end record, the offset's high byte
        path = workdir / "offset.lvpc"
        path.write_bytes(bytes(data))
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    def _classifier_shape_at(self, blob: bytes) -> int:
        """The offset of the classifier's column count in its npy header."""
        with zipfile.ZipFile(io.BytesIO(blob)) as zf:
            start = zf.getinfo("classifier.npy").header_offset
        return blob.index(b"'shape': (4, 2)", start) + len(b"'shape': (4, ")

    def test_shape_shrinking_flip_is_rejected(self, trained):
        # one bit turns the header's (4, 2) into (4, 0): a reader that stopped
        # at the array's end would load an empty classifier
        _, workdir = trained
        data = bytearray((workdir / "c.lvpc").read_bytes())
        data[self._classifier_shape_at(bytes(data))] ^= 0x02
        path = workdir / "shrunk.lvpc"
        path.write_bytes(bytes(data))
        with pytest.raises(FileFormatError, match="CRC"):
            load_checkpoint(path)

    def test_shrunk_header_with_a_matching_crc_is_rejected(self, trained):
        # the same header in a well-formed archive: the size check catches it
        _, workdir = trained
        blob = (workdir / "c.lvpc").read_bytes()
        shrink = lambda m: {**m, "classifier.npy": m["classifier.npy"].replace(
            b"'shape': (4, 2)", b"'shape': (4, 0)")}
        path = workdir / "shrunk.lvpc"
        path.write_bytes(rezipped(blob, shrink))
        with pytest.raises(FileFormatError, match="filling it"):
            load_checkpoint(path)
