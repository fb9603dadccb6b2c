import numpy as np
import pytest

from spheretrain.checkpoint import (
    Checkpoint,
    FORMAT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from spheretrain.config import TrainConfig, get_float, get_int, get_str, parse_kv_file
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
            lambda b: b[:20] + b"\xff" + b[21:],  # non-UTF-8 encoder header
            lambda b: b[:20] + b"!" + b[21:],  # encoder header is not JSON
            lambda b: b.replace(b'"meta"', b'"mexa"', 1),
            lambda b: b.replace(b'"arrays"', b'"arrayz"', 1),
            lambda b: b.replace(b'"arch"', b'"arcx"', 1),
            lambda b: b.replace(b'"stabilization"', b'"stabilizatiox"', 1),
            lambda b: b.replace(b'"logistic"', b'"logistix"', 1),
            lambda b: b.replace(b'"Philox"', b'"Philoy"', 1),
        ],
        ids=["non-utf8", "not-json", "no-meta", "no-arrays", "no-arch", "unknown-phase",
             "unknown-activation", "foreign-rng-state"],
    )
    def test_corrupt_header_rejected(self, tmp_path, corrupt):
        p = tmp_path / "model.lvpc"
        save_checkpoint(p, toy_checkpoint(6))
        blob = p.read_bytes()
        p.write_bytes(corrupt(blob))
        assert p.read_bytes() != blob
        with pytest.raises(FileFormatError):
            load_checkpoint(p)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_version_rejected_by_name(self, tmp_path, version):
        # version 1 named the ViT attention parameters per head; version 2 kept
        # a moment pair and a step count per encoder parameter
        ckpt = toy_checkpoint(8)
        ckpt.version = version
        p = tmp_path / "old.lvpc"
        save_checkpoint(p, ckpt)
        with pytest.raises(FileFormatError, match=f"version {version}"):
            load_checkpoint(p)

    def test_magic_literal(self, tmp_path):
        p = tmp_path / "model.lvpc"
        save_checkpoint(p, toy_checkpoint(7))
        head = p.read_bytes()[:8]
        assert head[:4] == b"LVPC"
        assert int.from_bytes(head[4:8], "little") == FORMAT_VERSION
