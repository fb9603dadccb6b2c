import hashlib
import io
import os
import resource
import stat
import struct
import subprocess
import sys
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest

import spheretrain
from spheretrain.checkpoint import load_checkpoint, save_checkpoint
from spheretrain.cli import build_dataset, main
from spheretrain.evaluate import make_pairs
from spheretrain.fileio import (
    read_embeddings,
    read_images,
    read_pairs,
    write_embeddings,
    write_pairs,
)


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture()
def sphere_train_config(tmp_path):
    return write(
        tmp_path / "train.cfg",
        f"""
# tiny sphere run
dataset = sphere
num_classes = 6
dim = 12
kappa = 40
samples_per_class = 20
data_seed = 3

encoder = mlp
mlp_hidden = 24
embed_dim = 12

s = 64
m = 0.4
r = 0.5
seed = 2
max_iterations = 60
batch_size = 24
weight_decay = 0.05
log_path = {tmp_path}/run.csv
checkpoint_path = {tmp_path}/run.lvpc
""",
    )


@pytest.fixture()
def sphere_data_spec(tmp_path):
    return write(
        tmp_path / "data.cfg",
        f"""
dataset = sphere
num_classes = 6
dim = 12
kappa = 40
samples_per_class = 20
data_seed = 3
pairs_out = {tmp_path}/pairs.csv
pairs_impostor = 400
""",
    )


def damaged_member(blob: bytes, name: str, how: str) -> bytes:
    """The checkpoint archive ``blob`` with member ``name`` deflated
    ("compressed"), rewritten as an npy 2.0 file ("npy-2.0"), or stored 8
    bytes short of its array behind sizes and a CRC-32 that agree with the
    cut ("short"), each a well-formed zip archive otherwise."""
    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        members = {info.filename: zf.read(info) for info in zf.infolist()}
        info = zf.getinfo(name)
    if how == "short":
        data, out = members[name][:-8], bytearray(blob)
        central = blob.index(b"PK\x01\x02")  # this member's central directory record
        while blob[central + 46:central + 46 + len(name)] != name.encode():
            central = blob.index(b"PK\x01\x02", central + 4)
        for at in (info.header_offset + 14, central + 16):  # CRC-32, then compressed size
            struct.pack_into("<II", out, at, zlib.crc32(data), len(data))
        return bytes(out)
    if how == "npy-2.0":
        arr = np.load(io.BytesIO(members[name]))
        buf = io.BytesIO()
        np.lib.format.write_array(buf, arr, version=(2, 0))
        members[name] = buf.getvalue()
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as zf:
        for member, data in members.items():
            deflate = how == "compressed" and member == name
            zf.writestr(member, data, zipfile.ZIP_DEFLATED if deflate else zipfile.ZIP_STORED)
    return out.getvalue()


VIT_ARCH = {"kind": "vit", "image_width": 8, "patch_stride": 4, "token_dim": 8, "layers": 1,
            "heads": 2, "embed_dim": 12, "channels": 1, "ffn_hidden": 16, "head_hidden": 12}

VIT_TRAIN_CONFIG = """
dataset = images
num_classes = 3
image_width = 8
samples_per_class = 4
encoder = vit
patch_stride = 4
token_dim = 8
layers = 1
heads = 2
max_iterations = 2
batch_size = 4
log_path = {tmp}/run.csv
checkpoint_path = {tmp}/run.lvpc
"""


class TestTrainCommand:
    def test_train_writes_log_and_checkpoint(self, tmp_path, sphere_train_config, capsys):
        assert main(["train", "--config", sphere_train_config]) == 0
        log = (tmp_path / "run.csv").read_text().splitlines()
        assert log[0] == "iteration,phase,loss,css_raw,css_smoothed,lr"
        assert len(log) == 61
        ckpt = load_checkpoint(tmp_path / "run.lvpc")
        assert ckpt.stage.iteration == 60
        assert "trained to iteration 60" in capsys.readouterr().out

    def test_resume_extends_log(self, tmp_path, sphere_train_config):
        assert main(["train", "--config", sphere_train_config]) == 0
        resumed_cfg = write(
            tmp_path / "resume.cfg",
            f"max_iterations = 90\nlog_path = {tmp_path}/run.csv\n"
            f"checkpoint_path = {tmp_path}/run.lvpc\n",
        )
        assert main([
            "train", "--config", resumed_cfg,
            "--resume", str(tmp_path / "run.lvpc"),
        ]) == 0
        log = (tmp_path / "run.csv").read_text().splitlines()
        assert len(log) == 91
        assert log[61].split(",")[0] == "61"

    def test_resume_from_corrupt_checkpoint_exits_one(self, tmp_path, sphere_train_config, capsys):
        assert main(["train", "--config", sphere_train_config]) == 0
        ckpt = tmp_path / "run.lvpc"
        with zipfile.ZipFile(ckpt) as zf:  # the last byte of the classifier's array
            info = zf.getinfo("classifier.npy")
        at = info.header_offset + 30 + len(info.filename) + len(info.extra) + info.file_size - 1
        blob = bytearray(ckpt.read_bytes())
        blob[at] ^= 0xFF
        ckpt.write_bytes(blob)
        capsys.readouterr()
        assert main(["train", "--config", sphere_train_config, "--resume", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Bad CRC-32 for file 'classifier.npy'" in err

    @pytest.mark.parametrize("version", [1, 2])
    def test_resume_from_old_version_checkpoint_exits_one(self, tmp_path, sphere_train_config,
                                                          capsys, version):
        assert main(["train", "--config", sphere_train_config]) == 0
        ckpt = tmp_path / "old.lvpc"
        old = load_checkpoint(tmp_path / "run.lvpc")
        old.version = version
        save_checkpoint(ckpt, old)
        capsys.readouterr()
        assert main(["train", "--config", sphere_train_config, "--resume", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"version {version}" in err

    @pytest.mark.parametrize("how, message", [
        ("compressed", "a member is compressed"),
        ("npy-2.0", "member 'classifier.npy' is not an npy 1.0 file"),
        ("short", "member 'classifier.npy' does not hold its array"),
    ])
    def test_resume_from_a_checkpoint_with_a_bad_member_exits_one(
            self, tmp_path, sphere_train_config, capsys, how, message):
        assert main(["train", "--config", sphere_train_config]) == 0
        bad = tmp_path / "bad.lvpc"
        bad.write_bytes(damaged_member((tmp_path / "run.lvpc").read_bytes(), "classifier.npy", how))
        capsys.readouterr()
        assert main(["train", "--config", sphere_train_config, "--resume", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("corrupt", [
        lambda c: setattr(c, "prototypes", c.prototypes[:, :4]),
        lambda c: setattr(c, "prototypes_initialized", c.prototypes_initialized[:2]),
        lambda c: c.optimizer_arrays.update(
            {"classifier.m": c.optimizer_arrays["classifier.m"][:, :3]}),
        lambda c: c.optimizer_counts.pop("classifier"),
    ], ids=["prototype-columns", "prototype-flags", "classifier-moment", "missing-count"])
    def test_resume_from_a_checkpoint_that_does_not_fit_exits_one(
            self, tmp_path, sphere_train_config, capsys, corrupt):
        assert main(["train", "--config", sphere_train_config]) == 0
        ckpt = load_checkpoint(tmp_path / "run.lvpc")
        corrupt(ckpt)
        bad = tmp_path / "bad.lvpc"
        save_checkpoint(bad, ckpt)
        capsys.readouterr()
        assert main(["train", "--config", sphere_train_config, "--resume", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert len((tmp_path / "run.csv").read_text().splitlines()) == 61

    @pytest.mark.parametrize("line", ["learning_rate = nan", "seed = inf", "max_iterations = 1e400",
                                      "weight_decay = inf", "s = nan"])
    def test_non_finite_config_number_exits_one(self, tmp_path, sphere_train_config, capsys,
                                                line):
        bad = write(tmp_path / "bad.cfg", open(sphere_train_config).read() + line + "\n")
        assert main(["train", "--config", bad]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("line, field", [("seed = -1", "'seed'"),
                                             ("data_seed = -1", "seed"),
                                             ("mlp_hidden = 2.5", "'mlp_hidden'"),
                                             ("batch_size = 2.5", "'batch_size'")])
    def test_bad_integer_setting_exits_one(self, tmp_path, sphere_train_config, capsys, line,
                                           field):
        bad = write(tmp_path / "bad.cfg", open(sphere_train_config).read() + line + "\n")
        assert main(["train", "--config", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "run.csv").exists()

    def test_resume_with_undeclared_parameter_exits_one(self, tmp_path, sphere_train_config,
                                                        capsys):
        assert main(["train", "--config", sphere_train_config]) == 0
        ckpt = load_checkpoint(tmp_path / "run.lvpc")
        ckpt.encoder_arrays["fc0.w"] = np.zeros((2, 2))
        stale = tmp_path / "stale.lvpc"
        save_checkpoint(stale, ckpt)
        capsys.readouterr()
        assert main(["train", "--config", sphere_train_config, "--resume", str(stale)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'fc0.w'" in err

    @pytest.mark.parametrize("command", ["export", "resume"])
    @pytest.mark.parametrize("defect, field", [
        (lambda a: {k: v for k, v in a.items() if k != "hidden_dim"}, "'hidden_dim'"),
        (lambda a: {**a, "hidden_dim": "wide"}, "'hidden_dim'"),
        (lambda a: {**a, "hidden_dim": 2.5}, "'hidden_dim'"),
        (lambda a: {**a, "embed_dim": None}, "'embed_dim'"),
        (lambda a: [a["kind"], a["input_dim"]], "mapping"),
        (lambda a: {**VIT_ARCH, "patch_stride": 0}, "patch_stride"),
        (lambda a: {**VIT_ARCH, "heads": 0}, "heads"),
    ], ids=["missing", "text", "fraction", "null", "list", "zero-stride", "zero-heads"])
    def test_malformed_checkpoint_architecture_exits_one(
            self, tmp_path, sphere_train_config, sphere_data_spec, capsys, command, defect,
            field):
        assert main(["train", "--config", sphere_train_config]) == 0
        ckpt = load_checkpoint(tmp_path / "run.lvpc")
        ckpt.encoder_arch = defect(ckpt.encoder_arch)
        bad = tmp_path / "bad.lvpc"
        save_checkpoint(bad, ckpt)
        capsys.readouterr()
        if command == "export":
            argv = ["export", "--ckpt", str(bad), "--data", sphere_data_spec,
                    "--out", str(tmp_path / "emb.lvem")]
        else:
            argv = ["train", "--config", sphere_train_config, "--resume", str(bad)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "emb.lvem").exists()
        assert len((tmp_path / "run.csv").read_text().splitlines()) == 61

    @pytest.mark.parametrize("line, field", [("patch_stride = 0", "patch_stride"),
                                             ("heads = 0", "heads"),
                                             ("ffn_hidden = -3", "ffn_hidden")])
    def test_vit_size_below_one_exits_one(self, tmp_path, capsys, line, field):
        cfg = write(tmp_path / "vit.cfg", VIT_TRAIN_CONFIG.format(tmp=tmp_path) + line + "\n")
        assert main(["train", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "run.csv").exists()

    def test_vit_train_config_builds_the_described_encoder(self, tmp_path):
        cfg = write(tmp_path / "vit.cfg", VIT_TRAIN_CONFIG.format(tmp=tmp_path) + "head_hidden = 6\n")
        assert main(["train", "--config", cfg]) == 0
        assert load_checkpoint(tmp_path / "run.lvpc").encoder_arch == {
            "kind": "vit", "image_width": 8, "patch_stride": 4, "token_dim": 8, "layers": 1,
            "heads": 2, "embed_dim": 32, "channels": 1, "ffn_hidden": 32, "head_hidden": 6}

    @pytest.mark.parametrize("line", ["mlp_hidden = 10000000000000000",
                                      "embed_dim = 10000000000000000",
                                      "mlp_hidden = 1000000000000000000"],
                             ids=["hidden-2e18-bytes", "embed-2e18-bytes", "hidden-past-numpy"])
    def test_encoder_too_large_to_allocate_exits_one(self, tmp_path, sphere_train_config,
                                                     capsys, line):
        # Every size here is beyond any address space, so it fails at once.
        bad = write(tmp_path / "bad.cfg", open(sphere_train_config).read() + line + "\n")
        assert main(["train", "--config", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "does not fit in memory" in err
        assert not (tmp_path / "run.csv").exists()

    def test_export_of_an_encoder_too_large_to_allocate_exits_one(
            self, tmp_path, sphere_train_config, sphere_data_spec, capsys):
        assert main(["train", "--config", sphere_train_config]) == 0
        ckpt = load_checkpoint(tmp_path / "run.lvpc")
        ckpt.encoder_arch = {**ckpt.encoder_arch, "hidden_dim": 10**16}
        huge = tmp_path / "huge.lvpc"
        save_checkpoint(huge, ckpt)
        capsys.readouterr()
        assert main(["export", "--ckpt", str(huge), "--data", sphere_data_spec,
                     "--out", str(tmp_path / "emb.lvem")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "emb.lvem").exists()

    def test_config_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(b"\xff\xfe" + "dataset = sphere\n".encode("utf-16-le"))
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg) in err and "UTF-8" in err

    def test_missing_config_is_validation_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "absent.cfg")]) == 1

    def test_bad_config_value(self, tmp_path):
        cfg = write(tmp_path / "bad.cfg", "dataset = sphere\nr = 5.0\n")
        assert main(["train", "--config", cfg]) == 1

    def test_training_setting_out_of_range_exits_one(self, tmp_path, sphere_train_config,
                                                     capsys):
        bad = write(tmp_path / "bad.cfg", open(sphere_train_config).read() + "css_beta = 1.0\n")
        assert main(["train", "--config", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "css smoothing beta" in err
        assert not (tmp_path / "run.csv").exists()


class TestDataAndEvalCommands:
    def test_gen_data_sphere_with_pairs(self, tmp_path, sphere_data_spec):
        out = tmp_path / "data.lvem"
        assert main(["gen-data", "--spec", sphere_data_spec, "--out", str(out)]) == 0
        features, labels = read_embeddings(out)
        assert features.shape == (120, 12)
        assert np.bincount(labels).tolist() == [20] * 6
        pairs = read_pairs(tmp_path / "pairs.csv")
        assert int((~pairs.is_match).sum()) == 400

    def test_eval_of_gen_data_pairs_is_unchanged(self, tmp_path, sphere_data_spec, capsys):
        # the pairs file and report that the one-object-per-pair protocol wrote and printed
        data = tmp_path / "data.lvem"
        assert main(["gen-data", "--spec", sphere_data_spec, "--out", str(data)]) == 0
        pairs = tmp_path / "pairs.csv"
        assert hashlib.sha256(pairs.read_bytes()).hexdigest() == (
            "c00a07d2916cba862c086d12f909d06f0f77fc916d03f5a752a3c57deba233cf")
        capsys.readouterr()
        assert main(["eval", "--emb", str(data), "--pairs", str(pairs),
                     "--far", "1e-3,1e-2,1e-1,0.5"]) == 0
        assert capsys.readouterr().out == (
            "metric,value\n"
            "tar@far=0.001,0.7429824561403509\n"
            "tar@far=0.01,0.9385964912280702\n"
            "tar@far=0.1,1.0\n"
            "tar@far=0.5,1.0\n"
            "intra_mean_cos,0.7560523522743022\n"
            "inter_mean_cos,0.008789444489795814\n"
            "sample_count,120\n"
        )

    def test_eval_with_a_zero_embedding_row_exits_one(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.Philox(4))
        features = rng.standard_normal((20, 4))
        features[3] = 0.0
        labels = np.arange(20) % 4
        write_embeddings(tmp_path / "e.lvem", features, labels)
        write_pairs(tmp_path / "pairs.csv", make_pairs(labels, rng))
        assert main(["eval", "--emb", str(tmp_path / "e.lvem"),
                     "--pairs", str(tmp_path / "pairs.csv"), "--far", "0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "embedding row 3 " in captured.err

    @pytest.mark.parametrize("spec", [
        "dataset = sphere\nnum_classes = 3\ndim = 8\nsamples_per_class = 2\nkappa = nan\n",
        "dataset = sphere\nnum_classes = 3\ndim = 8\nsamples_per_class = 2\nkappa = inf\n",
        "dataset = sphere\nnum_classes = 3\ndim = 8\nsamples_per_class = 2\nkappa = 1e17\n",
        "dataset = sphere\nnum_classes = 3\ndim = 8\nkappa = 10\nsamples_per_class = -1\n",
        "dataset = sphere\nnum_classes = 3\ndim = 8\nkappa = 10\nsamples_per_class = 0\n",
        "dataset = sphere\nnum_classes = 3\ndim = 8\nkappa = 10\nsamples_per_class = 2\n"
        "pairs_out = {tmp}/pairs.csv\npairs_genuine = -5\n",
        "dataset = images\nnum_classes = 2\nimage_width = 8\nsamples_per_class = -1\n",
        "dataset = images\nnum_classes = 2\nimage_width = 8\nsamples_per_class = 0\n",
        "dataset = images\nnum_classes = 2\nimage_width = 0\nsamples_per_class = 2\n",
        "dataset = images\nnum_classes = 2\nimage_width = 8\nsamples_per_class = 2\n"
        "noise = nan\n",
        "dataset = sphere\nnum_classes = 3\ndim = 8\nkappa = 10\nsamples_per_class = 2\n"
        "data_seed = -1\n",
        "dataset = images\nnum_classes = 2\nimage_width = 8\nsamples_per_class = 2\n"
        "data_seed = -1\n",
        "dataset = images\nnum_classes = 2\nimage_width = 8\nsamples_per_class = 2\n"
        "jitter = 100000000000000000000\n",
        "dataset = images\nnum_classes = 2\nimage_width = 8\nsamples_per_class = 2\n"
        "jitter = 9\n",
        "dataset = sphere\nnum_classes = 1000000000000\ndim = 8\nkappa = 10\n"
        "samples_per_class = 2\n",
        "dataset = sphere\nnum_classes = 2147483648\ndim = 1000\nkappa = 10\n"
        "samples_per_class = 1000\n",
        "dataset = sphere\nnum_classes = 3\ndim = 8\nkappa = 10\n"
        "samples_per_class = 1000000000000000000\n",
        "dataset = images\nnum_classes = 1000000000000\nimage_width = 8\n"
        "samples_per_class = 2\n",
        "dataset = images\nnum_classes = 2147483648\nimage_width = 64\n"
        "samples_per_class = 1000\n",
    ], ids=["kappa-nan", "kappa-inf", "kappa-1e17", "sphere-negative-count",
            "sphere-zero-count", "negative-pair-cap", "images-negative-count",
            "images-zero-count", "zero-width", "noise-nan", "sphere-negative-seed",
            "images-negative-seed", "jitter-1e20", "jitter-above-width",
            "sphere-1e12-classes", "sphere-2e31-classes", "sphere-1e18-samples",
            "images-1e12-classes", "images-2e31-classes"])
    def test_gen_data_rejects_what_cannot_be_generated(self, tmp_path, spec):
        # A subprocess with a timeout, so that a spec that never finishes
        # fails this test instead of blocking the suite.
        path = write(tmp_path / "bad.cfg", spec.format(tmp=tmp_path))
        env = {**os.environ, "PYTHONPATH": str(Path(spheretrain.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "spheretrain", "gen-data", "--spec", path,
             "--out", str(tmp_path / "d.bin")],
            capture_output=True, text=True, timeout=30, env=env)
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
        assert not (tmp_path / "d.bin").exists() and not (tmp_path / "pairs.csv").exists()

    def test_gen_data_images(self, tmp_path):
        spec = write(
            tmp_path / "img.cfg",
            "dataset = images\nnum_classes = 3\nimage_width = 8\n"
            "samples_per_class = 6\nnoise = 0.02\njitter = 1\ndata_seed = 1\n",
        )
        out = tmp_path / "d.lvim"
        assert main(["gen-data", "--spec", spec, "--out", str(out)]) == 0
        images, labels = read_images(out)
        assert images.shape == (18, 8, 8, 1)

    def test_export_eval_project_pipeline(self, tmp_path, sphere_train_config,
                                          sphere_data_spec, capsys):
        assert main(["train", "--config", sphere_train_config]) == 0
        emb = tmp_path / "emb.lvem"
        assert main([
            "export", "--ckpt", str(tmp_path / "run.lvpc"),
            "--data", sphere_data_spec, "--out", str(emb),
        ]) == 0
        assert main(["gen-data", "--spec", sphere_data_spec,
                     "--out", str(tmp_path / "raw.lvem")]) == 0
        assert main([
            "eval", "--emb", str(emb), "--pairs", str(tmp_path / "pairs.csv"),
            "--far", "1e-1,1e-2", "--out", str(tmp_path / "report.csv"),
        ]) == 0
        out = capsys.readouterr().out
        assert "tar@far=0.1," in out and "intra_mean_cos," in out
        report = (tmp_path / "report.csv").read_text().splitlines()
        assert report[0] == "metric,value"

        proj = tmp_path / "proj.csv"
        assert main(["project", "--emb", str(emb), "--out", str(proj)]) == 0
        assert proj.read_text().splitlines()[0] == "coord1,coord2,label"

    def test_export_reexport_bit_identical(self, tmp_path, sphere_train_config,
                                           sphere_data_spec):
        assert main(["train", "--config", sphere_train_config]) == 0
        a, b = tmp_path / "a.lvem", tmp_path / "b.lvem"
        for out in (a, b):
            assert main([
                "export", "--ckpt", str(tmp_path / "run.lvpc"),
                "--data", sphere_data_spec, "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_eval_without_impostors_fails_validation(self, tmp_path,
                                                     sphere_train_config,
                                                     sphere_data_spec):
        assert main(["train", "--config", sphere_train_config]) == 0
        emb = tmp_path / "emb.lvem"
        assert main([
            "export", "--ckpt", str(tmp_path / "run.lvpc"),
            "--data", sphere_data_spec, "--out", str(emb),
        ]) == 0
        pairs = tmp_path / "only_genuine.csv"
        pairs.write_text("id_a,id_b,is_match\n0,1,1\n")
        assert main(["eval", "--emb", str(emb), "--pairs", str(pairs)]) == 1


    def test_eval_of_an_embedding_file_of_another_version_exits_one(self, tmp_path, capsys):
        emb, pairs = tmp_path / "emb.lvem", tmp_path / "pairs.csv"
        write_embeddings(emb, np.eye(4), np.array([0, 0, 1, 1]))
        raw = bytearray(emb.read_bytes())
        raw[4:8] = (2).to_bytes(4, "little")
        emb.write_bytes(raw)
        pairs.write_text("id_a,id_b,is_match\n0,1,1\n0,2,0\n")
        assert main(["eval", "--emb", str(emb), "--pairs", str(pairs)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unsupported embedding file version 2" in err

    def test_eval_without_genuine_pairs_exits_one(self, tmp_path, capsys):
        emb, pairs = tmp_path / "emb.lvem", tmp_path / "pairs.csv"
        write_embeddings(emb, np.eye(4), np.array([0, 0, 1, 1]))
        pairs.write_text("id_a,id_b,is_match\n0,2,0\n1,3,0\n")
        assert main(["eval", "--emb", str(emb), "--pairs", str(pairs)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no genuine pairs" in err

    @pytest.mark.parametrize("command", ["train", "eval", "gen-data"])
    def test_a_path_through_a_regular_file_exits_one(self, tmp_path, sphere_train_config,
                                                      sphere_data_spec, capsys, command):
        plain = tmp_path / "plain"
        plain.write_text("not a directory\n")
        if command == "train":
            cfg = write(tmp_path / "bad.cfg", open(sphere_train_config).read()
                        + f"log_path = {plain}/l.csv\n")
            argv = ["train", "--config", cfg]
        elif command == "eval":
            argv = ["eval", "--emb", f"{plain}/x", "--pairs", str(tmp_path / "pairs.csv")]
        else:
            argv = ["gen-data", "--spec", sphere_data_spec, "--out", f"{plain}/x.emb"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(plain) in captured.err
        assert not (tmp_path / "pairs.csv").exists() and not (tmp_path / "run.lvpc").exists()

    def test_file_dataset_is_read_once(self, tmp_path, monkeypatch):
        rng = np.random.Generator(np.random.Philox(6))
        path = tmp_path / "d.lvem"
        write_embeddings(path, rng.standard_normal((12, 4)), np.arange(12) % 3)
        reads = []
        read_bytes = Path.read_bytes

        def recording_read_bytes(self):
            reads.append(self)
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", recording_read_bytes)
        dataset = build_dataset({"dataset": "file", "path": str(path)}, 0)
        assert reads == [path]
        assert dataset.size == 12 and dataset.num_classes == 3

    def test_eval_report_write_failing_part_way_keeps_the_earlier_report(self, tmp_path,
                                                                          capsys):
        rng = np.random.Generator(np.random.Philox(5))
        labels = np.arange(40) % 4
        write_embeddings(tmp_path / "e.lvem", rng.standard_normal((40, 6)), labels)
        write_pairs(tmp_path / "pairs.csv", make_pairs(labels, rng))
        report = tmp_path / "report.csv"
        argv = ["eval", "--emb", str(tmp_path / "e.lvem"), "--pairs", str(tmp_path / "pairs.csv"),
                "--out", str(report)]
        assert main(argv + ["--far", "0.1"]) == 0
        earlier = report.read_bytes()
        capsys.readouterr()

        def limit_file_size():  # a write past 16 bytes fails with EFBIG
            resource.setrlimit(resource.RLIMIT_FSIZE, (16, resource.RLIM_INFINITY))

        env = {**os.environ, "PYTHONPATH": str(Path(spheretrain.__file__).parents[1]),
               "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run([sys.executable, "-m", "spheretrain", *argv, "--far", "0.1,0.5"],
                              capture_output=True, text=True, timeout=60, env=env,
                              preexec_fn=limit_file_size)
        assert report.read_bytes() == earlier
        assert done.returncode == 1
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.lvem", "pairs.csv", "report.csv"]


def record_durability(monkeypatch):
    """``os.fsync`` calls, each naming a regular file or a directory, and
    ``os.replace`` calls, each naming its target, in order."""
    calls = []
    fsync, replace = os.fsync, os.replace

    def recorded_fsync(fd):
        calls.append(("fsync", "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"))
        return fsync(fd)

    def recorded_replace(src, dst):
        calls.append(("replace", Path(dst).name))
        return replace(src, dst)

    monkeypatch.setattr(os, "fsync", recorded_fsync)
    monkeypatch.setattr(os, "replace", recorded_replace)
    return calls


def durable(*names):
    """Each file fsynced, then renamed over its target, then its directory fsynced."""
    return [call for name in names
            for call in (("fsync", "file"), ("replace", name), ("fsync", "dir"))]


class TestDurableWrites:
    """Every file the command line writes survives a crash right after it
    returns (Pillai et al., OSDI 2014)."""

    def test_checkpoint_embeddings_report_and_projection(self, tmp_path, monkeypatch,
                                                         sphere_train_config, sphere_data_spec):
        calls = record_durability(monkeypatch)
        assert main(["train", "--config", sphere_train_config]) == 0
        assert calls == durable("run.lvpc")
        emb = tmp_path / "emb.lvem"
        calls.clear()
        assert main(["export", "--ckpt", str(tmp_path / "run.lvpc"), "--data", sphere_data_spec,
                     "--out", str(emb)]) == 0
        assert calls == durable("emb.lvem")
        calls.clear()
        assert main(["gen-data", "--spec", sphere_data_spec,
                     "--out", str(tmp_path / "raw.lvem")]) == 0
        assert calls == durable("raw.lvem", "pairs.csv")
        calls.clear()
        assert main(["eval", "--emb", str(emb), "--pairs", str(tmp_path / "pairs.csv"),
                     "--out", str(tmp_path / "report.csv")]) == 0
        assert calls == durable("report.csv")
        calls.clear()
        assert main(["project", "--emb", str(emb), "--out", str(tmp_path / "proj.csv")]) == 0
        assert calls == durable("proj.csv")

    def test_images(self, tmp_path, monkeypatch):
        spec = write(tmp_path / "img.cfg",
                     "dataset = images\nnum_classes = 3\nimage_width = 8\nsamples_per_class = 2\n")
        calls = record_durability(monkeypatch)
        assert main(["gen-data", "--spec", spec, "--out", str(tmp_path / "d.lvim")]) == 0
        assert calls == durable("d.lvim")


class TestGradCheckCommand:
    def test_all_modules_pass(self, capsys):
        assert main(["grad-check", "--module", "all"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_module_is_validation_error(self):
        assert main(["grad-check", "--module", "granola"]) == 1

    def test_bad_arguments_exit_one(self):
        assert main(["definitely-not-a-command"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
