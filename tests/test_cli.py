import hashlib

import numpy as np
import pytest

from spheretrain.checkpoint import load_checkpoint, save_checkpoint
from spheretrain.cli import main
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
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:20] + b"\xff" + blob[21:])
        capsys.readouterr()
        assert main(["train", "--config", sphere_train_config, "--resume", str(ckpt)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_resume_from_version_1_checkpoint_exits_one(self, tmp_path, sphere_train_config,
                                                        capsys):
        assert main(["train", "--config", sphere_train_config]) == 0
        ckpt = tmp_path / "old.lvpc"
        blob = (tmp_path / "run.lvpc").read_bytes()
        ckpt.write_bytes(blob[:4] + (1).to_bytes(4, "little") + blob[8:])
        capsys.readouterr()
        assert main(["train", "--config", sphere_train_config, "--resume", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "version 1" in err

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

    def test_missing_config_is_validation_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "absent.cfg")]) == 1

    def test_bad_config_value(self, tmp_path):
        cfg = write(tmp_path / "bad.cfg", "dataset = sphere\nr = 5.0\n")
        assert main(["train", "--config", cfg]) == 1


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
