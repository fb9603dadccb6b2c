"""Command-line surface.

Commands: train, export, eval, project, grad-check, gen-data. Exit code 0 on
success, 1 on validation problems (bad arguments, malformed files, protocol
errors), 2 on numeric failures (non-finite values, failed gradient checks).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .config import TrainConfig, get_float, get_int, get_str, parse_kv_file
from .data import (
    Dataset,
    ImageClassSpec,
    SphereClusterSpec,
    gen_image_dataset,
    gen_sphere_dataset,
)
from .encoders import build_encoder
from .engine import embed_dataset, train
from .errors import ConfigError, NumericError, SphereTrainError
from .evaluate import angular_projection, make_pairs, verification_report
from .fileio import (
    EMB_MAGIC,
    IMG_MAGIC,
    atomic_write,
    read_embeddings,
    read_images,
    read_pairs,
    write_embeddings,
    write_images,
    write_pairs,
    write_projection,
)
from .gradcheck import run_suite


def build_dataset(mapping: dict[str, str], default_seed: int) -> Dataset:
    """Materialize the dataset a config mapping describes: the split selected
    by the ``split`` key (default ``all``; image datasets also offer ``train``
    and ``eval``)."""
    kind = get_str(mapping, "dataset")
    seed = get_int(mapping, "data_seed", default_seed)
    split = get_str(mapping, "split", "all")
    if kind == "sphere":
        spec = SphereClusterSpec(
            num_classes=get_int(mapping, "num_classes"),
            dim=get_int(mapping, "dim"),
            kappa=get_float(mapping, "kappa"),
            samples_per_class=get_int(mapping, "samples_per_class"),
            seed=seed,
            distribution=get_str(mapping, "distribution", "vmf"),
        )
        return gen_sphere_dataset(spec)
    if kind == "images":
        spec = ImageClassSpec(
            num_classes=get_int(mapping, "num_classes"),
            image_width=get_int(mapping, "image_width"),
            samples_per_class=get_int(mapping, "samples_per_class"),
            channels=get_int(mapping, "channels", 1),
            noise_amplitude=get_float(mapping, "noise", 0.05),
            jitter=get_int(mapping, "jitter", 1),
            eval_fraction=get_float(mapping, "eval_fraction", 0.25),
            seed=seed,
        )
        image_ds = gen_image_dataset(spec)
        views = {
            "all": image_ds.full_view,
            "train": image_ds.train_view,
            "eval": image_ds.eval_view,
        }
        if split not in views:
            raise ConfigError(f"unknown split {split!r}; pick all, train or eval")
        return views[split]()
    if kind == "file":
        path = Path(get_str(mapping, "path"))
        with open(path, "rb") as fh:
            magic = fh.read(4)
        num_classes = get_int(mapping, "num_classes", 0)
        if magic == EMB_MAGIC:
            features, labels = read_embeddings(path)
            inputs = features.astype(np.float64)
        elif magic == IMG_MAGIC:
            images, labels = read_images(path)
            inputs = images.astype(np.float64)
        else:
            raise ConfigError(f"{path}: unrecognized dataset file magic {magic!r}")
        if not num_classes:
            num_classes = int(labels.max()) + 1
        return Dataset(inputs=inputs, labels=labels, num_classes=num_classes)
    raise ConfigError(f"unknown dataset kind {kind!r}; pick sphere, images or file")


def build_encoder_from_mapping(mapping: dict[str, str], dataset: Dataset):
    """The encoder the config keys describe, sized to the dataset's inputs."""
    kind = get_str(mapping, "encoder")
    if kind == "mlp":
        if dataset.inputs.ndim != 2:
            raise ConfigError("the mlp encoder needs vector inputs (sphere or embedding data)")
        arch = {"input_dim": dataset.inputs.shape[1],
                "hidden_dim": get_int(mapping, "mlp_hidden", 64)}
    elif kind == "vit":
        if dataset.inputs.ndim != 4:
            raise ConfigError("the vit encoder needs image inputs")
        arch = {key: get_int(mapping, key)
                for key in ("patch_stride", "token_dim", "layers", "heads")}
        arch.update(image_width=dataset.inputs.shape[1], channels=dataset.inputs.shape[3])
        for key in ("ffn_hidden", "head_hidden"):
            if get_int(mapping, key, 0):  # 0 or absent: the default width
                arch[key] = get_int(mapping, key)
    else:
        raise ConfigError(f"unknown encoder kind {kind!r}; pick mlp or vit")
    return build_encoder({"kind": kind, "embed_dim": get_int(mapping, "embed_dim", 32), **arch})


def _cmd_train(args) -> int:
    mapping = parse_kv_file(args.config)
    resume_ckpt = None
    if args.resume:
        resume_ckpt = load_checkpoint(args.resume)
        merged = dict(resume_ckpt.config)
        for key in ("max_iterations", "log_path", "checkpoint_path"):
            if key in mapping:
                merged[key] = mapping[key]
        mapping = merged
    cfg = TrainConfig.from_mapping(mapping)
    split = get_str(mapping, "split", "train" if mapping.get("dataset") == "images" else "all")
    mapping = {**mapping, "split": split}
    dataset = build_dataset(mapping, cfg.seed)
    if resume_ckpt is not None:
        encoder = build_encoder(resume_ckpt.encoder_arch)
    else:
        encoder = build_encoder_from_mapping(mapping, dataset)
    log_path = get_str(mapping, "log_path", "train_log.csv")
    ckpt_path = get_str(mapping, "checkpoint_path", "model.lvpc")
    ckpt, rows = train(
        cfg,
        dataset,
        encoder,
        log_path=log_path,
        checkpoint_path=ckpt_path,
        resume=resume_ckpt,
        config_mapping=mapping,
    )
    last = rows[-1] if rows else None
    if last is not None:
        print(
            f"trained to iteration {last.iteration} (phase {last.phase}, "
            f"loss {last.loss:.6f}); log: {log_path}, checkpoint: {ckpt_path}"
        )
    else:
        print(f"nothing to do; checkpoint already at iteration {ckpt.stage.iteration}")
    return 0


def _cmd_export(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    encoder = build_encoder(ckpt.encoder_arch)
    encoder.restore(ckpt.encoder_arrays)
    mapping = parse_kv_file(args.data)
    dataset = build_dataset(mapping, get_int(mapping, "data_seed", 0))
    features = embed_dataset(encoder, dataset.inputs)
    write_embeddings(args.out, features, dataset.labels)
    print(f"wrote {dataset.size} embeddings of dim {features.shape[1]} to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    features, labels = read_embeddings(args.emb)
    pairs = read_pairs(args.pairs)
    try:
        fars = [float(v) for v in args.far.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"bad --far list {args.far!r}") from exc
    if not fars:
        raise ConfigError("--far needs at least one target")
    report = verification_report(features.astype(np.float64), labels, pairs, fars)
    lines = ["metric,value"]
    for far in fars:
        lines.append(f"tar@far={far:g},{report.tar_at[far]!r}")
    lines.append(f"intra_mean_cos,{report.intra_mean_cos!r}")
    lines.append(f"inter_mean_cos,{report.inter_mean_cos!r}")
    lines.append(f"sample_count,{report.sample_count}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(f"{text}\n".encode())
    return 0


def _cmd_project(args) -> int:
    features, labels = read_embeddings(args.emb)
    projection = angular_projection(features.astype(np.float64), labels, ref_policy=args.refs)
    write_projection(args.out, projection)
    print(f"wrote {projection.points.shape[0]} projected points to {args.out}")
    return 0


def _cmd_grad_check(args) -> int:
    results = run_suite(args.module, seed=args.seed)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name}: max_rel_err={res.max_rel_err:.3e} tol={res.tolerance:g} {status}")
        failed += not res.passed
    if failed:
        raise NumericError(f"{failed} gradient check(s) exceeded tolerance")
    return 0


def _cmd_gen_data(args) -> int:
    mapping = parse_kv_file(args.spec)
    caps = {key: get_int(mapping, f"pairs_{key}", 0) for key in ("genuine", "impostor")}
    for key, cap in caps.items():
        if cap < 0:
            raise ConfigError(f"'pairs_{key}' must be nonnegative, got {cap}")
    dataset = build_dataset(mapping, get_int(mapping, "data_seed", 0))
    if dataset.inputs.ndim == 2:
        write_embeddings(args.out, dataset.inputs, dataset.labels)
    else:
        write_images(args.out, dataset.inputs, dataset.labels)
    print(f"wrote {dataset.size} samples to {args.out}")
    pairs_out = mapping.get("pairs_out")
    if pairs_out:
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([get_int(mapping, "data_seed", 0), 7]))
        )
        pairs = make_pairs(dataset.labels, rng, max_genuine=caps["genuine"] or None,
                           max_impostor=caps["impostor"] or None)
        write_pairs(pairs_out, pairs)
        print(f"wrote {len(pairs)} verification pairs to {pairs_out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spheretrain",
        description="staged angular-margin embedding training and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the staged training loop")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("export", help="embed a dataset with a trained checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="dataset spec file")
    p.add_argument("--out", required=True, help="embedding file to write")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("eval", help="verification metrics for an embedding file")
    p.add_argument("--emb", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--far", default="1e-2,1e-3", help="comma-separated FAR targets")
    p.add_argument("--out", help="also write the report CSV here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("project", help="2-D angular projection of an embedding file")
    p.add_argument("--emb", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--refs", default="pca", choices=("pca", "axes"))
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("grad-check", help="finite-difference gradient suites")
    p.add_argument("--module", default="all", help="tensor, losses, encoders or all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    p.add_argument("--spec", required=True, help="dataset spec file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (SphereTrainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
