"""Command-line interface.

Subcommands: train, eval, pretrain, inspect, selftest. Exit codes: 0 on
success, 1 on usage errors, 2 on numerical failures.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .. import moco
from ..losses import LossConfig
from ..network import NetworkConfig
from . import checkpoint as ckpt
from .loop import config_to_meta, evaluate_checkpoint, parse_config_file, train
from .optim import NumericalError
from .selftest import run_selftest

USAGE_ERROR, NUMERIC_ERROR = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def build_parser():
    parser = _Parser(prog="hiresnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on the synthetic dataset")
    p_train.add_argument("--config", help="flat key=value network config file")
    p_train.add_argument("--data-seed", type=int, default=0)
    p_train.add_argument("--init-seed", type=int, default=0)
    p_train.add_argument("--epochs", type=int, default=10)
    p_train.add_argument("--batch-size", type=int, default=4)
    p_train.add_argument("--lr", type=float, default=3e-3)
    p_train.add_argument("--train-count", type=int, default=16)
    p_train.add_argument("--val-count", type=int, default=8)
    p_train.add_argument("--out", help="checkpoint output path")
    p_train.add_argument("--log", help="TSV loss-log path")
    p_train.add_argument("--no-augment", action="store_true")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint; metrics TSV to stdout")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--data-seed", type=int, default=0)
    p_eval.add_argument("--batch-size", type=int, default=4)
    p_eval.add_argument("--val-count", type=int, default=8)
    p_eval.add_argument("--dump-preds", metavar="DIR",
                        help="write predicted label maps as 8-bit PGM files")

    p_pre = sub.add_parser("pretrain", help="contrastive pretraining of the encoder")
    p_pre.add_argument("--queue", type=int, default=256)
    p_pre.add_argument("--momentum", type=float, default=0.999)
    p_pre.add_argument("--tau", type=float, default=0.2)
    p_pre.add_argument("--lr", type=float, default=0.03)
    p_pre.add_argument("--steps", type=int, default=300)
    p_pre.add_argument("--batch-size", type=int, default=8)
    p_pre.add_argument("--data-seed", type=int, default=0)
    p_pre.add_argument("--init-seed", type=int, default=0)
    p_pre.add_argument("--width", type=int, default=8)
    p_pre.add_argument("--out", help="encoder checkpoint output path")

    p_inspect = sub.add_parser("inspect", help="print checkpoint tensors and counts")
    p_inspect.add_argument("--ckpt", required=True)

    sub.add_parser("selftest", help="run the gradient-check and oracle suites")
    return parser


def _cmd_train(args):
    config = parse_config_file(args.config) if args.config else NetworkConfig()
    train(config, loss_config=LossConfig(), data_seed=args.data_seed,
          init_seed=args.init_seed, epochs=args.epochs, batch_size=args.batch_size,
          base_lr=args.lr, train_count=args.train_count, val_count=args.val_count,
          out_path=args.out, log_path=args.log, use_augment=not args.no_augment)
    return 0


def _cmd_eval(args):
    evaluate_checkpoint(args.ckpt, data_seed=args.data_seed,
                        batch_size=args.batch_size, val_count=args.val_count,
                        dump_dir=args.dump_preds)
    return 0


def _cmd_pretrain(args):
    from .data import SynthSpec, synth_dataset

    for name, size, least in (("batch_size", args.batch_size, 1), ("steps", args.steps, 0)):
        if size < least:
            raise ValueError(f"{name} must be at least {least}, got {size}")
    cfg = moco.PretrainConfig(width=args.width, queue_size=args.queue,
                              momentum=args.momentum, tau=args.tau, lr=args.lr,
                              image_hw=(32, 32))
    rng = np.random.default_rng(args.init_seed)
    state = moco.init_moco(cfg, rng)
    data = synth_dataset(SynthSpec(seed=args.data_seed, count=16, hw=cfg.image_hw,
                                   num_classes=4))
    images = np.concatenate([b.images for b in data])
    velocity = {}
    for step in range(args.steps):
        idx = rng.choice(len(images), size=min(args.batch_size, len(images)),
                         replace=False)
        loss = moco.moco_step(state, images[idx], rng, velocity)
        if not np.isfinite(loss):
            raise NumericalError(f"pretraining loss became non-finite at step {step}")
        if step % 50 == 0 or step == args.steps - 1:
            sys.stdout.write(f"step {step}\tloss {loss:.6f}\n")
    if args.out:
        meta = config_to_meta(cfg) | {"steps": args.steps, "encoder_only": 1}
        ckpt.save_checkpoint(state.params_q, None, meta, args.out)
    return 0


def _cmd_inspect(args):
    params, buffers, opt_entries, meta = ckpt.load_checkpoint(args.ckpt)
    total = 0
    for name, arr in params.items():
        sys.stdout.write(f"param\t{name}\t{'x'.join(map(str, arr.shape)) or 'scalar'}\n")
        total += arr.size
    for name, arr in buffers.items():
        sys.stdout.write(f"buffer\t{name}\t{'x'.join(map(str, arr.shape)) or 'scalar'}\n")
    for key in sorted(meta):
        sys.stdout.write(f"meta\t{key}\t{meta[key]}\n")
    sys.stdout.write(f"param_count\t{total}\n")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "pretrain":
            return _cmd_pretrain(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        if args.command == "selftest":
            return 0 if run_selftest(sys.stdout) else NUMERIC_ERROR
    except (OSError, ValueError, ckpt.CheckpointError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except (NumericalError, FloatingPointError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return NUMERIC_ERROR
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
