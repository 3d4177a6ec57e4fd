"""Training / evaluation loops, TSV logging, and config-file parsing.

Everything is driven by explicit integer seeds: dataset generation,
parameter init, batch order, and the edge-aware class draws each use their
own derived generator, so a (config, seeds) pair fully determines the run.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np

from .. import network
from .. import tensor as T
from ..losses import LOSS_KEYS, LossConfig, combined_loss
from ..network import NetworkConfig
from ..tensor import Tensor
from . import checkpoint as ckpt
from .data import SynthSpec, augment, class_frequencies, stack_batches, synth_dataset
from .metrics import metrics, new_confusion, update_confusion
from .optim import OptimState, Schedule, adamw_step, lr_at

LOG_COLUMNS = ("step", "lr", *LOSS_KEYS, "split")


def _parse_field(field, text):
    """Config text -> the field's value, typed after its default."""
    if isinstance(field.default, tuple):
        kind = type(field.default[0])
        return tuple(kind(part.strip()) for part in text.split(","))
    return type(field.default)(text)


def parse_config_file(path):
    """Flat key=value UTF-8 text -> NetworkConfig."""
    with open(path, encoding="utf-8") as fh:
        return config_from_overrides(ckpt.parse_key_values(fh.read(), path))


def config_from_overrides(overrides):
    fields = {f.name: f for f in dataclasses.fields(NetworkConfig)}
    kwargs = {}
    for key, value in overrides.items():
        if key not in fields:
            raise ValueError(f"unknown config key: {key}")
        kwargs[key] = _parse_field(fields[key], value)
    return NetworkConfig(**kwargs)


def config_to_meta(config):
    """One `cfg_<field>` meta entry per field of the config dataclass given."""
    return {f"cfg_{f.name}": getattr(config, f.name) for f in dataclasses.fields(config)}


def config_from_meta(meta):
    """The NetworkConfig of checkpoint meta: its `cfg_` keys, parsed as `--config` text."""
    return config_from_overrides({key[len("cfg_"):]: value for key, value in meta.items()
                                  if key.startswith("cfg_")})


def format_float(x):
    return f"{float(np.float32(x)):.9g}"


class TsvLog:
    def __init__(self, path=None):
        self.rows = []
        self.path = path
        self._fh = open(path, "w", encoding="utf-8") if path else None
        self._write("\t".join(LOG_COLUMNS))

    def _write(self, line):
        self.rows.append(line)
        if self._fh:
            self._fh.write(line + "\n")

    def log(self, step, lr, breakdown, split):
        fields = [str(step), format_float(lr)]
        fields += [format_float(breakdown[key]) for key in LOSS_KEYS]
        fields.append(split)
        self._write("\t".join(fields))

    def close(self):
        if self._fh:
            self._fh.close()
            self._fh = None

    def text(self):
        return "\n".join(self.rows) + "\n"


def metrics_table(result):
    """Stable TSV rendering of a metrics dict (shared by train and eval)."""
    lines = ["metric\tclass\tvalue"]
    for i, v in enumerate(result["iou"]):
        lines.append(f"iou\t{i}\t{format_float(v)}")
    for i, v in enumerate(result["f1"]):
        lines.append(f"f1\t{i}\t{format_float(v)}")
    lines.append(f"miou\tall\t{format_float(result['miou'])}")
    lines.append(f"mean_f1\tall\t{format_float(result['mean_f1'])}")
    lines.append(f"oa\tall\t{format_float(result['oa'])}")
    return "\n".join(lines) + "\n"


def _make_batches(dataset, batch_size, order):
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        yield stack_batches([dataset[i] for i in idx])


def evaluate_store(store, config, dataset, loss_config, batch_size=4, seed=0):
    """Eval-mode pass: fused 1:1 predictions into a confusion matrix, plus
    mean combined loss for logging."""
    cm = new_confusion(config.num_classes)
    cea_rng = np.random.default_rng(seed)
    losses = dict.fromkeys(LOSS_KEYS, 0.0)
    n_batches = 0
    for batch in _make_batches(dataset, batch_size, np.arange(len(dataset))):
        out = network.network_forward(Tensor(batch.images), store, config, training=False)
        pred = network.predict_labels(out)
        update_confusion(cm, pred, batch.labels)
        _, bd = combined_loss(out, batch.labels, loss_config, cea_rng)
        for key in losses:
            losses[key] += bd[key]
        n_batches += 1
    for key in losses:
        losses[key] /= max(n_batches, 1)
    return metrics(cm), losses


def scene_set(config, data_seed, count, val=False):
    """`count` synthetic scenes at the config's size and class count; the
    validation scenes of a run are drawn from `data_seed + 1000`."""
    return synth_dataset(SynthSpec(seed=data_seed + (1000 if val else 0), count=count,
                                   hw=config.input_hw, num_classes=config.num_classes))


def _train_step(store, opt, config, batch, loss_config, cea_rng, lr):
    """One forward, loss, backward and AdamW update; returns the loss breakdown.

    A function of its own so that the step's outputs, and through them its
    consumed tape, die when it returns rather than during the next step.
    """
    store.zero_grads()
    with T.Tape():
        out = network.network_forward(Tensor(batch.images), store, config, training=True)
        total, bd = combined_loss(out, batch.labels, loss_config, cea_rng)
        T.backward(total)
    adamw_step(store, opt, lr=lr)
    return bd


def train(config, loss_config=None, data_seed=0, init_seed=0, epochs=10,
          batch_size=4, base_lr=3e-3, train_count=16, val_count=8,
          out_path=None, log_path=None, use_augment=True, quiet=False):
    """Full training run on the synthetic dataset. Returns a summary dict."""
    for name, size in (("batch_size", batch_size), ("train_count", train_count),
                       ("val_count", val_count)):
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")
    loss_config = loss_config or LossConfig()
    train_set = scene_set(config, data_seed, train_count)
    val_set = scene_set(config, data_seed, val_count, val=True)
    store = network.init_network(config, np.random.default_rng(init_seed))
    opt = OptimState()
    log = TsvLog(log_path)
    order_rng = np.random.default_rng(init_seed + 1)
    aug_rng = np.random.default_rng(init_seed + 2)
    cea_rng = np.random.default_rng(init_seed + 3)

    steps_per_epoch = max(1, (len(train_set) + batch_size - 1) // batch_size)
    schedule = None
    if epochs > 0:
        schedule = Schedule(base_lr=base_lr, warmup_epochs=min(3, epochs - 1),
                            total_epochs=epochs, steps_per_epoch=steps_per_epoch)

    epoch_losses = []
    val_result = None
    global_step = 0
    for epoch in range(epochs):
        order = order_rng.permutation(len(train_set))
        running = []
        for batch in _make_batches(train_set, batch_size, order):
            if use_augment:
                batch = augment(batch, aug_rng)
            lr = lr_at(schedule, global_step)
            bd = _train_step(store, opt, config, batch, loss_config, cea_rng, lr)
            log.log(global_step, lr, bd, "train")
            running.append(bd["loss_total"])
            global_step += 1
        epoch_losses.append(float(np.mean(running)))
        val_result, val_losses = evaluate_store(store, config, val_set, loss_config,
                                                batch_size=batch_size,
                                                seed=init_seed + 4 + epoch)
        log.log(global_step, lr_at(schedule, global_step), val_losses, "val")

    if val_result is None:  # zero-epoch run still writes a checkpoint
        val_result, _ = evaluate_store(store, config, val_set, loss_config,
                                       batch_size=batch_size, seed=init_seed + 4)
    log.close()

    meta = config_to_meta(config) | {"data_seed": data_seed, "init_seed": init_seed,
                                     "epochs": epochs, "batch_size": batch_size}
    if out_path:
        ckpt.save_checkpoint(store, opt, meta, out_path)

    table = metrics_table(val_result)
    if not quiet:
        sys.stdout.write(table)
    return {
        "store": store,
        "config": config,
        "epoch_losses": epoch_losses,
        "val_metrics": val_result,
        "metrics_table": table,
        "log_text": log.text(),
        "class_frequencies": class_frequencies(train_set, config.num_classes),
    }


def evaluate_checkpoint(ckpt_path, data_seed=0, batch_size=4, val_count=8, dump_dir=None):
    """Rebuild the network from checkpoint meta and rerun validation."""
    params, buffers, _, meta = ckpt.load_checkpoint(ckpt_path)
    config = config_from_meta(meta)
    store = network.init_network(config, np.random.default_rng(0))
    ckpt.restore_store(store, params, buffers, path=ckpt_path)
    val_set = scene_set(config, data_seed, val_count, val=True)
    result, _ = evaluate_store(store, config, val_set, LossConfig(), batch_size=batch_size)
    if dump_dir is not None:
        dump_predictions(store, config, val_set, dump_dir)
    table = metrics_table(result)
    sys.stdout.write(table)
    return result, table


def dump_predictions(store, config, dataset, dump_dir):
    """8-bit PGM label maps, one class index per pixel."""
    import os

    os.makedirs(dump_dir, exist_ok=True)
    for i, batch in enumerate(dataset):
        out = network.network_forward(Tensor(batch.images), store, config,
                                      training=False)
        pred = network.predict_labels(out)[0].astype(np.uint8)
        h, w = pred.shape
        with open(os.path.join(dump_dir, f"pred_{i:04d}.pgm"), "wb") as fh:
            fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
            fh.write(pred.tobytes())
