"""The four benchmark workloads.

Constructing a workload is its set-up: it builds every input from the seed
and runs the warm-up. `step(i)` is one closed-loop step. Workloads reach the
package only through module attributes (`network.network_forward`, ...), so
the tracer's rebinding sees every call.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from hiresnet import losses, moco, network
from hiresnet import tensor as T
from hiresnet.harness import checkpoint, data, loop, metrics, optim
from hiresnet.network import NetworkConfig

from measure import require_finite


def _mean(values):
    """Mean in a fixed order, so equal inputs give bit-equal results."""
    return float(sum(values) / len(values))


class DeskTrain:
    """One DESK training step exactly as `harness.loop.train` runs it:
    default config, batch 4 at 64x64, augmentation, GD+LSCE+CEA over both
    outputs, backward and AdamW."""

    items_per_step = 4
    warmup_steps = 2
    # loss_last is the median over timed steps [min_steps - loss_window, min_steps):
    # a fixed range, so it repeats exactly for a seed whatever the machine's
    # speed, and a median, because the edge-aware term spikes 3-5x on steps
    # whose drawn class has large regions
    min_steps = 32
    loss_window = 8
    loss_note = "median loss over timed steps 24..31"

    def __init__(self, seed, workdir=None):
        self.config = NetworkConfig()
        self.loss_config = losses.LossConfig()
        self.train_set = data.synth_dataset(data.SynthSpec(
            seed=seed, count=16, hw=self.config.input_hw, num_classes=self.config.num_classes))
        self.store = network.init_network(self.config, np.random.default_rng(seed))
        self.opt = optim.OptimState()
        self.order_rng = np.random.default_rng(seed + 1)
        self.aug_rng = np.random.default_rng(seed + 2)
        self.cea_rng = np.random.default_rng(seed + 3)
        # the default run's schedule, stretched so the lr never reaches zero here
        self.schedule = optim.Schedule(base_lr=3e-3, warmup_epochs=3, total_epochs=100,
                                       steps_per_epoch=4)
        self.global_step = 0
        self._order = []
        self.losses = []
        for _ in range(self.warmup_steps):
            self._train_step()

    def _next_indices(self):
        if not self._order:
            perm = self.order_rng.permutation(len(self.train_set))
            self._order = [perm[s:s + 4] for s in range(0, len(perm), 4)]
        return self._order.pop(0)

    def _train_step(self):
        batch = data.stack_batches([self.train_set[i] for i in self._next_indices()])
        batch = data.augment(batch, self.aug_rng)
        lr = optim.lr_at(self.schedule, self.global_step)
        self.store.zero_grads()
        with T.Tape():
            out = network.network_forward(T.Tensor(batch.images), self.store, self.config,
                                          training=True)
            total, bd = losses.combined_loss(out, batch.labels, self.loss_config, self.cea_rng)
            T.backward(total)
        optim.adamw_step(self.store, self.opt, lr=lr)
        self.global_step += 1
        require_finite("coarse logits", out.coarse_logits.data)
        require_finite("refined logits", out.refined_logits.data)
        require_finite("loss", bd["loss_total"])
        return bd["loss_total"]

    def step(self, i):
        self.losses.append(self._train_step())

    def loss_last(self):
        end = self.min_steps
        return statistics.median(self.losses[end - self.loss_window:end])

    def checks(self):
        if len(self.losses) < self.min_steps:
            return []
        first = statistics.median(self.losses[:self.loss_window])
        last = self.loss_last()
        return [("loss_last below the median of the first timed steps", last < first,
                 f"{last:.6f} vs {first:.6f}")]


class DeskEval:
    """The `hiresnet eval` path: a checkpoint written and read back in
    set-up, then eval-mode batches of 4 as `harness.loop.evaluate_store`
    runs them (no tape, BN running stats)."""

    items_per_step = 4
    batch = 4
    val_count = 16
    min_steps = val_count // batch   # one full pass

    def __init__(self, seed, workdir):
        config = NetworkConfig()
        self.loss_config = losses.LossConfig()
        self.eval_seed = seed + 4
        self.mem_store = network.init_network(config, np.random.default_rng(seed))
        meta = dict(loop.config_to_meta(config))
        meta.update({"data_seed": float(seed), "init_seed": float(seed),
                     "epochs": 0.0, "batch_size": float(self.batch)})
        path = os.path.join(workdir, f"desk_eval_{seed}.ckpt")
        checkpoint.save_checkpoint(self.mem_store, optim.OptimState(), meta, path)
        params, buffers, _, meta = checkpoint.load_checkpoint(path)
        os.remove(path)
        self.config = loop.config_from_meta(meta)
        self.store = network.init_network(self.config, np.random.default_rng(0))
        checkpoint.restore_store(self.store, params, buffers, path=path)
        self.val_set = data.synth_dataset(data.SynthSpec(
            seed=seed + 1000, count=self.val_count, hw=self.config.input_hw,
            num_classes=self.config.num_classes))
        self.pass_losses = [None] * self.min_steps
        self.last_cm = None
        self._cm = None
        self._cea_rng = None
        self._eval_batch(0, metrics.new_confusion(self.config.num_classes),
                         np.random.default_rng(self.eval_seed))  # warm-up

    def _eval_batch(self, j, cm, cea_rng):
        items = self.val_set[j * self.batch:(j + 1) * self.batch]
        batch = data.stack_batches(items)
        out = network.network_forward(T.Tensor(batch.images), self.store, self.config,
                                      training=False)
        pred = network.predict_labels(out)
        metrics.update_confusion(cm, pred, batch.labels)
        _, bd = losses.combined_loss(out, batch.labels, self.loss_config, cea_rng)
        require_finite("coarse logits", out.coarse_logits.data)
        require_finite("refined logits", out.refined_logits.data)
        require_finite("loss", bd["loss_total"])
        return bd["loss_total"]

    def step(self, i):
        j = i % self.min_steps
        if j == 0:  # each pass starts like evaluate_store: fresh matrix, seeded CEA draws
            self._cm = metrics.new_confusion(self.config.num_classes)
            self._cea_rng = np.random.default_rng(self.eval_seed)
        self.pass_losses[j] = self._eval_batch(j, self._cm, self._cea_rng)
        if j == self.min_steps - 1:
            self.last_cm = self._cm.copy()

    def logged_loss(self):
        """The eval loss of the last pass, as evaluate_store logs it."""
        return _mean(self.pass_losses)

    def checks(self):
        if self.last_cm is None:
            return [("a full eval pass completed", False, "no pass finished")]
        loaded = loop.metrics_table(metrics.metrics(self.last_cm))
        result, mem_losses = loop.evaluate_store(self.mem_store, self.config, self.val_set,
                                                 self.loss_config, batch_size=self.batch,
                                                 seed=self.eval_seed)
        in_memory = loop.metrics_table(result)
        return [
            ("metrics table from the loaded checkpoint equals the in-memory one",
             loaded == in_memory, "" if loaded == in_memory else f"\n{loaded}\n{in_memory}"),
            ("logged eval loss equals the in-memory one",
             self.logged_loss() == mem_losses["loss_total"],
             f"{self.logged_loss()!r} vs {mem_losses['loss_total']!r}"),
        ]


class WideInfer:
    """Full-scale widths and depths at 112x112 (the smallest input window 7
    allows), batch 1: eval forward plus predict_labels."""

    items_per_step = 1
    hw = (112, 112)
    scenes = 2
    min_steps = scenes

    def __init__(self, seed, workdir=None):
        self.config = NetworkConfig.full_scale(num_classes=4, input_hw=self.hw)
        self.store = network.init_network(self.config, np.random.default_rng(seed))
        self.data = data.synth_dataset(data.SynthSpec(seed=seed, count=self.scenes, hw=self.hw,
                                                      num_classes=4))
        self.last = [None] * self.scenes
        # warm-up forward: a run times only a few forwards, so the first one's
        # one-time costs (first-touch allocation) belong in set-up
        self._forward(0)
        self.last = [None] * self.scenes

    def _forward(self, j):
        scene = self.data[j]
        out = network.network_forward(T.Tensor(scene.images), self.store, self.config,
                                      training=False)
        pred = network.predict_labels(out)
        require_finite("coarse logits", out.coarse_logits.data)
        require_finite("refined logits", out.refined_logits.data)
        self.last[j] = (out, pred)

    def step(self, i):
        self._forward(i % self.scenes)

    def checks(self):
        if any(entry is None for entry in self.last):
            return [("every scene was run", False, "")]
        out, pred = self.last[-1]
        k = self.config.num_classes
        probs = network.fused_probabilities(out)
        shape_ok = (out.coarse_logits.shape == (1, k) + self.hw
                    and out.refined_logits.shape == (1, k) + self.hw)
        sums = probs.sum(axis=1)
        return [
            (f"logits are [1, {k}, 112, 112]", shape_ok,
             f"{out.coarse_logits.shape}, {out.refined_logits.shape}"),
            ("fused probabilities sum to 1", bool(np.allclose(sums, 1.0, atol=1e-5)),
             f"max |sum-1| = {np.abs(sums - 1).max():.2e}"),
            ("predictions are the argmax of the fused probabilities",
             bool((pred == probs.argmax(axis=1)).all()), ""),
        ]


class MocoPretrain:
    """`moco.moco_step` as `hiresnet pretrain` runs it: 32x32 views, batch 8,
    queue 256, width-8 funnel encoder."""

    batch = 8
    items_per_step = batch
    warmup_steps = 5
    min_steps = 200
    loss_window = 20
    loss_note = "mean InfoNCE over timed steps 180..199"

    def __init__(self, seed, workdir=None):
        self.cfg = moco.PretrainConfig(width=8, queue_size=256, image_hw=(32, 32))
        self.rng = np.random.default_rng(seed)
        self.state = moco.init_moco(self.cfg, self.rng)
        scenes = data.synth_dataset(data.SynthSpec(seed=seed, count=16, hw=self.cfg.image_hw,
                                                   num_classes=4))
        self.images = np.concatenate([b.images for b in scenes])
        self.velocity = {}
        self.losses = []
        self.steps_run = 0
        for _ in range(self.warmup_steps):
            self._step()

    def _step(self):
        idx = self.rng.choice(len(self.images), size=self.batch, replace=False)
        self.steps_run += 1
        loss = moco.moco_step(self.state, self.images[idx], self.rng, self.velocity)
        require_finite("loss", loss)
        return loss

    def step(self, i):
        self.losses.append(self._step())

    def loss_last(self):
        end = self.min_steps
        return _mean(self.losses[end - self.loss_window:end])

    def checks(self):
        norms = np.linalg.norm(self.state.queue, axis=0)
        want_ptr = self.steps_run * self.batch % self.cfg.queue_size
        out = []
        if len(self.losses) >= self.min_steps:
            # InfoNCE of an encoder that tells no key apart: every one of the
            # queue + 1 logits equal
            chance = float(np.log(self.cfg.queue_size + 1))
            last = self.loss_last()
            out.append(("loss_last below the chance level ln(queue + 1)", last < chance,
                        f"{last:.6f} vs {chance:.6f}"))
        return out + [
            ("queue columns are unit-norm", bool(np.allclose(norms, 1.0, atol=1e-5)),
             f"max |norm-1| = {np.abs(norms - 1).max():.2e}"),
            ("queue pointer advanced by steps x batch mod queue size",
             self.state.ptr == want_ptr, f"{self.state.ptr} vs {want_ptr}"),
        ]


WORKLOADS = {
    "desk_train": DeskTrain,
    "desk_eval": DeskEval,
    "wide_infer": WideInfer,
    "moco_pretrain": MocoPretrain,
}
