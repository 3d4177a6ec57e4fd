"""Versioned binary checkpoint container.

Layout (little-endian): 6-byte magic "HIRES1", then entries until EOF, each
entry being u32 name length, UTF-8 name, u32 rank, u32 dims, f32 payload.
Entry names are namespaced: "param." / "buffer." for the model store,
"opt." for optimizer moments, "meta." for scalar run metadata.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"HIRES1"


class CheckpointError(RuntimeError):
    pass


def write_entries(path, entries):
    """Write to a temporary file beside `path`, then rename it onto `path`,
    so an error mid-write leaves an existing checkpoint untouched."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            for name, arr in entries.items():
                arr = np.asarray(arr, dtype="<f4")
                raw = name.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<I", arr.ndim))
                for d in arr.shape:
                    fh.write(struct.pack("<I", d))
                fh.write(arr.tobytes(order="C"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_entries(path):
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: bad magic (not a checkpoint)")
        entries = {}
        while True:
            head = fh.read(4)
            if not head:
                return entries
            if len(head) < 4:
                raise CheckpointError(f"{path}: truncated entry header")
            (name_len,) = struct.unpack("<I", head)
            raw = fh.read(name_len)
            if len(raw) < name_len:
                raise CheckpointError(f"{path}: truncated entry name")
            name = raw.decode("utf-8")
            rank_raw = fh.read(4)
            if len(rank_raw) < 4:
                raise CheckpointError(f"{path}: truncated rank for {name}")
            (rank,) = struct.unpack("<I", rank_raw)
            dims_raw = fh.read(4 * rank)
            if len(dims_raw) < 4 * rank:
                raise CheckpointError(f"{path}: truncated dims for {name}")
            shape = struct.unpack(f"<{rank}I", dims_raw) if rank else ()
            count = int(np.prod(shape)) if shape else 1
            payload = fh.read(4 * count)
            if len(payload) < 4 * count:
                raise CheckpointError(f"{path}: truncated payload for {name}")
            entries[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()


def save_checkpoint(store, opt, meta, path):
    """Model parameters + buffers, optional optimizer moments, scalar meta."""
    entries = {}
    for name, t in store.params():
        entries[f"param.{name}"] = t.data
    for name, t in store.buffers():
        entries[f"buffer.{name}"] = t.data
    if opt is not None:
        entries["opt.step"] = np.array(float(opt.step))
        for name, arr in opt.m.items():
            entries[f"opt.m.{name}"] = arr
        for name, arr in opt.v.items():
            entries[f"opt.v.{name}"] = arr
    for key, value in (meta or {}).items():
        entries[f"meta.{key}"] = np.asarray(value, dtype=np.float64)
    write_entries(path, entries)


def load_checkpoint(path):
    """Returns (params, buffers, opt_entries, meta) dicts of arrays."""
    entries = read_entries(path)
    params, buffers, opt_entries, meta = {}, {}, {}, {}
    for name, arr in entries.items():
        if name.startswith("param."):
            params[name[len("param."):]] = arr
        elif name.startswith("buffer."):
            buffers[name[len("buffer."):]] = arr
        elif name.startswith("opt."):
            opt_entries[name[len("opt."):]] = arr
        elif name.startswith("meta."):
            meta[name[len("meta."):]] = arr
        else:
            raise CheckpointError(f"{path}: unknown entry namespace for {name!r}")
    return params, buffers, opt_entries, meta


def restore_store(store, params, buffers, path="<checkpoint>"):
    """Copy checkpoint arrays into an initialized store, validating shapes."""
    for name, t in store.params():
        if name not in params:
            raise CheckpointError(f"{path}: missing parameter {name}")
        if params[name].shape != t.data.shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {name}: "
                f"checkpoint {params[name].shape} vs config {t.data.shape}")
        t.data = params[name].astype(t.data.dtype)
    for name, t in store.buffers():
        if name not in buffers:
            raise CheckpointError(f"{path}: missing buffer {name}")
        if buffers[name].shape != t.data.shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {name}: "
                f"checkpoint {buffers[name].shape} vs config {t.data.shape}")
        t.data = buffers[name].astype(t.data.dtype)
    return store
