"""Versioned binary checkpoint container.

Layout (little-endian): 6-byte magic "HIRES1", then entries until EOF, each
entry being u32 name length, UTF-8 name, u32 rank, u32 dims, f32 payload.
Entry names are namespaced: "param." / "buffer." for the model store,
"opt." for optimizer moments, "meta." for scalar run metadata.
"""

from __future__ import annotations

import math
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
    """Every entry of a checkpoint file. A declared length (name, dims or
    payload) is checked against the bytes left in the file before it is
    read, so a corrupt header raises CheckpointError instead of asking for
    gigabytes."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: bad magic (not a checkpoint)")

        def take(n, what):
            if n > size - fh.tell():
                raise CheckpointError(f"{path}: truncated {what}")
            return fh.read(n)

        entries = {}
        while fh.tell() < size:
            (name_len,) = struct.unpack("<I", take(4, "entry header"))
            raw = take(name_len, "entry name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(
                    f"{path}: entry name ending at byte {fh.tell()} is not UTF-8") from None
            (rank,) = struct.unpack("<I", take(4, f"rank for {name}"))
            shape = struct.unpack(f"<{rank}I", take(4 * rank, f"dims for {name}"))
            # math.prod: Python ints, where np.prod could wrap around int64
            payload = take(4 * math.prod(shape), f"payload for {name}")
            try:
                entries[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
            except ValueError:  # more dims than numpy takes, or a zero-size overflow
                raise CheckpointError(f"{path}: unusable rank-{rank} shape for {name}") from None
        return entries


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
    for kind, saved, entries in (("parameter", params, store.params()),
                                 ("buffer", buffers, store.buffers())):
        for name, t in entries:
            if name not in saved:
                raise CheckpointError(f"{path}: missing {kind} {name}")
            if saved[name].shape != t.data.shape:
                raise CheckpointError(
                    f"{path}: shape mismatch for {name}: "
                    f"checkpoint {saved[name].shape} vs config {t.data.shape}")
            t.data = saved[name].astype(t.data.dtype)
    return store
