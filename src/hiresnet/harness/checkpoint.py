"""Versioned binary checkpoint container.

Layout (little-endian): 6-byte magic "HIRES2", u32 meta length, UTF-8 meta
text, then entries until EOF, each entry being u32 name length, UTF-8 name,
u32 rank, u32 dims, f32 payload. Entry names are namespaced: "param." /
"buffer." for the model store, "opt." for optimizer moments. The meta text
is `key = value` lines, the format `train --config` reads.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"HIRES2"


class CheckpointError(RuntimeError):
    pass


def parse_key_values(text, where, error=ValueError):
    """`key = value` lines -> {key: value}, both stripped, skipping blank and
    `#` lines. A line without `=` or a repeated key raises `error`."""
    pairs = {}
    for line_no, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{where}:{line_no}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in pairs:
            raise error(f"{where}:{line_no}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _format_value(value):
    """The one written form of a meta value: str() of it, or of each item of a
    tuple joined by commas. For an int that is decimal, and for a float the
    shortest text that reads back to the same value of its type."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def write_entries(path, entries, meta=None):
    """Write to a temporary file beside `path`, then rename it onto `path`,
    so an error mid-write leaves an existing checkpoint untouched. Meta text
    that would not read back as written (a newline, an `=` in a key, edge
    whitespace) raises ValueError before anything is written."""
    written = {key: _format_value(value) for key, value in (meta or {}).items()}
    meta_text = "".join(f"{key} = {value}\n" for key, value in written.items())
    if parse_key_values(meta_text, "meta") != written:
        raise ValueError(f"meta {written!r} would not read back as written")
    meta_raw = meta_text.encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(meta_raw)))
            fh.write(meta_raw)
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
    """(entries, meta) of a checkpoint file. A declared length (meta, name,
    dims or payload) is checked against the bytes left in the file before it
    is read, so a corrupt header raises CheckpointError instead of asking for
    gigabytes."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic == b"HIRES1":
            raise CheckpointError(f"{path}: HIRES1 files are no longer read; re-save the model")
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic (not a checkpoint)")

        def take(n, what):
            if n > size - fh.tell():
                raise CheckpointError(f"{path}: truncated {what}")
            return fh.read(n)

        def utf8(raw, what):
            try:
                return raw.decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(
                    f"{path}: {what} ending at byte {fh.tell()} is not UTF-8") from None

        (meta_len,) = struct.unpack("<I", take(4, "meta header"))
        meta = parse_key_values(utf8(take(meta_len, "meta"), "meta"), f"{path}: meta",
                                CheckpointError)

        entries = {}
        while fh.tell() < size:
            (name_len,) = struct.unpack("<I", take(4, "entry header"))
            name = utf8(take(name_len, "entry name"), "entry name")
            (rank,) = struct.unpack("<I", take(4, f"rank for {name}"))
            shape = struct.unpack(f"<{rank}I", take(4 * rank, f"dims for {name}"))
            # math.prod: Python ints, where np.prod could wrap around int64
            payload = take(4 * math.prod(shape), f"payload for {name}")
            try:
                entries[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
            except ValueError:  # more dims than numpy takes, or a zero-size overflow
                raise CheckpointError(f"{path}: unusable rank-{rank} shape for {name}") from None
        return entries, meta


def save_checkpoint(store, opt, meta, path):
    """Model parameters + buffers, optional optimizer moments, meta text. The
    optimizer step is the int meta line `opt_step`, which a float32 entry
    would round above 2^24, so a caller's meta may not hold that key."""
    if "opt_step" in meta:
        raise ValueError("meta key 'opt_step' is reserved for the optimizer step")
    entries = {}
    for name, t in store.params():
        entries[f"param.{name}"] = t.data
    for name, t in store.buffers():
        entries[f"buffer.{name}"] = t.data
    if opt is not None:
        meta = meta | {"opt_step": int(opt.step)}
        for name, arr in opt.m.items():
            entries[f"opt.m.{name}"] = arr
        for name, arr in opt.v.items():
            entries[f"opt.v.{name}"] = arr
    write_entries(path, entries, meta)


def load_checkpoint(path):
    """Returns (params, buffers, opt_entries, meta): dicts of arrays, then
    {key: str}. The optimizer step moves from meta to opt_entries["step"]
    as an int."""
    entries, meta = read_entries(path)
    spaces = {"param": {}, "buffer": {}, "opt": {}}
    for name, arr in entries.items():
        space, dot, rest = name.partition(".")
        if not dot or space not in spaces:
            raise CheckpointError(f"{path}: unknown entry namespace for {name!r}")
        spaces[space][rest] = arr
    if "opt_step" in meta:
        step = meta.pop("opt_step")
        try:
            spaces["opt"]["step"] = int(step)
        except ValueError:
            raise CheckpointError(f"{path}: opt_step {step!r} is not an integer") from None
    return spaces["param"], spaces["buffer"], spaces["opt"], meta


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
