"""Parameter creation: record passes log what a forward creates, build
draws it, and outside a record pass the store refuses unknown names."""

import numpy as np
import pytest

from hiresnet.params import ParamStore, build, record, zeros


def test_get_of_a_missing_name_outside_record_raises():
    store = ParamStore()
    with pytest.raises(KeyError, match="layer.weight"):
        store.get("layer.weight", (2, 3), zeros)
    assert "layer.weight" not in store


def test_record_logs_each_name_once_in_first_use_order():
    def forward(store):
        for name in ("b", "a", "b"):
            store.get(name, (2,), zeros)
        store.get("stat", (3,), zeros, buffer=True)

    layout = record(forward)
    assert [(name, shape, buffer) for name, shape, _, buffer in layout] == [
        ("b", (2,), False), ("a", (2,), False), ("stat", (3,), True)]
    store = build(layout, np.random.default_rng(0))
    assert store.names() == ["b", "a", "stat"] and store.is_buffer("stat")
