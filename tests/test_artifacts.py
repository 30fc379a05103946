"""Artifacts are written whole or not at all."""

import pytest
from helpers import announce, table_of

from routelens import artifacts, tracefile
from routelens.bgp import write_updates
from routelens.core import RelayDescriptor, write_relays
from routelens.correlation import DIRECTIONS, EndpointTrace, PacketTable
from routelens.tracefile import write_trace_jsonl


def rows_failing_midway():
    yield ["a", 1]
    yield ["b", 2]
    raise RuntimeError("source failed mid-write")


class Unspellable:
    def __str__(self):
        raise RuntimeError("source failed mid-write")


WRITERS = {
    "csv": lambda path: artifacts.write_csv(path, {}, ["name", "n"], rows_failing_midway()),
    "jsonl": lambda path: artifacts.write_jsonl(
        path, {}, ({"name": name, "n": n} for name, n in rows_failing_midway())
    ),
    # json.dump streams its chunks, so the object it cannot encode comes mid-file
    "json": lambda path: artifacts.write_json(path, {}, {"a": list(range(1000)), "z": object()}),
    # the inputs simulate writes beside its artifacts
    # the second row's session cannot be spelled, so the first is written before it fails
    "updates": lambda path: write_updates(path, table_of([
        announce(0, "a", "10.0.0.0/8", [1, 2]), announce(1, Unspellable(), "10.0.0.0/8", [1, 2])
    ])),
    "relays": lambda path: write_relays(
        path,
        (RelayDescriptor(n, True, False, 1.0, name) for name, n in rows_failing_midway()),
    ),
    # with one-row blocks the first packet is written before the second's
    # direction code, out of range, raises
    "trace": lambda path: write_trace_jsonl(
        path,
        EndpointTrace("v", PacketTable([0.0, 1.0], [0, len(DIRECTIONS)], *[[0, 0]] * 4)),
    ),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_write_leaves_no_partial_and_no_temp_file(tmp_path, monkeypatch, kind):
    monkeypatch.setattr(tracefile, "_BLOCK_ROWS", 1)
    fresh = tmp_path / "new" / f"artifact.{kind}"
    with pytest.raises((RuntimeError, TypeError, ValueError)):
        WRITERS[kind](fresh)
    assert list(fresh.parent.iterdir()) == []

    kept = tmp_path / f"artifact.{kind}"
    kept.write_text("previous run\n")
    with pytest.raises((RuntimeError, TypeError, ValueError)):
        WRITERS[kind](kept)
    assert kept.read_text() == "previous run\n"
    assert [p.name for p in tmp_path.iterdir() if p.is_file()] == [kept.name]


def test_successful_write_replaces_the_previous_artifact(tmp_path):
    path = tmp_path / "artifact.csv"
    path.write_text("previous run\n")
    artifacts.write_csv(path, {"seed": 3}, ["name", "n"], [["a", 1]])
    text = path.read_text()
    assert text.startswith("# tool=routelens") and text.endswith("name,n\na,1\n")
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
