"""Artifacts are written whole or not at all."""

import pytest

from routelens import artifacts


def rows_failing_midway():
    yield ["a", 1]
    yield ["b", 2]
    raise RuntimeError("source failed mid-write")


WRITERS = {
    "csv": lambda path: artifacts.write_csv(path, {}, ["name", "n"], rows_failing_midway()),
    "jsonl": lambda path: artifacts.write_jsonl(
        path, {}, ({"name": name, "n": n} for name, n in rows_failing_midway())
    ),
    # json.dump streams its chunks, so the object it cannot encode comes mid-file
    "json": lambda path: artifacts.write_json(path, {}, {"a": list(range(1000)), "z": object()}),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_write_leaves_no_partial_and_no_temp_file(tmp_path, kind):
    fresh = tmp_path / "new" / f"artifact.{kind}"
    with pytest.raises((RuntimeError, TypeError)):
        WRITERS[kind](fresh)
    assert list(fresh.parent.iterdir()) == []

    kept = tmp_path / f"artifact.{kind}"
    kept.write_text("previous run\n")
    with pytest.raises((RuntimeError, TypeError)):
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
