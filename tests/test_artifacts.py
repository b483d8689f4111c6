"""The artifact gate of ``tools/artifacts.py --compare``: the files that
differ between two artifact directories must be exactly the listed ones."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "artifacts.py")
_SPEC = importlib.util.spec_from_file_location("artifacts_tool", _PATH)
artifacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifacts)


def tree(root, files):
    for path, data in files.items():
        full = root / path
        full.parent.mkdir(parents=True, exist_ok=True)
        full.write_bytes(data)
    return str(root)


@pytest.fixture
def trees(tmp_path):
    """A parent tree and a head tree where one file changed a byte, one is
    new and one is gone; the rest are the same bytes."""
    same = {"exit-codes.json": b"{}\n", "grid-1/out-bounds/bounds.json": b"1.0\n"}
    old = tree(tmp_path / "old", dict(same, **{"grid-1/trace.csv": b"0.5\n", "gone.csv": b"x"}))
    new = tree(tmp_path / "new", dict(same, **{"grid-1/trace.csv": b"0.6\n", "grid-1/new.csv": b"y"}))
    return tmp_path, old, new


def test_the_moved_files_are_the_changed_the_new_and_the_gone(trees):
    _, old, new = trees
    moved = {"grid-1/trace.csv", "grid-1/new.csv", "gone.csv"}
    assert artifacts.moved_files(old, new) == {os.path.normpath(p) for p in moved}
    assert artifacts.moved_files(old, old) == set()


def test_identical_trees_pass_with_no_list(trees, capsys):
    tmp_path, old, _ = trees
    assert artifacts.compare(old, old, str(tmp_path / "absent.txt")) == 0


def test_the_list_must_name_exactly_the_moved_files(trees, capsys):
    tmp_path, old, new = trees
    listing = tmp_path / "moved.txt"
    listing.write_text("# moved on purpose\n\n./grid-1/trace.csv\ngrid-1/new.csv  # a new file\ngone.csv\n")
    assert artifacts.compare(old, new, str(listing)) == 0
    # an unlisted move fails, an absent list lists nothing
    listing.write_text("grid-1/trace.csv\ngrid-1/new.csv\n")
    assert artifacts.compare(old, new, str(listing)) == 1
    assert artifacts.compare(old, new, str(tmp_path / "absent.txt")) == 1
    # a listed file that did not move fails, so a stale list does too
    listing.write_text("grid-1/trace.csv\ngrid-1/new.csv\ngone.csv\nexit-codes.json\n")
    assert artifacts.compare(old, new, str(listing)) == 1
    assert artifacts.compare(old, old, str(listing)) == 1
    assert "listed, did not move: exit-codes.json" in capsys.readouterr().out
