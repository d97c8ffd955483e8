"""The check that the tests run on the tree PYTHONPATH names.

Claims covered:
    - shadowed_tree returns the first PYTHONPATH entry holding
      hexnet/__init__.py when that is not the imported file, and None when
      it is, when no entry holds one, or when PYTHONPATH is empty; entries
      without a hexnet package, empty ones and missing ones are skipped
"""
import os

from conftest import shadowed_tree


def _tree(root):
    (root / "hexnet").mkdir(parents=True)
    init = root / "hexnet" / "__init__.py"
    init.write_text("", encoding="utf-8")
    return init


def test_shadowed_tree_names_the_first_tree_on_pythonpath(tmp_path):
    here, other = _tree(tmp_path / "here" / "src"), _tree(tmp_path / "other" / "src")
    bare, missing = tmp_path / "bare", tmp_path / "missing"
    bare.mkdir()

    def path(*entries):
        return os.pathsep.join(str(e) for e in entries)

    assert shadowed_tree(path(other.parents[1]), here) == other.parents[1]
    assert shadowed_tree(path(bare, "", missing, other.parents[1], here.parents[1]),
                         here) == other.parents[1]
    assert shadowed_tree(path(here.parents[1], other.parents[1]), here) is None
    assert shadowed_tree(path(bare, missing), here) is None
    assert shadowed_tree("", here) is None
