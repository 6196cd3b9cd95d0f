"""Golden outputs: the printed values of a fixed invocation set, byte for
byte (``tests/golden/bless.py`` says which set and how to re-bless it)."""

import importlib.util
import os
import shutil

import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
_spec = importlib.util.spec_from_file_location("bless", os.path.join(GOLDEN, "bless.py"))
bless = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bless)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """The golden text of this tree's outputs, from one subprocess run."""
    outdir = tmp_path_factory.mktemp("golden_run")
    bless.run_in_subprocess(str(outdir))
    return bless.render(str(outdir))


@pytest.fixture
def same_stack(fresh):
    """Skips unless the golden files were written on this stack."""
    with open(os.path.join(GOLDEN, "readme_s2i.csv"), encoding="utf-8") as fh:
        kept = bless.golden_stack(fh.read())
    here = bless.golden_stack(fresh["readme_s2i.csv"])
    if kept != here:
        pytest.skip(f"golden files come from {kept}; this stack is {here}")


def test_outputs_match_golden(fresh, same_stack):
    moved = bless.compare(GOLDEN, fresh)
    assert not moved, "moved cells (re-bless if by design):\n" + bless.table(moved)


def test_a_corrupted_digit_is_named(fresh, same_stack, tmp_path):
    copy = shutil.copytree(GOLDEN, tmp_path / "golden")
    path = copy / "readme_bound.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    header = lines[-2].rstrip("\n").split(",")
    row = lines[-1].rstrip("\n").split(",")
    column = header.index("s2i_db")
    old = row[column]
    new = old[:-1] + str((int(old[-1]) + 1) % 10)
    row[column] = new
    path.write_text("".join(lines[:-1]) + ",".join(row) + "\n", encoding="utf-8")
    assert bless.compare(str(copy), fresh) == [
        ("readme_bound.csv", "row 1 (dft, 33) s2i_db", new, old)
    ]


def test_bless_on_an_unchanged_tree_writes_nothing(fresh, same_stack, tmp_path):
    copy = shutil.copytree(GOLDEN, tmp_path / "golden")
    before = {p.name: p.stat().st_mtime_ns for p in copy.iterdir()}
    assert bless.write(str(copy), fresh) == []
    assert {p.name: p.stat().st_mtime_ns for p in copy.iterdir()} == before


def test_moved_cells_of_a_hashed_file_and_a_manifest():
    # a hashed file names its digest and the summary cells that moved; a
    # manifest names each leaf by its path
    old = "# sha256 aa (9 bytes, 3 lines)\norder,eigenvalue\n0,1\n2,0.5\n"
    new = "# sha256 bb (9 bytes, 3 lines)\norder,eigenvalue\n0,1\n2,0.49\n"
    assert bless.moved_cells("dpss.csv", old, new) == [
        ("dpss.csv", "sha256", "# sha256 aa (9 bytes, 3 lines)",
         "# sha256 bb (9 bytes, 3 lines)"),
        ("dpss.csv", "row 2 (2, 0.5) eigenvalue", "0.5", "0.49"),
    ]
    old = '# x\n{"runs": [{"errors": [1, 2]}], "seed": 0}\n'
    new = '# x\n{"runs": [{"errors": [1, 3]}], "seed": 0}\n'
    assert bless.moved_cells("ser.csv.manifest.json", old, new) == [
        ("ser.csv.manifest.json", "runs[0].errors[1]", "2", "3")
    ]
