"""Byte-for-byte CLI output against checked-in golden files.

The files under tests/golden/ hold the exact output of each command below;
they are written by running this module as a script and are never edited by
hand:

    PYTHONPATH=src python3 tests/test_golden.py

Any change to them must come with an explanation of why the output moved.
"""

import contextlib
import io
import os
import sys

import pytest

from cantor_toolkit import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# name -> argv; "{out}" marks a command whose output goes to --out.
CASES = {
    "readme_cover.svg": "cover --m 2 --x 1/2 --depth 4 --format svg --out {out}",
    "readme_cover.json": "cover --m 2 --x 1/2 --depth 2 --format json",
    "readme_thickness_reduced.txt": "thickness --m 2 --x 1/2 --kmax 3 --depth 2",
    "readme_intersect_reduced.txt": "intersect --m 2 --x 1/2 --y 2/5 --kmax 3 --depth 2",
    "readme_dimension_reduced.txt": (
        "dimension --m 2 --x 1/2 --at 1/m --deltas 1/8,1/16,1/32 --depth 4 --grid-depth 16"
    ),
    "readme_dimension.txt": (
        "dimension --m 2 --x 1/2 --at 1/m --deltas 1/8,1/16,1/32 --depth 14 --grid-depth 16"
    ),
    "readme_membership.txt": "membership --m 2 --x 1/2 --lambda 2/5",
    "cover_m3.json": "cover --m 3 --x 2/7 --depth 4 --format json",
    "cover_tol40.csv": "cover --m 2 --x 1/2 --depth 3 --tol 2^-40 --format csv",
    "readme_thickness.txt": "thickness --m 2 --x 1/2 --kmax 6 --depth 3",
    "readme_intersect.txt": "intersect --m 2 --x 1/2 --y 2/5 --kmax 12",
    # these two refine brackets (positive widths, sibling and cover gaps),
    # so their bytes pin the refinement schedules
    "thickness_x2_5_tol16.json": (
        "thickness --m 2 --x 2/5 --kmax 6 --depth 3 --tol 2^-16 --format json"
    ),
    "cover_depth5_tol6.json": "cover --m 2 --x 1/2 --depth 5 --tol 2^-6 --format json",
    # one case for each (command, format) pair the README commands leave out
    "cover_depth4.txt": "cover --m 2 --x 1/2 --depth 4 --format text",
    "thickness_reduced.csv": "thickness --m 2 --x 1/2 --kmax 3 --depth 2 --format csv",
    "intersect_reduced.json": "intersect --m 2 --x 1/2 --y 2/5 --kmax 3 --depth 2 --format json",
    "dimension_reduced.json": (
        "dimension --m 2 --x 1/2 --at 1/m --deltas 1/8,1/16,1/32 --depth 4 --grid-depth 16"
        " --format json"
    ),
    "dimension_reduced.csv": (
        "dimension --m 2 --x 1/2 --at 1/m --deltas 1/8,1/16,1/32 --depth 4 --grid-depth 16"
        " --format csv"
    ),
    "membership.json": "membership --m 2 --x 1/2 --lambda 2/5 --format json",
}


def render(name: str, workdir: str) -> bytes:
    """Run one case through cli.main and return what it wrote."""
    out_path = os.path.join(workdir, name)
    argv = CASES[name].format(out=out_path).split()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code == 0 and stderr.getvalue() == "", (code, stderr.getvalue())
    if "{out}" in CASES[name]:
        assert stdout.getvalue() == ""
        with open(out_path, "rb") as fh:
            return fh.read()
    return stdout.getvalue().encode("ascii")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        expected = fh.read()
    assert render(name, str(tmp_path)) == expected


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(CASES):
            with open(os.path.join(GOLDEN, name), "wb") as fh:
                fh.write(render(name, workdir))
            print("wrote", name, file=sys.stderr)
