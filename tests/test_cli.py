import json
import re
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantor_toolkit import cli
from cantor_toolkit._rat import Q, dec_to_rational


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    text = resources.files("cantor_toolkit").joinpath("schemas/%s.schema.json" % name).read_text()
    return json.loads(text)


COVER_ARGS = ("cover", "--m", "2", "--x", "1/2", "--depth", "3", "--tol", "2^-40")


# ---------------------------------------------------------------------------
# validation and exit codes


def test_x_outside_unit_interval_exits_2(capsys):
    code, out, err = run_cli(capsys, "cover", "--m", "2", "--x", "3/2", "--depth", "3")
    assert code == 2
    assert "x must lie in (0,1)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("cover", "--m", "2", "--x", "1/0", "--depth", "3"),
        ("cover", "--m", "2", "--x", "1.-5", "--depth", "3"),
        ("intersect", "--m", "2", "--x", "1/2", "--y", "1/0", "--kmax", "2"),
        ("membership", "--m", "2", "--x", "1/2", "--lambda", "1/0"),
        ("dimension", "--m", "2", "--x", "1/2", "--at", "1/m", "--deltas", "1/0"),
        ("cover", "--m", "2", "--x", "1/2", "--depth", "3", "--tol", "1/0"),
        ("cover", "--m", "2", "--x", "1/2", "--depth", "3", "--tol", "2^-abc"),
        ("cover", "--m", "2", "--x", "1/2", "--depth", "3", "--tol", "2^--5"),
    ],
)
def test_unparsable_number_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("thickness", "--m", "2", "--x", "1/2", "--kmax", "-1"),
        ("intersect", "--m", "2", "--x", "1/2", "--y", "2/5", "--kmax", "-1", "--format", "json"),
    ],
)
def test_negative_kmax_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "kmax must be >= 0" in err


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_intersect_depth_below_one_exits_2(capsys, depth):
    code, out, err = run_cli(
        capsys, "intersect", "--m", "2", "--x", "1/2", "--y", "1/2", "--kmax", "1", "--depth", depth
    )
    assert code == 2 and out == ""
    assert "depth must be >= 1" in err


@pytest.mark.parametrize("kmax", ["0", "2"])
def test_thickness_depth_below_one_exits_2(capsys, kmax):
    # refused before kmax is read, as intersect refuses it, so an empty table
    # does not hide the bad depth
    code, out, err = run_cli(
        capsys, "thickness", "--m", "2", "--x", "1/2", "--kmax", kmax, "--depth", "0"
    )
    assert code == 2 and out == ""
    assert err == "error: depth must be >= 1\n"


RATIONAL_OPTIONS = {
    "x": "cover --m 2 --x {} --depth 2",
    "y": "intersect --m 2 --x 1/2 --y {} --kmax 1",
    "lambda": "membership --m 2 --x 1/2 --lambda {}",
    "deltas": "dimension --m 2 --x 1/2 --at 1/m --deltas 1/8,{} --depth 4 --grid-depth 6",
    "tol": "cover --m 2 --x 1/2 --depth 2 --tol {}",
}


# int() also reads underscores, non-ASCII digits and a signed denominator;
# the decimal path and --tol 2^-N refuse them, so p/q refuses them too.
@pytest.mark.parametrize(
    "text",
    ["1_0/3_0", "\u0661/\u0663", "1/+3", "\uff11\uff10"],
    ids=["underscores", "arabic_indic", "signed_denominator", "fullwidth"],
)
@pytest.mark.parametrize("name", sorted(RATIONAL_OPTIONS))
def test_rational_option_takes_only_ascii_digits(capsys, name, text):
    code, out, err = run_cli(capsys, *RATIONAL_OPTIONS[name].format(text).split())
    assert code == 2 and out == ""
    assert err == "error: %s: cannot parse %r as an exact rational\n" % (name, text)


@pytest.mark.parametrize("target", ["missing/cover.svg", "."])
def test_unwritable_out_exits_2(tmp_path, capsys, target):
    out_path = str(tmp_path / target)
    code, out, err = run_cli(
        capsys, "cover", "--m", "2", "--x", "1/2", "--depth", "2", "--format", "svg", "--out", out_path
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write %s: " % out_path)


# Ten characters at most: '2^-' plus seven digits keeps the largest tol
# denominator the parser builds near a megabyte.
@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789/^.-+eabx", max_size=10))
def test_parse_helpers_return_rational_or_config_error(text):
    parsers = (
        lambda t: cli._parse_rational(t, "v"),
        lambda t: cli._parse_point(t, "x"),
        cli._parse_tol,
    )
    for parse in parsers:
        try:
            value = parse(text)
        except cli.ConfigError:
            continue
        assert type(value) is type(Q(0))


def test_x_zero_and_one_documented_special_cases(capsys):
    code, _, err = run_cli(capsys, "cover", "--m", "2", "--x", "0/1", "--depth", "3")
    assert code == 2 and "(0, 1/m]" in err
    code, _, err = run_cli(capsys, "cover", "--m", "2", "--x", "1/1", "--depth", "3")
    assert code == 2 and "{1/m}" in err


def test_invalid_code_for_dimension_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "dimension", "--m", "2", "--x", "1/2", "--at", "99:zero", "--deltas", "1/8"
    )
    assert code == 2 and "code" in err


def test_inadmissible_code_for_dimension_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "dimension", "--m", "2", "--x", "1/2", "--at", "01:zero", "--deltas", "1/8"
    )
    assert code == 2 and "not admissible" in err


DIMENSION_ARGS = ("dimension", "--m", "2", "--x", "1/2", "--at", "1/m", "--deltas", "1/8", "--depth", "4")


def test_grid_depth_two_exits_2(capsys):
    code, out, err = run_cli(capsys, *DIMENSION_ARGS, "--grid-depth", "2")
    assert (code, out) == (2, "")
    assert err == "error: grid_depth must be >= 3\n"


def test_grid_depth_past_float_range_renders(capsys):
    code, out, err = run_cli(capsys, *DIMENSION_ARGS, "--grid-depth", "1024", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["scan"][0]["grid_levels"][-1][0] == "1/%d" % 2**1024


def test_float_x_rejected(capsys):
    code, _, err = run_cli(capsys, "cover", "--m", "2", "--x", "0.5e0", "--depth", "3")
    assert code == 2


def test_precision_exhaustion_maps_to_exit_3(capsys, monkeypatch):
    from cantor_toolkit.errors import PrecisionExhaustedError

    def explode(args):
        raise PrecisionExhaustedError("k=3, level=2")

    monkeypatch.setitem(cli._HANDLERS, "cover", explode)
    code, _, err = run_cli(capsys, *COVER_ARGS, "--format", "json")
    assert code == 3
    assert "k=3, level=2" in err


def test_kmax_zero_empty_table_exit_0(capsys):
    code, out, err = run_cli(
        capsys, "thickness", "--m", "2", "--x", "1/2", "--kmax", "0", "--format", "csv"
    )
    assert code == 0
    assert out.strip() == "k,tau_empirical,tau_analytic_lower,newhouse_lower,dim_lower"


def test_membership_takes_no_tol(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["membership", "--m", "2", "--x", "1/2", "--lambda", "2/5", "--tol", "garbage"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol garbage" in capsys.readouterr().err


def test_membership_takes_no_digits(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["membership", "--m", "2", "--x", "1/2", "--lambda", "2/5", "--digits", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --digits 2" in capsys.readouterr().err


DIGITS_ARGV = [
    ("cover", "--m", "2", "--x", "1/2", "--depth", "2", "--tol", "2^-40", "--format", "json"),
    ("cover", "--m", "2", "--x", "1/2", "--depth", "2", "--tol", "2^-40", "--format", "csv"),
    ("thickness", "--m", "2", "--x", "1/2", "--kmax", "2", "--depth", "2"),
    ("intersect", "--m", "2", "--x", "1/2", "--y", "2/5", "--kmax", "2", "--depth", "2", "--format", "json"),
]
DIGITS_IDS = ["cover-json", "cover-csv", "thickness", "intersect"]


@pytest.mark.parametrize("argv", DIGITS_ARGV, ids=DIGITS_IDS)
def test_digits_above_cap_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--digits", str(cli.MAX_DIGITS + 1))
    assert code == 2 and out == ""
    assert err == "error: digits must be <= 4300\n"


@pytest.mark.parametrize("argv", DIGITS_ARGV, ids=DIGITS_IDS)
def test_digits_at_cap_renders(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--digits", str(cli.MAX_DIGITS))
    assert code == 0 and err == ""
    assert re.search(r"\d\.\d{%d}(?!\d)" % cli.MAX_DIGITS, out)


# ---------------------------------------------------------------------------
# determinism


def test_cover_json_byte_deterministic(capsys):
    _, out1, _ = run_cli(capsys, *COVER_ARGS, "--format", "json")
    _, out2, _ = run_cli(capsys, *COVER_ARGS, "--format", "json")
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        COVER_ARGS + ("--format", "csv"),
        COVER_ARGS + ("--format", "text"),
        ("thickness", "--m", "2", "--x", "1/2", "--kmax", "2", "--depth", "2",
         "--tol", "2^-40", "--format", "json"),
        ("intersect", "--m", "2", "--x", "1/2", "--y", "2/5", "--kmax", "2",
         "--depth", "2", "--tol", "2^-40", "--format", "json"),
        ("dimension", "--m", "2", "--x", "1/2", "--at", "1/m", "--deltas", "1/8",
         "--depth", "6", "--grid-depth", "8", "--tol", "2^-24", "--format", "json"),
        ("membership", "--m", "2", "--x", "1/2", "--lambda", "2/5", "--format", "json"),
    ],
)
def test_every_subcommand_byte_deterministic(capsys, argv):
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cover_svg_byte_deterministic_and_rows(capsys):
    code, svg1, _ = run_cli(capsys, "cover", "--m", "2", "--x", "1/2", "--depth", "4",
                            "--tol", "2^-40", "--format", "svg")
    _, svg2, _ = run_cli(capsys, "cover", "--m", "2", "--x", "1/2", "--depth", "4",
                         "--tol", "2^-40", "--format", "svg")
    assert code == 0 and svg1 == svg2
    # hull row plus one row per constructed level (2, 3, 4)
    assert svg1.count("<text") == 4
    assert 'n=2' in svg1 and 'n=3' in svg1 and 'n=4' in svg1
    # first gap of the construction separates bars at 0.366025 / 0.396608
    assert "hull [0.333333, 0.500000]" in svg1


def test_cover_svg_digits_too_coarse_for_hull_exits_2(capsys):
    code, out, err = run_cli(capsys, "cover", "--m", "2", "--x", "1/2", "--depth", "2",
                             "--digits", "0", "--format", "svg")
    assert code == 2 and out == ""
    assert "too coarse" in err


@pytest.mark.parametrize("fmt", ["json", "svg"])
def test_cover_below_first_defect_exits_2_in_every_format(capsys, fmt):
    code, out, err = run_cli(capsys, "cover", "--m", "2", "--x", "1/2", "--depth", "1",
                             "--format", fmt)
    assert code == 2 and out == ""
    assert err == "error: cover depth 1 is below the first defect level 2\n"


# ---------------------------------------------------------------------------
# every format lays out the one payload


def test_main_looks_renderers_up_on_output_when_it_runs(capsys, monkeypatch):
    from cantor_toolkit import output

    seen = []

    def fake_csv(payload):
        seen.append(payload)
        return "replaced\n"

    monkeypatch.setattr(output, "cover_csv", fake_csv)
    code, out, err = run_cli(capsys, *COVER_ARGS, "--format", "csv")
    assert (code, out, err) == (0, "replaced\n", "")
    _, out, _ = run_cli(capsys, *COVER_ARGS, "--format", "json")
    assert seen == [json.loads(out)]


@pytest.mark.parametrize(
    "x, m, depth, digits",
    [("1/2", 2, 4, 6), ("2/7", 3, 3, 4), ("3/5", 2, 5, 9), ("1/3", 4, 2, 3)],
)
def test_cover_formats_print_the_json_payload_strings(capsys, x, m, depth, digits):
    args = ("cover", "--m", str(m), "--x", x, "--digits", str(digits), "--tol", "2^-40")

    def payload_at(n):
        code, out, _ = run_cli(capsys, *args, "--depth", str(n), "--format", "json")
        assert code == 0
        return json.loads(out)

    payload = payload_at(depth)
    ends = [(iv["word"], iv["lo"], iv["hi"]) for iv in payload["intervals"]]

    _, csv, _ = run_cli(capsys, *args, "--depth", str(depth), "--format", "csv")
    assert csv.splitlines() == ["word,lo,hi"] + ["%s,%s,%s" % end for end in ends]

    _, text, _ = run_cli(capsys, *args, "--depth", str(depth), "--format", "text")
    lines = text.splitlines()
    assert lines[1] == "hull [%s, %s]" % tuple(payload["hull"])
    split = lines.index("gaps:")
    printed = [re.fullmatch(r"  (\S+) +\[(\S+), (\S+)\]", line).groups() for line in lines[2:split]]
    assert printed == ends
    assert lines[split + 1:] == ["  (%s, %s)" % tuple(gap) for gap in payload["gaps"]]

    _, svg, _ = run_cli(capsys, *args, "--depth", str(depth), "--format", "svg")
    hull_lo, hull_hi = map(dec_to_rational, re.search(r"hull \[(\S+), (\S+)\]", svg).groups())
    rows = svg.split("</text>")[1:-1]
    assert len(rows) >= 1
    for row in rows:
        level = payload_at(int(re.search(r"n=(\d+)$", row).group(1)))
        bars = re.findall(r'<rect x="([0-9.]+)" y="\d+" width="([0-9.]+)"', row)
        expected = []
        for iv in level["intervals"]:
            x0, x1 = (
                60 + float((dec_to_rational(iv[end]) - hull_lo) / (hull_hi - hull_lo)) * 1000
                for end in ("lo", "hi")
            )
            expected.append(("%.2f" % x0, "%.2f" % max(x1 - x0, 0.5)))
        assert bars == expected


# ---------------------------------------------------------------------------
# schema validation


def test_cover_json_schema_and_roundtrip(capsys):
    code, out, _ = run_cli(capsys, *COVER_ARGS, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("cover"))
    assert Q(payload["x"]) == Q(1, 2)
    assert [Q(h) for h in payload["hull"]] == [Q(1, 3), Q(1, 2)]
    assert [iv["word"] for iv in payload["intervals"]] == ["111", "110", "101", "100"]
    assert abs(float(dec_to_rational(payload["gaps"][1][0])) - 0.366025) < 1e-5
    assert abs(float(dec_to_rational(payload["gaps"][1][1])) - 0.396608) < 1e-5


def test_thickness_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "thickness", "--m", "2", "--x", "1/2", "--kmax", "3", "--depth", "2",
        "--tol", "2^-40", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("thickness"))
    ks = [entry["k"] for entry in payload["reports"]]
    assert ks == [1, 2, 3]


def test_interleave_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "intersect", "--m", "2", "--x", "1/2", "--y", "1/2", "--kmax", "2",
        "--depth", "2", "--tol", "2^-40", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("interleave"))
    assert [(p["i"], p["j"]) for p in payload["pairs"]] == [(1, 1), (2, 2)]


def test_dimension_json_schema_and_csv(capsys):
    args = ("dimension", "--m", "2", "--x", "1/2", "--at", "1/m", "--deltas", "1/8,1/16",
            "--depth", "8", "--grid-depth", "10", "--tol", "2^-24")
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("dimension"))
    assert len(payload["scan"]) == 2
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "delta,size,count"
    assert len(lines) == 1 + 2 * 10  # one row per grid level per delta


def test_membership_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "membership", "--m", "2", "--x", "1/2", "--lambda", "2/5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("membership"))
    assert payload["verdict"] == "not_member"
    assert payload["failing_step"] == 12


def test_membership_member_verdict(capsys):
    code, out, _ = run_cli(
        capsys, "membership", "--m", "2", "--x", "1/3", "--lambda", "1/4", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["verdict"] == "member"
    assert payload["period"] == "1"


def test_output_file_written(tmp_path, capsys):
    target = tmp_path / "cover.json"
    code, out, _ = run_cli(capsys, *COVER_ARGS, "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    jsonschema.validate(payload, load_schema("cover"))
