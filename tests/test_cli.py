import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from bohradii.cli import main
from bohradii.errors import DomainError
from bohradii.functionals import sharpness_fn
from bohradii.radii import Theorem, WeightPair, radius
from bohradii.rootfind import polyval


# non-finite and extreme values for every weight and range bound, passed as
# --name=value or as two arguments (a separate "-inf" must read as a value)
HOSTILE = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, 5e-324, 1e-300, 1e308, -1e308, -0.5, 0.5, 1.0]
)
THEOREMS = st.sampled_from([t.value for t in Theorem])


def option(name, value, joined):
    """``--name=value``, or ``--name`` and ``value`` as separate arguments."""
    return [f"{name}={value!r}"] if joined else [name, repr(value)]


def run_quiet(argv):
    """main(argv) with stdout and stderr captured; an uncaught exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("value", ["-inf", "-nan", "-1e308", "-Infinity"])
@pytest.mark.parametrize("command", ["radius", "sweep", "check"])
def test_negative_value_as_separate_argument_exit_2(capsys, tmp_path, command, value):
    # Python's argparse reads a separate "-inf" or "-1e308" as an option
    # unless told otherwise, and then exits 1 with "expected one argument"
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"kind": "moebius", "a": 0.5}))
    argv = {
        "radius": ["--alpha", "1", "--beta", value],
        "sweep": ["--alpha-min", "0.5", "--alpha-max", "1", "--beta-min", value,
                  "--beta-max", "1", "--steps", "3", "--out", str(tmp_path / "x.csv")],
        "check": ["--alpha", "1", "--beta", value, "--r", "0.1", "--function", str(path)],
    }[command]
    code, _, err = run(capsys, command, "--theorem", "t31", *argv)
    assert code == 2
    assert err.startswith("domain error:")


class TestRadiusCommand:
    def test_sharp_family_unit_weights(self, capsys):
        code, out, _ = run(capsys, "radius", "--theorem", "t31", "--alpha", "1", "--beta", "1")
        assert code == 0
        assert "value=0.23606797749978969" in out
        assert "regime=quadratic" in out

    def test_linear_branch(self, capsys):
        code, out, _ = run(capsys, "radius", "--theorem", "t32", "--alpha", "1", "--beta", "0.5")
        assert code == 0
        assert "value=0.33333333333333331" in out
        assert "regime=linear" in out
        assert "bracket=closed-form" in out

    def test_domain_violation_exit_2(self, capsys):
        code, _, err = run(capsys, "radius", "--theorem", "t34", "--alpha", "0.5", "--beta", "0.1")
        assert code == 2
        assert "t34" in err

    @pytest.mark.parametrize("theorem", ["t31", "t32", "t33", "t34", "t35", "t36"])
    def test_infinite_beta_exit_2(self, capsys, theorem):
        code, _, err = run(capsys, "radius", "--theorem", theorem, "--alpha", "1", "--beta", "inf")
        assert code == 2
        assert "beta" in err

    @settings(max_examples=60, deadline=None)
    @given(theorem=THEOREMS, alpha=HOSTILE, beta=HOSTILE, joined=st.booleans())
    def test_hostile_weights_exit_0_or_2(self, theorem, alpha, beta, joined):
        code, _, err = run_quiet(["radius", "--theorem", theorem, *option("--alpha", alpha, joined),
                                  *option("--beta", beta, joined)])
        assert code in (0, 2)
        assert "Traceback" not in err

    @pytest.mark.parametrize("theorem", ["t31", "t33", "t35"])
    def test_residual_failure_exit_2(self, capsys, theorem):
        # beta = 1e308 overflows the coefficients; the residual gate refuses the root
        code, out, err = run(
            capsys, "radius", "--theorem", theorem, "--alpha", "1", "--beta", "1e308"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("domain error: ") and "residual" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("alpha,beta,message", [
        ("0.2", "1e-300", "P(hi)=5.55"),  # P(1) = -4*beta rounds to +5.6e-17
        ("0.9", "1e308", "P(lo)=nan"),    # 1 - 2*beta overflows
    ])
    def test_bracket_failure_exit_2(self, capsys, alpha, beta, message):
        code, out, err = run(capsys, "radius", "--theorem", "t32", "--alpha", alpha, "--beta", beta)
        assert code == 2
        assert out == ""
        assert err.startswith("domain error: no sign change") and message in err

    @pytest.mark.parametrize("theorem", [t.value for t in Theorem])
    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.one_of(st.floats(0.0, 1.0, exclude_min=True),
                        st.floats(-1074.0, 0.0).map(lambda e: 2.0 ** e)),
        beta=st.floats(-1074.0, 1023.99).map(lambda e: 2.0 ** e),
    )
    @example(alpha=0.2, beta=1e-300)
    @example(alpha=0.9, beta=1e308)
    def test_valid_weights_exit_0_or_2(self, theorem, alpha, beta):
        # finite alpha in (0, 1] and beta > 0 are well formed: never exit 1
        assert main(["radius", "--theorem", theorem, "--alpha", repr(alpha),
                     "--beta", repr(beta)]) in (0, 2)

    def test_malformed_number_exit_1(self, capsys):
        code, _, err = run(capsys, "radius", "--theorem", "t31", "--alpha", "one", "--beta", "1")
        assert code == 1

    def test_unknown_theorem_exit_1(self, capsys):
        code, _, _ = run(capsys, "radius", "--theorem", "t99", "--alpha", "1", "--beta", "1")
        assert code == 1

    def test_printed_value_reparses_against_defining_quadratic(self, capsys):
        _, out, _ = run(capsys, "radius", "--theorem", "t31", "--alpha", "0.5", "--beta", "0.75")
        fields = dict(kv.split("=", 1) for kv in out.split() if "=" in kv)
        value = float(fields["value"])
        residual = float(fields["residual"])
        assert abs(polyval((1.5, 2.5, -1.0), value)) <= residual + 1e-15


class TestSweepCommand:
    def sweep_args(self, out_path, theorem="t35"):
        return [
            "sweep", "--theorem", theorem,
            "--alpha-min", "0.1", "--alpha-max", "1.0",
            "--beta-min", "0.05", "--beta-max", "2.0",
            "--steps", "20", "--out", str(out_path),
        ]

    def test_grid_shape_and_branches(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, *self.sweep_args(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,beta,theorem,radius,regime,residual"
        assert len(lines) == 401
        regimes = {line.split(",")[4] for line in lines[1:]}
        assert regimes == {"constant", "cubic"}
        # alpha-outer ordering: first 20 rows share the smallest alpha
        first_alphas = {line.split(",")[0] for line in lines[1:21]}
        assert len(first_alphas) == 1

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, *self.sweep_args(a))
        run(capsys, *self.sweep_args(b))
        assert a.read_bytes() == b.read_bytes()

    def test_inadmissible_cells_marked(self, capsys, tmp_path):
        out = tmp_path / "t31.csv"
        code, _, _ = run(capsys, *self.sweep_args(out, theorem="t31"))
        assert code == 0
        na_rows = [l for l in out.read_text().splitlines() if ",NA,inadmissible,NA" in l]
        assert na_rows  # low-beta cells with beta <= 1 - alpha

    def test_grid_ends_on_range(self, capsys, tmp_path):
        # 0.1 + 99 * 0.9 / 99 rounds to one ulp above 1
        out = tmp_path / "end.csv"
        code, _, _ = run(
            capsys, "sweep", "--theorem", "t35", "--alpha-min", "0.1",
            "--alpha-max", "1", "--beta-min", "0.05", "--beta-max", "2",
            "--steps", "100", "--out", str(out),
        )
        assert code == 0
        last = out.read_text().splitlines()[-1]
        assert last.startswith("1,2,t35,")
        assert ",inadmissible," not in last

    @pytest.mark.parametrize("theorem", [t.value for t in Theorem])
    def test_rows_equal_scalar_radius(self, capsys, tmp_path, theorem):
        out = tmp_path / "grid.csv"
        code, _, _ = run(capsys, *self.sweep_args(out, theorem=theorem))
        assert code == 0
        _, *lines = out.read_text().splitlines()
        assert len(lines) == 400
        t = Theorem(theorem)
        for line in lines:
            alpha, beta = (float(x) for x in line.split(",")[:2])  # .17g round-trips
            try:
                cert = radius(t, WeightPair(alpha, beta))
                tail = f"{cert.value:.17g},{cert.regime},{cert.residual:.17g}"
            except DomainError:
                tail = "NA,inadmissible,NA"
            assert line == f"{alpha:.17g},{beta:.17g},{theorem},{tail}"

    def test_huge_beta_range_stays_finite(self, capsys, tmp_path):
        # 2 * (1.5e308 - 0.1) overflows; the grid must still step inside the range
        out = tmp_path / "huge.csv"
        code, _, _ = run(
            capsys, "sweep", "--theorem", "t34", "--alpha-min", "0.9", "--alpha-max", "1",
            "--beta-min", "0.1", "--beta-max", "1.5e308", "--steps", "4", "--out", str(out),
        )
        assert code == 0
        _, *lines = out.read_text().splitlines()
        betas = [float(line.split(",")[1]) for line in lines]
        assert all(math.isfinite(b) and 0.1 <= b <= 1.5e308 for b in betas)
        assert betas[1:3] == [0.1 + 1.5e308 / 3, 0.1 + 2 * (1.5e308 / 3)]

    @pytest.mark.parametrize("bound", ["--alpha-min", "--alpha-max", "--beta-min", "--beta-max"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_bound_exit_2(self, capsys, tmp_path, bound, value):
        bounds = {"--alpha-min": "0.5", "--alpha-max": "1", "--beta-min": "0.1", "--beta-max": "1"}
        bounds[bound] = value
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "sweep", "--theorem", "t35", *[x for item in bounds.items() for x in item],
            "--steps", "3", "--out", str(out),
        )
        assert code == 2
        assert "finite" in err
        assert not out.exists()

    def test_residual_failure_exit_2(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "sweep", "--theorem", "t35", "--alpha-min", "0.5", "--alpha-max", "1",
            "--beta-min", "1", "--beta-max", "1e308", "--steps", "3", "--out", str(out),
        )
        assert code == 2
        assert err.startswith("domain error: ") and "residual" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bracket_failure_exit_2(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "sweep", "--theorem", "t32", "--alpha-min", "0.2", "--alpha-max", "1",
            "--beta-min", "1e-300", "--beta-max", "1", "--steps", "3", "--out", str(out),
        )
        assert code == 2
        assert err.startswith("domain error: no sign change")
        assert not out.exists()

    def test_bad_range_exit_2(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "sweep", "--theorem", "t35", "--alpha-min", "0.5",
            "--alpha-max", "1.5", "--beta-min", "0.1", "--beta-max", "1.0",
            "--steps", "5", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    @settings(max_examples=60, deadline=None)
    @given(theorem=THEOREMS, bounds=st.tuples(HOSTILE, HOSTILE, HOSTILE, HOSTILE),
           steps=st.integers(2, 4), joined=st.booleans())
    def test_hostile_bounds_exit_0_or_2(self, theorem, bounds, steps, joined):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "x.csv")
            names = ("--alpha-min", "--alpha-max", "--beta-min", "--beta-max")
            code, _, err = run_quiet(
                ["sweep", "--theorem", theorem,
                 *[x for n, b in zip(names, bounds) for x in option(n, b, joined)],
                 "--steps", str(steps), "--out", out])
            assert code in (0, 2)
            assert "Traceback" not in err
            assert os.path.exists(out) == (code == 0)

    def test_unwritable_path_exit_3(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--theorem", "t35", "--alpha-min", "0.5",
            "--alpha-max", "1.0", "--beta-min", "0.1", "--beta-max", "1.0",
            "--steps", "3", "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 3


class TestCheckCommand:
    def write_record(self, tmp_path, record):
        path = tmp_path / "fn.json"
        path.write_text(json.dumps(record))
        return str(path)

    def test_moebius_breakdown(self, capsys, tmp_path):
        path = self.write_record(tmp_path, {"kind": "moebius", "a": 0.9})
        code, out, _ = run(
            capsys, "check", "--theorem", "t31", "--alpha", "1", "--beta", "1",
            "--r", "0.2", "--function", path,
        )
        assert code == 0
        fields = dict(kv.split("=", 1) for line in out.splitlines() for kv in line.split() if "=" in kv)
        expected = float(sharpness_fn(0.9, 0.2, WeightPair(1.0, 1.0)))
        assert float(fields["total"]) == pytest.approx(expected, abs=1e-12)
        assert fields["position"] == "below"
        assert fields["satisfied"] == "yes"

    def test_uncertified_exit_4(self, capsys, tmp_path):
        path = self.write_record(tmp_path, {"kind": "polynomial", "coeffs": [[0, 0], [2, 0]]})
        code, _, err = run(
            capsys, "check", "--theorem", "t31", "--alpha", "1", "--beta", "1",
            "--r", "0.2", "--function", path,
        )
        assert code == 4
        assert "sup_estimate" in err

    def test_malformed_json_exit_1(self, capsys, tmp_path):
        path = tmp_path / "fn.json"
        path.write_text("{not json")
        code, _, _ = run(
            capsys, "check", "--theorem", "t31", "--alpha", "1", "--beta", "1",
            "--r", "0.2", "--function", str(path),
        )
        assert code == 1

    def test_unknown_kind_exit_1(self, capsys, tmp_path):
        path = self.write_record(tmp_path, {"kind": "spline"})
        code, _, _ = run(
            capsys, "check", "--theorem", "t31", "--alpha", "1", "--beta", "1",
            "--r", "0.2", "--function", path,
        )
        assert code == 1

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "check", "--theorem", "t31", "--alpha", "1", "--beta", "1",
            "--r", "0.2", "--function", str(tmp_path / "absent.json"),
        )
        assert code == 3

    def test_r_out_of_range_exit_2(self, capsys, tmp_path):
        path = self.write_record(tmp_path, {"kind": "moebius", "a": 0.5})
        code, _, _ = run(
            capsys, "check", "--theorem", "t31", "--alpha", "1", "--beta", "1",
            "--r", "1.5", "--function", path,
        )
        assert code == 2

    @pytest.mark.parametrize("part", [math.nan, math.inf])
    def test_non_finite_zero_exit_2(self, capsys, tmp_path, part):
        # json.dumps writes NaN and Infinity, which json.load reads back
        record = {"kind": "blaschke", "zeros": [[part, 0.0]], "scale": 0.5}
        code, out, err = run(
            capsys, "check", "--theorem", "t31", "--alpha", "0.5", "--beta", "0.6",
            "--r", "0.2", "--function", self.write_record(tmp_path, record),
        )
        assert (code, out) == (2, "")
        assert err == "domain error: all Blaschke zeros must satisfy |z| < 1\n"

    @settings(max_examples=60, deadline=None)
    @given(theorem=THEOREMS, alpha=HOSTILE, beta=HOSTILE,
           r=st.sampled_from([0.0, 0.3, 0.99, -1e308, -math.inf]),
           a=st.sampled_from([0.0, 0.5, 0.99]), joined=st.booleans())
    def test_hostile_weights_exit_0_or_2(self, theorem, alpha, beta, r, a, joined):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fn.json")
            with open(path, "w") as handle:
                json.dump({"kind": "moebius", "a": a}, handle)
            code, _, err = run_quiet(
                ["check", "--theorem", theorem, *option("--alpha", alpha, joined),
                 *option("--beta", beta, joined), *option("--r", r, joined), "--function", path])
        assert code in (0, 2)
        assert "Traceback" not in err

    def test_rotation_area_family(self, capsys, tmp_path):
        path = self.write_record(tmp_path, {"kind": "moebius", "a": 0.0})
        code, out, _ = run(
            capsys, "check", "--theorem", "t35", "--alpha", "1", "--beta", "1",
            "--r", "0.25", "--function", path,
        )
        assert code == 0
        fields = dict(kv.split("=", 1) for line in out.splitlines() for kv in line.split() if "=" in kv)
        assert float(fields["total"]) == pytest.approx(0.25 + 0.0625, abs=1e-12)


class TestVerifyCommand:
    def test_lemma24_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemma24")
        assert code == 0
        assert "campaign=lemma24" in out
        assert "passed=yes" in out

    def test_sharpness_suite_with_witness_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "witnesses.csv"
        code, out, _ = run(
            capsys, "verify", "--suite", "sharpness", "--witness-csv", str(csv_path)
        )
        assert code == 0
        rows = csv_path.read_text().splitlines()
        assert rows[0].startswith("campaign,")
        assert len(rows) == 10

    def test_seeded_determinism(self, capsys):
        code_a, out_a, _ = run(capsys, "verify", "--suite", "sharpness", "--seed", "7")
        code_b, out_b, _ = run(capsys, "verify", "--suite", "sharpness", "--seed", "7")
        assert (code_a, out_a) == (code_b, out_b)
