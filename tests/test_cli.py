"""Command-line surface: subcommands, formats, exit codes, determinism."""

import json
from pathlib import Path

import pytest

import modalkit as mk
from modalkit import linalg
from modalkit.cli import cli

from conftest import CallCount, bss

GAUSS_MODEL = str(Path(__file__).resolve().parent / "golden" / "gauss_model.json")


@pytest.fixture
def bss_tsv(tmp_path):
    path = tmp_path / "bss.tsv"
    mk.probability.dump_joint_tsv(bss(0.3), path)
    return str(path)


@pytest.fixture
def gauss_json(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(
        json.dumps(
            {"dim_x": 1, "dim_y": 1, "cov_x": [[1.0]], "cov_y": [[1.0]], "cov_xy": [[0.4]]}
        ),
        encoding="utf-8",
    )
    return str(path)


def run(capsys, argv):
    code = cli(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDecompose:
    def test_bss_sigma(self, capsys, bss_tsv):
        code, out, _ = run(capsys, ["decompose", "--input", bss_tsv, "--k", "1"])
        assert code == 0
        data = json.loads(out)
        assert data["sigmas"][0] == pytest.approx(0.3, abs=1e-9)

    def test_json_input_format(self, capsys, tmp_path):
        path = tmp_path / "j.json"
        path.write_text(json.dumps({"rows": [["a", "b", 0.5], ["c", "d", 0.5]]}))
        code, out, _ = run(
            capsys, ["decompose", "--input", str(path), "--format", "json", "--k", "1"]
        )
        assert code == 0
        assert json.loads(out)["sigmas"][0] == pytest.approx(1.0, abs=1e-9)

    def test_output_file(self, tmp_path, capsys, bss_tsv):
        out_path = tmp_path / "out.json"
        code, out, _ = run(
            capsys, ["decompose", "--input", bss_tsv, "--k", "1", "--output", str(out_path)]
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["sigmas"][0] == pytest.approx(0.3, abs=1e-9)


class TestAceCommand:
    def test_trace_in_payload(self, capsys, bss_tsv):
        code, out, _ = run(capsys, ["ace", "--input", bss_tsv, "--k", "1", "--seed", "3"])
        assert code == 0
        data = json.loads(out)
        assert data["trace"]["converged"] is True
        assert data["sigmas"][0] == pytest.approx(0.3, abs=1e-8)


class TestRecommendCommand:
    def test_json_schema(self, capsys, bss_tsv):
        code, out, _ = run(
            capsys, ["recommend", "--input", bss_tsv, "--k", "1", "--user", "0", "--top", "1"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["user"] == "0"
        assert data["items"][0]["item"] == "0"
        assert "score" in data["items"][0]

    def test_unknown_user_is_data_error(self, capsys, bss_tsv):
        code, _, err = run(
            capsys, ["recommend", "--input", bss_tsv, "--k", "1", "--user", "zz"]
        )
        assert code == 2
        assert "UNKNOWN_USER" in err


class TestCommonInfoCommand:
    def test_value_and_config(self, capsys, bss_tsv):
        code, out, _ = run(capsys, ["common-info", "--input", bss_tsv])
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(0.3, abs=1e-9)
        assert data["config"]["w"] == ["+1", "-1"]

    def test_independent_joint_is_numerical_error(self, capsys, tmp_path):
        path = tmp_path / "ind.tsv"
        path.write_text(
            "a\tc\t0.25\na\td\t0.25\nb\tc\t0.25\nb\td\t0.25\n", encoding="utf-8"
        )
        code, _, err = run(capsys, ["common-info", "--input", str(path)])
        assert code == 3
        assert "CONFIG_INVALID" in err


class TestGaussianCommands:
    def test_cca(self, capsys, gauss_json):
        code, out, _ = run(capsys, ["cca", "--input", gauss_json, "--k", "1"])
        assert code == 0
        assert json.loads(out)["sigmas"][0] == pytest.approx(0.4, abs=1e-10)

    def test_gauss_regress(self, capsys, gauss_json):
        code, out, _ = run(capsys, ["gauss-regress", "--input", gauss_json, "--k", "1"])
        assert code == 0
        data = json.loads(out)
        assert data["predictor_kl"][0][0] == pytest.approx(0.4, abs=1e-10)
        assert data["predictor_mmse"][0][0] == pytest.approx(0.4, abs=1e-10)

    @pytest.mark.parametrize("command,svds,choleskys", [("cca", 1, 2), ("gauss-regress", 2, 2)])
    def test_factorizations_per_run(self, capsys, monkeypatch, command, svds, choleskys):
        """One SVD of the CCM and one Cholesky factor per covariance,
        at load; gauss-regress adds only the SVD of its MMSE matrix."""
        svd_count = CallCount(monkeypatch, linalg, "svd_oracle")
        chol_count = CallCount(monkeypatch, linalg, "cholesky")
        assert run(capsys, [command, "--input", GAUSS_MODEL, "--k", "2"])[0] == 0
        assert (svd_count.n, chol_count.n) == (svds, choleskys)


class TestSampleComplexityCommand:
    def test_report_shape(self, capsys, bss_tsv):
        code, out, _ = run(
            capsys,
            [
                "sample-complexity", "--input", bss_tsv, "--k", "1",
                "--n-grid", "200,400", "--delta-grid", "0.1,0.2",
                "--trials", "100", "--seed", "5",
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert data["experiment"] == "sigma-tail"
        assert len(data["cells"]) == 4


class TestSynthCommand:
    def test_byte_identical_for_fixed_seed(self, capsys):
        argv = ["synth", "--k", "2", "--seed", "7", "--x-size", "3", "--y-size", "4"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_output_is_a_valid_joint(self, capsys):
        code, out, _ = run(capsys, ["synth", "--k", "1", "--seed", "1"])
        assert code == 0
        data = json.loads(out)
        j = mk.joint_from_table([(x, y, p) for x, y, p in data["rows"]])
        md = mk.decompose(j, 1)
        assert md.sigmas[0] == pytest.approx(data["sigmas"][0], abs=1e-9)


class TestExitCodes:
    def test_missing_input_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["decompose"])
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 1

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run(capsys, ["decompose", "--input", "/nonexistent.tsv", "--k", "1"])
        assert code == 2

    def test_malformed_tsv_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\tnot-a-number\n", encoding="utf-8")
        code, _, err = run(capsys, ["decompose", "--input", str(path), "--k", "1"])
        assert code == 2
        assert "BAD_TSV" in err


class TestErrorContract:
    """Invalid input exits with its documented code and exactly one
    `error[CODE]` line on stderr, never a traceback."""

    @staticmethod
    def assert_one_error(code, out, err, want_exit, want_code):
        assert code == want_exit
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error[{want_code}]: "), err

    @pytest.mark.parametrize(
        "flags",
        [["--trials", "0"], ["--trials", "-3"], ["--n-grid", "0"], ["--n-grid", ","]],
        ids=["trials-0", "trials-negative", "n-grid-0", "n-grid-empty"],
    )
    @pytest.mark.parametrize("experiment", ["sigma", "feature", "mi"])
    def test_bad_monte_carlo_options(self, capsys, bss_tsv, flags, experiment):
        argv = ["sample-complexity", "--input", bss_tsv, "--experiment", experiment, *flags]
        self.assert_one_error(*run(capsys, argv), 2, "BAD_OPTIONS")

    def test_indefinite_covariance(self, capsys, tmp_path):
        path = tmp_path / "indefinite.json"
        model = {"dim_x": 2, "dim_y": 1, "cov_x": [[1.0, 2.0], [2.0, 1.0]], "cov_y": [[1.0]],
                 "cov_xy": [[0.1], [0.1]]}
        path.write_text(json.dumps(model), encoding="utf-8")
        argv = ["cca", "--input", str(path), "--k", "1"]
        self.assert_one_error(*run(capsys, argv), 3, "NOT_POSITIVE_DEFINITE")

    @pytest.mark.parametrize("experiment", ["sigma", "feature", "mi"])
    def test_empty_delta_grid(self, capsys, bss_tsv, experiment):
        argv = ["sample-complexity", "--input", bss_tsv, "--experiment", experiment, "--delta-grid", ","]
        self.assert_one_error(*run(capsys, argv), 2, "BAD_OPTIONS")

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    def test_bad_ace_tol(self, capsys, bss_tsv, tol):
        argv = ["ace", "--input", bss_tsv, "--tol", tol]
        self.assert_one_error(*run(capsys, argv), 2, "BAD_OPTIONS")

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "-1"])
    def test_bad_synth_eps(self, capsys, eps):
        """A usage error prints the usage text, then its one error line."""
        code, out, err = run(capsys, ["synth", f"--eps={eps}"])
        assert code == 1 and out == ""
        lines = [line for line in err.splitlines() if line.startswith("error[")]
        assert lines == [err.splitlines()[-1]] and lines[0].startswith("error[USAGE]: "), err

    # Flags a subcommand used to accept and then ignore.
    REMOVED_FLAGS = [
        *[(c, f) for c in ("decompose", "recommend") for f in ("--tol", "--max-iters", "--seed")],
        *[("common-info", f) for f in ("--k", "--tol", "--max-iters", "--seed")],
        *[(c, f) for c in ("cca", "gauss-regress") for f in ("--format", "--tol", "--max-iters", "--seed")],
        *[("sample-complexity", f) for f in ("--tol", "--max-iters")],
        *[("synth", f) for f in ("--format", "--tol", "--max-iters")],
    ]
    FLAG_VALUES = {"--format": "tsv", "--k": "1", "--tol": "1e-8", "--max-iters": "5", "--seed": "3"}

    @pytest.mark.parametrize("command,flag", REMOVED_FLAGS, ids=[f"{c}{f}" for c, f in REMOVED_FLAGS])
    def test_unread_flag_is_usage_error(self, capsys, bss_tsv, command, flag):
        """A subcommand accepts only the flags its handler reads."""
        base = {
            "decompose": ["--input", bss_tsv],
            "recommend": ["--input", bss_tsv, "--user", "0"],
            "common-info": ["--input", bss_tsv],
            "cca": ["--input", GAUSS_MODEL],
            "gauss-regress": ["--input", GAUSS_MODEL],
            "sample-complexity": ["--input", bss_tsv, "--trials", "5"],
            "synth": [],
        }[command]
        assert run(capsys, [command, *base])[0] == 0
        code, out, err = run(capsys, [command, *base, flag, self.FLAG_VALUES[flag]])
        assert code == 1 and out == ""
        lines = [line for line in err.splitlines() if line.startswith("error[")]
        assert lines == [err.splitlines()[-1]] and lines[0].startswith("error[USAGE]: "), err
        assert flag in lines[0]

    @pytest.mark.parametrize(
        "command,content,flags,want",
        [
            ("decompose", None, [], "IO_ERROR"),
            ("decompose", b"0\t0\t\xff\xfe\n", [], "BAD_ENCODING"),
            ("decompose", b'{"rows": [', ["--format", "json"], "BAD_JSON"),
            ("cca", b"{not json", [], "BAD_JSON"),
            ("gauss-regress", b"{not json", [], "BAD_JSON"),
            ("cca", b"[1, 2]", [], "BAD_JSON"),
            ("cca", b'{"cov_x": [["a"]], "cov_y": [[1.0]], "cov_xy": [[0.1]]}', [], "BAD_JSON"),
            ("cca", b'{"cov_x": [[1.0, 0.0], [0.0]], "cov_y": [[1.0]], "cov_xy": [[0.1]]}', [], "BAD_JSON"),
            ("decompose", b"0\t0\tnan\n0\t1\t0.5\n1\t0\t0.25\n1\t1\t0.25\n", [], "NEGATIVE_PROB"),
        ],
        ids=[
            "directory", "non-utf8", "bad-joint-json", "bad-cca-json", "bad-regress-json",
            "gaussian-list", "gaussian-non-numeric", "gaussian-ragged", "nan-cell",
        ],
    )
    def test_bad_input(self, capsys, tmp_path, command, content, flags, want):
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        argv = [command, "--input", str(path), *flags]
        self.assert_one_error(*run(capsys, argv), 2, want)
