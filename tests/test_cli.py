import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covpovm import cli
from covpovm import constructions as cx
from covpovm import povm as pv

from support import codim2_povm

SRC = Path(__file__).resolve().parents[1] / "src"

# the options each construction kind takes besides -o and --rng-seed
KIND_OPTIONS = {
    "wh": ["--dim", "--mixed"],
    "quat3": ["--alpha", "--v", "--bypass-conditions"],
    "dihedral3": ["--alpha", "--v", "--bypass-conditions"],
    "rank1": ["--alpha", "--gamma"],
}
# each option with a well-formed value, and each kind's shortest valid argv
OPTION_ARGV = {"--dim": ["--dim", "4"], "--mixed": ["--mixed"], "--alpha": ["--alpha", "1,2,3"],
               "--v": ["--v", "1,2,3,4"], "--gamma": ["--gamma", "1"],
               "--bypass-conditions": ["--bypass-conditions"]}
KIND_ARGV = {"wh": ["wh", "--dim", "3"], "quat3": ["quat3"], "dihedral3": ["dihedral3"],
             "rank1": ["rank1"]}
# (a kind's argv, options of other kinds): each option alone, then three mixes
FOREIGN_OPTIONS = [(KIND_ARGV[kind], OPTION_ARGV[option]) for kind, own in KIND_OPTIONS.items()
                   for option in OPTION_ARGV if option not in own] + [
    (["quat3"], ["--dim", "4", "--gamma", "3", "--mixed"]),
    (["rank1"], ["--v", "1,2", "--dim", "9", "--mixed"]),
    (KIND_ARGV["wh"], ["--alpha", "1,2,3", "--v", "1,2,3,4", "--gamma", "1",
                       "--bypass-conditions"]),
]


def subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def construct_parsers():
    return subcommands(subcommands(cli.build_parser())["construct"])


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestConstruct:
    def test_quat3_default(self, tmp_path, capsys):
        out = tmp_path / "quat3.json"
        code, report, err = run_cli(
            capsys, "construct", "quat3", "-o", str(out)
        )
        assert code == 0
        assert report["verdicts"]["outcomes"] == 8
        assert report["verdicts"]["validation"]["passed"]
        assert out.exists()
        povm = pv.povm_from_json(json.loads(out.read_text()))
        assert len(povm) == 8

    def test_wh_dim3(self, tmp_path, capsys):
        out = tmp_path / "wh3.json"
        code, report, _ = run_cli(
            capsys, "construct", "wh", "--dim", "3", "--rng-seed", "7", "-o", str(out)
        )
        assert code == 0
        assert report["verdicts"]["outcomes"] == 9
        assert report["verdicts"]["span_dim"] == 9

    def test_alpha_violation_exits_2_naming_condition(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        code, report, err = run_cli(
            capsys, "construct", "quat3", "--alpha", "0,0.1,0.1", "-o", str(out)
        )
        assert code == 2
        assert "cond:1" in err
        assert "cond:1" in report["error"]
        assert not out.exists()

    def test_dihedral_equal_moduli_exits_2(self, tmp_path, capsys):
        code, report, err = run_cli(
            capsys, "construct", "dihedral3", "--v", "0.03,0,0.03,0",
            "-o", str(tmp_path / "d.json"),
        )
        assert code == 2
        assert "dihedral-moduli" in report["error"]

    def test_rank1_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "rank1.json"
        code, report, _ = run_cli(
            capsys, "construct", "rank1", "--gamma", "0.5", "-o", str(out)
        )
        assert code == 0
        povm = pv.povm_from_json(json.loads(out.read_text()))
        assert pv.operator_span(povm).dim == 8

    @pytest.mark.parametrize("argv, build", [
        (["wh", "--dim", "3", "--rng-seed", "7"],
         lambda: cx.build_weyl_heisenberg(
             cx.WhParams(3, cx.default_wh_seed(3, 7), require_ic=True))[0]),
        (["wh", "--dim", "3", "--mixed"],
         lambda: cx.build_weyl_heisenberg(cx.WhParams(3, np.eye(3) / 9))[0]),
        (["quat3"], lambda: cx.build_quat3_pic()[0]),
    ], ids=["wh3", "wh3-mixed", "quat3"])
    def test_written_file_has_one_outcome_per_line(self, tmp_path, capsys, argv, build):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run_cli(capsys, "construct", *argv, "-o", str(path))
            assert code == 0
        text = paths[0].read_text()
        assert paths[1].read_text() == text
        povm = build()
        lines = text.splitlines()
        assert len(lines) == len(povm) + 2
        for label, line in zip(povm.labels, lines[1:-1]):
            assert json.loads(line.rstrip(","))["label"] == label
        assert json.loads(text) == pv.povm_to_json(povm)

    def test_written_file_bytes(self, tmp_path, capsys):
        out = tmp_path / "wh.json"
        run_cli(capsys, "construct", "wh", "--dim", "4", "--rng-seed", "3", "-o", str(out))
        doc = pv.povm_to_json(cx.build_weyl_heisenberg(
            cx.WhParams(4, cx.default_wh_seed(4, 3), require_ic=True))[0])
        assert out.read_text() == (
            '{"dim": 4, "outcomes": [\n'
            + ",\n".join(json.dumps(entry) for entry in doc["outcomes"])
            + "\n]}\n"
        )

    @pytest.mark.parametrize("argv", [["wh", "--dim", "3", "--mixed"], ["quat3"]],
                             ids=["wh-mixed", "quat3"])
    def test_negative_rng_seed_exits_2_where_no_seed_is_drawn(self, tmp_path, capsys, argv):
        out = tmp_path / "x.json"
        code, report, err = run_cli(capsys, "construct", *argv, "--rng-seed", "-5", "-o", str(out))
        assert code == 2
        assert "non-negative" in err and "non-negative" in report["error"]
        assert not out.exists()

    def test_negative_rng_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "wh.json"
        code, report, err = run_cli(
            capsys, "construct", "wh", "--dim", "3", "--rng-seed", "-1", "-o", str(out)
        )
        assert code == 2
        assert "non-negative" in err and "non-negative" in report["error"]
        assert not out.exists()

    @pytest.mark.parametrize("argv, option", [
        (["quat3", "--alpha", "nan,0.03,0.01"], "--alpha"),
        (["dihedral3", "--v", "0.03,0,inf,0"], "--v"),
    ])
    def test_non_finite_list_entry_exits_2(self, tmp_path, capsys, argv, option):
        out = tmp_path / "x.json"
        code, report, err = run_cli(capsys, "construct", *argv, "-o", str(out))
        assert code == 2
        assert option in err and "finite" in report["error"]
        assert not out.exists()

    @pytest.mark.parametrize("argv, option", [
        (["rank1", "--gamma", "inf"], "--gamma"),
        (["rank1", "--gamma", "1e999"], "--gamma"),  # overflows to inf
        (["rank1", "--gamma", "nan"], "--gamma"),
        (["rank1", "--gamma=-inf"], "--gamma"),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, argv, option):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exit_:
            cli.main(["construct", *argv, "-o", str(out)])
        err = capsys.readouterr().err
        assert exit_.value.code == 2
        assert f"argument {option}" in err and "not a finite number" in err
        assert not out.exists()

    def test_lambda_is_not_an_option(self, tmp_path, capsys):
        # T = diag(2, -1, -1) carries no scale, so there is none to set
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exit_:
            cli.main(["construct", "quat3", "--lambda", "2", "-o", str(out)])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --lambda 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", KIND_OPTIONS)
    def test_each_kind_takes_exactly_its_options(self, kind):
        options = {opt for action in construct_parsers()[kind]._actions
                   for opt in action.option_strings}
        assert options == {"-h", "--help", "-o", "--out", "--rng-seed", *KIND_OPTIONS[kind]}

    @pytest.mark.parametrize("argv, foreign", FOREIGN_OPTIONS,
                             ids=[argv[0] + "".join(o for o in foreign if o.startswith("--"))
                                  for argv, foreign in FOREIGN_OPTIONS])
    def test_option_of_another_kind_exits_2(self, tmp_path, capsys, argv, foreign):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exit_:
            cli.main(["construct", *argv, *foreign, "-o", str(out)])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(foreign)}" in capsys.readouterr().err
        assert not out.exists()

    def test_wh_without_dim_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exit_:
            cli.main(["construct", "wh", "-o", str(out)])
        captured = capsys.readouterr()
        assert exit_.value.code == 2
        assert "required: --dim" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("kind", KIND_OPTIONS)
    def test_every_construct_option_is_read(self, tmp_path, capsys, kind):
        # an option its kind's builder ignores would be accepted with no effect
        reads = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        argv = ["construct", *KIND_ARGV[kind], "-o", str(tmp_path / "x.json")]
        args = cli.build_parser().parse_args(argv, namespace=Recording())
        reads.clear()
        assert args.func(args) == 0
        capsys.readouterr()
        dests = {action.dest for action in construct_parsers()[kind]._actions
                 if not isinstance(action, argparse._HelpAction)}
        assert dests and dests <= reads

    def test_unwritable_path_exits_3(self, capsys):
        code, report, err = run_cli(
            capsys, "construct", "quat3", "-o", "/nonexistent-dir/x.json"
        )
        assert code == 3


class TestAnalyze:
    def test_falsifier_defaults_are_the_settings_defaults(self):
        args = cli.build_parser().parse_args(["analyze", "f.json"])
        settings = pv.FalsifierSettings()
        assert (args.falsifier_restarts, args.rng_seed) == (settings.restarts, settings.rng_seed)

    def test_quat3_pic(self, tmp_path, capsys):
        out = tmp_path / "quat3.json"
        run_cli(capsys, "construct", "quat3", "-o", str(out))
        code, report, err = run_cli(capsys, "analyze", str(out), "--pic")
        assert code == 0
        assert report["verdicts"]["pic"]["status"] == "PIC_certified"
        assert report["verdicts"]["pic"]["complement_dim"] == 1
        assert report["verdicts"]["ic"] is False

    def test_wh_ic(self, tmp_path, capsys):
        out = tmp_path / "wh.json"
        run_cli(capsys, "construct", "wh", "--dim", "2", "-o", str(out))
        code, report, _ = run_cli(capsys, "analyze", str(out))
        assert code == 0
        assert report["verdicts"]["ic"] is True
        assert report["verdicts"]["span_dim"] == 4

    def test_validates_once(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "wh.json"
        run_cli(capsys, "construct", "wh", "--dim", "2", "-o", str(out))
        calls = []
        validate = pv.validate

        def counted(povm):
            calls.append(povm)
            return validate(povm)

        monkeypatch.setattr(pv, "validate", counted)
        code, report, _ = run_cli(capsys, "analyze", str(out))
        assert code == 0
        assert len(calls) == 1
        assert report["verdicts"]["validation"]["passed"]

    def test_single_identity_not_pic_with_witness(self, tmp_path, capsys):
        doc = pv.povm_to_json(pv.Povm(2, [("all", np.eye(2, dtype=complex))]))
        path = tmp_path / "id.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_cli(capsys, "analyze", str(path), "--pic")
        assert code == 0
        assert report["verdicts"]["pic"]["status"] == "not_PIC"
        assert report["verdicts"]["pic"]["witness"] is not None

    def test_malformed_json_exits_2_with_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2, "outcomes": [')
        code, report, err = run_cli(capsys, "analyze", str(path), "--pic")
        assert code == 2
        assert "line" in err and "column" in err

    def test_non_psd_outcome_exits_2_naming_label(self, tmp_path, capsys):
        doc = {
            "dim": 2,
            "outcomes": [
                {"label": "up", "matrix": [[[1.2, 0], [0, 0]], [[0, 0], [0, 0]]]},
                {"label": "down", "matrix": [[[-0.2, 0], [0, 0]], [[0, 0], [1, 0]]]},
            ],
        }
        path = tmp_path / "nonpsd.json"
        path.write_text(json.dumps(doc))
        code, report, err = run_cli(capsys, "analyze", str(path), "--pic")
        assert code == 2
        assert "down" in err

    @pytest.mark.parametrize("restarts", ["0", "-2"])
    def test_no_falsifier_restarts_exits_2(self, tmp_path, capsys, restarts):
        out = tmp_path / "id.json"
        out.write_text(json.dumps(pv.povm_to_json(pv.Povm(2, [("all", np.eye(2))]))))
        code, report, err = run_cli(
            capsys, "analyze", str(out), "--pic", "--falsifier-restarts", restarts
        )
        assert code == 2
        assert "restart" in err and "restart" in report["error"]

    def test_negative_rng_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "mixed.json"
        run_cli(capsys, "construct", "wh", "--dim", "3", "--mixed", "-o", str(out))
        code, report, err = run_cli(capsys, "analyze", str(out), "--pic", "--rng-seed", "-1")
        assert code == 2
        assert "non-negative" in err and "non-negative" in report["error"]

    @pytest.mark.parametrize("argv, option, message", [
        (["quat3"], ["--rng-seed", "-1"], "non-negative"),
        (["quat3"], ["--falsifier-restarts", "0"], "restart"),
        (["wh", "--dim", "3", "--rng-seed", "7"], ["--falsifier-restarts", "-3"], "restart"),
    ], ids=["quat3-seed", "quat3-restarts", "wh3-restarts"])
    def test_falsifier_settings_checked_without_a_search(self, tmp_path, capsys, argv, option,
                                                         message):
        # complements of dimension 1 and 0: the falsifier never runs
        out = tmp_path / "x.json"
        run_cli(capsys, "construct", *argv, "-o", str(out))
        code, report, err = run_cli(capsys, "analyze", str(out), "--pic", *option)
        assert code == 2
        assert message in err and message in report["error"]

    @pytest.mark.parametrize("option, message", [
        (["--rng-seed", "-1"], "non-negative"),
        (["--falsifier-restarts", "0"], "restart"),
    ], ids=["seed", "restarts"])
    def test_falsifier_settings_checked_without_pic(self, tmp_path, capsys, option, message):
        out = tmp_path / "quat3.json"
        run_cli(capsys, "construct", "quat3", "-o", str(out))
        code, report, err = run_cli(capsys, "analyze", str(out), *option)
        assert code == 2
        assert message in err and message in report["error"]

    def test_codim2_certificate(self, tmp_path, capsys):
        path = tmp_path / "codim2.json"
        path.write_text(json.dumps(pv.povm_to_json(codim2_povm())))
        code, report, _ = run_cli(capsys, "analyze", str(path), "--pic")
        assert code == 0
        pic = report["verdicts"]["pic"]
        assert pic["status"] == "PIC_certified" and pic["complement_dim"] == 2
        assert pic["witness"] is None and pic["residual"] is None
        assert pic["certificate"]["method"] == "lipschitz-cover"
        assert pic["certificate"]["points"] == 6
        assert pic["certificate"]["min_sigma3"] == pytest.approx(0.5, abs=1e-12)

    def test_certificate_only_when_the_verdict_has_one(self, tmp_path, capsys):
        # c = 8: the cover's first level holds a rank-2 element, a witness without a certificate
        out = tmp_path / "mixed.json"
        run_cli(capsys, "construct", "wh", "--dim", "3", "--mixed", "-o", str(out))
        _, report, _ = run_cli(capsys, "analyze", str(out), "--pic")
        assert list(report["verdicts"]["pic"]) == ["status", "complement_dim", "residual",
                                                   "witness"]

    def test_out_of_range_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"dim": 1, "outcomes": [{"label": "x", "matrix": [[[1' + "0" * 400 + ', 0]]]}]}'
        )
        code, report, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "outcome #0" in report["error"]

    def test_missing_file_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "/no/such/file.json")
        assert code == 3

    def test_round_trip_determinism(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        run_cli(capsys, "construct", "quat3", "-o", str(out))
        code1 = cli.main(["analyze", str(out), "--pic", "--rng-seed", "5"])
        bytes1 = capsys.readouterr().out
        code2 = cli.main(["analyze", str(out), "--pic", "--rng-seed", "5"])
        bytes2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert bytes1 == bytes2

    def test_file_verdicts_match_in_memory(self, tmp_path, capsys):
        from covpovm import constructions as cx

        out = tmp_path / "q.json"
        run_cli(capsys, "construct", "quat3", "-o", str(out))
        _, report, _ = run_cli(capsys, "analyze", str(out), "--pic")
        povm, _, _ = cx.build_quat3_pic()
        direct = pv.check_pic(povm)
        assert report["verdicts"]["pic"]["status"] == direct.status
        assert report["verdicts"]["pic"]["complement_dim"] == direct.complement_dim
        assert report["verdicts"]["span_dim"] == pv.operator_span(povm).dim


class TestGroup:
    def test_quaternion_irreps(self, capsys):
        code, report, err = run_cli(capsys, "group", "quaternion")
        assert code == 0
        dims = sorted(e["dim"] for e in report["verdicts"]["irreps"])
        assert dims == [1, 1, 1, 1, 2]

    def test_cyclic8_characters(self, capsys):
        code, report, _ = run_cli(capsys, "group", "cyclic:8")
        assert code == 0
        assert len(report["verdicts"]["irreps"]) == 8

    def test_quaternion_center_obstruction_exits_2(self, capsys):
        code, report, err = run_cli(
            capsys, "group", "quaternion", "--cosets", "1,-1", "--obstruction"
        )
        assert code == 2
        assert "index 4 not prime" in err
        assert "no cyclic transitive subgroup" in err
        assert report["verdicts"]["obstruction"]["cyclic_transitive_subgroup"] is None

    def test_dihedral_prime_index_obstruction(self, capsys):
        code, report, _ = run_cli(
            capsys, "group", "dihedral8", "--cosets", "is1", "--obstruction"
        )
        assert code == 0
        assert report["verdicts"]["obstruction"]["index"] == 2

    @pytest.mark.parametrize("cosets, count", [("(1,0)", 3), ("(1,0),(0,1)", 1)])
    def test_cosets_name_product_elements(self, capsys, cosets, count):
        code, report, _ = run_cli(
            capsys, "group", "product(cyclic:3,cyclic:3)", "--cosets", cosets
        )
        assert code == 0
        assert report["verdicts"]["coset_count"] == count

    def test_unknown_kind_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "group", "sporadic")
        assert code == 2


class TestTables:
    def test_all_records(self, capsys):
        code, report, _ = run_cli(capsys, "tables")
        assert code == 0
        assert report["verdicts"]["min_outcomes"]["3"] == 8
        assert report["verdicts"]["min_outcomes"]["8"] == [24, 25]
        assert len(report["verdicts"]["prime_dimensions"]) == 15

    def test_single_dimension(self, capsys):
        code, report, _ = run_cli(capsys, "tables", "--dim", "7")
        assert code == 0
        assert report["verdicts"]["record"]["min_outcomes"] == 23
        assert report["verdicts"]["record"]["is_prime"] is True

    def test_unknown_dimension_reports_bound(self, capsys):
        code, report, _ = run_cli(capsys, "tables", "--dim", "100")
        assert code == 0
        assert report["verdicts"]["known"] is False
        assert report["verdicts"]["general_bound"] == [4 * 100 - 4 - 13, 4 * 100 - 4]

    @pytest.mark.parametrize("dim", ["0", "1", "-3"])
    def test_dimension_below_two_exits_2(self, capsys, dim):
        code, report, err = run_cli(capsys, "tables", "--dim", dim)
        assert code == 2
        assert "at least 2" in err and "at least 2" in report["error"]


class TestModuleEntryPoint:
    """The CLI as a separate interpreter, the way scripts and the benchmark call it."""

    def run_module(self, *argv):
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), path])))
        proc = subprocess.run(
            [sys.executable, "-m", "covpovm.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        return proc.returncode, json.loads(proc.stdout), proc.stderr

    def test_construct_then_analyze(self, tmp_path):
        out = tmp_path / "wh3.json"
        code, report, err = self.run_module(
            "construct", "wh", "--dim", "3", "--rng-seed", "7", "-o", str(out)
        )
        assert code == 0, err
        assert report["command"] == "construct"
        assert report["verdicts"]["outcomes"] == 9
        assert report["verdicts"]["span_dim"] == 9
        code, report, err = self.run_module("analyze", "--pic", str(out), "--rng-seed", "3")
        assert code == 0, err
        assert report["verdicts"]["ic"] is True
        assert report["verdicts"]["pic"]["status"] == "PIC_certified"
        assert err.strip() == f"{out}: span 9/9, ic=True, pic=PIC_certified"
