import json
import time

import pytest

from btamari import enumeration, lattice, parabolic, tamari
from btamari.cli import main
from btamari.errors import NotALatticeError
from btamari.parabolic import Composition
from btamari.projection import theta_classes
from btamari.signed_perm import SignedPermutation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--alpha", "0,1,2")
        assert code == 0
        assert len(out.splitlines()) == 24

    def test_join_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--alpha", "1,2")
        assert code == 0
        assert len(out.splitlines()) == 12

    def test_aligned(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--alpha", "0,1", "--aligned")
        assert code == 0
        assert out.splitlines() == ["-1", "1"]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "enumerate", "--alpha", "0,1")
        assert code == 0
        assert json.loads(out) == ["-1", "1"]

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(capsys, "enumerate", "--alpha", "banana")
        assert code == 2
        assert "error" in err

    def test_cap_exit_three(self, capsys):
        for alpha in ("0,32766", "16383,16383", "2500,2500"):
            # Counts of 1,500 to 9,900 digits, worded as a power of ten.
            code, out, err = run(capsys, "cover-enum", "--alpha", alpha)
            assert (code, out) == (3, ""), alpha
            assert len(err.splitlines()) == 1 and err.startswith("error:")
            assert len(err) < 200
        code, _, err = run(capsys, "--cap", "10", "enumerate", "--alpha", "0,1,1,1")
        assert code == 3

    @pytest.mark.parametrize(
        "argv", [["cover-enum"], ["enumerate"], ["lattice", "--check", "all"]]
    )
    def test_wide_block_step_exit_three(self, capsys, monkeypatch, argv):
        # 32,766 rows of 32,766 values: refused before any gather table.
        def not_built(*args):
            raise AssertionError("gather table built for a refused step")

        monkeypatch.setattr(parabolic, "_block_gather", not_built)
        code, out, err = run(capsys, *argv, "--alpha", "32765,1")
        assert (code, out) == (3, "")
        assert err == "error: enumeration needs 16775169 elements, cap is 2000000\n"

    def test_batch(self, capsys, tmp_path):
        batch = tmp_path / "alphas.txt"
        batch.write_text("0,1\n1\n", encoding="utf-8")
        code, out, _ = run(capsys, "enumerate", "--batch", str(batch))
        assert code == 0
        assert len(out.splitlines()) == 3

    @pytest.mark.parametrize(
        "argv", [["enumerate"], ["cover-enum"], ["lattice", "--check", "all"]]
    )
    def test_empty_batch_prints_nothing(self, capsys, tmp_path, argv):
        batch = tmp_path / "empty.txt"
        batch.write_text("", encoding="utf-8")
        assert run(capsys, *argv, "--batch", str(batch)) == (0, "", "")

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--alpha", "0,2,1", "--aligned")
        _, second, _ = run(capsys, "enumerate", "--alpha", "0,2,1", "--aligned")
        assert first == second


class TestDegreeBound:
    """Rows are int16 past n = 126; a degree whose values or successors
    would not fit is refused when its composition is built."""

    def test_largest_degree_enumerates(self, capsys):
        code, out, err = run(capsys, "enumerate", "--alpha", "32766")
        assert (code, err) == (0, "")
        assert out == ",".join(map(str, range(1, 32767))) + "\n"

    def test_largest_single_block_counts(self, capsys):
        # Its scan plan has no entry, found without visiting position pairs.
        assert run(capsys, "cover-enum", "--alpha", "32766") == (0, "1\n", "")

    @pytest.mark.parametrize("degree", ["32767", "40000", "3000000000", str(10**20)])
    @pytest.mark.parametrize(
        "command",
        [
            ["enumerate", "--alpha", "{n}"],
            ["enumerate", "--aligned", "--alpha", "{n}"],
            ["cover-enum", "--alpha", "{n}"],
            ["lattice", "--check", "all", "--alpha", "{n}"],
            ["sequence", "--max-n", "{n}"],
            ["conjecture", "--t", "{n}", "--min-n", "{n}", "--max-n", "{n}"],
            ["conjecture", "--t", "1", "--min-n", "{n}", "--max-n", "{n}"],
            ["conjecture", "--type-d", "--min-n", "{n}", "--max-n", "{n}"],
        ],
    )
    def test_larger_degrees_exit_two(self, capsys, command, degree):
        code, out, err = run(capsys, *(a.format(n=degree) for a in command))
        assert (code, out) == (2, "")
        assert err == f"error: degree {degree} is above the largest supported, 32766\n"


class TestProject:
    def test_down_example(self, capsys):
        code, out, _ = run(
            capsys, "project", "--alpha", "0,2,1", "--perm", " -3,1,-2", "--dir", "down"
        )
        assert code == 0
        assert out.strip() == "-3,2,1"

    def test_down_fixpoint(self, capsys):
        code, out, _ = run(
            capsys, "project", "--alpha", "0,1,1", "--perm", "1,2", "--dir", "down"
        )
        assert code == 0
        assert out.strip() == "1,2"

    def test_up_identity_class(self, capsys):
        code, out, _ = run(
            capsys, "project", "--alpha", "0,1,1", "--perm", "1,2", "--dir", "up"
        )
        assert code == 0
        assert out.strip() == "1,2"

    def test_up_json(self, capsys):
        code, out, _ = run(
            capsys, "project", "--alpha", "0,2,1", "--perm", " -3,2,1", "--dir", "up",
            "--format", "json",
        )
        assert code == 0
        assert out == '{"alpha": "0,2,1", "result": "-3,1,-2"}\n'

    def test_classes_listing(self, capsys):
        code, out, _ = run(capsys, "project", "--alpha", "0,1,1", "--classes")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 6
        assert {"bottom": "2,1", "top": "1,-2", "members": ["1,-2", "2,-1", "2,1"]} in data

    def test_classes_streamed_as_json_dumps_prints(self, capsys):
        # The listing is written one class at a time, with json.dumps's separators.
        code, out, _ = run(capsys, "project", "--alpha", "0,2,1", "--classes")
        assert code == 0
        classes = theta_classes(Composition.parse("0,2,1"))
        assert out == json.dumps([c.to_json() for c in classes]) + "\n"

    def test_refused_classes_write_nothing(self, capsys):
        # 24 members are over the cap: refused before the listing opens.
        code, out, err = run(capsys, "--cap", "10", "project", "--alpha", "0,2,1", "--classes")
        assert (code, out) == (3, "")
        assert err == "error: enumeration needs 24 elements, cap is 10\n"

    def test_non_member_exit_two(self, capsys):
        code, _, err = run(
            capsys, "project", "--alpha", "1,2", "--perm", " -1,2,3", "--dir", "down"
        )
        assert code == 2
        assert "not a member" in err

    def test_usage_error_is_exit_two(self):
        with pytest.raises(SystemExit) as info:
            main(["project", "--alpha", "1,2", "--dir", "down"])
        assert info.value.code == 2


class TestLattice:
    def test_check_all_passes(self, capsys):
        code, out, _ = run(capsys, "lattice", "--alpha", "0,1,1,1", "--check", "all")
        assert code == 0
        assert "size=20" in out

    def test_check_trivial(self, capsys):
        code, out, _ = run(capsys, "lattice", "--alpha", "0,1", "--check", "all")
        assert code == 0

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "lattice", "--alpha", "0,2,1", "--check", "all"
        )
        assert code == 0
        data = json.loads(out)
        assert data["alpha"] == "0,2,1"
        assert all(data["checks"].values())

    def test_export_dot(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "lattice", "--alpha", "0,2,1", "--export", "dot")
        assert code == 0
        path = tmp_path / "tamari_0_2_1.dot"
        assert path.exists()
        text = path.read_text(encoding="utf-8")
        assert text.count(" -> ") == 22  # cover count of Tam_B((0,2,1))
        assert "digraph" in text

    def test_export_json_to_path(self, capsys, tmp_path):
        out_stem = str(tmp_path / "mylattice")
        code, out, _ = run(
            capsys, "lattice", "--alpha", "0,1", "--export", "json", "--out", out_stem
        )
        assert code == 0
        data = json.loads((tmp_path / "mylattice.json").read_text(encoding="utf-8"))
        assert len(data["elements"]) == 2

    def test_check_and_export_build_tamari_once(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        calls = []
        original = tamari.build_tamari
        counted = lambda *a, **k: calls.append(a) or original(*a, **k)
        monkeypatch.setattr(tamari, "build_tamari", counted)
        monkeypatch.setattr("btamari.cli.build_tamari", counted)
        code, out, _ = run(
            capsys, "lattice", "--alpha", "0,2,1", "--check", "all", "--export", "json"
        )
        assert code == 0
        assert len(calls) == 1
        # the export line comes first, then the report, as without --check
        assert out.startswith("wrote tamari_0_2_1.json\nalpha = 0,2,1\n")
        # the same bytes as an export on its own
        run(capsys, "lattice", "--alpha", "0,2,1", "--export", "json", "--out", "alone")
        exported = (tmp_path / "tamari_0_2_1.json").read_bytes()
        assert exported == (tmp_path / "alone.json").read_bytes()
        assert len(json.loads(exported)["elements"]) == 16

    def test_one_out_stem_for_a_batch_is_refused(self, capsys, tmp_path, monkeypatch):
        def not_called(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr("btamari.cli.build_tamari", not_called)
        batch = tmp_path / "alphas.txt"
        batch.write_text("0,1\n0,2\n", encoding="utf-8")
        stem = str(tmp_path / "out")
        code, out, err = run(
            capsys, "lattice", "--batch", str(batch), "--export", "json", "--out", stem
        )
        assert code == 2
        assert out == ""
        assert err == "error: --out names one file but there are 2 compositions\n"
        assert list(tmp_path.iterdir()) == [batch]

    def test_unknown_check_rejected_before_any_work(self, capsys, tmp_path, monkeypatch):
        def not_called(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("btamari.cli.verify_theorems", not_called)
        monkeypatch.setattr("btamari.cli.build_tamari", not_called)
        code, out, err = run(
            capsys, "lattice", "--alpha", "0,1,1,1,1,1", "--check", "trim,trimm",
            "--export", "dot",
        )
        assert code == 2
        assert out == ""
        assert err == "error: unknown checks ['trimm']\n"
        assert list(tmp_path.iterdir()) == []

    def test_check_names_select_the_exit_code(self, capsys, monkeypatch):
        report = tamari.verify_theorems(Composition.parse("0,1"))
        report.checks["trim"] = False
        monkeypatch.setattr("btamari.cli.verify_theorems", lambda *a, **k: report)
        assert run(capsys, "lattice", "--alpha", "0,1", "--check", "extremal")[0] == 0
        assert run(capsys, "lattice", "--alpha", "0,1", "--check", "extremal,trim")[0] == 1
        assert run(capsys, "lattice", "--alpha", "0,1", "--check", "all")[0] == 1

    def test_check_names_may_have_spaces_after_commas(self, capsys):
        # Spaced as --alpha "0, 1" may be; a name that is empty once
        # stripped is still unknown.
        code, out, err = run(capsys, "lattice", "--alpha", "0,1", "--check", "trim, extremal")
        assert (code, err) == (0, "")
        assert "  PASS  trim" in out.splitlines()
        code, out, err = run(capsys, "lattice", "--alpha", "0,1", "--check", ",")
        assert (code, out) == (2, "")
        assert err == "error: unknown checks ['', '']\n"

    def test_neither_check_nor_export_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["lattice", "--alpha", "0,1"])
        assert info.value.code == 2

    def test_above_table_bound_exit_three(self, capsys, monkeypatch):
        # With one element per value, Tam_B(0,1,1)'s 6 x 6 order counts 36.
        monkeypatch.setattr(parabolic, "ROW_VALUES", 1)
        code, out, err = run(
            capsys, "--cap", "35", "lattice", "--alpha", "0,1,1", "--check", "all"
        )
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_above_table_bound_refused_before_export(self, capsys, tmp_path, monkeypatch):
        # Tam_B(0,1,1) has 6 elements.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(parabolic, "ROW_VALUES", 1)
        code, out, err = run(
            capsys, "--cap", "35", "lattice", "--alpha", "0,1,1", "--check", "all",
            "--export", "json",
        )
        assert code == 3
        assert out == ""
        assert err == "error: enumeration needs 36 elements, cap is 35\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "alpha,required",
        [("0,1,1,1,1,1,1,1,1", 2588077), ("1,1,1,1,1,1,1,1", 2044900)],
    )
    def test_export_tables_above_cap_refused(
        self, capsys, tmp_path, monkeypatch, alpha, required
    ):
        # Tam_B has 12,870 and 11,440 elements: m^2 / 64 is above the default cap.
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("TAMARI_B_CAP", raising=False)
        start = time.perf_counter()
        code, out, err = run(capsys, "lattice", "--export", "json", "--alpha", alpha)
        assert time.perf_counter() - start < 10
        assert (code, out) == (3, "")
        assert err == f"error: enumeration needs {required} elements, cap is 2000000\n"
        assert list(tmp_path.iterdir()) == []

    def test_quotient_above_cap_refused_before_building(self, capsys, monkeypatch):
        # The n = 8 full group's quotient is refused before Tam_B is built.
        def not_called(*args, **kwargs):
            raise AssertionError("build_tamari called")

        monkeypatch.setattr(tamari, "build_tamari", not_called)
        code, out, err = run(
            capsys, "lattice", "--alpha", "0,1,1,1,1,1,1,1,1", "--check", "all"
        )
        assert code == 3
        assert out == ""
        assert err == "error: enumeration needs 10321920 elements, cap is 2000000\n"

    def test_quotient_above_cap_refused_before_export(self, capsys, tmp_path, monkeypatch):
        # With --check, the quotient of 0,1,1,1 (48 members) is refused before
        # Tam_B is built for the export or the export is written.
        def not_called(*args, **kwargs):
            raise AssertionError("build_tamari called")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("btamari.cli.build_tamari", not_called)
        code, out, err = run(
            capsys, "--cap", "40", "lattice", "--alpha", "0,1,1,1", "--check", "all",
            "--export", "json",
        )
        assert code == 3
        assert out == ""
        assert err == "error: enumeration needs 48 elements, cap is 40\n"
        assert list(tmp_path.iterdir()) == []

    def test_table_bound_message_without_enumerating(self, capsys, monkeypatch):
        # Tam_B's rows are counted first: one above the bound is refused
        # before the quotient is enumerated.
        def not_called(*args, **kwargs):
            raise AssertionError("quotient_rows called")

        monkeypatch.setattr(tamari, "quotient_rows", not_called)
        # With one element per value, Tam_B's 252 x 252 order counts 63,504.
        monkeypatch.setattr(parabolic, "ROW_VALUES", 1)
        code, out, err = run(
            capsys, "--cap", "50000", "lattice", "--alpha", "0,1,1,1,1,1", "--check", "all"
        )
        assert code == 3
        assert out == ""
        assert err == "error: enumeration needs 63504 elements, cap is 50000\n"

    @pytest.mark.parametrize("action", [["--check", "all"], ["--export", "json"]])
    def test_out_of_memory_exit_three(self, capsys, monkeypatch, tmp_path, action):
        # An array the cap admits but memory does not hold: one line, no file.
        def exhausted(*args):
            raise MemoryError("Unable to allocate 499. MiB")

        monkeypatch.setattr(lattice, "try_lattice", exhausted)
        monkeypatch.chdir(tmp_path)
        argv = ["--cap", "2600000", "lattice", *action, "--alpha", "0,1,1"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (
            "error: out of memory: the enumeration cap 2600000 admits more than"
            " memory holds\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestFullGroupEight:
    """The n = 8 full group (10,321,920 members, Tam_B 12,870) at the default
    cap, through every command that takes --alpha: each ends at once in its
    documented exit code with at most one error line."""

    @pytest.mark.parametrize(
        "command,expected",
        [
            (["enumerate"], 3),
            (["enumerate", "--aligned"], 0),
            (["project", "--classes"], 3),
            (["lattice", "--check", "all"], 3),
            (["lattice", "--export", "json"], 3),
            (["cover-enum"], 0),
        ],
    )
    def test_each_command_ends_in_its_exit_code(
        self, capsys, tmp_path, monkeypatch, command, expected
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("TAMARI_B_CAP", raising=False)
        start = time.perf_counter()
        code, out, err = run(capsys, *command, "--alpha", "0,1,1,1,1,1,1,1,1")
        assert time.perf_counter() - start < 10
        assert code == expected
        assert len(err.splitlines()) == (code != 0)
        assert all(line.startswith("error: ") for line in err.splitlines())
        if code:
            assert out == ""
        assert list(tmp_path.iterdir()) == []


class TestWideBlocks:
    """A wide first block, then one more value, at the default cap: the
    first block step of 7,999,1 (16,000 members) holds 8,000 rows of 8,000
    values, and its gather index and slot lists as many again twice over;
    the inversion words of 1,999,1 (4,000 members) take 62,500 words a row.
    Each command ends at once in exit 3 with one error line."""

    @pytest.mark.parametrize(
        "alpha,command,required",
        [
            ("7999,1", ["enumerate"], 3_000_000),
            ("7999,1", ["enumerate", "--aligned"], 3_000_000),
            ("7999,1", ["project", "--classes"], 3_000_000),
            ("7999,1", ["lattice", "--check", "all"], 3_000_000),
            ("7999,1", ["lattice", "--export", "json"], 3_000_000),
            ("7999,1", ["cover-enum"], 3_000_000),
            ("1999,1", ["lattice", "--check", "all"], 3_906_250),
            ("1999,1", ["lattice", "--export", "json"], 3_906_250),
        ],
    )
    def test_refused_with_one_line(
        self, capsys, tmp_path, monkeypatch, alpha, command, required
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("TAMARI_B_CAP", raising=False)
        start = time.perf_counter()
        code, out, err = run(capsys, *command, "--alpha", alpha)
        assert time.perf_counter() - start < 10
        assert (code, out) == (3, "")
        assert err == f"error: enumeration needs {required} elements, cap is 2000000\n"
        assert list(tmp_path.iterdir()) == []


class TestCheckFailures:
    @pytest.mark.parametrize(
        "exc",
        [
            NotALatticeError((0, 1), "no-lub"),
            NotALatticeError((1, 2), "no-glb", ["b", "c"]),
            AssertionError("iota cross-check failed"),
        ],
    )
    def test_failure_exit_one(self, capsys, monkeypatch, exc):
        def failing(*args, **kwargs):
            raise exc

        monkeypatch.setattr("btamari.cli.verify_theorems", failing)
        code, _, err = run(capsys, "lattice", "--alpha", "0,1", "--check", "all")
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_iota_cross_check_always_runs(self, capsys, monkeypatch):
        # ι is compared with the product by the longest element on every call.
        monkeypatch.setattr(
            "btamari.projection.longest_element",
            lambda alpha: SignedPermutation.identity(alpha.n),
        )
        code, out, err = run(
            capsys, "project", "--alpha", "0,2,1", "--perm", " -3,1,-2", "--dir", "up"
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: iota cross-check failed for ")
        assert "Traceback" not in err


class TestTables:
    def test_sequence(self, capsys):
        code, out, _ = run(capsys, "sequence", "--max-n", "3")
        assert code == 0
        assert out.strip() == "3,15,91"

    def test_sequence_refused_at_the_first_degree_above_the_cap(self, capsys):
        # One walk counts every degree: 2^40 compositions are never built,
        # and its first block step above the cap ends the run.
        start = time.perf_counter()
        code, out, err = run(capsys, "--cap", "1000", "sequence", "--max-n", "40")
        assert time.perf_counter() - start < 30
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_sequence_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "sequence", "--max-n", "2")
        assert out.splitlines() == ["n,total", "1,3", "2,15"]

    def test_cover_enum(self, capsys):
        code, out, _ = run(capsys, "cover-enum", "--alpha", "0,1,1,1")
        assert code == 0
        assert out.strip() == "1,9,9,1"

    def test_cover_enum_top_coefficient_above_one(self, capsys):
        # C(n + t, n - t) = 6 for (1, 1, 1): no warning, as for any other.
        code, out, err = run(capsys, "cover-enum", "--alpha", "1,1,1")
        assert (code, out, err) == (0, "1,8,6\n", "")

    def test_cover_enum_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "cover-enum", "--alpha", "0,1")
        assert out.strip() == "0,1,2,1,1"

    @pytest.mark.parametrize(
        "command",
        [["cover-enum", "--alpha", "0,1,2"], ["sequence", "--max-n", "3"]],
    )
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_format_before_or_after_subcommand(self, capsys, command, fmt):
        before = run(capsys, "--format", fmt, *command)
        after = run(capsys, *command, "--format", fmt)
        assert before[0] == after[0] == 0
        assert before[1] == after[1] != ""

    def test_conjecture_match(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--t", "1", "--max-n", "4")
        assert code == 0
        assert "MISMATCH" not in out
        assert out.count("match") == 4

    def test_conjecture_type_d(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--type-d", "--max-n", "4")
        assert code == 0
        assert out.count("match") == 3

    def test_conjecture_json(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--t", "1", "--max-n", "3", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert [r["alpha"] for r in reports] == ["1", "1,1", "1,1,1"]
        assert reports[2]["observed"] == reports[2]["predicted"] == [1, 8, 6]
        assert all(r["polynomial_matches"] and r["size_matches"] for r in reports)

    def test_conjecture_skips_degrees_below_t(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--t", "3", "--min-n", "1", "--max-n", "4")
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()] == ["alpha=3", "alpha=3,1"]

    def test_conjecture_mismatch_reported_with_exit_zero(self, capsys, monkeypatch):
        # A mismatch is a finding to report, not a failed check of the code.
        monkeypatch.setattr(
            enumeration, "conjectured_polynomial", lambda t, n: enumeration.Polynomial((1,))
        )
        code, out, err = run(capsys, "conjecture", "--t", "1", "--max-n", "2")
        assert code == 0
        assert out.splitlines()[1].startswith("alpha=1,1: MISMATCH;")
        assert err == "MISMATCH for alpha=1,1\n"

    def test_conjecture_requires_mode(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["conjecture", "--max-n", "3"])
        assert info.value.code == 2


class TestEnvironment:
    def test_cap_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("TAMARI_B_CAP", "10")
        code, _, _ = run(capsys, "enumerate", "--alpha", "0,1,1,1")
        assert code == 3

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_nonpositive_cap_flag_exit_two(self, capsys, cap):
        code, _, err = run(capsys, "--cap", cap, "enumerate", "--alpha", "0,1")
        assert code == 2
        assert "cap must be at least 1" in err

    def test_non_integer_cap_env_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv("TAMARI_B_CAP", "ten")
        code, out, err = run(capsys, "enumerate", "--alpha", "0,1")
        assert (code, out) == (2, "")
        assert err == "error: TAMARI_B_CAP must be an integer, got 'ten'\n"

    def test_nonpositive_cap_env_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv("TAMARI_B_CAP", "-1")
        code, _, err = run(capsys, "enumerate", "--alpha", "0,1")
        assert code == 2
        assert "cap must be at least 1" in err

    @pytest.mark.parametrize(
        "flag, command, expected",
        [
            (["--cap", "10"], ["sequence", "--max-n", "2"], (0, "3,15\n")),
            (["--cap", "10"], ["enumerate", "--alpha", "0,1,1,1"], (3, "")),
            (["--format", "csv"], ["cover-enum", "--alpha", "0,1"], (0, "0,1,2,1,1\n")),
        ],
    )
    def test_global_flags_before_or_after_subcommand(
        self, capsys, flag, command, expected
    ):
        assert run(capsys, *flag, *command)[:2] == expected
        assert run(capsys, *command, *flag)[:2] == expected

    def test_flag_after_subcommand_overrides(self, capsys):
        code, _, err = run(
            capsys, "--cap", "1000", "enumerate", "--alpha", "0,1,1,1", "--cap", "10"
        )
        assert code == 3
        assert "cap is 10" in err

    @pytest.mark.parametrize(
        "argv, error",
        [
            # Before the subcommand, argparse takes the 2 for the subcommand.
            (["--threads", "2", "sequence", "--max-n", "2"], "invalid choice: '2'"),
            (
                ["sequence", "--max-n", "2", "--threads", "2"],
                "unrecognized arguments: --threads 2",
            ),
            (
                ["--debug-crosschecks", "project", "--alpha", "0,2,1", "--perm", "1,2,3",
                 "--dir", "up"],
                "unrecognized arguments: --debug-crosschecks",
            ),
            (
                ["project", "--alpha", "0,2,1", "--perm", "1,2,3", "--dir", "up",
                 "--debug-crosschecks"],
                "unrecognized arguments: --debug-crosschecks",
            ),
        ],
        ids=["before", "after", "crosschecks-before", "crosschecks-after"],
    )
    def test_threads_is_an_unknown_flag(self, capsys, argv, error):
        # The walk is serial, so there is no worker count to set; the ι and
        # inversion-order cross-checks always run, so there is no switch.
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and error in errors[0]
        assert "Traceback" not in captured.err
