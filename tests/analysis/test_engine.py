"""Engine-level tests: suppressions, parse errors, CLI contract."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from tools.analysis.__main__ import main
from tools.analysis.engine import check_file, check_paths, check_source

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def run_fixture(name: str):
    return check_file(str(FIXTURES / name), root=str(REPO_ROOT))


# -- suppression syntax -------------------------------------------------------

def test_justified_suppression_silences_but_is_recorded():
    report = run_fixture("suppressed_ok.py")
    assert report.ok
    assert len(report.suppressed) == 1
    sup = report.suppressed[0]
    assert sup.code == "NM401"
    assert "post-run export" in sup.justification


def test_bare_suppression_is_itself_a_violation():
    report = run_fixture("bad_suppression.py")
    codes = sorted(v.code for v in report.violations)
    # The missing justification is flagged AND the finding still stands.
    assert codes == ["NM001", "NM101"]


def test_suppression_only_covers_the_named_code():
    report = check_source(
        "import time  # nm: allow[NM401] -- wrong code on purpose\n",
        path="repro/core/mismatch.py",
    )
    assert [v.code for v in report.violations] == ["NM101"]


def test_parse_error_reports_nm000():
    report = run_fixture("bad_syntax.py")
    assert [v.code for v in report.violations] == ["NM000"]


# -- virtual paths ------------------------------------------------------------

def test_nm_path_marker_overrides_the_filesystem_location(tmp_path):
    mod = tmp_path / "anywhere.py"
    mod.write_text("# nm-path: repro/core/claimed.py\nimport time\n",
                   encoding="utf-8")
    report = check_file(str(mod), root=str(tmp_path))
    assert [v.code for v in report.violations] == ["NM101"]


def test_src_prefix_is_stripped_from_real_paths(tmp_path):
    mod = tmp_path / "src" / "repro" / "core" / "probe.py"
    mod.parent.mkdir(parents=True)
    mod.write_text("import time\n", encoding="utf-8")
    report = check_file(str(mod), root=str(tmp_path))
    assert [v.code for v in report.violations] == ["NM101"]


# -- CLI contract -------------------------------------------------------------

def test_cli_exits_zero_on_clean_tree(capsys):
    rc = main([str(FIXTURES / "good_determinism.py")])
    assert rc == 0
    assert "0 violation(s)" in capsys.readouterr().err


def test_cli_exits_nonzero_on_each_bad_fixture(capsys):
    for name in ("bad_determinism.py", "bad_counters.py",
                 "bad_counters_reset.py", "bad_lifecycle.py",
                 "bad_simclock.py", "bad_blocking.py", "bad_emitgate.py",
                 "bad_suppression.py", "bad_syntax.py"):
        rc = main([str(FIXTURES / name)])
        assert rc == 1, f"{name} should fail the pass"
        captured = capsys.readouterr()
        assert "FAILED" in captured.err, name


def test_cli_list_describes_every_code(capsys):
    rc = main(["--list"])
    assert rc == 0
    out = capsys.readouterr().out
    for code in ("NM000", "NM001", "NM101", "NM102", "NM103", "NM201",
                 "NM202", "NM203", "NM204", "NM301", "NM302", "NM303",
                 "NM401", "NM402", "NM501", "NM502", "NM504"):
        assert code in out


def test_cli_json_output_matches_the_schema(capsys):
    rc = main(["--json", str(FIXTURES / "bad_determinism.py")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"violations", "suppressed_count", "files_checked"}
    assert payload["files_checked"] == 1
    assert isinstance(payload["suppressed_count"], int)
    assert payload["violations"], "the bad fixture must produce findings"
    for finding in payload["violations"]:
        assert set(finding) == {"code", "path", "line", "col", "message",
                                "checker"}
        assert finding["code"].startswith("NM")
        assert isinstance(finding["line"], int)
        assert isinstance(finding["col"], int)
    codes = [f["code"] for f in payload["violations"]]
    assert codes == sorted(codes) or len(set(codes)) > 1  # stable ordering
    # sorted(report.violations) orders by (path, line, col): assert exactly.
    keys = [(f["path"], f["line"], f["col"]) for f in payload["violations"]]
    assert keys == sorted(keys)


def test_cli_json_clean_tree_is_empty_and_exits_zero(capsys):
    rc = main(["--json", str(FIXTURES / "good_determinism.py")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == []


def test_cli_json_with_interprocedural_includes_nm5xx(capsys):
    rc = main(["--json", "--interprocedural",
               str(FIXTURES / "interproc" / "bad_statsbalance")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert any(f["code"] == "NM504" for f in payload["violations"])


def test_cli_subprocess_roundtrip():
    # The exact invocation CI uses, against a known-bad and known-good file.
    bad = subprocess.run(
        [sys.executable, "-m", "tools.analysis",
         str(FIXTURES / "bad_blocking.py")],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert bad.returncode == 1
    assert "NM401" in bad.stdout
    good = subprocess.run(
        [sys.executable, "-m", "tools.analysis",
         str(FIXTURES / "good_blocking.py")],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert good.returncode == 0, good.stdout + good.stderr


# -- reporting ----------------------------------------------------------------

def test_report_merge_accumulates():
    a = check_paths([str(FIXTURES / "bad_determinism.py")],
                    root=str(REPO_ROOT))
    b = check_paths([str(FIXTURES / "bad_blocking.py")],
                    root=str(REPO_ROOT))
    a.merge(b)
    assert a.files_checked == 2
    codes = {v.code for v in a.violations}
    assert {"NM101", "NM401"} <= codes


def test_violation_render_is_grep_friendly():
    report = run_fixture("bad_blocking.py")
    line = report.violations[0].render()
    # path:line:col: CODE message
    assert ":" in line
    head = line.split()[0]
    parts = head.split(":")
    assert parts[-2].isdigit() and parts[-3].isdigit()
