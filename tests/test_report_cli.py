import hashlib
import json
import time

import pytest

from pfkit import paperfold
from pfkit.cli import PROFILES, REGISTRY, exit_code, main, run_all
from pfkit.dimgroup import MAX_MATRIX_POWER
from pfkit.paperfold import MAX_PREFIX_LEN, CensusResult
from pfkit.report import Check, CheckReport, emit_report
from pfkit.words import Word, read_pfw

# SHA-256 of the quick-profile report at seed 42 with elapsed_ms removed;
# any change to a report's bytes changes it
QUICK_REPORT_DIGEST = "bcfcaefaadea767f6685ca88042100d603e6f9c6becedd2a932fbfd9e930cc3f"


def strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: (0 if k == "elapsed_ms" else strip_elapsed(v)) for k, v in obj.items()}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


def test_report_validation():
    with pytest.raises(ValueError):
        CheckReport(check="x", status="bogus")
    with pytest.raises(ValueError):
        CheckReport(check="x", status="fail")  # fail needs a witness
    CheckReport(check="x", status="fail", witness="reason")
    chk = Check("x", {"n": 1}, "a fact", seed=7)
    with pytest.raises(ValueError):
        chk.report("fail")  # still needs a witness
    with pytest.raises(ValueError):
        chk.report("bogus")
    rep = chk.failed("reason")
    assert (rep.check, rep.status, rep.params, rep.witness) == ("x", "fail", {"n": 1}, "reason")
    assert (rep.seed, rep.certifies) == (7, "a fact")
    assert chk.passed().to_dict() | {"elapsed_ms": 0} == CheckReport(
        check="x", status="pass", params={"n": 1}, seed=7, certifies="a fact"
    ).to_dict()


def test_emit_report_json_roundtrip():
    rep = CheckReport(
        check="demo",
        status="pass",
        params={"n": 3},
        witness={"word": Word("110")},
        elapsed_ms=1,
        seed=42,
        certifies="demo fact",
    )
    parsed = json.loads(emit_report([rep], "json"))
    assert parsed == [
        {
            "check": "demo",
            "status": "pass",
            "params": {"n": 3},
            "witness": {"word": "110"},
            "elapsed_ms": 1,
            "seed": 42,
            "certifies": "demo fact",
        }
    ]


def test_emit_report_empty_and_markdown():
    assert emit_report([], "json") == "[]"
    assert emit_report([], "markdown") == ""
    rep = CheckReport(check="demo", status="pass", certifies="a fact")
    md = emit_report([rep], "markdown")
    assert "| demo | pass | a fact |" in md
    with pytest.raises(ValueError):
        emit_report([rep], "yaml")


def test_registry_shape():
    names = [name for name, _ in REGISTRY]
    assert len(names) == len(set(names))
    assert len(names) >= 12
    assert set(PROFILES) == {"quick", "full"}
    # profile scaling pinned: the full run censuses generation 20 and
    # follows the discrepancy checkpoints to N = 20
    assert PROFILES["quick"]["generation"] == 12
    assert PROFILES["quick"]["discrepancy_N"] == 10
    assert PROFILES["quick"]["lattice_samples"] == 1000
    assert PROFILES["full"]["generation"] == 20
    assert PROFILES["full"]["discrepancy_N"] == 20
    assert PROFILES["full"]["lattice_samples"] == 10_000


def test_exit_codes():
    ok = CheckReport(check="a", status="pass")
    bad = CheckReport(check="b", status="fail", witness="w")
    unk = CheckReport(check="c", status="inconclusive", witness="w")
    err = CheckReport(check="d", status="error", witness="boom")
    assert exit_code([ok]) == 0
    assert exit_code([ok, bad]) == 1
    assert exit_code([ok, unk]) == 1
    assert exit_code([ok, bad, err]) == 2


def test_cli_gen_text(capsys):
    assert main(["paperfold", "gen", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1101100"


def test_cli_gen_pfw(tmp_path):
    out = tmp_path / "t5.pfw"
    assert main(["paperfold", "gen", "--n", "5", "--format", "pfw", "--out", str(out)]) == 0
    word = read_pfw(out)
    assert len(word) == 63
    assert str(word).startswith("110110011100100")


def test_cli_census(capsys):
    assert main(["paperfold", "census", "--generation", "12", "--max-len", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "pass"
    assert payload["witness"]["counts"] == {"2": 2, "4": 2, "6": 1, "8": 0}


def test_cli_paperfold_verify(capsys):
    assert main(["paperfold", "verify", "self-similarity", "--p", "1", "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert main(["paperfold", "verify", "recurrence", "--p", "2", "--generation", "10"]) == 0
    capsys.readouterr()
    assert (
        main(
            [
                "paperfold",
                "verify",
                "aperiodic",
                "--max-period",
                "64",
                "--preperiod",
                "64",
                "--prefix-len",
                "512",
            ]
        )
        == 0
    )


def test_cli_dihedral(capsys):
    assert main(["dihedral", "freeness", "--generation", "12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness"]["antipalindrome_sup"] == 6
    assert main(["dihedral", "parity", "--k", "1000", "--generation", "12"]) == 0
    capsys.readouterr()
    assert main(["dihedral", "extend", "--seed", "1101100", "--steps", "4", "--horizon", "16"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "pass"
    assert payload["witness"]["word"].endswith("1101100")
    assert len(payload["witness"]["word"]) == 11


def test_cli_subst(capsys, tmp_path):
    assert main(["subst", "info"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["witness"]["primitive_index"] == 3
    assert info["witness"]["left_proper_index"] == 2
    assert main(["subst", "fixed-prefix", "--len", "32"]) == 0
    assert capsys.readouterr().out.strip() == "31213021312030213121302031203021"
    assert main(["subst", "verify", "recode", "--len", "4096"]) == 0
    capsys.readouterr()
    assert main(["subst", "verify", "intertwine", "--len", "4096"]) == 0
    capsys.readouterr()
    rules = tmp_path / "rules.json"
    rules.write_text('{"alphabet": 4, "rules": {"0": "20", "1": "21", "2": "30", "3": "31"}}')
    assert main(["subst", "info", "--rules", str(rules)]) == 0


def test_cli_dimgroup(capsys):
    assert main(["dimgroup", "matpow", "--n", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness"]["matrix"][1] == [4, 4, 4, 4]
    assert main(["dimgroup", "discrepancy", "--n-max", "8"]) == 0
    capsys.readouterr()
    assert main(["dimgroup", "verify", "--index-max", "3", "--samples", "50", "--seed", "1"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["check"] for r in reports] == [
        "dimgroup.lattice-properties",
        "dimgroup.cone-identity",
        "dimgroup.involution",
    ]
    assert all(r["seed"] == 1 for r in reports)


def test_run_all_quick_is_deterministic():
    a = [r.to_dict() for r in run_all("quick", seed=42, threads=1)]
    b = [r.to_dict() for r in run_all("quick", seed=42, threads=2)]
    assert strip_elapsed(a) == strip_elapsed(b)
    assert all(r["status"] == "pass" for r in a)
    assert all(r["seed"] == 42 for r in a)
    assert [r["check"] for r in a] == [name for name, _ in REGISTRY]
    body = [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in a]
    assert hashlib.sha256(json.dumps(body).encode()).hexdigest() == QUICK_REPORT_DIGEST


def test_run_all_error_isolation(monkeypatch):
    import pfkit.cli as cli_mod

    def boom(p, seed):
        raise RuntimeError("synthetic failure")

    registry = tuple(
        (name, boom if name == "subst.structure" else fn) for name, fn in cli_mod.REGISTRY
    )
    monkeypatch.setattr(cli_mod, "REGISTRY", registry)
    reports = cli_mod.run_all("quick", seed=42, threads=1)
    by_name = {r.check: r for r in reports}
    assert by_name["subst.structure"].status == "error"
    assert "synthetic failure" in by_name["subst.structure"].witness["exception"]
    assert exit_code(reports) == 2


def test_run_all_error_report_has_real_elapsed(monkeypatch):
    import pfkit.cli as cli_mod

    def slow_boom(p, seed):
        time.sleep(0.05)
        raise RuntimeError("late failure")

    monkeypatch.setattr(cli_mod, "REGISTRY", (("slow.boom", slow_boom),))
    (rep,) = cli_mod.run_all("quick", seed=42, threads=1)
    assert rep.status == "error"
    assert rep.elapsed_ms >= 50


def test_unsaturated_census_is_inconclusive_everywhere(monkeypatch, capsys):
    import pfkit.cli as cli_mod

    unsaturated = CensusResult(max_length_checked=8, counts={2: 2, 4: 2, 6: 1, 8: 0}, saturated=False)
    monkeypatch.setattr(paperfold, "antipalindrome_census", lambda g, max_len: unsaturated)
    census = [entry for entry in cli_mod.REGISTRY if entry[0] == "paperfold.antipalindrome-census"]
    monkeypatch.setattr(cli_mod, "REGISTRY", tuple(census))
    reports = run_all("quick", seed=42, threads=1)
    assert [r.status for r in reports] == ["inconclusive"]
    assert exit_code(reports) == 1
    assert main(["paperfold", "census", "--generation", "12", "--max-len", "8"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "inconclusive"
    assert payload["certifies"] == reports[0].certifies
    assert payload["witness"]["saturated"] is False


@pytest.mark.parametrize(
    "env, argv",
    [
        ({"PFKIT_THREADS": "abc"}, ["report", "--profile", "quick"]),
        ({}, ["subst", "fixed-prefix", "--len", str(MAX_PREFIX_LEN + 1)]),
        ({}, ["dimgroup", "matpow", "--n", str(MAX_MATRIX_POWER + 1)]),
        ({}, ["paperfold", "gen", "--n", "-1"]),
    ],
    ids=["threads-not-int", "fixed-prefix-cap", "matpow-cap", "negative-generation"],
)
def test_bad_input_exits_2_without_traceback(monkeypatch, capsys, env, argv):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert "error" in json.loads(lines[0])


def test_report_command_writes_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["report", "--profile", "quick", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert len(reports) == len(REGISTRY)
    assert all(r["status"] == "pass" for r in reports)
    md = tmp_path / "report.md"
    assert main(["report", "--profile", "quick", "--format", "markdown", "--out", str(md)]) == 0
    text = md.read_text()
    assert text.count("\n") >= len(REGISTRY)
    assert "| check | status | certifies | elapsed_ms |" in text


def test_pfkit_threads_env_cap(monkeypatch):
    monkeypatch.setenv("PFKIT_THREADS", "1")
    reports = run_all("quick", seed=42)
    assert all(r.status == "pass" for r in reports)
