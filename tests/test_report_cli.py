import contextlib
import hashlib
import io
import json
import shlex
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfkit import dimgroup, paperfold, words
from pfkit.cli import PROFILES, REGISTRY, exit_code, main, run_all
from pfkit.dihedral import LanguageOracle
from pfkit.dimgroup import MAX_MATRIX_POWER, MAX_SAMPLES
from pfkit.paperfold import MAX_GENERATION, MAX_PREFIX_LEN, pf_word
from pfkit.report import Check, CheckReport, emit_report
from pfkit.words import Word, read_pfw

# SHA-256 of the quick-profile report at seed 42 with elapsed_ms removed;
# any change to a report's bytes changes it
QUICK_REPORT_DIGEST = "e6cecb1b8772af955552feea2abe0472c8fc860bef69048aa191f5d67780353f"
# the same for the full-profile report at seed 42
FULL_REPORT_DIGEST = "898e08c25bab511406ea07bf899e834faa60e5b13eacded64ff4330d7b2d9245"


def report_digest(reports):
    body = [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in reports]
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()


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
    # profile scaling pinned: the full run separates parities on
    # generation 20 and follows the discrepancy checkpoints to N = 20
    assert PROFILES["quick"]["generation"] == 12
    assert PROFILES["quick"]["discrepancy_N"] == 10
    assert PROFILES["full"]["generation"] == 20
    assert PROFILES["full"]["discrepancy_N"] == 20


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
    a = [r.to_dict() for r in run_all("quick", seed=42)]
    b = [r.to_dict() for r in run_all("quick", seed=42)]
    assert strip_elapsed(a) == strip_elapsed(b)
    assert all(r["status"] == "pass" for r in a)
    assert all(r["seed"] == 42 for r in a)
    assert [r["check"] for r in a] == [name for name, _ in REGISTRY]
    assert report_digest(a) == QUICK_REPORT_DIGEST


def test_run_all_full_report_digest():
    assert report_digest([r.to_dict() for r in run_all("full", seed=42)]) == FULL_REPORT_DIGEST


def test_run_all_samples_no_lattice(monkeypatch):
    # the suite proves the lattice facts for every index; the seeded
    # battery and the sampled closed form stay outside it
    def no_sampling(*args):
        raise AssertionError("the suite sampled a lattice")

    for name in ("_RandintBlocks", "verify_lattice_properties", "verify_matrix_closed_form"):
        monkeypatch.setattr(dimgroup, name, no_sampling)
    reports = run_all("full", seed=42)
    assert [(r.check, r.status) for r in reports] == [(name, "pass") for name, _ in REGISTRY]


def test_run_all_error_isolation(monkeypatch):
    import pfkit.cli as cli_mod

    def boom(p, seed):
        raise RuntimeError("synthetic failure")

    registry = tuple(
        (name, boom if name == "subst.structure" else fn) for name, fn in cli_mod.REGISTRY
    )
    monkeypatch.setattr(cli_mod, "REGISTRY", registry)
    reports = cli_mod.run_all("quick", seed=42)
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
    (rep,) = cli_mod.run_all("quick", seed=42)
    assert rep.status == "error"
    assert rep.elapsed_ms >= 50


def test_run_all_runs_every_check_on_the_calling_thread(monkeypatch):
    import pfkit.cli as cli_mod

    threads = []

    def record(name):
        def check(p, seed):
            threads.append(threading.get_ident())
            return Check(name, {}, "").passed()
        return check

    monkeypatch.setattr(cli_mod, "REGISTRY", tuple((name, record(name)) for name, _ in REGISTRY))
    reports = cli_mod.run_all("full", seed=7)
    assert threads == [threading.get_ident()] * len(REGISTRY)
    assert [r.check for r in reports] == [name for name, _ in REGISTRY]
    assert all(r.seed == 7 for r in reports)


def _suite_census(symbols, arr):
    """The suite's census entry, run with ``arr`` as the symbol source."""
    entry = dict(REGISTRY)["paperfold.antipalindrome-census"]
    with symbols(arr):
        return entry(PROFILES["quick"], 42)


def test_unsaturated_census_is_inconclusive_everywhere(capsys, symbols):
    # generation 5 has factors of length 6 and 8 that generation 4 lacks,
    # so its census is not saturated
    assert main(["paperfold", "census", "--generation", "5", "--max-len", "8"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "inconclusive"
    assert payload["witness"]["saturated"] is False
    # the suite censuses generation 6 against generation 5; a run of ones
    # after generation 5 adds the factor 1111, so it is not saturated
    # either, and the command gives the same verdict on the same symbols
    arr = np.concatenate([pf_word(5).to_array(), np.ones(64, dtype=np.uint8)])
    rep = _suite_census(symbols, arr)
    assert rep.status == "inconclusive"
    assert rep.params == {"generation": 6, "max_len": 8}
    with symbols(arr):
        assert main(["paperfold", "census", "--generation", "6", "--max-len", "8"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (rep.certifies, rep.witness) == (payload["certifies"], payload["witness"])


def test_census_negative_control(symbols):
    # a periodic word is saturated at once and has the length-8
    # anti-palindrome 11001100, so the census must fail
    rep = _suite_census(symbols, np.resize([1, 1, 0, 0], 127))
    assert rep.status == "fail"
    assert rep.witness["saturated"] is True
    assert rep.witness["counts"]["8"] >= 1


def test_run_all_reads_small_generations_for_the_language(monkeypatch):
    # the census and freeness read generation 6 and closure generation 7,
    # so no factor index of the full run codes more than 255 symbols
    sizes = []
    index_init = words.FactorIndex.__init__

    def record(self, *args, **kwargs):
        index_init(self, *args, **kwargs)
        sizes.append(self._arr.size)

    monkeypatch.setattr(words.FactorIndex, "__init__", record)
    reports = run_all("full", seed=42)
    assert all(r.status == "pass" for r in reports)
    assert sizes and max(sizes) <= 255


def test_oracle_build_failure_errors_only_its_readers(monkeypatch):
    def broken(generation, max_len):
        raise RuntimeError("oracle build failed")

    monkeypatch.setattr(LanguageOracle, "from_generation", broken)
    reports = run_all("quick", seed=42)
    readers = {"dihedral.antireversal-closure", "dihedral.freeness"}
    assert {r.check: r.status for r in reports} == {
        name: "error" if name in readers else "pass" for name, _ in REGISTRY}
    assert sum(r.status == "pass" for r in reports) == 15
    assert all("oracle build failed" in r.witness["exception"] for r in reports if r.check in readers)


_prefix_array = paperfold._prefix_array


def _capped_prefix(length):
    # a missing cap fails here instead of allocating gigabytes
    assert length <= MAX_PREFIX_LEN, f"prefix of {length} symbols requested"
    return _prefix_array(length)


@pytest.mark.parametrize(
    "argv",
    [
        ["subst", "fixed-prefix", "--len", str(MAX_PREFIX_LEN + 1)],
        ["dimgroup", "matpow", "--n", str(MAX_MATRIX_POWER + 1)],
        ["paperfold", "gen", "--n", "-1"],
        ["dimgroup", "verify", "--samples", "0"],
        ["dimgroup", "verify", "--samples", "-5"],
        ["dimgroup", "verify", "--samples", str(MAX_SAMPLES + 1)],
        ["dimgroup", "verify", "--index-max", str(MAX_MATRIX_POWER)],
        ["dimgroup", "verify", "--index-max", "5000"],
        ["dimgroup", "verify", "--index-max", str(MAX_MATRIX_POWER - 1), "--samples", str(MAX_SAMPLES)],
        ["paperfold", "census", "--generation", str(MAX_GENERATION + 1), "--max-len", "8"],
        ["paperfold", "verify", "aperiodic", "--prefix-len", str(2**40), "--max-period", "1",
         "--preperiod", "0"],
    ],
    ids=["fixed-prefix-cap", "matpow-cap", "negative-generation",
         "verify-zero-samples", "verify-negative-samples", "verify-samples-cap",
         "verify-index-max-cap", "verify-index-max-5000", "verify-total-work-cap",
         "census-generation-cap",
         "aperiodic-prefix-cap"],
)
def test_bad_input_exits_2_without_traceback(monkeypatch, capsys, argv):
    monkeypatch.setattr(paperfold, "_prefix_array", _capped_prefix)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert "error" in json.loads(lines[0])


@pytest.mark.parametrize(
    "rules, out",
    [
        (b"{not json", None),
        (b"\xff\xfe{", None),
        (b'[["0", "20"]]', None),
        (b'{"alphabet": 4}', None),
        (b'{"rules": {"x": "20", "1": "21", "2": "30", "3": "31"}}', None),
        (None, None),
        (b'{"rules": {"0": "20", "1": "21", "2": "30", "3": "31"}}', "missing/info.json"),
    ],
    ids=["invalid-json", "not-utf8", "json-array", "no-rules-key", "non-integer-letter",
         "missing-rules-file", "out-in-missing-directory"],
)
def test_bad_files_exit_2_without_traceback(tmp_path, capsys, rules, out):
    path = tmp_path / "rules.json"
    if rules is not None:
        path.write_bytes(rules)
    commands = [["subst", "info"]] if out else [["subst", "info"], ["subst", "fixed-prefix", "--len", "8"]]
    for command in commands:
        argv = command + ["--rules", str(path)] + (["--out", str(tmp_path / out)] if out else [])
        assert main(argv) == 2
        out_text, err = capsys.readouterr()
        assert out_text == ""
        (line,) = err.strip().splitlines()
        assert "error" in json.loads(line)


def _run_cli(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_json_result(code, out, err):
    assert code in (0, 1, 2)
    if out:
        body = json.loads(out)  # one report, or a list of them for dimgroup verify
        assert all("status" in r for r in (body if isinstance(body, list) else [body]))
    else:
        assert code == 2
        (line,) = err.strip().splitlines()
        assert "error" in json.loads(line)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.integers(-2, 14), st.integers(MAX_GENERATION + 1, 40)), st.integers(-2, 70))
def test_cli_census_arguments(generation, max_len):
    with mock.patch.object(paperfold, "_prefix_array", side_effect=_capped_prefix) as prefix:
        code, out, err = _run_cli(["paperfold", "census", "--generation", str(generation),
                                   "--max-len", str(max_len)])
    _assert_one_json_result(code, out, err)
    if generation > MAX_GENERATION:
        assert code == 2 and not prefix.called  # refused before any prefix is built


@settings(max_examples=80, deadline=None)
@given(st.text("012x", max_size=12), st.integers(-2, 80), st.integers(-2, 80))
def test_cli_extend_arguments(seed, steps, horizon):
    code, out, err = _run_cli(["dihedral", "extend", "--seed", seed, "--steps", str(steps),
                               "--horizon", str(horizon)])
    _assert_one_json_result(code, out, err)


def _ints(lo, hi, n=1):
    return st.tuples(*[st.integers(lo, hi)] * n)


# command -> (argument flags, small draws inside the caps, draws over a cap)
CAPPED_COMMANDS = {
    "paperfold verify self-similarity": (("--p", "--n"), _ints(-2, 8, 2), _ints(12, 40, 2)),
    "paperfold verify recurrence": (
        ("--p", "--generation"), st.tuples(st.integers(-2, 6), st.integers(-2, 14)),
        st.tuples(st.integers(-2, 6), st.integers(25, 40))),
    "paperfold verify aperiodic": (
        ("--prefix-len", "--max-period", "--preperiod"),
        st.tuples(st.integers(-2, 600), st.integers(-2, 64), st.integers(-2, 64)),
        st.tuples(st.integers(MAX_PREFIX_LEN + 1, 2**45), st.integers(-2, 64), st.integers(-2, 64))),
    "dihedral parity": (
        ("--k", "--generation"), st.tuples(st.integers(-2, 3000), st.integers(-2, 14)),
        st.tuples(st.integers(-2, 3000), st.integers(MAX_GENERATION + 1, 60))),
    "dihedral freeness": (("--generation",), _ints(-2, 14), _ints(MAX_GENERATION + 1, 60)),
    # recoding reads 2L binary symbols
    "subst verify recode": (("--len",), _ints(-2, 5000), _ints(MAX_PREFIX_LEN // 2 + 1, 2**40)),
    "subst verify intertwine": (("--len",), _ints(-2, 5000), _ints(MAX_PREFIX_LEN + 1, 2**40)),
    "dimgroup matpow": (("--n",), _ints(-2, 200), _ints(MAX_MATRIX_POWER + 1, 10**5)),
    "dimgroup discrepancy": (("--n-max",), _ints(-2, 16), _ints(25, 60)),
    # (index-max - 1) * samples is at most MAX_SAMPLES
    "dimgroup verify": (
        ("--index-max", "--samples"), st.tuples(st.integers(-2, 4), st.integers(-2, 30)),
        st.tuples(st.integers(12, MAX_MATRIX_POWER + 10), st.integers(MAX_SAMPLES // 11 + 1, MAX_SAMPLES))),
}


@pytest.mark.parametrize("command", list(CAPPED_COMMANDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cli_capped_command_arguments(command, data):
    flags, inside, over = CAPPED_COMMANDS[command]
    over_cap = data.draw(st.booleans(), label="over_cap")
    values = data.draw(over if over_cap else inside, label="values")
    argv = command.split() + [x for pair in zip(flags, map(str, values)) for x in pair]
    with mock.patch.object(paperfold, "_prefix_array", side_effect=_capped_prefix) as prefix:
        code, out, err = _run_cli(argv)
    _assert_one_json_result(code, out, err)
    if over_cap:
        assert code == 2 and not prefix.called  # refused before any prefix is built


def readme_commands():
    """Every ``pfkit ...`` line of the README's shell blocks, comment cut."""
    lines, in_sh = [], False
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("pfkit "):
            lines.append(shlex.split(line, comments=True)[1:])
    return lines


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 18
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()


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

