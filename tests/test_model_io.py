import json
import pathlib
import subprocess
import sys

import pytest

from collective_arb.errors import ValidationError
from collective_arb.examples_builtin import (example_document, example_names,
                                             write_example)
from collective_arb.model_io import load_model, parse_model
from collective_arb.report import analyze, render_json, render_text

from conftest import toy_market_spec


def test_example_names_cover_both_markets():
    names = example_names()
    assert len(names) >= 3
    assert "toy71" in names and "tree72" in names


def test_toy71_document_values():
    doc = example_document("toy71")
    assert doc["assets"]["X1"] == ["2", ["3", "1"]]
    assert doc["assets"]["X2"] == ["4", ["9", "3"]]


def test_tree72_document_values():
    doc = example_document("tree72")
    assert doc["assets"]["X1"][0] == "16"
    assert doc["assets"]["X2"][2] == ["24", "8", "16", "8", "6", "12"]


def test_every_builtin_parses_and_analyzes():
    for name in example_names():
        model = parse_model(example_document(name))
        report = analyze(model)
        assert report["validation"]["status"] == "ok"


def test_parse_rejects_floats():
    doc = example_document("toy71")
    doc["prob"] = [0.5, 0.5]
    with pytest.raises(ValidationError) as e:
        parse_model(doc)
    assert "float" in str(e.value)


def test_parse_rejects_bad_rational():
    doc = example_document("toy71")
    doc["prob"] = ["1/0", "1"]
    with pytest.raises(ValidationError):
        parse_model(doc)


def test_parse_rejects_unknown_label():
    doc = example_document("toy71")
    doc["global_filtration"][1] = [["w1"], ["nope"]]
    with pytest.raises(ValidationError) as e:
        parse_model(doc)
    assert "nope" in str(e.value)


def test_parse_rejects_unknown_cone_kind():
    doc = example_document("toy71")
    doc["exchange"] = {"kind": "mystery"}
    with pytest.raises(ValidationError):
        parse_model(doc)


def test_claims_row_count_checked():
    doc = example_document("toy71")
    doc["claims"] = [["1", "1"]]
    with pytest.raises(ValidationError):
        parse_model(doc)


def test_sum_cone_parses():
    doc = example_document("toy71-span-rn0")
    model = parse_model(doc)
    assert model.exchange.meta.contains_RN0


def test_report_round_trip_and_determinism(tmp_path):
    path = write_example("tree72", str(tmp_path))
    model = load_model(path)
    r1 = render_json(analyze(model))
    r2 = render_json(analyze(load_model(path)))
    assert r1 == r2  # byte-identical reruns
    data = json.loads(r1)
    assert data["pricing"]["rho_Y"] == "32"
    assert data["pricing"]["rho_i"] == ["22", "16"]
    assert data["cooperation"]["selling"] == "6"
    assert data["table"]["NCA(Y)"] is True
    assert data["table"]["NA"] is False


def test_report_numbers_are_strings():
    model = parse_model(example_document("toy71-span"))
    data = json.loads(render_json(analyze(model)))
    assert data["pricing"]["rho_Y"] == "-inf"
    assert data["cooperation"]["selling"] == "+inf"
    assert data["ftap"]["measure_vector"] == "absent"
    pw = data["ftap"]["polar_witness"]
    assert pw[0]["w1"] == "2/5" and pw[1]["w2"] == "1"


def test_report_sections_can_be_selected():
    model = parse_model(example_document("toy71"))
    report = analyze(model, sections=["na"])
    assert "na" in report and "pricing" not in report


def test_report_rejects_unknown_section_names():
    model = parse_model(example_document("toy71"))
    with pytest.raises(ValidationError) as err:
        analyze(model, sections=["na", "bogus"])
    assert err.value.where == "sections" and "bogus" in err.value.message


def test_agent_arbitrage_is_labelled_with_the_agents_positions():
    # X2 rises in both states, so agent 2 alone has an arbitrage; its
    # strategy must name X2, not the first asset of the whole market
    doc = {
        "atoms": ["u", "d"],
        "prob": ["1/2", "1/2"],
        "times": 1,
        "global_filtration": [[["u", "d"]], [["u"], ["d"]]],
        "assets": {"X1": ["2", ["3", "1"]], "X2": ["4", ["6", "5"]]},
        "agents": [{"assets": ["X1"]}, {"assets": ["X2"]}],
    }
    na = analyze(parse_model(doc), sections=["na"])["na"]
    agent1, agent2 = na["agents"]
    assert not agent1["arbitrage"] and agent2["arbitrage"]
    assert [p["position"] for p in agent2["strategies"][0]] == ["X2@t1on{u,d}"]
    assert [p["position"] for p in na["global"]["strategies"][0]] == [
        "X1@t1on{u,d}", "X2@t1on{u,d}"]


def test_report_single_section_variants():
    model = parse_model(example_document("tree72"))
    for section in ("na", "nca", "ftap", "price", "fairness"):
        report = analyze(model, sections=[section])
        assert report["validation"]["status"] == "ok"
    nca_only = analyze(model, sections=["nca"])
    assert nca_only["nca"]["arbitrage"] is False
    assert "table" not in nca_only


def test_render_text_contains_table():
    model = parse_model(example_document("tree72"))
    text = render_text(analyze(model))
    assert "NCA(Y)" in text and "cooperation value" in text


def test_model_without_exchange_skips_cone_sections():
    spec = toy_market_spec()
    model = parse_model(spec)
    report = analyze(model)
    assert report["nca"]["status"] == "skipped"
    assert report["ftap"]["status"] == "skipped"


def test_zero_cone_spec_parses():
    doc = example_document("toy71")
    doc["exchange"] = {"kind": "zero"}
    model = parse_model(doc)
    assert model.exchange.is_trivial()


def test_summary_table_row1_toy71():
    """One-period benchmark with deterministic transfers: no global
    arbitrage-freedom, collective no-arbitrage, measure vector present,
    single-claim saving but no total-cost saving."""
    table = analyze(parse_model(example_document("toy71")))["table"]
    assert table == {"NA": False, "NCA(Y)": True, "NCA(Y+RN0)": True,
                     "NA_i_all": True, "M_Y_nonempty": True,
                     "pi_Y<pi_N": True, "rho_Y<rho_N": False}


def test_summary_table_row2_tree72():
    table = analyze(parse_model(example_document("tree72")))["table"]
    assert table == {"NA": False, "NCA(Y)": True, "NCA(Y+RN0)": True,
                     "NA_i_all": True, "M_Y_nonempty": True,
                     "pi_Y<pi_N": True, "rho_Y<rho_N": True}


# ---------------------------------------------------------------------------
# CLI subprocess round trips
# ---------------------------------------------------------------------------


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "collective_arb.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_cli_examples_and_validate(tmp_path):
    listing = run_cli("examples")
    assert listing.returncode == 0
    assert "tree72" in listing.stdout

    out = run_cli("examples", "tree72", "--dir", str(tmp_path))
    assert out.returncode == 0
    path = out.stdout.strip()
    ok = run_cli("validate", path)
    assert ok.returncode == 0 and "ok:" in ok.stdout


def test_cli_validate_bad_file(tmp_path):
    bad = tmp_path / "bad.json"
    doc = example_document("toy71")
    doc["prob"] = ["1/2", "1"]
    bad.write_text(json.dumps(doc))
    res = run_cli("validate", str(bad))
    assert res.returncode == 1
    assert "sum" in res.stderr


def test_cli_validate_unparsable(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    res = run_cli("validate", str(bad))
    assert res.returncode == 1
    assert "line" in res.stderr


_MALFORMED_CONES = {
    "y0-t-string": {"kind": "Y0", "t": "1"},
    "grouping-t-string": {"kind": "grouping", "groups": [[0, 1]], "t": "1"},
    "groups-int": {"kind": "grouping", "groups": 3},
    "groups-mixed": {"kind": "grouping", "groups": [[0, "1"]]},
    "generators-int": {"kind": "span", "generators": 5},
    "parts-int": {"kind": "sum", "parts": 7},
    "y0-t-bool": {"kind": "Y0", "t": True},
    "grouping-t-bool": {"kind": "grouping", "groups": [[0, 1]], "t": True},
    "groups-bool": {"kind": "grouping", "groups": [[False, True]]},
}

# one top-level field of toy71 replaced
_MALFORMED_FIELDS = {
    "claims-int": ("claims", 5),
    "agents-int": ("agents", 5),
    "prob-int": ("prob", 5),
    "atoms-int": ("atoms", 5),
    "filtration-int": ("global_filtration", 5),
    "assets-list": ("assets", [1]),
    "claim-null": ("claims", [["3", None], ["9", "3"]]),
    "agent-asset-list": ("agents", [{"assets": [["X1"]]}, {"assets": ["X2"]}]),
    "times-bool": ("times", True),
    "asset-value-bool": ("assets", {"X1": [True, ["3", "1"]], "X2": ["4", ["9", "3"]]}),
    "claim-bool": ("claims", [["3", True], ["9", "3"]]),
}


@pytest.mark.parametrize("case", [*_MALFORMED_CONES, *_MALFORMED_FIELDS,
                                  "missing-file", "not-utf8"])
def test_cli_rejects_malformed_model_files(case, tmp_path, capsys):
    from collective_arb import cli

    path = tmp_path / "model.json"
    if case == "not-utf8":
        path.write_bytes(b'{"atoms": ["\xff"]}')
    elif case != "missing-file":
        doc = example_document("toy71")
        if case in _MALFORMED_FIELDS:
            field, value = _MALFORMED_FIELDS[case]
            doc[field] = value
        else:
            doc["exchange"] = _MALFORMED_CONES[case]
        path.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err.startswith("invalid: ")


def _nested_sum_cone(depth):
    cone = {"kind": "Y0", "t": 0}
    for _ in range(depth):
        cone = {"kind": "sum", "parts": [cone]}
    return cone


def test_cli_rejects_an_over_nested_model_file(tmp_path, capsys):
    # json.dumps itself cannot encode this depth, so the text is spliced
    from collective_arb import cli

    depth = 800
    doc = example_document("toy71")
    doc["exchange"] = "CONE"
    cone = '{"kind": "sum", "parts": [' * depth + '{"kind": "Y0", "t": 0}' + "]}" * depth
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc).replace('"CONE"', cone))
    assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"invalid: {path}: the document is nested too deeply\n"


def test_parse_rejects_an_over_nested_document():
    doc = example_document("toy71")
    doc["exchange"] = _nested_sum_cone(100)
    assert parse_model(doc).exchange is not None
    doc["exchange"] = _nested_sum_cone(1000)
    with pytest.raises(ValidationError, match="nested too deeply"):
        parse_model(doc)


def _under_frames(frames, call):
    return call() if frames == 0 else _under_frames(frames - 1, call)


def test_nesting_limit_does_not_depend_on_the_callers_stack():
    # 300 sums are 602 levels: inside Python's recursion limit at the top
    # level, beyond it under 500 more frames
    doc = example_document("toy71")
    doc["exchange"] = _nested_sum_cone(300)
    errors = []
    for frames in (0, 500):
        with pytest.raises(ValidationError) as caught:
            _under_frames(frames, lambda: parse_model(doc))
        errors.append(str(caught.value))
    assert errors == ["$: the document is nested too deeply"] * 2


def test_cli_analyze_json_deterministic(tmp_path):
    write_example("toy71", str(tmp_path))
    path = str(tmp_path / "toy71.json")
    a = run_cli("analyze", path, "--json", "-")
    b = run_cli("analyze", path, "--json", "-")
    assert a.returncode == 0 and a.stdout == b.stdout


def test_cli_analyze_unknown_example():
    res = run_cli("examples", "nope")
    assert res.returncode == 1 and "unknown" in res.stderr


def test_cli_analyze_dump_lp(tmp_path):
    """With all sections, the CLI lists every program the analysis solves,
    in order, exactly as the golden listing pins them, then the report."""
    write_example("toy71", str(tmp_path))
    res = run_cli("analyze", str(tmp_path / "toy71.json"), "--dump-lp")
    golden = pathlib.Path(__file__).parent / "golden" / "toy71.lp.txt"
    assert res.returncode == 0
    assert res.stdout.startswith(golden.read_text(encoding="utf-8"))


def test_cli_analyze_section_flags(tmp_path):
    write_example("toy71", str(tmp_path))
    res = run_cli("analyze", str(tmp_path / "toy71.json"), "--na", "--json", "-")
    assert res.returncode == 0
    payload = json.loads(res.stdout[res.stdout.index("{"):])
    assert "na" in payload and "pricing" not in payload


def test_cli_analyze_json_file_output(tmp_path):
    write_example("toy71", str(tmp_path))
    out = tmp_path / "report.json"
    res = run_cli("analyze", str(tmp_path / "toy71.json"), "--json", str(out))
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["pricing"]["rho_N"] == "6"


@pytest.mark.parametrize("command", ["analyze", "examples"])
def test_cli_unwritable_output_exits_cleanly(command, tmp_path):
    write_example("toy71", str(tmp_path))
    missing = tmp_path / "missing"
    if command == "analyze":
        target = missing / "report.json"
        res = run_cli("analyze", str(tmp_path / "toy71.json"), "--json", str(target))
    else:
        target = missing
        res = run_cli("examples", "toy71", "--dir", str(target))
    assert res.returncode == 1
    assert res.stderr.startswith(f"invalid: {target}: cannot write the file: ")
    assert "Traceback" not in res.stderr


def test_cli_internal_invariant_exit_code(monkeypatch, tmp_path, capsys):
    """A certificate failing re-verification maps to exit code 2."""
    from collective_arb import cli
    from collective_arb.errors import InternalInvariantError

    write_example("toy71", str(tmp_path))

    def explode(model, sections):
        raise InternalInvariantError("synthetic failure")

    monkeypatch.setattr(cli, "analyze", explode)
    rc = cli.main(["analyze", str(tmp_path / "toy71.json")])
    assert rc == 2
    assert "invariant" in capsys.readouterr().err


def test_seed_env_var_controls_generation(monkeypatch):
    from collective_arb.randgen import random_market, seeded_rng

    monkeypatch.setenv("COLLECTIVE_ARB_SEED", "7")
    a = random_market(seeded_rng())
    b = random_market(seeded_rng())
    assert a == b  # same seed, same market
    monkeypatch.setenv("COLLECTIVE_ARB_SEED", "8")
    c = random_market(seeded_rng())
    assert c != a
