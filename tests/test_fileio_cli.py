import io
import json
from fractions import Fraction

import pytest

from holonomy import classify, cli, commutant, polys, representation
from holonomy.cli import main, run_batch
from holonomy.fileio import (
    dumps_canonical,
    load_rep_file,
    rep_from_document,
    rep_to_document,
    save_rep_file,
)
from holonomy.representation import ValidationError

from helpers import CORPUS, passes_trace_screen, rotational_candidates

OPTIONS = {
    "format": "json",
    "search_bound": 2,
    "suspension_factor": Fraction(2),
    "max_word_length": 6,
    "commutator_depth": 8,
    "dim": None,
    "output": None,
}


def options(**overrides):
    out = dict(OPTIONS)
    out.update(overrides)
    return out


class TestLoading:
    def test_minimal_document(self):
        rep = rep_from_document(
            {"schema_version": "1", "dimension": 3, "kind": "projective-class", "generators": []}
        )
        assert rep.dimension == 3 and rep.generators == ()

    def test_fraction_normalization(self):
        doc = {
            "schema_version": "1",
            "dimension": 1,
            "kind": "linear",
            "generators": [{"label": "g", "matrix": [["2/4"]]}],
        }
        rep = rep_from_document(doc)
        assert rep.matrices[0].rows[0][0] == Fraction(1, 2)

    def test_zero_denominator(self):
        doc = {
            "schema_version": "1",
            "dimension": 1,
            "kind": "linear",
            "generators": [{"label": "g", "matrix": [["1/0"]]}],
        }
        with pytest.raises(ValidationError, match="zero denominator"):
            rep_from_document(doc)

    def test_wrong_matrix_size(self):
        doc = {
            "schema_version": "1",
            "dimension": 3,
            "kind": "projective-class",
            "generators": [{"label": "g", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}],
        }
        with pytest.raises(ValidationError, match="expected 4x4"):
            rep_from_document(doc)

    def test_float_entry_rejected(self):
        doc = {
            "schema_version": "1",
            "dimension": 1,
            "kind": "linear",
            "generators": [{"label": "g", "matrix": [[1.5]]}],
        }
        with pytest.raises(ValidationError, match="float"):
            rep_from_document(doc)

    def test_bad_schema_version(self):
        with pytest.raises(ValidationError, match="schema_version"):
            rep_from_document({"schema_version": "0", "dimension": 2, "kind": "linear"})

    def test_parse_error_has_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2"):
            load_rep_file(bad)

    def test_corpus_loads(self):
        for path in sorted(CORPUS.glob("*.json")):
            rep = load_rep_file(path)
            assert rep.kind == "projective-class"


class TestRoundTrip:
    def test_load_save_load_identity(self, tmp_path):
        for path in sorted(CORPUS.glob("*.json")):
            rep = load_rep_file(path)
            out = tmp_path / path.name
            save_rep_file(rep, out)
            assert load_rep_file(out) == rep

    def test_document_roundtrip_is_canonical(self):
        rep = load_rep_file(CORPUS / "dim3_torus_translations.json")
        doc = rep_to_document(rep)
        assert rep_from_document(doc) == rep
        assert dumps_canonical(doc) == dumps_canonical(rep_to_document(rep_from_document(doc)))


class TestRunBatch:
    def test_analyze_empty_generators(self):
        buf = io.StringIO()
        status = run_batch([CORPUS / "dim3_trivial_injective.json"], "analyze", options(), buf)
        assert status == 0
        report = json.loads(buf.getvalue())
        # commutant of the full matrix algebra on (n+1)^2 coordinates
        assert report["commutant"]["dimension"] == 16
        assert report["outcome"] is None

    def test_analyze_reports_the_entry_bits_stop(self, tmp_path):
        doc = {
            "schema_version": "1",
            "dimension": 4,
            "kind": "linear",
            "generators": [
                {"label": "a", "matrix": [[-2, -1, -3, 2], [0, 0, -2, -3], [-3, -3, 0, 1], [-1, 3, 3, -3]]},
                {"label": "b", "matrix": [[-2, 1, 1, -1], [-1, 3, -2, 3], [-3, -1, -2, -3], [3, 2, 3, -1]]},
            ],
        }
        src = tmp_path / "generic.json"
        src.write_text(dumps_canonical(doc), encoding="utf-8")
        buf = io.StringIO()
        assert run_batch([src], "analyze", options(), buf) == 0
        derived = json.loads(buf.getvalue())["derived_series"]
        assert derived["solvable_up_to_truncation"] == "unknown"
        assert derived["stopped"] == "entry_bits"
        text = io.StringIO()
        assert run_batch([src], "analyze", options(format="text"), text) == 0
        assert f"stopped at depth {len(derived['levels']) + 1}: entry_bits budget" in text.getvalue()
        # a probe that finishes carries no "stopped" key
        buf = io.StringIO()
        assert run_batch([CORPUS / "dim3_torus_translations.json"], "analyze", options(), buf) == 0
        assert "stopped" not in json.loads(buf.getvalue())["derived_series"]

    def test_classify_torus(self):
        buf = io.StringIO()
        status = run_batch(
            [CORPUS / "dim3_torus_translations.json"], "classify", options(dim=3), buf
        )
        assert status == 0
        report = json.loads(buf.getvalue())
        assert report["outcome"]["conclusion"] == "SolvableFundamentalGroup"
        assert report["outcome"]["branch"] == "CommutativeAut"

    def test_classify_undetermined_is_not_failure(self):
        buf = io.StringIO()
        status = run_batch(
            [CORPUS / "dim3_scalar_commutant.json"], "classify", options(dim=3), buf
        )
        assert status == 0
        assert json.loads(buf.getvalue())["outcome"]["conclusion"] == "Undetermined"

    def test_suspend_requires_projective(self, tmp_path):
        linear_doc = {
            "schema_version": "1",
            "dimension": 2,
            "kind": "linear",
            "generators": [{"label": "g", "matrix": [[1, 1], [0, 1]]}],
        }
        src = tmp_path / "linear.json"
        src.write_text(dumps_canonical(linear_doc), encoding="utf-8")
        buf = io.StringIO()
        status = run_batch([src], "suspend", options(), buf)
        assert status == 1

    def test_suspend_output_loads(self, tmp_path):
        out = tmp_path / "suspended.json"
        status = run_batch(
            [CORPUS / "dim3_torus_translations.json"],
            "suspend",
            options(output=out),
            io.StringIO(),
        )
        assert status == 0
        susp = load_rep_file(out)
        assert susp.kind == "linear" and susp.dimension == 4
        assert susp.generators[-1].label == "deck"
        deck = susp.matrices[-1]
        assert deck == deck.identity(4).scale(2)

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        assert run_batch([bad], "analyze", options(), io.StringIO()) == 1

    def test_dim_mismatch_exit_code(self):
        status = run_batch(
            [CORPUS / "dim2_trivial.json"], "classify", options(dim=3), io.StringIO()
        )
        assert status == 1

    def test_reports_byte_identical(self):
        payloads = []
        for _ in range(2):
            buf = io.StringIO()
            assert (
                run_batch(
                    [CORPUS / "dim3_trivial_injective.json"], "classify", options(dim=3), buf
                )
                == 0
            )
            payloads.append(buf.getvalue())
        assert payloads[0] == payloads[1]

    def test_multiple_inputs_json_array(self):
        buf = io.StringIO()
        status = run_batch(
            [CORPUS / "dim2_trivial.json", CORPUS / "dim2_translation_torus.json"],
            "classify",
            options(dim=2),
            buf,
        )
        assert status == 0
        reports = json.loads(buf.getvalue())
        assert isinstance(reports, list) and len(reports) == 2
        assert all(r["outcome"]["conclusion"] == "TorusOrSphere" for r in reports)

    def test_text_format_mentions_labels(self):
        buf = io.StringIO()
        run_batch(
            [CORPUS / "dim3_torus_translations.json"], "classify", options(dim=3, format="text"), buf
        )
        text = buf.getvalue()
        assert "branch=CommutativeAut" in text
        assert "conclusion=SolvableFundamentalGroup" in text

    def test_env_var_overrides_search_bound(self, monkeypatch):
        monkeypatch.setenv("HOLONOMY_SEARCH_BOUND", "3")
        buf = io.StringIO()
        run_batch([CORPUS / "dim3_scalar_commutant.json"], "classify", options(dim=3), buf)
        assert json.loads(buf.getvalue())["options"]["search_bound"] == 3

    def test_env_var_invalid_is_error(self, monkeypatch):
        monkeypatch.setenv("HOLONOMY_SEARCH_BOUND", "many")
        assert run_batch([CORPUS / "dim2_trivial.json"], "analyze", options(), io.StringIO()) == 1


def _count_calls(monkeypatch, owner, name):
    """Count the calls of owner.name through every holonomy module that binds it."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module in (classify, cli, commutant, representation):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
def test_classify_builds_each_object_once(path, monkeypatch, capsys):
    centralizers = _count_calls(monkeypatch, commutant, "matrix_centralizer")
    suspensions = _count_calls(monkeypatch, representation, "benzecri_suspend")
    radicals = _count_calls(monkeypatch, commutant, "dickson_radical")
    fields = _count_calls(monkeypatch, commutant, "invariant_affine_fields")
    dim = str(json.loads(path.read_text(encoding="utf-8"))["dimension"])
    assert main(["classify", "--dim", dim, str(path)]) == 0
    assert (len(centralizers), len(suspensions), len(radicals), len(fields)) == (1, 1, 1, 0)
    assert json.loads(capsys.readouterr().out)["command"] == "classify"


def test_rotational_search_polynomials_only_for_screen_survivors(monkeypatch, capsys):
    path = CORPUS / "dim3_trivial_injective.json"
    monkeypatch.delenv(cli.SEARCH_BOUND_ENV, raising=False)
    original = polys.minimal_polynomial
    calls, searching = [], []

    def counted(m):
        calls.append(bool(searching))
        return original(m)

    for module in (classify, cli, commutant, polys, representation):
        if getattr(module, "minimal_polynomial", None) is original:
            monkeypatch.setattr(module, "minimal_polynomial", counted)
    search = commutant.find_rotational_element
    found = []

    def tracked(a, rep=None, bound=2):
        searching.append(True)
        try:
            cert = search(a, rep, bound)
        finally:
            searching.clear()
        found.append((a, cert))
        return cert

    monkeypatch.setattr(classify, "find_rotational_element", tracked)
    assert main(["classify", "--dim", "3", str(path)]) == 0
    capsys.readouterr()
    [(cent, cert)] = found
    walk = list(rotational_candidates(cent, 2))
    survivors = [m for m in walk if passes_trace_screen(m)]
    assert len(calls) <= len(survivors)
    # inside the search: one polynomial per survivor up to the find, and
    # one more when verify_certificate re-checks it
    up_to_find = walk[: walk.index(cert.element) + 1]
    assert sum(calls) <= sum(map(passes_trace_screen, up_to_find)) + 1


class TestWriteReport:
    def test_path_and_stream_destinations(self, tmp_path):
        from holonomy.fileio import build_report, render_text, write_report

        rep = load_rep_file(CORPUS / "dim2_trivial.json")
        report = build_report(rep, "analyze", {"format": "json"}, {"dimension": 9}, (), None)
        json_path = tmp_path / "report.json"
        text_path = tmp_path / "report.txt"
        write_report(report, json_path, "json")
        write_report(report, text_path, "text")
        assert json.loads(json_path.read_text(encoding="utf-8")) == report
        assert text_path.read_text(encoding="utf-8") == render_text(report)
        buf = io.StringIO()
        write_report(report, buf, "json")
        assert buf.getvalue() == dumps_canonical(report)
        with pytest.raises(ValueError, match="format"):
            write_report(report, buf, "yaml")


class TestMainEntry:
    def test_classify_via_argv(self, capsys):
        status = main(["classify", str(CORPUS / "dim2_trivial.json"), "--dim", "2"])
        assert status == 0
        out = capsys.readouterr().out
        assert json.loads(out)["outcome"]["conclusion"] == "TorusOrSphere"

    def test_suspend_via_argv(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        status = main(
            ["suspend", str(CORPUS / "dim2_trivial.json"), "-o", str(out), "--suspension-factor", "3"]
        )
        assert status == 0
        susp = load_rep_file(out)
        assert susp.matrices[0] == susp.matrices[0].identity(3).scale(3)

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["classify", "x.json", "--dim", "2", "--no-such-flag"])
