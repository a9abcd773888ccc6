"""Tests for the command-line front end and its JSON contract."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pcring
from pcring import (CycloNum, GroupRingElement, PairElement, ProjectiveClassRing, cli, oracle,
                    root_of_unity, spectral, spectral_report, trace_element)
from pcring.cli import AnalysisRequest, InputError, parse_input, run
from pcring.instances import InstanceDescriptor, uq_sl2


def make_request(descriptor, **kwargs) -> AnalysisRequest:
    return AnalysisRequest(instance=descriptor, **kwargs)


# The multiplicity 10**4000 (4001 digits) parses under Python's default
# 4300-digit limit; the 1/lambda terms of the idempotents do not render under it.
PAST_DIGIT_LIMIT = ('{"group":[3],"c":[{"exp":[0],"coeff":1' + "0" * 4000
                    + '},{"exp":[1],"coeff":1}]}')


# A long integer literal the decoder refuses under the default digit limit.
LONG_INTEGER = '{"group":[4],"c":[{"exp":[0],"coeff":1' + "0" * 5000 + "}]}"


def load_without_digit_limit(text: str):
    if not hasattr(sys, "set_int_max_str_digits"):
        return json.loads(text)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.loads(text)
    finally:
        sys.set_int_max_str_digits(limit)


class TestParseInput:
    def test_trace_document_matches_named_instance(self):
        doc = json.dumps(
            {
                "group": [3],
                "c": [
                    {"exp": [0], "coeff": 1},
                    {"exp": [1], "coeff": 1},
                    {"exp": [2], "coeff": 1},
                ],
            }
        )
        request = parse_input(doc)
        inst = request.instance
        assert inst.group.orders == (3,)
        assert inst.ring.canonical == trace_element(inst.group)
        assert request.verify

    def test_semisimple_input_rejected(self):
        doc = json.dumps({"group": [2], "c": [{"exp": [0], "coeff": 1}]})
        with pytest.raises(InputError) as info:
            parse_input(doc)
        assert info.value.message == "semisimple input"
        assert info.value.path == "/c"

    def test_missing_trivial_factor_rejected(self):
        doc = json.dumps({"group": [2], "c": [{"exp": [1], "coeff": 2}]})
        with pytest.raises(InputError) as info:
            parse_input(doc)
        assert info.value.message == "missing trivial factor"

    def test_missing_group_field(self):
        with pytest.raises(InputError) as info:
            parse_input(json.dumps({"c": []}))
        assert info.value.path == "/group"

    def test_bad_group_entry_path(self):
        with pytest.raises(InputError) as info:
            parse_input(json.dumps({"group": [2, 0], "c": []}))
        assert info.value.path == "/group/1"

    def test_bad_exponent_path(self):
        doc = json.dumps({"group": [2], "c": [{"exp": [5], "coeff": 1}]})
        with pytest.raises(InputError) as info:
            parse_input(doc)
        assert info.value.path == "/c/0/exp"

    def test_bad_coeff_path(self):
        doc = json.dumps({"group": [2], "c": [{"exp": [0], "coeff": "x"}]})
        with pytest.raises(InputError) as info:
            parse_input(doc)
        assert info.value.path == "/c/0/coeff"

    def test_unknown_field_rejected(self):
        with pytest.raises(InputError) as info:
            parse_input(json.dumps({"group": [2], "c": [], "extra": 1}))
        assert info.value.path == "/extra"

    def test_invalid_json(self):
        with pytest.raises(InputError) as info:
            parse_input("{not json")
        assert info.value.path == "/"

    @pytest.mark.parametrize("document", [
        "[" * 200000 + "]" * 200000,
        LONG_INTEGER,
    ], ids=["deep-nesting", "long-integer"])
    def test_json_beyond_decoder_limits(self, document):
        with pytest.raises(InputError) as info:
            parse_input(document)
        assert info.value.path == "/"
        assert info.value.message.startswith("invalid JSON: ")

    def test_oversized_group_rejected(self):
        doc = json.dumps({"group": [1000000], "c": [{"exp": [0], "coeff": 2}]})
        with pytest.raises(InputError) as info:
            parse_input(doc)
        assert info.value.path == "/group"
        assert "exceeds" in info.value.message

    @pytest.mark.parametrize("document, path, message", [
        ([], "/", "expected a JSON object"),
        ({"group": [], "c": []}, "/group", "expected a non-empty array of positive integers"),
        ({"group": 2, "c": []}, "/group", "expected a non-empty array of positive integers"),
        ({"group": [2]}, "/c", "missing required field"),
        ({"group": [2], "c": {}}, "/c", "expected an array of terms"),
        ({"group": [2], "c": [{"exp": [0], "coeff": 2}, 1]}, "/c/1",
         "expected an object with exp and coeff"),
        ({"group": [2], "c": [{"coeff": 2}]}, "/c/0/exp", "missing required field"),
        ({"group": [2], "c": [{"exp": [0]}]}, "/c/0/coeff", "missing required field"),
        ({"group": [2], "c": [{"exp": [0, 0], "coeff": 2}]}, "/c/0/exp",
         "expected an array of 1 integers"),
        ({"group": [2], "c": [{"exp": [0], "coeff": 2}], "name": 7}, "/name",
         "expected a string"),
        # Rejected before duplicates are combined: the total for K[1] is 1.
        ({"group": [3], "c": [{"exp": [0], "coeff": 1}, {"exp": [1], "coeff": -1},
                              {"exp": [1], "coeff": 2}]}, "/c/1/coeff",
         "expected a nonnegative integer"),
        # Accepted with c = 2 when term members went unchecked.
        ({"group": [3], "c": [{"exp": [0], "coeff": 2, "coef": 5}]}, "/c/0/coef",
         "unknown field"),
        # RFC 6901 pointers: "~" is written "~0" and "/" is written "~1"; these
        # were rejected at /a/b and /c/0/x~1.
        ({"group": [3], "c": [], "a/b": 1}, "/a~1b", "unknown field"),
        ({"group": [3], "c": [{"exp": [0], "coeff": 2, "x~1": 5}]}, "/c/0/x~01",
         "unknown field"),
    ], ids=["not-object", "empty-group", "group-not-list", "c-missing", "c-not-array",
            "term-not-object", "exp-missing", "coeff-missing", "exp-wrong-length",
            "name-not-string", "negative-term", "term-unknown-field", "slash-in-name",
            "tilde-in-name"])
    def test_schema_error_paths(self, document, path, message):
        with pytest.raises(InputError) as info:
            parse_input(json.dumps(document))
        assert (info.value.path, info.value.message) == (path, message)

    # json.dumps cannot repeat a key, so these documents are written out.  The
    # decoder keeps the last value: the first analyzed Z3, the second failed
    # with "missing trivial factor" at /c.
    @pytest.mark.parametrize("document, path", [
        ('{"group":[2],"c":[{"exp":[0],"coeff":2}],"group":[3]}', "/group"),
        ('{"group":[3],"c":[{"exp":[0],"coeff":2,"exp":[1]}]}', "/c/0/exp"),
    ], ids=["top-level", "term"])
    def test_repeated_member_rejected(self, document, path):
        with pytest.raises(InputError) as info:
            parse_input(document)
        assert (info.value.path, info.value.message) == (path, "duplicate field")

    def test_duplicate_terms_are_combined(self):
        doc = json.dumps(
            {"group": [2], "c": [{"exp": [0], "coeff": 1}, {"exp": [0], "coeff": 1}]}
        )
        request = parse_input(doc)
        assert request.instance.ring.canonical.coefficient((0,)) == 2


class TestRun:
    def test_half_quantum_report(self):
        doc, code = run(make_request(uq_sl2(5)))
        assert code == cli.EXIT_OK
        assert doc["s"] == 5
        assert doc["r"] == 1
        assert doc["decomposition"] == "C^2 x C[eps]^4"
        assert doc["support_F"] == [[0]]
        assert doc["oracle"] == {
            "associative": True,
            "matches_pair_ring": True,
            "radical_dim": 4,
            "radical_matches_spectral": True,
        }
        assert doc["golden"]["match"] is True
        assert "idempotents" not in doc
        assert "nilradical" not in doc
        assert "normalized_c" in doc

    def test_optional_sections(self):
        doc, _ = run(make_request(uq_sl2(2), emit_idempotents=True, emit_nilradical=True))
        assert len(doc["idempotents"]) == 3
        assert len(doc["nilradical"]) == 1

    def test_no_verify_skips_oracle(self):
        doc, code = run(make_request(uq_sl2(3), verify=False))
        assert code == cli.EXIT_OK
        assert "oracle" not in doc

    def test_semisimple_report(self, capsys):
        code = cli.main(["example", "dual-group", "--orders", "2,3"])
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK
        assert doc["semisimple"] is True
        assert doc["K0p"] == "Z[Z2 x Z3]"
        assert "r" not in doc and "decomposition" not in doc

    def test_trivial_dual_group_is_plain_integers(self, capsys):
        code = cli.main(["example", "dual-group", "--orders", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK
        assert doc["K0p"] == "Z"
        assert "r" not in doc and "decomposition" not in doc

    def test_full_support_custom_instance(self):
        request = parse_input(
            json.dumps(
                {"group": [2], "c": [{"exp": [0], "coeff": 2}, {"exp": [1], "coeff": 1}]}
            )
        )
        doc, code = run(request)
        assert code == cli.EXIT_OK
        assert [v["coeffs"] for v in doc["fourier_c"]] == [[[3, 1]], [[1, 1]]]
        assert doc["r"] == 2
        assert doc["decomposition"] == "C^4 x C[eps]^0"

    def test_verification_failure_exit_code(self, monkeypatch):
        monkeypatch.setattr(pcring.oracle, "certify_radical", lambda *a: (1, False))
        _, code = run(make_request(uq_sl2(2)))
        assert code == cli.EXIT_VERIFICATION

    def test_non_associative_table_exit_code(self, monkeypatch):
        monkeypatch.setattr(pcring.oracle.StructureTable, "is_associative", lambda self: False)
        doc, code = run(make_request(uq_sl2(2)))
        assert code == cli.EXIT_VERIFICATION
        assert doc["oracle"] == {
            "associative": False,
            "matches_pair_ring": True,
            "radical_dim": -1,
            "radical_matches_spectral": False,
        }

    def test_one_ring_per_document(self, monkeypatch):
        # Parsing builds and checks the ring once; run analyzes and verifies
        # that same object and builds no other.
        built, analyzed = [], []
        check, report = ProjectiveClassRing.__post_init__, spectral.spectral_report

        def counted_check(ring):
            built.append(ring)
            check(ring)

        def recorded_report(ring):
            analyzed.append(ring)
            return report(ring)

        monkeypatch.setattr(ProjectiveClassRing, "__post_init__", counted_check)
        monkeypatch.setattr(spectral, "spectral_report", recorded_report)
        request = parse_input(json.dumps(
            {"group": [4], "c": [{"exp": [0], "coeff": 1}, {"exp": [2], "coeff": 2}]}))
        doc, code = run(request)
        assert code == cli.EXIT_OK and doc["oracle"]["associative"] is True
        assert len(built) == 1 and built[0] is request.instance.ring
        assert len(analyzed) == 1 and analyzed[0] is request.instance.ring

    def test_thousands_of_order_one_factors(self):
        # Verified in 12.5 s on a 2-vCPU host while every order-1 factor was
        # walked at quadratic cost (40000 factors: no answer in 300 s); each
        # one now costs nothing past parsing.
        k = 8000
        start = time.perf_counter()
        doc, code = run(parse_input(json.dumps(
            {"group": [1] * k, "c": [{"exp": [0] * k, "coeff": 2}]})))
        elapsed = time.perf_counter() - start
        assert code == cli.EXIT_OK
        assert (doc["s"], doc["r"], doc["decomposition"]) == (1, 1, "C^2 x C[eps]^0")
        assert doc["oracle"] == {
            "associative": True,
            "matches_pair_ring": True,
            "radical_dim": 0,
            "radical_matches_spectral": True,
        }
        assert elapsed < 5, elapsed

    def test_golden_mismatch_reported(self):
        from dataclasses import replace

        bad = replace(uq_sl2(3), expected_support_size=2)
        doc, code = run(make_request(bad))
        assert code == cli.EXIT_VERIFICATION
        assert doc["golden"]["match"] is False


@st.composite
def _documents(draw) -> tuple[dict, dict]:
    """An instance document over a group of order at most 24, with
    multiplicities 0..3 and a trivial term of at least 1, and the same
    instance with its cyclic factors permuted and a factor of order 1
    appended.  Multiplicities are one fill value with up to three terms
    changed, so that sparse and trace-like elements, which have nilpotents,
    are drawn as often as dense ones."""
    orders = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)
                  .filter(lambda o: math.prod(o) <= 24))
    elements = list(itertools.product(*map(range, orders)))
    coeffs = [draw(st.integers(0, 3))] * len(elements)
    changes = st.dictionaries(st.integers(0, len(elements) - 1), st.integers(0, 3), max_size=3)
    for i, k in draw(changes).items():
        coeffs[i] = k
    coeffs[0] = max(coeffs[0], 1)
    assume(sum(coeffs) != 1)  # augmentation 1 is semisimple input
    perm = draw(st.permutations(range(len(orders))))

    def document(orders, exps) -> dict:
        return {"group": orders, "c": [{"exp": list(a), "coeff": k}
                                       for a, k in zip(exps, coeffs) if k]}

    return (document(orders, elements),
            document([orders[i] for i in perm] + [1],
                     [[a[i] for i in perm] + [0] for a in elements]))


@st.composite
def _crt_documents(draw) -> tuple[int, int, int, dict, dict, dict]:
    """(m, n, k) and three documents of one canonical element: c on Z_mn,
    its image on Z_m x Z_n under u -> (u mod m, u mod n) for coprime m, n,
    and its image on Z_mn under u -> k u for a unit k.  c is the convolution
    of a subgroup's indicator with a sparse x, so its transform vanishes off
    the subgroup's annihilator: r < s unless the subgroup is trivial, and
    about a third of the draws have r = s."""
    m, n = draw(st.tuples(st.integers(2, 12), st.integers(2, 12))
                .filter(lambda p: math.gcd(*p) == 1 and p[0] * p[1] <= 24))
    size = m * n
    k = draw(st.sampled_from([u for u in range(1, size) if math.gcd(u, size) == 1]))
    step = draw(st.sampled_from([size] + [d for d in range(1, size) if size % d == 0]))
    x = [0] * size
    for u, v in draw(st.dictionaries(st.integers(0, size - 1), st.integers(1, 3),
                                     min_size=1, max_size=3)).items():
        x[u] = v
    x[0] = max(x[0], 1)
    c = [sum(x[(u - h) % size] for h in range(0, size, step)) for u in range(size)]
    assume(sum(c) != 1)  # augmentation 1 is semisimple input

    def document(orders, image) -> dict:
        return {"group": orders, "c": [{"exp": image(u), "coeff": v}
                                       for u, v in enumerate(c) if v]}

    return (m, n, k, document([size], lambda u: [u]),
            document([m, n], lambda u: [u % m, u % n]),
            document([size], lambda u: [k * u % size]))


@st.composite
def _malformed(draw) -> tuple[str, str]:
    """The text of a drawn valid document with exactly one thing broken, and
    the JSON pointer of the broken member: ``/c`` for the two ring
    invariants, the trivial term and an augmentation other than 1."""
    doc = draw(_documents())[0]
    orders, terms = doc["group"], doc["c"]
    i = draw(st.integers(0, len(orders) - 1))
    j = draw(st.integers(0, len(terms) - 1))
    term = terms[j]
    kind = draw(st.sampled_from(["missing", "order", "exponent", "exp length", "coeff",
                                 "unknown", "repeated", "trivial term", "augmentation"]))
    if kind == "missing":
        key = draw(st.sampled_from(["group", "c"]))
        del doc[key]
        return json.dumps(doc), f"/{key}"
    if kind == "order":
        orders[i] = draw(st.one_of(st.just(True), st.integers(-2, 0)))
        return json.dumps(doc), f"/group/{i}"
    if kind == "exponent":
        term["exp"][i] = draw(st.one_of(st.integers(-3, -1),
                                        st.integers(orders[i], orders[i] + 3)))
        return json.dumps(doc), f"/c/{j}/exp"
    if kind == "exp length":
        term["exp"] = draw(st.sampled_from([term["exp"] + [0], term["exp"][:-1]]))
        return json.dumps(doc), f"/c/{j}/exp"
    if kind == "coeff":
        term["coeff"] = draw(st.one_of(st.integers(-3, -1),
                                       st.sampled_from([1.5, 2.0, "1", True, None])))
        return json.dumps(doc), f"/c/{j}/coeff"
    if kind == "unknown":
        name = draw(st.sampled_from(["extra", "a/b", "~"]))
        where = draw(st.sampled_from([doc, term]))
        where[name] = 0
        prefix = "" if where is doc else f"/c/{j}"
        return json.dumps(doc), f"{prefix}/{name.replace('~', '~0').replace('/', '~1')}"
    if kind == "repeated":
        # json.dumps writes each key once, so the repeat is appended by hand.
        if draw(st.booleans()):
            key = draw(st.sampled_from(["group", "c"]))
            return json.dumps(doc)[:-1] + f', "{key}": {json.dumps(doc[key])}}}', f"/{key}"
        key = draw(st.sampled_from(["exp", "coeff"]))
        texts = [json.dumps(t) for t in terms]
        texts[j] = texts[j][:-1] + f', "{key}": {json.dumps(term[key])}}}'
        return (f'{{"group": {json.dumps(orders)}, "c": [{", ".join(texts)}]}}',
                f"/c/{j}/{key}")
    if kind == "trivial term":
        doc["c"] = [t for t in terms if any(t["exp"])]
    else:
        doc["c"] = [{"exp": [0] * len(orders), "coeff": 1}]
    return json.dumps(doc), "/c"


def _main(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestGeneratedRelations:
    """Relations between reports that hold for every valid document."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(_documents())
    def test_verification_and_factor_order(self, documents):
        doc, moved = (parse_input(json.dumps(d)) for d in documents)
        verified, code = run(doc)
        assert code == cli.EXIT_OK, verified.get("oracle")
        unverified, code = run(replace(doc, verify=False))
        assert code == cli.EXIT_OK
        assert {k: v for k, v in verified.items() if k != "oracle"} == unverified
        # Relabelling the factors, or adding a trivial one, is an isomorphism
        # of the structure group: no invariant of the ring moves.
        relabelled, code = run(moved)
        assert code == cli.EXIT_OK
        for key in ("s", "r", "decomposition", "oracle"):
            assert relabelled[key] == verified[key], key

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(_crt_documents())
    def test_crt_split_and_automorphisms(self, drawn):
        # Z_mn = Z_m x Z_n for coprime m, n, and u -> k u is an automorphism:
        # the invariants stay, and the support moves by the dual maps.
        m, n, k, *documents = drawn
        runs = [run(parse_input(json.dumps(d))) for d in documents]
        assert [code for _, code in runs] == [cli.EXIT_OK] * 3, runs[0][0].get("oracle")
        plain, split, moved = (report for report, _ in runs)
        for report in (split, moved):
            for key in ("r", "decomposition", "oracle"):
                assert report[key] == plain[key], key
        assert plain["oracle"]["radical_matches_spectral"] is True
        support = [b for [b] in plain["support_F"]]
        assert sorted(split["support_F"]) == sorted(
            [b * pow(n, -1, m) % m, b * pow(m, -1, n) % n] for b in support)
        assert sorted(moved["support_F"]) == sorted(
            [b * pow(k, -1, m * n) % (m * n)] for b in support)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(_malformed())
    def test_malformed_document_names_its_pointer(self, malformed):
        text, pointer = malformed
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory, "instance.json")
            path.write_text(text, encoding="utf-8")
            code, out, err = _main(["analyze", str(path)])
        # Exit 1, never 2: bad input is no verification failure.
        assert code == cli.EXIT_VALIDATION, out
        doc = json.loads(out)
        assert list(doc) == ["error"] and doc["error"]["type"] == "validation"
        assert doc["error"]["path"] == pointer, (text, doc)
        assert err == ""

    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(st.lists(st.one_of(_documents().map(lambda d: json.dumps(d[0])),
                              _malformed().map(lambda m: m[0])), min_size=2, max_size=4))
    def test_batch_entries_are_analyze_reports(self, texts):
        flags = ["--idempotents", "--nilradical"]
        severity = (cli.EXIT_OK, cli.EXIT_VERIFICATION, cli.EXIT_VALIDATION)
        with tempfile.TemporaryDirectory() as directory:
            entries, codes = [], []
            for i, text in enumerate(texts):
                path = Path(directory, f"{i:02d}.json")
                path.write_text(text, encoding="utf-8")
                code, out, _ = _main(["analyze", str(path), *flags])
                entries.append({"file": path.name, "report": json.loads(out)})
                codes.append(code)
            code, out, _ = _main(["batch", directory, *flags])
        assert json.loads(out) == {"batch": entries}
        assert code == max(codes, key=severity.index)


@st.composite
def _faulty(draw, report: spectral.SpectralReport) -> spectral.SpectralReport:
    """``report`` with one fault: a nonzero transform value set to 0, a zero
    one set to a root of unity, or one nilpotent dropped, replaced by a copy
    of another, replaced by P_0 or with two entries swapped (``_swaps``).
    The ring stays as it is."""
    values = list(report.values)
    nonzero = [b for b, v in enumerate(values) if v]
    vanishing = [b for b, v in enumerate(values) if not v]
    nils = list(report.nilpotents)
    order = report.group.conductor
    kind = draw(st.sampled_from(["zeroed", "root of unity", "dropped", "duplicated", "P_0",
                                 "swapped"]))
    assume(kind == "zeroed" or len(nils) >= 1 + (kind == "duplicated"))
    if kind == "zeroed":
        values[draw(st.sampled_from(nonzero))] = CycloNum.zero(order)
    elif kind == "root of unity":
        k = draw(st.integers(0, order - 1))
        values[draw(st.sampled_from(vanishing))] = root_of_unity(order, k)
    faulty = spectral.SpectralReport(report.ring, tuple(values))
    if kind in ("dropped", "duplicated", "P_0", "swapped"):
        j = draw(st.integers(0, len(nils) - 1))
        if kind == "dropped":
            del nils[j]
        elif kind == "swapped":
            pairs = _swaps(nils[j], nonzero)
            assume(pairs)
            nils[j] = _swap(nils[j], *draw(st.sampled_from(pairs)))
        else:
            nils[j] = nils[j - 1] if kind == "duplicated" else report.ring.projective_class(
                report.group.identity)
        # A cached property: the instance's own entry is what it returns.
        vars(faulty)["nilpotents"] = tuple(nils)
    return faulty


def _swaps(nilpotent: PairElement, support: list[int]) -> list[tuple[int, int]]:
    """The x < y at which ``nilpotent`` has unequal entries and that some b
    in ``support`` (lambda(b) != 0) tells apart: swapping the two entries
    takes the nilpotent out of the radical."""
    group = nilpotent.group
    entries = nilpotent.coefficient_vector()[group.size:]
    exps = group.pairing_exponents()
    return [(x, y) for x, y in itertools.combinations(range(group.size), 2)
            if entries[x] != entries[y] and any(exps[x][b] != exps[y][b] for b in support)]


def _swap(nilpotent: PairElement, x: int, y: int) -> PairElement:
    group = nilpotent.group
    entries = nilpotent.coefficient_vector()[group.size:]
    entries[x], entries[y] = entries[y], entries[x]
    return PairElement(nilpotent.s_part,
                       GroupRingElement(group, dict(zip(group.elements(), entries))))


def _assert_exits_two(request: AnalysisRequest, faulty: spectral.SpectralReport) -> None:
    """Verifying ``faulty`` in place of the report of ``request`` exits 2,
    whether the certificate or the exact path decides, and changes only the
    oracle block."""
    honest, _ = run(request)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "spectral_report", lambda ring: faulty)
        unverified, code = run(replace(request, verify=False))
        assert code == cli.EXIT_OK
        for exact in (False, True):
            if exact:
                # The certificate fails, so the exact path decides.
                patch.setattr(oracle, "_decomposition_holds", lambda *args: False)
            doc, code = run(request)
            assert code == cli.EXIT_VERIFICATION, (exact, doc["oracle"])
            block = doc["oracle"]
            assert list(block) == list(honest["oracle"])
            assert block["associative"] is block["matches_pair_ring"] is True
            assert (block["radical_matches_spectral"] is False
                    or block["radical_dim"] != doc["s"] - doc["r"])
            assert {k: v for k, v in doc.items() if k != "oracle"} == unverified


def _zero_first_value(ring: ProjectiveClassRing) -> spectral.SpectralReport:
    values = list(spectral_report(ring).values)
    values[next(b for b, v in enumerate(values) if v)] = CycloNum.zero(ring.group.conductor)
    return spectral.SpectralReport(ring, tuple(values))


class TestGeneratedFaults:
    """A report with one fault exits 2, whichever path of the oracle decides."""

    # 40 examples draw every kind of fault at least twice.  Few documents
    # admit a swap, so fixed ones are tested below as well.
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(_documents(), st.data())
    def test_report_fault_exits_two(self, documents, data):
        request = parse_input(json.dumps(documents[0]))
        _assert_exits_two(request, data.draw(_faulty(spectral_report(request.instance.ring))))

    @pytest.mark.parametrize("document", [
        {"group": [4], "c": [{"exp": [0], "coeff": 1}, {"exp": [2], "coeff": 1}]},
        {"group": [2, 3], "c": [{"exp": [0, 0], "coeff": 1}, {"exp": [0, 1], "coeff": 1},
                                {"exp": [0, 2], "coeff": 1}]},
    ], ids=["Z4", "Z2xZ3"])
    def test_swapped_entries_exit_two(self, document):
        request = parse_input(json.dumps(document))
        report = spectral_report(request.instance.ring)
        nils = list(report.nilpotents)
        nils[0] = _swap(nils[0], *_swaps(nils[0], [b for b, v in enumerate(report.values) if v])[0])
        faulty = spectral.SpectralReport(report.ring, report.values)
        vars(faulty)["nilpotents"] = tuple(nils)
        _assert_exits_two(request, faulty)

    @settings(derandomize=True, deadline=None, max_examples=8)
    @given(st.lists(_documents().map(lambda d: json.dumps(d[0])), min_size=1, max_size=3),
           st.lists(_malformed().map(lambda m: m[0]), min_size=1, max_size=2), st.data())
    def test_batch_of_faulty_and_malformed_documents_exits_one(self, valid, malformed, data):
        texts = data.draw(st.permutations(valid + malformed))
        with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "spectral_report", _zero_first_value)
            codes = []
            for i, text in enumerate(texts):
                path = Path(directory, f"{i:02d}.json")
                path.write_text(text, encoding="utf-8")
                codes.append(_main(["analyze", str(path)])[0])
            code, out, _ = _main(["batch", directory])
        assert sorted(codes) == sorted([cli.EXIT_VERIFICATION] * len(valid)
                                       + [cli.EXIT_VALIDATION] * len(malformed))
        assert code == cli.EXIT_VALIDATION
        assert len(json.loads(out)["batch"]) == len(texts)


class TestMain:
    def test_analyze_file(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        path.write_text(
            json.dumps({"group": [2], "c": [{"exp": [0], "coeff": 1}, {"exp": [1], "coeff": 1}]}),
            encoding="utf-8"
        )
        code = cli.main(["analyze", str(path)])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 0
        assert doc["r"] == 1
        assert doc["oracle"]["radical_dim"] == 1

    def test_analyze_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"group": [2], "c": [{"exp": [0], "coeff": 1}]}),
                        encoding="utf-8")
        code = cli.main(["analyze", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["error"]["message"] == "semisimple input"

    @pytest.mark.parametrize("coeff", [2**62, 2**63, 2**1100])
    def test_analyze_huge_multiplicity(self, tmp_path, capsys, coeff):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"group": [4], "c": [{"exp": [0], "coeff": coeff}]}),
                        encoding="utf-8")
        code = cli.main(["analyze", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["oracle"] == {
            "associative": True,
            "matches_pair_ring": True,
            "radical_dim": 0,
            "radical_matches_spectral": True,
        }

    def test_analyze_huge_multiplicity_with_radical(self, tmp_path, capsys):
        # An object table whose transform 2**63 (1 + (-1)^b) vanishes at two
        # characters.
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"group": [4], "c": [{"exp": [0], "coeff": 2**63},
                                                        {"exp": [2], "coeff": 2**63}]}),
                                                        encoding="utf-8")
        code = cli.main(["analyze", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["r"] == 2
        assert doc["oracle"] == {
            "associative": True,
            "matches_pair_ring": True,
            "radical_dim": 2,
            "radical_matches_spectral": True,
        }

    def test_report_integers_past_the_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        path.write_text(PAST_DIGIT_LIMIT, encoding="utf-8")
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code = cli.main(["analyze", str(path), "--idempotents", "--no-verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert max(map(len, re.findall(r"\d+", out))) > 4300
        doc = load_without_digit_limit(out)
        assert doc["instance"]["c"] == [{"exp": [0], "coeff": 10**4000},
                                        {"exp": [1], "coeff": 1}]
        assert doc["r"] == 3 and len(doc["idempotents"]) == 6
        # The limit is lifted for rendering only.
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_analyze_missing_file(self, capsys):
        code = cli.main(["analyze", "/nonexistent/input.json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["error"]["type"] == "validation"

    def test_example_uq_sl2(self, capsys):
        code = cli.main(["example", "uq-sl2", "--n", "4"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["decomposition"] == "C^2 x C[eps]^3"

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_example_uq_sl2_rejects_bad_order(self, capsys, n):
        code = cli.main(["example", "uq-sl2", "--n", str(n)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["error"] == {
            "type": "validation",
            "message": f"root-of-unity order must be at least 2, got {n}",
            "path": "/n",
        }

    def test_example_uq_sl2_rejects_oversized_order(self, capsys):
        code = cli.main(["example", "uq-sl2", "--n", "100000"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["error"]["path"] == "/n"

    def test_example_dual_group(self, capsys):
        code = cli.main(["example", "dual-group", "--orders", "2,3"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["K0p"] == "Z[Z2 x Z3]"

    def test_dual_group_has_no_size_bound(self, capsys):
        # Semisimple: the report builds no table, so no group is too large.
        code = cli.main(["example", "dual-group", "--orders", "100000,100000"])
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK
        assert doc["semisimple"] is True and doc["s"] == 10**10

    def test_example_dual_group_output_file(self, tmp_path):
        # The stdout digest of the same call, pinned in test_report_bytes.
        out = tmp_path / "dual.json"
        assert cli.main(["example", "dual-group", "--orders", "2,3", "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "150eda69f9799d88a619a9b7105bf08d4660177b9fe73b5119e500cdfa672d31")

    def test_example_dual_group_bad_orders(self, capsys):
        code = cli.main(["example", "dual-group", "--orders", "2,x"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["example", "uq-sl2", "--n", "3", "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["r"] == 1

    def test_analyze_writes_over_its_own_input(self, tmp_path, capsys):
        # Opening -o truncates, so the input has to be read first.
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"group": [3], "c": [{"exp": [0], "coeff": 2}]}),
                        encoding="utf-8")
        assert cli.main(["analyze", str(path)]) == cli.EXIT_OK
        expected = capsys.readouterr().out
        assert cli.main(["analyze", str(path), "-o", str(path)]) == cli.EXIT_OK
        assert path.read_text(encoding="utf-8") == expected
        assert capsys.readouterr().out == ""

    def test_missing_input_error_goes_to_the_output_file(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = cli.main(["analyze", str(tmp_path / "missing.json"), "-o", str(out)])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["error"]["type"] == "validation"
        assert "missing.json" in doc["error"]["message"]

    @pytest.mark.parametrize("existing", [False, True], ids=["created", "existing"])
    def test_batch_never_reads_its_own_output(self, tmp_path, capsys, existing):
        good = json.dumps({"group": [2], "c": [{"exp": [0], "coeff": 1}, {"exp": [1], "coeff": 1}]})
        (tmp_path / "a.json").write_text(good, encoding="utf-8")
        (tmp_path / "b.json").write_text(json.dumps({"group": [3], "c": [{"exp": [0], "coeff": 2}]}),
                                         encoding="utf-8")
        assert cli.main(["batch", str(tmp_path)]) == cli.EXIT_OK
        expected = capsys.readouterr().out
        out = tmp_path / "zz.json"
        if existing:
            out.write_text(good, encoding="utf-8")
        # Named through a different spelling of the same file.
        alias = tmp_path / ".." / tmp_path.name / "zz.json"
        assert cli.main(["batch", str(tmp_path), "-o", str(alias)]) == cli.EXIT_OK
        assert out.read_text(encoding="utf-8") == expected

    def test_unwritable_output_is_a_validation_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.json"
        code = cli.main(["example", "uq-sl2", "--n", "4", "-o", str(out)])
        doc = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_VALIDATION
        assert doc["error"]["type"] == "validation"
        assert doc["error"]["path"] == "/output"
        assert not out.exists()

    def test_deterministic_output(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        cli.main(["example", "uq-sl2", "--n", "6", "--idempotents", "--nilradical", "-o", str(first)])
        cli.main(["example", "uq-sl2", "--n", "6", "--idempotents", "--nilradical", "-o", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_batch_reports_and_exit_code(self, tmp_path, capsys):
        good = tmp_path / "a_good.json"
        good.write_text(
            json.dumps({"group": [2], "c": [{"exp": [0], "coeff": 1}, {"exp": [1], "coeff": 1}]}),
            encoding="utf-8"
        )
        bad = tmp_path / "b_bad.json"
        bad.write_text(json.dumps({"group": [2], "c": [{"exp": [0], "coeff": 1}]}),
                       encoding="utf-8")
        code = cli.main(["batch", str(tmp_path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [entry["file"] for entry in doc["batch"]] == ["a_good.json", "b_bad.json"]
        assert doc["batch"][0]["report"]["r"] == 1
        assert doc["batch"][1]["report"]["error"]["message"] == "semisimple input"

    @pytest.mark.parametrize("kind", ["not-utf8", "unreadable", "deep-nesting", "long-integer"])
    def test_batch_isolates_unreadable_files(self, tmp_path, capsys, kind):
        good = json.dumps({"group": [2], "c": [{"exp": [0], "coeff": 1}, {"exp": [1], "coeff": 1}]})
        (tmp_path / "a_good.json").write_text(good, encoding="utf-8")
        if kind == "not-utf8":
            (tmp_path / "b_bad.json").write_bytes(b"\xff\xfe{\x00}\x00")
        elif kind == "unreadable":
            (tmp_path / "b_bad.json").mkdir()
        elif kind == "deep-nesting":
            (tmp_path / "b_bad.json").write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
        else:
            (tmp_path / "b_bad.json").write_text(LONG_INTEGER, encoding="utf-8")
        (tmp_path / "c_good.json").write_text(good, encoding="utf-8")
        code = cli.main(["batch", str(tmp_path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [entry["file"] for entry in doc["batch"]] == [
            "a_good.json", "b_bad.json", "c_good.json"
        ]
        assert doc["batch"][0]["report"]["r"] == 1
        assert doc["batch"][1]["report"]["error"]["type"] == "validation"
        assert doc["batch"][2]["report"]["r"] == 1

    def test_batch_keeps_reports_past_the_digit_limit(self, tmp_path, capsys):
        good = json.dumps({"group": [2], "c": [{"exp": [0], "coeff": 1}, {"exp": [1], "coeff": 1}]})
        (tmp_path / "a_good.json").write_text(good, encoding="utf-8")
        (tmp_path / "b_huge.json").write_text(PAST_DIGIT_LIMIT, encoding="utf-8")
        (tmp_path / "c_good.json").write_text(good, encoding="utf-8")
        code = cli.main(["batch", str(tmp_path), "--idempotents", "--no-verify"])
        doc = load_without_digit_limit(capsys.readouterr().out)
        assert code == 0
        assert [entry["file"] for entry in doc["batch"]] == [
            "a_good.json", "b_huge.json", "c_good.json"
        ]
        assert [entry["report"]["r"] for entry in doc["batch"]] == [1, 3, 1]
        assert len(doc["batch"][1]["report"]["idempotents"]) == 6

    def test_digit_limit_is_back_before_the_next_batch_file(self, tmp_path, capsys):
        # Entries are written as they finish: the limit lifted for a_huge's
        # entry must not let b_long's input integer through the parser.
        (tmp_path / "a_huge.json").write_text(PAST_DIGIT_LIMIT, encoding="utf-8")
        (tmp_path / "b_long.json").write_text(LONG_INTEGER, encoding="utf-8")
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code = cli.main(["batch", str(tmp_path), "--idempotents", "--no-verify"])
        doc = load_without_digit_limit(capsys.readouterr().out)
        assert code == cli.EXIT_VALIDATION
        huge, long = (entry["report"] for entry in doc["batch"])
        assert huge["instance"]["c"][0]["coeff"] == 10**4000
        assert huge["r"] == 3 and len(huge["idempotents"]) == 6
        assert long["error"]["path"] == "/"
        assert long["error"]["message"].startswith("invalid JSON: ")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_batch_is_the_indented_dump_of_its_entries(self, tmp_path, capsys):
        good = json.dumps({"group": [2], "c": [{"exp": [0], "coeff": 1}, {"exp": [1], "coeff": 1}]})
        (tmp_path / "a_good.json").write_text(good, encoding="utf-8")
        (tmp_path / "b_bad.json").write_text(json.dumps({"group": [2], "c": []}), encoding="utf-8")
        (tmp_path / "c_good.json").write_text(good, encoding="utf-8")
        code = cli.main(["batch", str(tmp_path), "--idempotents", "--nilradical"])
        report, _ = run(replace(parse_input(good), emit_idempotents=True, emit_nilradical=True))
        error = {"error": {"type": "validation", "message": "missing trivial factor", "path": "/c"}}
        expected = {"batch": [
            {"file": "a_good.json", "report": report},
            {"file": "b_bad.json", "report": error},
            {"file": "c_good.json", "report": report},
        ]}
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
        assert code == cli.EXIT_VALIDATION

    def test_analysis_error_gives_the_same_document_in_analyze_and_batch(
            self, tmp_path, capsys, monkeypatch):
        # A ValueError out of run is a validation error for one input, from
        # analyze, example and batch alike; a batch still writes its other
        # entries.
        original = cli.run

        def failing(request):
            if request.instance.name in ("boom", "uq-sl2(3)"):
                raise ValueError("analysis failed")
            return original(request)

        monkeypatch.setattr(cli, "run", failing)
        good = {"group": [2], "c": [{"exp": [0], "coeff": 1}, {"exp": [1], "coeff": 1}]}
        (tmp_path / "a_good.json").write_text(json.dumps(good), encoding="utf-8")
        (tmp_path / "b_boom.json").write_text(json.dumps({**good, "name": "boom"}),
                                              encoding="utf-8")
        error = {"error": {"type": "validation", "message": "analysis failed"}}
        assert cli.main(["analyze", str(tmp_path / "b_boom.json")]) == cli.EXIT_VALIDATION
        assert json.loads(capsys.readouterr().out) == error
        assert cli.main(["example", "uq-sl2", "--n", "3"]) == cli.EXIT_VALIDATION
        assert json.loads(capsys.readouterr().out) == error
        assert cli.main(["batch", str(tmp_path)]) == cli.EXIT_VALIDATION
        doc = json.loads(capsys.readouterr().out)
        assert [entry["report"] for entry in doc["batch"]][1] == error
        assert doc["batch"][0]["report"]["r"] == 1

    def test_empty_batch(self, tmp_path, capsys):
        assert cli.main(["batch", str(tmp_path)]) == cli.EXIT_OK
        assert capsys.readouterr().out == json.dumps({"batch": []}, indent=2) + "\n"

    def test_batch_all_good(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(
            json.dumps({"group": [3], "c": [{"exp": [0], "coeff": 2}]}), encoding="utf-8"
        )
        code = cli.main(["batch", str(tmp_path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(doc["batch"]) == 1

    def test_batch_missing_directory(self, capsys):
        code = cli.main(["batch", "/nonexistent/dir"])
        assert code == 1

    def test_size_bound_without_verification(self, capsys):
        code = cli.main(["example", "uq-sl2", "--n", "256", "--no-verify"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["s"] == 256 and doc["r"] == 1
        assert len(doc["fourier_c"]) == 256
        assert doc["decomposition"] == "C^2 x C[eps]^255"

    @pytest.mark.parametrize("argv", [
        ["example", "uq-sl2", "--n", "12", "--no-verify"],
        ["analyze", "{split}", "--no-verify"],
    ], ids=["uq-sl2", "split"])
    def test_unrequested_idempotents_are_never_built(self, tmp_path, capsys, monkeypatch, argv):
        # r = s for the split document: every character would need an inverse.
        split = tmp_path / "split.json"
        split.write_text(json.dumps(
            {"group": [2, 3], "c": [{"exp": [0, 0], "coeff": 2}, {"exp": [1, 1], "coeff": 1}]}
        ), encoding="utf-8")
        argv = [arg.format(split=split) for arg in argv]

        def refuse(value):
            raise AssertionError("CycloNum.inverse called")

        monkeypatch.setattr(CycloNum, "inverse", refuse)
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["r"] >= 1
        with pytest.raises(AssertionError, match="inverse called"):
            cli.main(argv + ["--idempotents"])

    @pytest.mark.parametrize("argv", [
        ["example", "uq-sl2", "--n", "abc"],
        ["analyze"],
        ["analyze", "x.json", "--bogus"],
        [],
        # A semisimple report reads no analysis flag, so dual-group takes none.
        ["example", "dual-group", "--orders", "2,3", "--no-verify"],
        ["example", "dual-group", "--orders", "2,3", "--idempotents"],
        ["example", "dual-group", "--orders", "2,3", "--nilradical"],
    ], ids=["bad-int", "missing-file", "unknown-flag", "no-command", "dual-no-verify",
            "dual-idempotents", "dual-nilradical"])
    def test_usage_error_exits_one(self, capsys, argv):
        # 2 is the code of a verification failure, so argparse's default
        # would read as a report that failed its check.
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        captured = capsys.readouterr()
        assert info.value.code == cli.EXIT_VALIDATION
        assert captured.out == ""
        assert "usage: pcring" in captured.err

    @pytest.mark.parametrize("argv, usage, unknown", [
        (["example", "dual-group", "--orders", "2,3", "--no-verify"],
         "usage: pcring example dual-group [-h] --orders ORDERS", "--no-verify"),
        (["example", "uq-sl2", "--n", "3", "--orders", "2"],
         "usage: pcring example uq-sl2 [-h] --n N", "--orders 2"),
        (["analyze", "doc.json", "--bogus"], "usage: pcring analyze [-h]", "--bogus"),
    ], ids=["dual-group", "uq-sl2", "analyze"])
    def test_unknown_argument_shows_the_subcommand_usage(self, capsys, argv, usage, unknown):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        captured = capsys.readouterr()
        assert info.value.code == cli.EXIT_VALIDATION
        assert captured.out == ""
        assert captured.err.startswith(usage)
        assert f"unrecognized arguments: {unknown}\n" in captured.err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["example", "--help"])
        assert info.value.code == cli.EXIT_OK
        assert "usage: pcring example" in capsys.readouterr().out

    def test_display_values_are_tagged(self, capsys):
        cli.main(["example", "uq-sl2", "--n", "2", "--idempotents"])
        doc = json.loads(capsys.readouterr().out)
        coeff = doc["idempotents"][0]["s"]["terms"][0]["coeff"]
        assert "display_only" in coeff
        assert coeff["coeffs"] == [[1, 2]]


def _cli_process(argv: list[str], **kwargs) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(Path(pcring.__file__).resolve().parents[1]))
    return subprocess.Popen([sys.executable, "-m", "pcring.cli", *argv], env=env,
                            stderr=subprocess.PIPE, **kwargs)


class TestStdoutWriteFailure:
    def test_closed_pipe(self):
        # About 290 kB of report: more than a pipe and the stream buffer hold.
        proc = _cli_process(["example", "uq-sl2", "--n", "16", "--no-verify", "--idempotents"],
                            stdout=subprocess.PIPE)
        assert proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == cli.EXIT_VALIDATION
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err.count("\n") == 1 and "Broken pipe" in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device(self):
        with open("/dev/full", "w", encoding="utf-8") as full:
            proc = _cli_process(["example", "uq-sl2", "--n", "4"], stdout=full)
            err = proc.communicate(timeout=120)[1].decode()
        assert proc.returncode == cli.EXIT_VALIDATION
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err.count("\n") == 1 and "No space left" in err


# Runs main on argv and reports on stderr whether numpy was imported.
_NUMPY_PROBE = ("import sys; from pcring.cli import main; code = main(sys.argv[1:]); "
                "sys.stderr.write(str('numpy' in sys.modules)); sys.exit(code)")

# Runs main on argv.
_MAIN = "import sys; from pcring.cli import main; sys.exit(main(sys.argv[1:]))"

# Runs main on argv with every import of numpy failing.
_WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None; from pcring.cli import main; "
                  "sys.exit(main(sys.argv[1:]))")


def _run_python(code: str, argv: list[str], **env_vars: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(pcring.__file__).resolve().parents[1]),
               **env_vars)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, encoding="utf-8", timeout=120)


_SPARSE_5X7 = {"group": [5, 7], "c": [
    {"exp": [0, 0], "coeff": 3}, {"exp": [1, 2], "coeff": 2},
    {"exp": [2, 6], "coeff": 1}, {"exp": [4, 3], "coeff": 1}]}


class TestStrictEncoding:
    """Input files are read as UTF-8 whatever the locale: with a warning
    raised as an error wherever a text file is opened without an encoding,
    the CLI still exits 0 and writes nothing to stderr."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "{dir}/in.json"],
        ["analyze", "{dir}/in.json", "--no-verify"],
        ["batch", "{dir}"],
    ], ids=["analyze", "analyze-unverified", "batch"])
    def test_utf8_input_without_encoding_warnings(self, tmp_path, argv):
        doc = dict(_SPARSE_5X7, name="café")
        (tmp_path / "in.json").write_text(json.dumps(doc, ensure_ascii=False),
                                          encoding="utf-8")
        proc = _run_python(_MAIN, [arg.format(dir=tmp_path) for arg in argv],
                           PYTHONWARNDEFAULTENCODING="1",
                           PYTHONWARNINGS="error::EncodingWarning")
        assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")
        report = json.loads(proc.stdout)
        if argv[0] == "batch":
            report = report["batch"][0]["report"]
        assert report["instance"]["name"] == "café"


class TestNumpyOnlyForVerification:
    """Only the oracle needs numpy: unverified calls never import it."""

    @pytest.mark.parametrize("argv, loaded", [
        (["example", "uq-sl2", "--n", "256", "--no-verify"], False),
        (["analyze", "{doc}", "--no-verify", "--idempotents", "--nilradical"], False),
        (["analyze", "{doc}"], True),
        (["example", "uq-sl2", "--n", "4"], True),
    ], ids=["uq-sl2-256-unverified", "sparse-5x7-unverified", "sparse-5x7", "uq-sl2-4"])
    def test_numpy_is_imported_by_verification_alone(self, tmp_path, argv, loaded):
        doc = tmp_path / "in.json"
        doc.write_text(json.dumps(_SPARSE_5X7), encoding="utf-8")
        argv = [arg.format(doc=doc) for arg in argv] + ["-o", str(tmp_path / "out.json")]
        proc = _run_python(_NUMPY_PROBE, argv)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stderr == str(loaded)

    @pytest.mark.parametrize("flags, code", [([], cli.EXIT_VALIDATION),
                                             (["--no-verify"], cli.EXIT_OK)])
    def test_analyze_without_numpy(self, tmp_path, flags, code):
        doc = tmp_path / "in.json"
        doc.write_text(json.dumps(_SPARSE_5X7), encoding="utf-8")
        proc = _run_python(_WITHOUT_NUMPY, ["analyze", str(doc), *flags])
        assert (proc.returncode, proc.stderr) == (code, "")
        report = json.loads(proc.stdout)
        if code == cli.EXIT_OK:
            assert report["decomposition"] == "C^70 x C[eps]^0"
        else:
            error = report["error"]
            assert error["type"] == "validation"
            assert "numpy" in error["message"] and "--no-verify" in error["message"]

    def test_batch_without_numpy_goes_on(self, tmp_path):
        for name in ("a.json", "b.json"):
            (tmp_path / name).write_text(json.dumps(_SPARSE_5X7), encoding="utf-8")
        proc = _run_python(_WITHOUT_NUMPY, ["batch", str(tmp_path)])
        assert (proc.returncode, proc.stderr) == (cli.EXIT_VALIDATION, "")
        entries = json.loads(proc.stdout)["batch"]
        assert [entry["file"] for entry in entries] == ["a.json", "b.json"]
        assert all("numpy" in entry["report"]["error"]["message"] for entry in entries)


def _json_values():
    leaves = st.one_of(
        st.text(),
        st.integers(),
        st.integers(min_value=-2**200, max_value=2**200),
        st.booleans(),
        st.none(),
        # [num, den]-shaped lists, with a bool standing in for an int at times.
        st.lists(st.integers() | st.booleans(), min_size=2, max_size=2),
    )
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(), children, max_size=5),
    ), max_leaves=40)


class RecordingStream:
    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def leaf_texts(value, depth: int = 0):
    """The text of each dict in ``value`` that holds no dict, directly or in
    a list, as ``json.dumps(value, indent=2)`` renders it at its depth."""
    if isinstance(value, dict):
        children = value.values()
        if not any(isinstance(v, dict) or (isinstance(v, (list, tuple))
                                           and any(isinstance(x, dict) for x in v))
                   for v in children):
            yield json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)
            return
    elif isinstance(value, (list, tuple)):
        children = value
    else:
        return
    for child in children:
        yield from leaf_texts(child, depth + 1)


def written(value) -> str:
    stream = io.StringIO()
    cli._write(value, stream)
    return stream.getvalue() + "\n"


class TestWrite:
    """The streaming writer against the standard library's indented dump."""

    @settings(deadline=None, max_examples=300)
    @given(_json_values())
    def test_matches_indented_dump(self, value):
        assert written(value) == json.dumps(value, indent=2) + "\n"

    def test_every_corpus_report(self, corpus):
        for inst in corpus:
            descriptor = InstanceDescriptor(inst.name, inst.ring)
            doc, _ = run(AnalysisRequest(instance=descriptor, verify=False,
                                         emit_idempotents=True, emit_nilradical=True))
            assert written(doc) == json.dumps(doc, indent=2) + "\n", inst.name

    @pytest.mark.parametrize("value", [1.5, {"x": [0.0]}, [1, 2.0], {1: 2}, {"x": {1, 2}}])
    def test_unsupported_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._write(value, io.StringIO())

    def test_report_is_written_in_bounded_pieces(self):
        doc, _ = run(AnalysisRequest(instance=uq_sl2(64), verify=False,
                                     emit_idempotents=True, emit_nilradical=True))
        reference = json.dumps(doc, indent=2)
        stream = RecordingStream()
        cli._write(doc, stream)
        assert "".join(stream.writes) == reference
        assert max(map(len, stream.writes)) <= len(reference) // 8
        # One piece per write, so the longest write is the longest leaf text:
        # a cyclotomic value with phi = 32 at most.
        assert max(map(len, stream.writes)) == max(map(len, leaf_texts(doc)))

    @staticmethod
    def _shared_leaf_document() -> tuple[dict, dict]:
        leaf = {"order": 4, "coeffs": [[1, 2], [0, 1]], "display_only": "0.5"}
        doc = {"values": [leaf, leaf, {"coeff": leaf}],
               "rows": [[{"exp": [i], "coeff": leaf} for i in range(40)]]}
        return doc, leaf

    def test_leaf_repeated_at_two_depths(self):
        doc, _ = self._shared_leaf_document()
        assert written(doc) == json.dumps(doc, indent=2) + "\n"
        batch = io.StringIO()
        cli._write(doc, batch, depth=2)
        assert batch.getvalue() == json.dumps(doc, indent=2).replace("\n", "\n    ")

    def test_leaf_piece_is_never_split(self):
        doc, leaf = self._shared_leaf_document()
        stream = RecordingStream()
        cli._write(doc, stream)
        assert "".join(stream.writes) == json.dumps(doc, indent=2)
        assert len(stream.writes) > 40
        # The leaf sits at depth 2 twice, at depth 3 once and at depth 4 40
        # times, each time as one whole write.
        for depth, count in ((2, 2), (3, 1), (4, 40)):
            text = json.dumps(leaf, indent=2).replace("\n", "\n" + "  " * depth)
            assert sum(w.count(text) for w in stream.writes) == count
            assert stream.writes.count(text) == count

    def test_dict_with_a_list_of_dicts_is_not_a_leaf(self):
        _, leaf = self._shared_leaf_document()
        row = {"exp": [1], "terms": [leaf, leaf]}
        doc = {"rows": [row, row]}
        stream = RecordingStream()
        cli._write(doc, stream)
        assert "".join(stream.writes) == json.dumps(doc, indent=2)
        # row sits at depth 2 and is written piece by piece, each time; its
        # leaves at depth 4 are whole writes.
        row_text = json.dumps(row, indent=2).replace("\n", "\n" + "  " * 2)
        assert not any(row_text in w for w in stream.writes)
        leaf_text = json.dumps(leaf, indent=2).replace("\n", "\n" + "  " * 4)
        assert stream.writes.count(leaf_text) == 4
