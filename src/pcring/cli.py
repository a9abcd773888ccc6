"""Command-line front end: JSON instances in, deterministic JSON reports out.

Subcommands:

    analyze <file.json> [--no-verify] [--idempotents] [--nilradical] [-o out]
    example uq-sl2 --n <n> [same flags]
    example dual-group --orders n1,n2,...
    batch <dir> [same flags]

The input schema is ``{"group": [n1, ...], "c": [{"exp": [...], "coeff": k},
...]}`` with an optional ``"name"``.  Reports are byte-identical across runs
on the same input: term ordering is canonical, rationals are reduced with
positive denominators, and the decimal renderings of cyclotomic values are
tagged display_only and never feed back into any computation.

Exit codes: 0 success, 1 validation error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import instances, oracle, spectral
from .instances import InstanceDescriptor
from .pair_ring import CanonicalElementError, ProjectiveClassRing

__all__ = ["AnalysisRequest", "InputError", "main", "parse_input", "run"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2

# The oracle keeps a dense (2s)^3 integer tensor and multiplies (2s) x (2s)^2
# slices of it, so analysis is meant for desk-scale groups; refuse anything
# larger up front.
MAX_GROUP_SIZE = 256


class InputError(ValueError):
    """An input document violates the schema; ``path`` is a JSON pointer."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


@dataclass(frozen=True)
class AnalysisRequest:
    instance: InstanceDescriptor
    verify: bool = True
    emit_idempotents: bool = False
    emit_nilradical: bool = False
    output: str | None = None


def parse_input(document: str) -> AnalysisRequest:
    """Parse and validate one instance document into a request."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise InputError("/", f"invalid JSON: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # nesting or integer-digit limits
        raise InputError("/", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("/", "expected a JSON object")
    for key in doc:
        if key not in ("group", "c", "name"):
            raise InputError(f"/{key}", "unknown field")

    if "group" not in doc:
        raise InputError("/group", "missing required field")
    orders = doc["group"]
    if not isinstance(orders, list) or not orders:
        raise InputError("/group", "expected a non-empty array of positive integers")
    for i, n in enumerate(orders):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InputError(f"/group/{i}", "expected a positive integer")
    if math.prod(orders) > MAX_GROUP_SIZE:
        raise InputError(
            "/group", f"group size {math.prod(orders)} exceeds the supported {MAX_GROUP_SIZE}"
        )

    if "c" not in doc:
        raise InputError("/c", "missing required field")
    terms = doc["c"]
    if not isinstance(terms, list):
        raise InputError("/c", "expected an array of terms")
    coeffs: dict[tuple[int, ...], int] = {}
    for i, term in enumerate(terms):
        if not isinstance(term, dict):
            raise InputError(f"/c/{i}", "expected an object with exp and coeff")
        if "exp" not in term:
            raise InputError(f"/c/{i}/exp", "missing required field")
        if "coeff" not in term:
            raise InputError(f"/c/{i}/coeff", "missing required field")
        exp = term["exp"]
        if (
            not isinstance(exp, list)
            or len(exp) != len(orders)
            or not all(isinstance(e, int) and not isinstance(e, bool) for e in exp)
        ):
            raise InputError(f"/c/{i}/exp", f"expected an array of {len(orders)} integers")
        if not all(0 <= e < n for e, n in zip(exp, orders)):
            raise InputError(f"/c/{i}/exp", "exponent out of range for the group")
        coeff = term["coeff"]
        if not isinstance(coeff, int) or isinstance(coeff, bool):
            raise InputError(f"/c/{i}/coeff", "expected an integer")
        key = tuple(exp)
        coeffs[key] = coeffs.get(key, 0) + coeff

    name = doc.get("name", "custom")
    if not isinstance(name, str):
        raise InputError("/name", "expected a string")
    try:
        descriptor = instances.custom(tuple(orders), coeffs, name=name)
    except CanonicalElementError as exc:
        raise InputError("/c", exc.invariant) from exc
    return AnalysisRequest(instance=descriptor)


def run(request: AnalysisRequest) -> tuple[dict, int]:
    """Execute the pipeline; returns (report document, exit code)."""
    inst = request.instance
    if inst.semisimple:
        return _semisimple_report(inst), EXIT_OK

    ring = ProjectiveClassRing(inst.group, inst.canonical)
    report_data = spectral.spectral_report(ring)
    doc: dict = {"instance": _instance_json(inst)}
    doc.update(
        report_data.to_json(
            include_idempotents=request.emit_idempotents,
            include_nilradical=request.emit_nilradical,
            approx=True,
        )
    )

    failures = []
    if inst.expected_support_size is not None or inst.expected_decomposition is not None:
        golden_ok = True
        expected: dict = {}
        if inst.expected_support_size is not None:
            expected["r"] = inst.expected_support_size
            golden_ok &= report_data.spectrum.support_size == inst.expected_support_size
        if inst.expected_decomposition is not None:
            expected["decomposition"] = inst.expected_decomposition
            golden_ok &= report_data.decomposition.render() == inst.expected_decomposition
        doc["golden"] = {"expected": expected, "match": bool(golden_ok)}
        if not golden_ok:
            failures.append("golden mismatch")

    if request.verify:
        table = oracle.build_table(ring)
        associative = table.is_associative()
        matches = oracle.matches_pair_ring(table, ring)
        if associative:
            radical_dim, spans_match = oracle.certify_radical(
                table, list(report_data.nilpotents)
            )
        else:
            radical_dim = -1
            spans_match = False
        expected_dim = report_data.spectrum.group_order - report_data.spectrum.support_size
        doc["oracle"] = {
            "associative": associative,
            "matches_pair_ring": matches,
            "radical_dim": radical_dim,
            "radical_matches_spectral": spans_match,
        }
        if not (associative and matches and spans_match and radical_dim == expected_dim):
            failures.append("oracle verification failed")

    return doc, (EXIT_VERIFICATION if failures else EXIT_OK)


def _instance_json(inst: InstanceDescriptor) -> dict:
    doc: dict = {"name": inst.name, "group": list(inst.group.orders)}
    if inst.canonical is not None:
        doc["c"] = [
            {"exp": list(exp), "coeff": coeff}
            for exp, coeff in inst.canonical.sorted_terms()
        ]
    doc["semisimple"] = inst.semisimple
    return doc


def _semisimple_report(inst: InstanceDescriptor) -> dict:
    if inst.group.size == 1:
        ring_name = "Z"
    else:
        ring_name = "Z[" + " x ".join(f"Z{n}" for n in inst.group.orders) + "]"
    return {
        "instance": _instance_json(inst),
        "semisimple": True,
        "K0p": ring_name,
        "s": inst.group.size,
    }


def _render(doc: dict) -> str:
    # A validated input can yield report integers beyond Python's limit on
    # int-to-decimal conversion (4300 digits by default): lift the limit
    # while encoding only, so input parsing keeps it.  Python 3.10.0-3.10.6
    # has no limit and no setter.
    if not hasattr(sys, "set_int_max_str_digits"):
        return json.dumps(doc, indent=2) + "\n"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(doc, indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(doc: dict, output: str | None, code: int) -> int:
    """Write the document; returns ``code``, or the validation exit code with
    an error document on stdout when the output file cannot be written."""
    text = _render(doc)
    if not output:
        sys.stdout.write(text)
        return code
    try:
        Path(output).write_text(text)
    except OSError as exc:
        sys.stdout.write(_render(_error_document("validation", str(exc), "/output")))
        return EXIT_VALIDATION
    return code


def _error_document(kind: str, message: str, path: str | None = None) -> dict:
    err: dict = {"type": kind, "message": message}
    if path is not None:
        err["path"] = path
    return {"error": err}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the structure-constants cross-check")
    parser.add_argument("--idempotents", action="store_true",
                        help="include the idempotent system in the report")
    parser.add_argument("--nilradical", action="store_true",
                        help="include the nilradical basis in the report")
    parser.add_argument("-o", "--output", default=None,
                        help="write the report to a file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcring",
        description="Exact decomposition of projective class rings over "
                    "finite abelian structure groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one JSON instance file")
    p_analyze.add_argument("file", help="instance document")
    _add_common_flags(p_analyze)

    p_example = sub.add_parser("example", help="analyze a named built-in instance")
    ex_sub = p_example.add_subparsers(dest="name", required=True)
    p_uq = ex_sub.add_parser("uq-sl2", help="half-quantum group of sl2")
    p_uq.add_argument("--n", type=int, required=True, help="order of the root of unity")
    _add_common_flags(p_uq)
    p_dual = ex_sub.add_parser("dual-group", help="function algebra on an abelian group")
    p_dual.add_argument("--orders", required=True, help="comma-separated cyclic orders")
    _add_common_flags(p_dual)

    p_batch = sub.add_parser("batch", help="analyze every .json file in a directory")
    p_batch.add_argument("directory")
    _add_common_flags(p_batch)
    return parser


def _run_and_emit(request: AnalysisRequest) -> int:
    doc, code = run(request)
    return _emit(doc, request.output, code)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            try:
                text = Path(args.file).read_text()
            except OSError as exc:
                return _emit(_error_document("validation", str(exc)), args.output,
                             EXIT_VALIDATION)
            request = replace(parse_input(text), **_flag_kwargs(args))
            return _run_and_emit(request)

        if args.command == "example":
            if args.name == "uq-sl2":
                if args.n > MAX_GROUP_SIZE:
                    raise InputError(
                        "/n", f"group size {args.n} exceeds the supported {MAX_GROUP_SIZE}"
                    )
                descriptor = instances.uq_sl2(args.n)
            else:
                orders = _parse_orders(args.orders)
                descriptor = instances.dual_group_algebra(orders)
            return _run_and_emit(AnalysisRequest(instance=descriptor, **_flag_kwargs(args)))

        if args.command == "batch":
            return _run_batch(args)
    except InputError as exc:
        return _emit(_error_document("validation", exc.message, exc.path), args.output,
                     EXIT_VALIDATION)
    except (CanonicalElementError, ValueError) as exc:
        return _emit(_error_document("validation", str(exc)), args.output, EXIT_VALIDATION)
    raise AssertionError("unreachable command")


def _flag_kwargs(args: argparse.Namespace) -> dict:
    return {
        "verify": not args.no_verify,
        "emit_idempotents": args.idempotents,
        "emit_nilradical": args.nilradical,
        "output": args.output,
    }


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError("/orders", f"not a comma-separated integer list: {text}") from exc
    if not orders or any(n < 1 for n in orders):
        raise InputError("/orders", "orders must be positive integers")
    return orders


def _run_batch(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        return _emit(_error_document("validation", f"not a directory: {directory}"),
                     args.output, EXIT_VALIDATION)
    entries = []
    codes = []
    for path in sorted(directory.glob("*.json")):
        try:
            request = replace(parse_input(path.read_text()), **{
                **_flag_kwargs(args), "output": None,
            })
        except InputError as exc:
            doc, code = _error_document("validation", exc.message, exc.path), EXIT_VALIDATION
        except (OSError, UnicodeDecodeError) as exc:
            doc, code = _error_document("validation", str(exc)), EXIT_VALIDATION
        else:
            doc, code = run(request)
        entries.append({"file": path.name, "report": doc})
        codes.append(code)
    if EXIT_VALIDATION in codes:
        code = EXIT_VALIDATION
    elif EXIT_VERIFICATION in codes:
        code = EXIT_VERIFICATION
    else:
        code = EXIT_OK
    return _emit({"batch": entries}, args.output, code)


if __name__ == "__main__":
    sys.exit(main())
