"""Command-line front end: JSON instances in, deterministic JSON reports out.

Subcommands:

    analyze <file.json> [--no-verify] [--idempotents] [--nilradical] [-o out]
    example uq-sl2 --n <n> [same flags]
    example dual-group --orders n1,n2,... [-o out]
    batch <dir> [same flags]

The input schema is ``{"group": [n1, ...], "c": [{"exp": [...], "coeff": k},
...]}`` with an optional ``"name"``; any other member, or a member repeated
within one object, is rejected at its JSON pointer.  Input files are
decoded as UTF-8 whatever the locale, as ``-o`` is written.  Reports are
byte-identical across runs on the same input: term ordering is canonical,
rationals are reduced with positive denominators, and the decimal
renderings of cyclotomic values are tagged display_only and never feed
back into any computation.

Reports are streamed: ``_write`` produces the bytes of
``json.dumps(report, indent=2)`` as one write per piece, never the whole
text as one string, and the stream's own buffer batches the writes.  A
report renders each distinct cyclotomic value once, into a dict shared by
all its occurrences, and ``_write`` encodes each such dict once per depth
and reuses the text, one write each time.  ``batch`` writes each file's
entry as soon as its analysis returns, so one report is in memory at a
time.  ``-o`` is opened after ``analyze`` reads its input, before any
analysis, and never read by a batch; if it cannot be opened or written, the
error goes to stdout.

Exit codes: 0 success, 1 usage error, validation error or unwritable report,
2 verification failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import instances, spectral
from .instances import InstanceDescriptor
from .pair_ring import CanonicalElementError

__all__ = ["AnalysisRequest", "InputError", "main", "parse_input", "run"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2

# The oracle keeps a dense (2s)^3 table of structure constants (int8 for
# multiplicities below 128: 134 MB at s = 256) and Light's test multiplies
# (2s) x (2s)^2 slices of a float32 cast of it (537 MB at s = 256; float64 or
# Python integers when the constants are too large for float32 to stay
# exact), so analysis is meant for desk-scale groups; refuse anything larger
# up front.
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


def _check_group_size(size: int, path: str) -> None:
    if size > MAX_GROUP_SIZE:
        raise InputError(path, f"group size {size} exceeds the supported {MAX_GROUP_SIZE}")


def _members(pairs: tuple, path: str, fields: tuple[str, ...]) -> dict:
    """The members of the JSON object at ``path``, decoded as its tuple of
    (name, value) pairs; every name must be one of ``fields``, and only once."""
    members: dict = {}
    for key, value in pairs:
        if key not in fields:
            # The pointer escapes the name as RFC 6901 asks: "~" as "~0",
            # then "/" as "~1".  No listed field holds either.
            name = key.replace("~", "~0").replace("/", "~1")
            raise InputError(f"{path}/{name}", "unknown field")
        if key in members:
            raise InputError(f"{path}/{key}", "duplicate field")
        members[key] = value
    return members


def parse_input(document: str) -> AnalysisRequest:
    """Parse and validate one instance document into a request."""
    # Objects decode as tuples of (name, value) pairs, so that a repeated
    # name is seen; arrays stay lists.
    try:
        doc = json.loads(document, object_pairs_hook=tuple)
    except json.JSONDecodeError as exc:
        raise InputError("/", f"invalid JSON: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # nesting or integer-digit limits
        raise InputError("/", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, tuple):
        raise InputError("/", "expected a JSON object")
    doc = _members(doc, "", ("group", "c", "name"))

    if "group" not in doc:
        raise InputError("/group", "missing required field")
    orders = doc["group"]
    if not isinstance(orders, list) or not orders:
        raise InputError("/group", "expected a non-empty array of positive integers")
    for i, n in enumerate(orders):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InputError(f"/group/{i}", "expected a positive integer")
    _check_group_size(math.prod(orders), "/group")

    if "c" not in doc:
        raise InputError("/c", "missing required field")
    terms = doc["c"]
    if not isinstance(terms, list):
        raise InputError("/c", "expected an array of terms")
    coeffs: dict[tuple[int, ...], int] = {}
    for i, term in enumerate(terms):
        if not isinstance(term, tuple):
            raise InputError(f"/c/{i}", "expected an object with exp and coeff")
        term = _members(term, f"/c/{i}", ("exp", "coeff"))
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
        if coeff < 0:
            raise InputError(f"/c/{i}/coeff", "expected a nonnegative integer")
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

    report_data = spectral.spectral_report(inst.ring)
    doc: dict = {"instance": _instance_json(inst)}
    doc.update(
        report_data.to_json(
            include_idempotents=request.emit_idempotents,
            include_nilradical=request.emit_nilradical,
        )
    )

    failures = []
    if inst.expected_support_size is not None:
        r = inst.expected_support_size
        expected = {"r": r, "decomposition": spectral.render_decomposition(r, inst.group.size)}
        match = report_data.support_size == r
        doc["golden"] = {"expected": expected, "match": match}
        if not match:
            failures.append("golden mismatch")

    if request.verify:
        # The oracle is the only part that needs numpy; unverified calls
        # never import it.
        try:
            from . import oracle
        except ImportError as exc:
            raise ValueError(f"verification needs numpy ({exc}); "
                             "pass --no-verify to skip it") from exc

        doc["oracle"], ok = oracle.verify(report_data)
        if not ok:
            failures.append("oracle verification failed")

    return doc, (EXIT_VERIFICATION if failures else EXIT_OK)


def _instance_json(inst: InstanceDescriptor) -> dict:
    doc: dict = {"name": inst.name, "group": list(inst.group.orders)}
    if inst.ring is not None:
        doc["c"] = inst.ring.canonical.to_json()["terms"]
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


def _is_leaf(d: dict) -> bool:
    # A dict with no dict value and no list value that starts with a dict:
    # a report never mixes dicts and non-dicts in one list.  Leafness sets
    # only piece size and reuse, never the bytes.
    for v in d.values():
        if isinstance(v, dict) or (
                isinstance(v, (list, tuple)) and v and isinstance(v[0], dict)):
            return False
    return True


def _write(value, stream, depth: int = 0) -> None:
    """Write ``value`` to ``stream`` as ``json.dumps(value, indent=2)``
    renders it at nesting ``depth``, byte for byte, one write per piece: a
    bracket, a key, a scalar, a list of integers, an [int, int] pair or a
    leaf dict.  The stream's own buffer batches the writes.

    Takes dicts with ``str`` keys, lists, tuples, ``str``, ``int``, ``bool``
    and ``None``; anything else (floats included) raises ``TypeError``.
    Strings are escaped as with ``ensure_ascii=True``.  A validated input
    can yield report integers beyond Python's limit on int-to-decimal
    conversion (4300 digits by default), so the limit is lifted for this
    call only and restored before the next input is parsed; Python
    3.10.0-3.10.6 has no limit and no setter.

    A leaf dict, one with no dict value and no list value that starts with
    a dict, is encoded into one piece of its own, and that piece is written
    whole wherever the same dict object recurs at the same depth during
    this call.  The value must not be modified while it is written.
    """
    append = stream.write
    int_repr = int.__repr__
    # newlines[d] starts a line at depth d; grown as deeper containers appear.
    newlines = ["\n" + "  " * d for d in range(depth + 2)]
    # (id, depth) -> (leaf dict, its text); the dict is held so that its id
    # cannot be reused by another object during the call.
    leaves: dict[tuple[int, int], tuple[dict, str]] = {}

    def encode_dict(o: dict, depth: int) -> None:
        if not o:
            append("{}")
            return
        if depth + 2 == len(newlines):
            newlines.append("\n" + "  " * (depth + 2))
        outer, inner = newlines[depth:depth + 2]
        separator = "," + inner
        append("{")
        for key, item in o.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            append(inner + encode_basestring_ascii(key) + ": ")
            inner = separator
            encode(item, depth + 1)
        append(outer + "}")

    def encode_leaf(o: dict, depth: int) -> str:
        # The text of o alone, written and reused as one piece.
        nonlocal append
        outer, piece = append, []
        append = piece.append
        try:
            encode_dict(o, depth)
        finally:
            append = outer
        return "".join(piece)

    def encode(o, depth: int) -> None:
        if isinstance(o, str):
            append(encode_basestring_ascii(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int_repr(o))
        elif isinstance(o, (list, tuple)):
            if not o:
                append("[]")
                return
            if depth + 2 == len(newlines):
                newlines.append("\n" + "  " * (depth + 2))
            outer, inner, deeper = newlines[depth:depth + 3]
            separator = "," + inner
            if set(map(type, o)) == {int}:
                append("[" + inner + separator.join(map(int_repr, o)) + outer + "]")
                return
            # Most of a report is the [num, den] coordinates of cyclotomic values.
            pair = "[" + deeper + "%d," + deeper + "%d" + inner + "]"
            append("[")
            for item in o:
                append(inner)
                inner = separator
                if (type(item) is list and len(item) == 2
                        and type(item[0]) is int and type(item[1]) is int):
                    append(pair % (item[0], item[1]))
                else:
                    encode(item, depth + 1)
            append(outer + "]")
        elif isinstance(o, dict):
            leaf = leaves.get((id(o), depth))
            if leaf is None and _is_leaf(o):
                leaf = leaves[id(o), depth] = (o, encode_leaf(o, depth))
            if leaf is None:
                encode_dict(o, depth)
            else:
                append(leaf[1])
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        encode(value, depth)
    finally:
        if limited:
            sys.set_int_max_str_digits(limit)


def _emit(stream, doc: dict, code: int) -> int:
    """Write the document and a newline to ``stream``; returns ``code``."""
    _write(doc, stream)
    stream.write("\n")
    return code


def _error_document(message: str, path: str | None = None) -> dict:
    err: dict = {"type": "validation", "message": message}
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


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error, where argparse would exit 2, the code of a
    verification failure.  Subparsers are built with the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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

    p_batch = sub.add_parser("batch", help="analyze every .json file in a directory")
    p_batch.add_argument("directory")
    _add_common_flags(p_batch)
    for p in (p_analyze, p_uq, p_dual, p_batch):
        p.add_argument("-o", "--output", default=None,
                       help="write the report to a file instead of stdout")
        p.set_defaults(parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    # argparse hands a subcommand's unknown arguments back to the top-level
    # parser; the chosen subcommand reports them, with its own usage.
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    # The input is read first, since opening -o truncates: `analyze F -o F`
    # reads F.  -o is opened before any analysis; batch files are read under
    # their own handlers, so an OSError out of _dispatch comes from writing.
    text = _read(Path(args.file)) if args.command == "analyze" else None
    try:
        if not args.output:
            code = _dispatch(args, sys.stdout, text)
        else:
            try:
                with open(args.output, "w", encoding="utf-8") as stream:
                    code = _dispatch(args, stream, text)
            except OSError as exc:
                code = _emit(sys.stdout, _error_document(str(exc), "/output"), EXIT_VALIDATION)
        sys.stdout.flush()
    except OSError as exc:
        # stdout cannot take the report: one line on stderr, not a traceback.
        # After EPIPE, the interpreter's last flush goes to the null device.
        print(f"pcring: cannot write the report to stdout: {exc}", file=sys.stderr)
        if exc.errno == errno.EPIPE:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VALIDATION
    return code


def _dispatch(args: argparse.Namespace, stream, text: str | Exception | None) -> int:
    if args.command == "batch":
        return _run_batch(args, stream)
    return _emit(stream, *_analyze(args, text))


def _read(path: Path) -> str | Exception:
    """The text of an instance file, or the error that reading it raised."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return exc


def _analyze(args: argparse.Namespace, text: str | Exception | None) -> tuple[dict, int]:
    """Run one analysis with the flags of ``args``: of the instance document
    ``text``, or for ``example`` (``text`` None) of the built-in instance
    that ``args`` names.  Returns (document, exit code); the document is a
    validation error when ``text`` is the error that reading it raised or
    when the input is invalid."""
    if isinstance(text, Exception):
        return _error_document(str(text)), EXIT_VALIDATION
    try:
        request = parse_input(text) if text is not None else AnalysisRequest(_example(args))
        if request.instance.semisimple:  # dual-group: reads no flag and takes none
            return run(request)
        return run(replace(request, verify=not args.no_verify,
                           emit_idempotents=args.idempotents,
                           emit_nilradical=args.nilradical))
    except InputError as exc:
        return _error_document(exc.message, exc.path), EXIT_VALIDATION
    except ValueError as exc:
        return _error_document(str(exc)), EXIT_VALIDATION


def _example(args: argparse.Namespace) -> InstanceDescriptor:
    if args.name == "uq-sl2":
        _check_group_size(args.n, "/n")
        try:
            return instances.uq_sl2(args.n)
        except ValueError as exc:
            raise InputError("/n", str(exc)) from exc
    return instances.dual_group_algebra(_parse_orders(args.orders))


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError("/orders", f"not a comma-separated integer list: {text}") from exc
    if not orders or any(n < 1 for n in orders):
        raise InputError("/orders", "orders must be positive integers")
    return orders


# Batch exit codes, least severe first: one validation error outranks any
# number of verification failures.
_SEVERITY = (EXIT_OK, EXIT_VERIFICATION, EXIT_VALIDATION)


def _run_batch(args: argparse.Namespace, stream) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        return _emit(stream, _error_document(f"not a directory: {directory}"), EXIT_VALIDATION)
    # A batch never reads its own -o file.
    own = os.path.realpath(args.output) if args.output else None
    paths = sorted(p for p in directory.glob("*.json") if os.path.realpath(p) != own)
    if not paths:
        return _emit(stream, {"batch": []}, EXIT_OK)
    # The text of json.dumps({"batch": entries}, indent=2), with each entry
    # written as soon as its file is analyzed.
    code = EXIT_OK
    stream.write('{\n  "batch": [')
    for i, path in enumerate(paths):
        stream.write(",\n    " if i else "\n    ")
        doc, entry_code = _analyze(args, _read(path))
        _write({"file": path.name, "report": doc}, stream, depth=2)
        code = max(code, entry_code, key=_SEVERITY.index)
    stream.write("\n  ]\n}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
