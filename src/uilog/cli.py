"""Command-line front end for batch pipelines.

One binary, six subcommands: convert, validate, stats, segment,
abstract, and extension. Data and reports go to files or standard
output; diagnostics go to standard error, so the commands compose in
shell pipelines. Exit codes are a stable contract: 0 success, 1
operational error, 2 validation findings.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
import warnings
from pathlib import Path

from . import tabular, transform, validation, xes
from .errors import BadConfigError, UILogError
from .model import UILog

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_FINDINGS = 2


def _use_color(stream) -> bool:
    if os.environ.get("UILOG_NO_COLOR"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _style(text: str, code: str, stream) -> str:
    if not _use_color(stream):
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return _EXIT_ERROR


def _guess_format(path: str, explicit) -> str:
    if explicit:
        return explicit
    suffix = Path(path).suffix.lower()
    if suffix in (".csv", ".tsv", ".txt"):
        return "csv"
    if suffix in (".xes", ".xml"):
        return "xes"
    raise UILogError(
        f"cannot infer format of {path!r}; pass --format/--out-format"
    )


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UILogError(f"{path}: not UTF-8 text ({exc})") from None


def _prepare(args) -> None:
    """Check the csv delimiter, and replace each config file path in
    ``args`` by what the file holds, so that every file is read and
    parsed once."""
    try:
        tabular._check_delimiter(getattr(args, "delimiter", ","))
    except BadConfigError as exc:
        raise BadConfigError(f"--{exc}") from None
    for option, load in (
        ("mapping", tabular.load_mapping),
        ("notion", transform.load_case_notion),
        ("rules", transform.load_rules),
    ):
        path = getattr(args, option, None)
        try:
            if path is not None:
                setattr(args, option, load(_read_text(path)))
        except BadConfigError as exc:
            # The loaders see only text, which configparser names '<string>'.
            raise BadConfigError(f"{path}: {exc}".replace("'<string>'", repr(path))) from exc


def _noting_warnings(call, *args, **kwargs):
    """Return ``call(*args, **kwargs)``, printing each warning it issues
    as a ``note:`` on stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args, **kwargs)
    for item in caught:
        print(f"note: {item.message}", file=sys.stderr)
    return result


def _load_log(args) -> UILog:
    fmt = _guess_format(args.input, getattr(args, "format", None))
    text = _read_text(args.input)
    if fmt == "csv":
        log, report = tabular.ingest(text, args.mapping, delimiter=args.delimiter)
        for skipped in report.rows_skipped:
            print(f"note: skipped {skipped}", file=sys.stderr)
        for message in report.warnings:
            print(f"note: {message}", file=sys.stderr)
        return log
    lenient = getattr(args, "lenient_names", False)
    return _noting_warnings(xes.read_xes, text, lenient_names=lenient)


def _write_log(log: UILog, args, report=None) -> int:
    """Write ``log`` to ``args.output`` and return the exit code.

    With ``--strict`` a log with validation findings is not written; the
    findings go to stderr instead. ``report`` is a validation of ``log``
    the caller already has.
    """
    if args.strict:
        if report is None:
            report = validation.validate(log)
        if not report.ok:
            print(validation.render_report(report), file=sys.stderr)
            return _EXIT_FINDINGS
    fmt = _guess_format(args.output, args.out_format)
    if fmt == "xes":
        text = xes.write_xes(log, check=False)
    else:
        text = tabular.write_table(log, args.mapping, delimiter=args.delimiter)
    Path(args.output).write_text(text, encoding="utf-8")
    return _EXIT_OK


def _write_violation_report(report, path) -> None:
    records = validation.report_records(report)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def _cmd_convert(args) -> int:
    log = _load_log(args)
    report = validation.validate(log)
    if args.report:
        _write_violation_report(report, args.report)
    if not report.ok:
        print(
            f"note: log has {len(report.violations)} validation finding(s)",
            file=sys.stderr,
        )
    return _write_log(log, args, report)


def _cmd_validate(args) -> int:
    args.lenient_names = True
    log = _load_log(args)
    report = validation.validate(log)
    head, _, rest = validation.render_report(report).partition("\n")
    print(_style(head, "32" if report.ok else "31", sys.stdout) + (f"\n{rest}" if rest else ""))
    if args.report:
        _write_violation_report(report, args.report)
    return _EXIT_OK if report.ok else _EXIT_FINDINGS


def _cmd_stats(args) -> int:
    log = _load_log(args)
    matrix = validation.coverage(log)
    summary = validation.profile(log)
    print(validation.render_coverage(matrix))
    print()
    print("profile")
    print(validation.render_profile(summary))
    if args.report:
        payload = {
            "coverage": {
                name: {
                    "events_present": cell.events_present,
                    "events_total": cell.events_total,
                    "ratio": cell.ratio,
                    "in_log": cell.in_log,
                }
                for name, cell in matrix.items()
            },
            "profile": dataclasses.asdict(summary),
        }
        Path(args.report).write_text(
            json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )
    return _EXIT_OK


def _cmd_segment(args) -> int:
    log = _load_log(args)
    segmented = transform.segment(log, args.notion)
    code = _write_log(segmented, args)
    print(f"note: {len(segmented.traces)} trace(s)", file=sys.stderr)
    return code


def _cmd_abstract(args) -> int:
    log = _load_log(args)
    abstracted = _noting_warnings(transform.abstract, log, args.rules)
    code = _write_log(abstracted, args)
    print(
        f"note: {len(log.events)} event(s) in, {len(abstracted.events)} out",
        file=sys.stderr,
    )
    return code


def _cmd_extension(args) -> int:
    text = xes.emit_extension_definition()
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return _EXIT_OK


def _add_io_arguments(parser, *, needs_output: bool) -> None:
    parser.add_argument("--input", "-i", required=True, help="input log file")
    parser.add_argument(
        "--format", choices=("csv", "xes"), help="input format (default: by suffix)"
    )
    parser.add_argument("--mapping", help="column mapping file (INI) for csv input/output")
    parser.add_argument(
        "--delimiter", default=",", help="csv delimiter (default: comma)"
    )
    parser.add_argument("--report", help="write findings/statistics to this file")
    if needs_output:
        parser.add_argument(
            "--strict",
            action="store_true",
            help="refuse to write logs that fail validation",
        )
        parser.add_argument("--output", "-o", required=True, help="output log file")
        parser.add_argument(
            "--out-format", choices=("csv", "xes"), help="output format (default: by suffix)"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uilog",
        description="Convert, validate, profile, segment, and abstract "
        "user-interaction logs (CSV and XES with the uilog extension).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    convert = commands.add_parser("convert", help="convert between csv and xes")
    _add_io_arguments(convert, needs_output=True)
    convert.set_defaults(handler=_cmd_convert)

    check = commands.add_parser("validate", help="check model invariants")
    _add_io_arguments(check, needs_output=False)
    check.set_defaults(handler=_cmd_validate)

    stats = commands.add_parser("stats", help="attribute coverage and profile")
    _add_io_arguments(stats, needs_output=False)
    stats.set_defaults(handler=_cmd_stats)

    seg = commands.add_parser("segment", help="partition events into traces")
    _add_io_arguments(seg, needs_output=True)
    seg.add_argument("--notion", required=True, help="case notion file (INI)")
    seg.set_defaults(handler=_cmd_segment)

    abs_ = commands.add_parser("abstract", help="collapse in-group runs into task events")
    _add_io_arguments(abs_, needs_output=True)
    abs_.add_argument("--rules", required=True, help="abstraction rules file (INI)")
    abs_.set_defaults(handler=_cmd_abstract)

    ext = commands.add_parser("extension", help="print the uilog XES extension")
    ext.add_argument("--output", "-o", help="write to a file instead of stdout")
    ext.set_defaults(handler=_cmd_extension)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command builds many objects and few reference cycles, so cyclic
    # collection is paused while it runs and the caller's setting restored.
    collecting = gc.isenabled()
    gc.disable()
    try:
        _prepare(args)
        return args.handler(args)
    except UILogError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc))
    finally:
        if collecting:
            gc.enable()


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
