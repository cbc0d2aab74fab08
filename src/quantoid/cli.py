"""Command-line front end.

Subcommands: check, dual, hat, vee, share, expand, entropy.  All I/O is
JSON (see quantoid.documents for the formats).  Exit codes: 0 on success
(for `share`, the dealer is ideal; for `expand --verify-lemma52`, the
cross-check holds), 1 for an analyzable-but-negative verdict, 2 on any
input or validation error.  Outputs are deterministic byte for byte.

Start-up loads only what a command runs.  This module imports argparse,
json, sys and quantoid.errors; each command imports the library modules it
calls when it runs, and main imports the document writer after parsing.
So --help and a usage error load no numpy, and check, dual, hat and vee
load documents, setfn, duality and correspondence but not sharing,
expansion or entropic, which share, expand and entropy load on their own.

An output file (-o, or the OUT of dual, hat and vee) is written whole or
not at all: the text goes to a new file in OUT's directory, which then
replaces OUT (os.replace).  A failed write removes that file and leaves OUT
as it was.  OUT that exists and is not a regular file (/dev/null, a FIFO)
is written in place.  An OS error reading an input or writing an output
exits 2 as UnreadableInput or UnwritableOutput, with the OS error's text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import MalformedDocument, QuantoidError, UnreadableInput, UnwritableOutput


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too many digits
        raise MalformedDocument(str(exc)) from None
    except OSError as exc:
        raise UnreadableInput(str(exc)) from None


def _write_whole(path: str, text: str) -> None:
    """text as the file at path, through a new file in its directory that
    replaces it; on failure the new file is removed.  A path that exists
    and is not a regular file is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    head, tail = os.path.split(path)
    temp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    # mode 0o666 less the umask, as open(path, "w") gives a new file
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def _write(out, text: str) -> None:
    """text to the file out, or to stdout when out is None."""
    try:
        if out:
            _write_whole(out, text)
        elif hasattr(sys.stdout, "buffer"):  # the file's UTF-8, whatever the locale
            sys.stdout.flush()
            sys.stdout.buffer.write(text.encode("utf-8"))
        else:  # a text stream with no bytes beneath it, such as io.StringIO
            sys.stdout.write(text)
    except OSError as exc:
        # the OS error's text, naming the output rather than the new file
        named = OSError(exc.errno, exc.strerror, out or "<stdout>") if exc.errno else exc
        raise UnwritableOutput(str(named)) from None


def _exact_function(args):
    """The set function of args.file, read after loading every module that
    check, dual, hat or vee calls: documents, setfn, duality and
    correspondence.  The four load one set, so a process that has run any
    of them has loaded what the others call (perfbench's traced run wraps
    the functions of the modules loaded when a unit starts)."""
    from . import correspondence, documents, duality, setfn  # noqa: F401

    return documents.set_function_from_doc(_read_json(args.file))


def _cmd_check(args) -> tuple:
    from .setfn import classify

    return classify(_exact_function(args)).as_dict(), 0


def _cmd_transform(args) -> tuple:
    from . import correspondence, documents, duality

    f = _exact_function(args)
    # read off the modules when the op runs, so a wrapper put there is called
    transform = {"dual": duality.dual, "hat": correspondence.to_polymatroid,
                 "vee": correspondence.to_polyquantoid}[args.op]
    return documents.set_function_to_doc(transform(f)), 0


def _cmd_share(args) -> tuple:
    from . import documents
    from .sharing import analyze_sharing

    f = documents.set_function_from_doc(_read_json(args.file))
    report = analyze_sharing(f, args.dealer, args.kind)
    return documents.sharing_report_to_doc(report), 0 if report.ideal else 1


def _cmd_expand(args) -> tuple:
    if (args.mode is not None) == args.verify_lemma52:
        raise QuantoidError("expand takes exactly one of --mode and --verify-lemma52")
    from . import documents, expansion

    f = documents.set_function_from_doc(_read_json(args.file))
    if args.verify_lemma52:
        verdict = expansion.expansion_correspondence_holds(f)
        return {"lemma52": verdict}, 0 if verdict else 1
    builder = {
        "matroid": expansion.free_expand_polymatroid,
        "quantoid": expansion.free_expand_polyquantoid,
        "two-factor": expansion.two_factor,
    }[args.mode]
    return documents.expansion_to_doc(builder(f)), 0


def _cmd_entropy(args) -> tuple:
    from . import documents, entropic

    if args.classical:
        dist = documents.distribution_from_doc(_read_json(args.classical))
        fn = entropic.shannon_entropy_function(dist)
    else:
        state = documents.pure_state_from_doc(_read_json(args.quantum))
        fn = entropic.von_neumann_entropy_function(state)
    if args.snap is not None:
        return documents.set_function_to_doc(entropic.snap_to_rational(fn, args.snap)), 0
    return documents.approx_set_function_to_doc(fn), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantoid",
        description="Classify and transform rank functions of polymatroids and polyquantoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="print the axiom classification of a set-function document")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check, out=None)

    for op, blurb in [
        ("dual", "apply the singleton-preserving duality mapping"),
        ("hat", "add the singleton sum (polyquantoid to polymatroid direction)"),
        ("vee", "subtract half the singleton sum (polymatroid to polyquantoid direction)"),
    ]:
        p = sub.add_parser(op, help=blurb)
        p.add_argument("file")
        p.add_argument("out", nargs="?", default=None)
        p.set_defaults(handler=_cmd_transform, op=op)

    p = sub.add_parser("share", help="per-dealer secret-sharing analysis")
    p.add_argument("file")
    p.add_argument("--dealer", required=True)
    # setfn.POLYMATROID and setfn.POLYQUANTOID, spelled out so that parsing loads no numpy
    p.add_argument("--kind", choices=["polymatroid", "polyquantoid"], default="polymatroid")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(handler=_cmd_share)

    p = sub.add_parser("expand", help="free expansions and 2-factors")
    p.add_argument("file")
    p.add_argument("--mode", choices=["matroid", "quantoid", "two-factor"], default=None)
    p.add_argument("--verify-lemma52", action="store_true",
                   help="cross-check the two expansion routes of an integer polyquantoid")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("entropy", help="entropy function of a distribution or pure state")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--classical", metavar="DIST_JSON")
    group.add_argument("--quantum", metavar="STATE_JSON")
    p.add_argument("--snap", type=int, default=None, metavar="D",
                   help="snap values to rationals with denominator at most D")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(handler=_cmd_entropy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, code = args.handler(args)
        from .documents import dumps

        _write(args.out, dumps(doc))
        return code
    except QuantoidError as exc:
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")  # one stderr line
        print(f"{type(exc).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
