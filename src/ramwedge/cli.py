"""Command-line front end: run verification drivers, check user-supplied
chart points, and dump lattice bases.

Exit codes: 0 pass, 1 verification failure, 2 usage or schema error,
3 precision exhaustion.  All artifact files embed the numeric parameters
(p, precision) and are written atomically with deterministic bytes, so
repeated invocations produce identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .chart import (DEFAULT_P, DEFAULT_PRECISION, chart_point_from_json,
                    full_report, kl_annihilators, refined_annihilators,
                    spin_annihilators)
from .errors import (PrecisionExhaustedError, RankError, SchemaError,
                     SignatureError)
from .fields import PrimeField
from .indexsets import DRIVER_RANKS, MAX_RANK, bundle_ranks
from .lattices import GUARD_BAND, signature_eps

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

RESULT_IDS = (*DRIVER_RANKS, "all")

# The flags a single driver does not read; `verify all` accepts both and
# passes each to the drivers that read it.
UNREAD_FLAGS = {"sign-lemma": ("p", "precision"), "worst-terms": ("precision",),
                "operator-identities": ("precision",)}


def _write_json(path: str, obj) -> None:
    data = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_out(path: str) -> None:
    """Raise OSError, before any work and creating nothing, unless the
    nearest existing ancestor of path (path itself if it exists) is a
    writable directory, where the output directory can be made."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe) or not os.access(probe, os.W_OK | os.X_OK):
        raise OSError(f"{probe} is not a writable directory")


def _parse_signature(text: str, n: int):
    try:
        r, s = (int(t) for t in text.split(","))
    except ValueError as exc:
        raise SchemaError(f"signature must be 'r,s', got {text!r}") from exc
    if r + s != n or r < 0 or s < 0:
        raise SchemaError(f"signature {r},{s} is not a partition of n={n}")
    return r, s


def _parse_eps(text: str) -> int:
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise SchemaError(f"eps must be +1 or -1, got {text!r}")


def _dump_signature(args, n: int):
    """The signature of a refined or kl dump, (n - 1, 1) unless given; an
    --eps must agree with the eps the signature fixes."""
    r, s = _parse_signature(args.signature, n) if args.signature else (n - 1, 1)
    if args.eps and _parse_eps(args.eps) != signature_eps(s):
        raise SchemaError(f"--eps {args.eps} disagrees with signature {r},{s}, "
                          f"whose eps is {signature_eps(s):+d}")
    return r, s


def _modulus(args) -> int:
    """--p where a command reads it; None in args means not given."""
    return DEFAULT_P if args.p is None else args.p


def _precision(args) -> int:
    """--precision where a command reads it; None in args means not given."""
    return DEFAULT_PRECISION if args.precision is None else args.precision


def run_driver(*args, **kwargs) -> list:
    from .drivers import run_driver  # on first call: only verify loads drivers
    return run_driver(*args, **kwargs)


def cmd_verify(args) -> int:
    for flag in UNREAD_FLAGS.get(args.result_id, ()):
        if getattr(args, flag) is not None:
            raise SchemaError(f"--{flag} {getattr(args, flag)}: {args.result_id} "
                              f"reads no --{flag}")
    p, precision = _modulus(args), _precision(args)
    signature = None
    if args.signature:
        if args.result_id not in ("operator-identities", "all"):
            raise SignatureError(f"{args.result_id} reads no signature; only "
                                 f"operator-identities does")
        if args.n is None:
            raise SchemaError("--signature requires --n")
        signature = _parse_signature(args.signature, args.n)
    certificates = run_driver(args.result_id, n=args.n, p=p,
                              precision=precision, signature=signature)
    if args.result_id == "all" and args.n is not None:
        for result_id, rank in bundle_ranks(args.n):
            if rank != args.n:
                print(f"{result_id}: run at n = {rank}, not --n {args.n}",
                      file=sys.stderr)
    # no driver is seeded; the field stays so certificates keep their bytes
    invocation = {"p": p, "precision": precision, "seed": 0}
    all_pass = True
    for cert in certificates:
        path = os.path.join(args.out, f"certificate-{cert.result}.json")
        _write_json(path, dict(cert.to_json(), invocation=invocation))
        status = cert.verdict.upper()
        print(f"{cert.result}: {status} ({path})")
        all_pass = all_pass and cert.passed
    return EXIT_PASS if all_pass else EXIT_FAIL


def cmd_check_point(args) -> int:
    try:
        with open(args.input) as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {args.input}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise SchemaError(f"invalid JSON in {args.input}: {exc}") from exc
    pt = chart_point_from_json(obj)
    precision = _precision(args)
    report = full_report(pt, precision)
    field = pt.ring.field
    out_obj = {
        "params": {"n": pt.n, "p": getattr(field, "p", "rationals"),
                   "precision": precision,
                   "signature": list(pt.signature)},
        "report": report.to_json(),
    }
    path = os.path.join(args.out, "report.json")
    _write_json(path, out_obj)
    for name, verdict in report.conditions.items():
        print(f"{name}: {verdict.status}")
    print(f"report written to {path}")
    return EXIT_PASS


def cmd_dump_basis(args) -> int:
    p, precision = _modulus(args), _precision(args)
    field = PrimeField(p)
    n = args.n
    if not 2 <= n <= MAX_RANK:
        raise RankError("rank n must be at least 2" if n < 2 else
                        f"rank {n} out of supported range 2..{MAX_RANK}")
    if args.l is not None and args.kind != "kl":
        raise SchemaError(f"--l {args.l}: basis {args.kind} reads no degree; "
                          f"only basis kl does")
    kwargs, derived = {}, {}
    if args.kind == "spin":
        if args.signature:
            raise SignatureError("basis spin reads no signature; its sign is --eps")
        kwargs["eps"] = _parse_eps(args.eps) if args.eps else 1
        label = f"spin{kwargs['eps']:+d}"
        lattice = spin_annihilators(n, field.key(), kwargs["eps"], precision)
    elif args.kind == "refined":
        r, s = _dump_signature(args, n)
        kwargs.update(r=r, s=s)
        derived["eps"] = signature_eps(s)  # recorded; the signature fixes it
        label = f"refined-{r}-{s}"
        lattice = refined_annihilators(n, field.key(), r, s, precision)
    else:  # kl, the last of the parser's choices
        r, s = _dump_signature(args, n)
        l = args.l if args.l is not None else n
        if not 1 <= l <= n:
            raise SchemaError(f"--l {l}: basis kl needs 1 <= l <= n = {n}")
        kwargs.update(l=l, r=r, s=s)
        label = f"kl-{l}-{r}-{s}"
        lattice = kl_annihilators(n, field.key(), l, r, s, precision)
    basis, residue, ann = lattice.whole()
    out_obj = {
        "kind": args.kind,
        "n": n,
        "p": p,
        "precision": precision,
        "parameters": {**kwargs, **derived},
        "columns": basis.to_json()["columns"],
        "residueBasis": residue.to_json(),
        "annihilatorSummary": {
            "supportSize": len(ann.support),
            "kernelFunctionals": len(ann.functionals),
            "coordinateDimension": ann.coordinate_dim,
            "totalFunctionals": ann.functional_count,
        },
    }
    path = os.path.join(args.out, f"basis-{label}-n{n}.json")
    _write_json(path, out_obj)
    print(f"rank {len(basis)} basis written to {path}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramwedge",
        description="exact wedge-lattice verification for ramified unitary "
                    "moduli conditions")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=None,
                        help=f"pi-adic precision, a bound on pivot valuations (default {DEFAULT_PRECISION})")
    common.add_argument("--out", default="results",
                        help="output directory for artifact files")
    modulus = argparse.ArgumentParser(add_help=False)
    modulus.add_argument("--p", type=int, default=None,
                         help=f"odd prime modulus of the base field (default {DEFAULT_P})")

    p_verify = sub.add_parser("verify", parents=[common, modulus],
                              help="run a named verification driver")
    p_verify.add_argument("result_id", choices=RESULT_IDS)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--signature", default=None, metavar="R,S")
    p_verify.set_defaults(func=cmd_verify)

    # check-point takes p from its point file; without abbreviations a
    # stray --p is refused instead of read as --precision
    p_check = sub.add_parser("check-point", parents=[common], allow_abbrev=False,
                             help="evaluate every condition on a chart point file")
    p_check.add_argument("--input", required=True, metavar="FILE")
    p_check.set_defaults(func=cmd_check_point)

    p_basis = sub.add_parser("basis", parents=[common, modulus],
                             help="dump a lattice basis and its residue basis")
    p_basis.add_argument("kind", choices=("spin", "refined", "kl"))
    p_basis.add_argument("--n", type=int, required=True)
    p_basis.add_argument("--eps", default=None, metavar="+1|-1")
    p_basis.add_argument("--signature", default=None, metavar="R,S")
    p_basis.add_argument("--l", type=int, default=None)
    p_basis.set_defaults(func=cmd_dump_basis)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.precision is not None and args.precision <= GUARD_BAND:
            raise SchemaError(f"--precision must exceed the guard band "
                              f"{GUARD_BAND}, got {args.precision}")
        if vars(args).get("p") is not None:
            try:
                PrimeField(args.p)
            except ValueError as exc:
                raise SchemaError(f"--p {args.p}: {exc}") from None
        _check_out(args.out)
        return args.func(args)
    except PrecisionExhaustedError as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except RankError as exc:
        print(f"error: --n {args.n}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SignatureError as exc:
        print(f"error: --signature {args.signature}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # check-point's --input turns its read errors into SchemaError, so
        # what is left comes from --out: checked before any work, or met
        # when writing artifacts
        print(f"error: --out {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
