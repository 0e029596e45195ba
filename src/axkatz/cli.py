"""Command-line front end: bounds, calculus queries, verification, scans.

All results go to stdout as JSON (or CSV for scans); diagnostics go to
stderr.  Exit codes: 0 success, 1 verification failure, internal
inconsistency or a reader that closed stdout early, 2 usage or validation
errors.  Handlers import calculus and oracle themselves, only when they run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .bounds import (
    TargetSpec,
    expand_targets,
    make_targets,
    min_valuation,
    polynomial_system_bound,
    product_valuation,
    zero_count_bound,
)
from .errors import ConsistencyError, ResourceLimitError
from .groups import AbelianShape, PGroupShape, enumeration_limit, max_functional_degree
from .intmath import check_prime, check_printable, power_exceeds, too_long
from .partitions import Partition, conjugate, make_partition


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"could not parse {what} {text!r}: {exc}") from exc


def _parse_partition(text: str) -> Partition:
    return make_partition(_parse_ints(text, "partition"))


def _parse_target_pairs(text: str, p: int) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        if not chunk:
            continue
        try:
            beta, d = chunk.split(":")
            pairs.append((int(beta), int(d)))
        except ValueError as exc:
            raise ValueError(f"targets must look like 'beta:d', got {chunk!r}") from exc
        if pairs[-1][0] < 1:
            raise ValueError(f"target exponents must be >= 1, got {chunk!r}")
    if not pairs:
        raise ValueError("at least one target is required")
    check_prime(p)
    for beta, _ in pairs:
        # Every output prints p^beta or B >= p^(beta - 1).
        check_printable(p, beta, "target exponent")
    return pairs


def _parse_printable_partition(text: str, p: int) -> Partition:
    """A partition whose largest part e leaves the output printable: bound,
    scan and delta print an integer >= p^(e - 1)."""
    alpha = _parse_partition(text)
    check_prime(p)
    check_printable(p, alpha.width, "part")
    return alpha


def _check_columns(partition: Partition) -> Partition:
    """The partition, once its Ferrers columns, one per unit of the largest
    part, are known to stay within the enumeration limit: conjugate and vp
    build them all."""
    limit = enumeration_limit()
    if partition.width > limit:
        raise ResourceLimitError(
            f"largest part {partition.width} exceeds the enumeration limit {limit}"
        )
    return partition


def _parse_budget(text: str) -> int | float:
    if text.strip().lower() in ("inf", "infinity"):
        return float("inf")
    try:
        value = int(text)
    except ValueError as exc:
        raise ValueError(f"budget must be an integer or 'inf', got {text!r}") from exc
    if value < 0:
        raise ValueError(f"budget must be nonnegative, got {value}")
    return value


def _shaped_targets(p: int, args) -> list[tuple[AbelianShape, int]]:
    shaped: list[tuple[AbelianShape, int]] = []
    if args.targets:
        for beta, d in _parse_target_pairs(args.targets, p):
            shaped.append((AbelianShape((p**beta,)), d))
    shaped += _parse_target_shapes(args)
    if not shaped:
        raise ValueError("provide --targets and/or --target-shape")
    return shaped


def _parse_target_shapes(args) -> list[tuple[AbelianShape, int]]:
    shaped = []
    for entry in args.target_shape or []:
        try:
            factors_text, d_text = entry.split(":")
            d = int(d_text)
        except ValueError as exc:
            raise ValueError(f"target shapes must look like '4,2:3', got {entry!r}") from exc
        shaped.append((AbelianShape(tuple(_parse_ints(factors_text, "shape"))), d))
    return shaped


def _target_spec(p: int, args) -> TargetSpec:
    """The --targets pairs as given plus the cyclic factors of each
    --target-shape; p**beta is never formed for a --targets pair, so a huge
    exponent costs no factoring."""
    pairs = _parse_target_pairs(args.targets, p) if args.targets else []
    shaped = _parse_target_shapes(args)
    if shaped:
        pairs += expand_targets(p, shaped).targets
    if not pairs:
        raise ValueError("provide --targets and/or --target-shape")
    return make_targets(p, pairs)


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _load_map(path: str):
    from .calculus import FiniteMap

    return FiniteMap.from_json_dict(_read_json(path))


def _printable(render):
    """render(), with a CLI-facing message when an integer is too long to print."""
    try:
        return render()
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        if limit and "integer string conversion" in str(exc):
            raise ValueError(too_long(limit)) from exc
        raise


def _emit(obj) -> None:
    print(_printable(lambda: json.dumps(obj, indent=2)))


def _cmd_bound(args) -> int:
    alpha = _parse_printable_partition(args.alpha, args.p)
    report = zero_count_bound(alpha, _target_spec(args.p, args))
    _emit(report.to_json_dict())
    return 0


def _cmd_vp(args) -> int:
    alpha = _check_columns(_parse_partition(args.alpha))
    budget, limit = _parse_budget(args.D), sys.get_int_max_str_digits()
    check_prime(args.p)
    # The witness sums to at most a finite budget, which was printable; with
    # no budget its largest entry is p^width - 1.
    if budget == float("inf") and limit and power_exceeds(args.p, alpha.width, 10**limit):
        raise ValueError(too_long(limit))
    result = min_valuation(args.p, alpha, budget)
    _emit(result.to_json_dict())
    return 0


def _cmd_nu(args) -> int:
    alpha = _parse_partition(args.alpha)
    point = _parse_ints(args.n, "point")
    _emit({"value": product_valuation(args.p, alpha, point).to_json()})
    return 0


def _cmd_delta(args) -> int:
    alpha = _parse_printable_partition(args.alpha, args.p)
    _emit({"delta": max_functional_degree(PGroupShape(args.p, alpha), args.beta)})
    return 0


def _cmd_fdeg(args) -> int:
    from .calculus import functional_degree

    f = _load_map(args.map)
    _emit({"fdeg": functional_degree(f).to_json()})
    return 0


def _cmd_conjugate(args) -> int:
    result = conjugate(_check_columns(make_partition(_parse_ints(args.parts, "parts"))))
    print(json.dumps(result.to_json()))
    return 0


def _cmd_zeros(args) -> int:
    from .calculus import zero_count

    maps = [_load_map(path) for path in args.maps.split(",") if path]
    domain = None
    if args.domain:
        domain = AbelianShape(tuple(_parse_ints(args.domain, "domain")))
    count, ords = zero_count(maps, domain)
    _emit({"count": count, "ord": {str(q): o.to_json() for q, o in sorted(ords.items())}})
    return 0


def _cmd_verify(args) -> int:
    from .oracle import verify_bound

    alpha = _parse_partition(args.alpha)  # verify_bound applies the digit check it needs
    shaped = _shaped_targets(args.p, args)
    if args.mode == "sampled" and args.seed is None:
        raise ValueError("sampled mode requires --seed for reproducibility")
    report = verify_bound(
        args.p,
        alpha,
        shaped,
        mode=args.mode,
        seed=args.seed,
        samples=args.samples,
        cap=args.cap,
    )
    _emit(report.to_json_dict())
    return 0 if report.passed else 1


def _cmd_trace(args) -> int:
    from .oracle import zero_count_trace

    maps = [_load_map(path) for path in args.maps.split(",") if path]
    report = zero_count_trace(maps, args.beta)
    _emit(report.to_json_dict())
    return 0


def _cmd_scan(args) -> int:
    primes = _parse_ints(args.p, "primes")
    alphas = [chunk for chunk in args.alphas.split(";") if chunk]
    target_lists = [chunk for chunk in args.targets.split(";") if chunk]
    total = len(primes) * len(alphas) * len(target_lists)
    if total > args.limit:
        raise ValueError(f"scan grid of size {total} exceeds the limit {args.limit}")
    rows = []
    for p in primes:
        for alpha_text in alphas:
            alpha = _parse_printable_partition(alpha_text, p)
            for targets_text in target_lists:
                targets = make_targets(p, _parse_target_pairs(targets_text, p))
                report = zero_count_bound(alpha, targets)
                rows.append(
                    {
                        "p": p,
                        "alpha": alpha_text,
                        "targets": targets_text,
                        "A": report.a_measure,
                        "B": report.b_measure,
                        "Abreve": report.truncated_measure,
                        "case": report.case,
                        "bound": report.bound,
                    }
                )
    if args.format == "json":
        _emit(rows)
    else:
        import csv

        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer, fieldnames=["p", "alpha", "targets", "A", "B", "Abreve", "case", "bound"]
        )
        writer.writeheader()
        _printable(lambda: writer.writerows(rows))
        sys.stdout.write(buffer.getvalue())
    return 0


def _cmd_polybound(args) -> int:
    degrees = _parse_ints(args.degrees, "degrees")
    limit = enumeration_limit()  # each report prints one partition row per variable
    if args.n > limit:
        raise ResourceLimitError(f"{args.n} variables exceed the enumeration limit {limit}")
    reports = polynomial_system_bound(args.m, args.n, degrees)
    out = {"bounds": {str(q): r.to_json_dict() for q, r in sorted(reports.items())}}
    if args.system:
        from .oracle import PolySystem, poly_zero_count

        count, ords = poly_zero_count(PolySystem.from_json_dict(_read_json(args.system)))
        out["count"] = count
        out["ord"] = {str(q): o.to_json() for q, o in sorted(ords.items())}
    _emit(out)
    return 0


def _arg(flag: str, help_text: str | None = None, **options) -> tuple[str, dict]:
    return flag, {"help": help_text, **options}


_PA = (_arg("--p", "prime", type=int, required=True),
       _arg("--alpha", "exponent partition, e.g. 2,1", required=True))
_TARGETS = (_arg("--targets", "cyclic targets beta:d[,beta:d...]"),
            _arg("--target-shape", "p-group target '4,2:3'", action="append"))
_MAPS = _arg("--maps", "comma-separated JSON files", required=True)

# Each command's help, handler and arguments, as (flag, add_argument keywords).
COMMANDS = {
    "bound": ("two-case lower bound with all intermediates", _cmd_bound, (*_PA, *_TARGETS)),
    "vp": ("minimum binomial-sum valuation with witness", _cmd_vp,
           (*_PA, _arg("--D", "budget, integer or 'inf'", required=True))),
    "nu": ("valuation of a binomial-sum product", _cmd_nu,
           (*_PA, _arg("--n", "point, e.g. 1,0", required=True))),
    "delta": ("maximal finite functional degree", _cmd_delta,
              (*_PA, _arg("--beta", "codomain exponent exponent", type=int, required=True))),
    "fdeg": ("functional degree of a tabulated map", _cmd_fdeg,
             (_arg("--map", "function-table JSON file", required=True),)),
    "conjugate": ("conjugate partition", _cmd_conjugate,
                  (_arg("--parts", "partition, e.g. 3,2,2,1", required=True),)),
    "zeros": ("count simultaneous zeros of tabulated maps", _cmd_zeros,
              (_MAPS, _arg("--domain", "domain factors when the map list is empty"))),
    "verify": ("check the bound against actual zero counts", _cmd_verify, (
        *_PA,
        *_TARGETS,
        _arg("--mode", choices=["exhaustive", "sampled"], default="exhaustive"),
        _arg("--seed", "seed for sampled mode", type=int),
        _arg("--samples", type=int, default=25),
        _arg("--cap", "exhaustive table cap", type=int, default=2**20),
    )),
    "trace": ("recount zeros through lifted indicator series", _cmd_trace,
              (_MAPS, _arg("--beta", "lift exponent, defaults to ord + 1", type=int))),
    "scan": ("bound over a grid of parameters", _cmd_scan, (
        _arg("--p", "comma-separated primes", required=True),
        _arg("--alphas", "semicolon-separated partitions", required=True),
        _arg("--targets", "semicolon-separated target lists", required=True),
        _arg("--format", choices=["json", "csv"], default="json"),
        _arg("--limit", "grid size cap", type=int, default=10000),
    )),
    "polybound": ("per-prime bounds for systems over Z/mZ", _cmd_polybound, (
        _arg("--m", "modulus", type=int, required=True),
        _arg("--n", "variable count", type=int, required=True),
        _arg("--degrees", "comma-separated degree caps", required=True),
        _arg("--system", "optional polynomial-system JSON to count"),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser, with only the subparser of ``command`` built when it names
    one; usage, help and error text are the same either way."""
    parser = argparse.ArgumentParser(
        prog="axkatz",
        description="p-adic lower bounds for zero counts on finite commutative groups",
    )
    names = [command] if command in COMMANDS else list(COMMANDS)
    # A metavar would rename the argument in the full parser's invalid-choice error.
    metavar = "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, fn, arguments = COMMANDS[name]
        cmd = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            cmd.add_argument(flag, **options)
        cmd.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does).  Python's recipe:
        # point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
