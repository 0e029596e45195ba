"""Command-line front end: bounds, calculus queries, verification, scans.

All results go to stdout as JSON (or CSV for scans); diagnostics go to
stderr.  Exit codes: 0 success, 1 verification failure, internal
inconsistency or a reader that closed stdout early, 2 usage or validation
errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .bounds import (
    TargetSpec,
    expand_targets,
    make_targets,
    min_valuation,
    product_valuation,
    zero_count_bound,
)
from .calculus import FiniteMap, functional_degree, zero_count
from .errors import ConsistencyError, ResourceLimitError
from .groups import AbelianShape, PGroupShape, enumeration_limit, max_functional_degree
from .intmath import check_prime, check_printable, too_long
from .oracle import PolySystem, poly_zero_count, verify_bound, zero_count_trace
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
        except ValueError as exc:
            raise ValueError(f"target shapes must look like '4,2:3', got {entry!r}") from exc
        shaped.append((AbelianShape(tuple(_parse_ints(factors_text, "shape"))), int(d_text)))
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


def _load_map(path: str) -> FiniteMap:
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
    result = min_valuation(args.p, alpha, _parse_budget(args.D))
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
    f = _load_map(args.map)
    _emit({"fdeg": functional_degree(f).to_json()})
    return 0


def _cmd_conjugate(args) -> int:
    result = conjugate(_check_columns(make_partition(_parse_ints(args.parts, "parts"))))
    print(json.dumps(result.to_json()))
    return 0


def _cmd_zeros(args) -> int:
    maps = [_load_map(path) for path in args.maps.split(",") if path]
    domain = None
    if args.domain:
        domain = AbelianShape(tuple(_parse_ints(args.domain, "domain")))
    count, ords = zero_count(maps, domain)
    _emit({"count": count, "ord": {str(q): o.to_json() for q, o in sorted(ords.items())}})
    return 0


def _cmd_verify(args) -> int:
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
        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer, fieldnames=["p", "alpha", "targets", "A", "B", "Abreve", "case", "bound"]
        )
        writer.writeheader()
        _printable(lambda: writer.writerows(rows))
        sys.stdout.write(buffer.getvalue())
    return 0


def _cmd_polybound(args) -> int:
    from .bounds import polynomial_system_bound

    degrees = _parse_ints(args.degrees, "degrees")
    reports = polynomial_system_bound(args.m, args.n, degrees)
    out = {"bounds": {str(q): r.to_json_dict() for q, r in sorted(reports.items())}}
    if args.system:
        count, ords = poly_zero_count(PolySystem.from_json_dict(_read_json(args.system)))
        out["count"] = count
        out["ord"] = {str(q): o.to_json() for q, o in sorted(ords.items())}
    _emit(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axkatz",
        description="p-adic lower bounds for zero counts on finite commutative groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pa(cmd):
        cmd.add_argument("--p", type=int, required=True, help="prime")
        cmd.add_argument("--alpha", required=True, help="exponent partition, e.g. 2,1")

    cmd = sub.add_parser("bound", help="two-case lower bound with all intermediates")
    add_pa(cmd)
    cmd.add_argument("--targets", help="cyclic targets beta:d[,beta:d...]")
    cmd.add_argument("--target-shape", action="append", help="p-group target '4,2:3'")
    cmd.set_defaults(fn=_cmd_bound)

    cmd = sub.add_parser("vp", help="minimum binomial-sum valuation with witness")
    add_pa(cmd)
    cmd.add_argument("--D", required=True, help="budget, integer or 'inf'")
    cmd.set_defaults(fn=_cmd_vp)

    cmd = sub.add_parser("nu", help="valuation of a binomial-sum product")
    add_pa(cmd)
    cmd.add_argument("--n", required=True, help="point, e.g. 1,0")
    cmd.set_defaults(fn=_cmd_nu)

    cmd = sub.add_parser("delta", help="maximal finite functional degree")
    add_pa(cmd)
    cmd.add_argument("--beta", type=int, required=True, help="codomain exponent exponent")
    cmd.set_defaults(fn=_cmd_delta)

    cmd = sub.add_parser("fdeg", help="functional degree of a tabulated map")
    cmd.add_argument("--map", required=True, help="function-table JSON file")
    cmd.set_defaults(fn=_cmd_fdeg)

    cmd = sub.add_parser("conjugate", help="conjugate partition")
    cmd.add_argument("--parts", required=True, help="partition, e.g. 3,2,2,1")
    cmd.set_defaults(fn=_cmd_conjugate)

    cmd = sub.add_parser("zeros", help="count simultaneous zeros of tabulated maps")
    cmd.add_argument("--maps", required=True, help="comma-separated JSON files")
    cmd.add_argument("--domain", help="domain factors when the map list is empty")
    cmd.set_defaults(fn=_cmd_zeros)

    cmd = sub.add_parser("verify", help="check the bound against actual zero counts")
    add_pa(cmd)
    cmd.add_argument("--targets", help="cyclic targets beta:d[,beta:d...]")
    cmd.add_argument("--target-shape", action="append", help="p-group target '4,2:3'")
    cmd.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    cmd.add_argument("--seed", type=int, help="seed for sampled mode")
    cmd.add_argument("--samples", type=int, default=25)
    cmd.add_argument("--cap", type=int, default=2**20, help="exhaustive table cap")
    cmd.set_defaults(fn=_cmd_verify)

    cmd = sub.add_parser("trace", help="recount zeros through lifted indicator series")
    cmd.add_argument("--maps", required=True, help="comma-separated JSON files")
    cmd.add_argument("--beta", type=int, help="lift exponent, defaults to ord + 1")
    cmd.set_defaults(fn=_cmd_trace)

    cmd = sub.add_parser("scan", help="bound over a grid of parameters")
    cmd.add_argument("--p", required=True, help="comma-separated primes")
    cmd.add_argument("--alphas", required=True, help="semicolon-separated partitions")
    cmd.add_argument("--targets", required=True, help="semicolon-separated target lists")
    cmd.add_argument("--format", choices=["json", "csv"], default="json")
    cmd.add_argument("--limit", type=int, default=10000, help="grid size cap")
    cmd.set_defaults(fn=_cmd_scan)

    cmd = sub.add_parser("polybound", help="per-prime bounds for systems over Z/mZ")
    cmd.add_argument("--m", type=int, required=True, help="modulus")
    cmd.add_argument("--n", type=int, required=True, help="variable count")
    cmd.add_argument("--degrees", required=True, help="comma-separated degree caps")
    cmd.add_argument("--system", help="optional polynomial-system JSON to count")
    cmd.set_defaults(fn=_cmd_polybound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
