"""Command-line interface: one executable for solvers, verifiers and simulators.

Outputs are deterministic: fixed key order, rationals rendered as "p/q", no
timestamps. Exit codes: 0 success, 1 divergence or failure under --strict,
2 invalid input, 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

# lazy modules of the package: each loads when a handler first reads from it
from . import bidding, dominance, repeated, solver, trading
from .errors import (DEFAULT_DENSE_CAP, DEFAULT_ENUM_CAP, DEFAULT_REALIZATION_CAP, InputError,
                     SizeError)
from .game import Game, game_from_json, game_to_json, json_text, load_game, read_json
from .rational import parse_rational

EXIT_OK = 0
EXIT_DIVERGENCE = 1
EXIT_INPUT = 2
EXIT_SIZE = 3

#: The solve modes each ``--mode`` choice runs, in output order.
_MODES = {"full": ("full",), "rational": ("rational",), "both": ("full", "rational")}

SCHEMAS = {
    "game": {
        "type": "object",
        "required": ["players", "strategy_counts", "payoffs"],
        "properties": {
            "players": {"type": "integer", "minimum": 2},
            "strategy_counts": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            "labels": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "string"}},
            },
            "payoffs": {
                "description": "nested arrays, one level per player; innermost entry "
                "is a list of one rational per player, each an integer or a 'p/q' string"
            },
        },
    },
    "sequence": {
        "type": "object",
        "required": ["stages"],
        "properties": {
            "stages": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "description": "inline game object, or a string path to a game file "
                    "resolved relative to the sequence file"
                },
            }
        },
    },
    "random_game": {
        "type": "object",
        "required": ["pool", "length", "mode"],
        "properties": {
            "pool": {"type": "array", "minItems": 1, "items": {"description": "as sequence stages"}},
            "length": {"type": "integer", "minimum": 1},
            "mode": {"enum": ["exhaustive", "sampled"]},
            "seed": {"type": "integer", "description": "required in sampled mode"},
            "samples": {"type": "integer", "minimum": 1},
            "realization": {"type": "array", "items": {"type": "integer"}},
        },
    },
    "announcements": {
        "type": "array",
        "items": {
            "type": "array",
            "minItems": 2,
            "maxItems": 2,
            "items": {"description": "integer or 'p/q' string"},
        },
        "description": "one [a1, a2] pair per iteration",
    },
    "manifest": {
        "type": "object",
        "required": ["specs"],
        "properties": {
            "specs": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["l", "T", "k"],
                    "properties": {
                        "l": {"type": "array", "items": {"type": "integer"}},
                        "T": {"type": "integer"},
                        "k": {"type": "integer"},
                    },
                },
            }
        },
    },
}


def _rational_arg(text: str):
    try:
        return parse_rational(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _load_games(entries, base_dir: Path, what: str) -> tuple[Game, ...]:
    """The games of a sequence or pool file. Each game file is loaded once, so
    stages from one file share one ``Game`` and its cached payoff views."""
    if not isinstance(entries, list):
        raise InputError(f"{what} must be an array of games, got {entries!r}")
    games = []
    loaded = {}
    for entry in entries:
        if isinstance(entry, str):
            if entry not in loaded:
                loaded[entry] = load_game(base_dir / entry)
            games.append(loaded[entry])
        elif isinstance(entry, dict):
            games.append(game_from_json(entry))
        else:
            raise InputError(f"game entry must be an object or a file path, got {entry!r}")
    return tuple(games)


def _load_sequence(path):
    obj = read_json(path)
    if not isinstance(obj, dict) or "stages" not in obj:
        raise InputError(f"{path}: sequence files need a 'stages' array")
    base = Path(path).parent
    return repeated.GameSequence(_load_games(obj["stages"], base, "stages"))


def _load_random_spec(path):
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: random game files must hold an object")
    missing = {"pool", "length", "mode"} - set(obj)
    if missing:
        raise InputError(f"{path}: missing keys {sorted(missing)}")
    base = Path(path).parent
    pool = _load_games(obj["pool"], base, "pool")
    return repeated.RandomGameSpec(
        pool=pool,
        length=obj["length"],
        mode=obj["mode"],
        seed=obj.get("seed"),
        samples=obj.get("samples", 1),
        realization=obj.get("realization"),
    )


def _emit(args, payload: dict, rows=None) -> None:
    if args.format == "json":
        text = json_text(payload) + "\n"
    elif args.format == "csv":
        if rows is None:
            raise InputError("csv output is not available for this command")
        import csv
        import io

        header, data = rows
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(data)
        text = buffer.getvalue()
    else:
        text = _render_text(payload) + "\n"
    _write(args, text)


def _write(args, text: str) -> None:
    if args.output is not None:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _render_text(payload, depth=0) -> str:
    pad = "  " * depth
    if isinstance(payload, dict):
        lines = []
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, depth + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
        return "\n".join(lines)
    if isinstance(payload, list):
        lines = []
        for value in payload:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_text(value, depth + 1))
            else:
                lines.append(f"{pad}- {value}")
        return "\n".join(lines) if lines else f"{pad}(empty)"
    return f"{pad}{payload}"


# -- subcommands ---------------------------------------------------------------


def _cmd_solve(args) -> int:
    game = load_game(args.game)
    players = range(game.player_count) if args.player is None else [
        game._validate_player(args.player)
    ]
    reports = []
    picks = []
    for mode in _MODES[args.mode]:
        restriction = solver.mode_restriction(game, mode)
        for p in players:
            report = solver.minimax_regret(game, p, restriction)
            reports.append(report.to_json())
            pick = {"player": p, "restriction": mode, "canonical_pick": report.canonical_pick}
            if game.strategy_labels is not None:
                pick["label"] = game.strategy_labels[p][report.canonical_pick]
            picks.append(pick)
    payload = {
        "command": "solve",
        "input": {"game": game_to_json(game)},
        "reports": reports,
        "canonical_picks": picks,
    }
    header = ["player", "restriction", "minimax_regret", "argmin", "worst_regret_per_strategy"]
    rows = [
        [r["player"], r["restriction"], r["minimax_regret"],
         ";".join(str(i) for i in r["argmin"]),
         ";".join(r["worst_regret_per_strategy"])]
        for r in reports
    ]
    _emit(args, payload, (header, rows))
    return EXIT_OK


def _cmd_dominance(args) -> int:
    game = load_game(args.game)
    sets = dominance.iterated_rational_sets(game, args.rounds)
    payload = {
        "command": "dominance",
        "input": {"game": game_to_json(game), "rounds": args.rounds},
        "rational_sets": [s.to_json() for s in sets],
    }
    header = ["player", "allowed", "eliminated"]
    rows = [
        [s.player, ";".join(str(i) for i in s.allowed),
         ";".join(f"{a}<-{w}" for a, w in s.eliminated)]
        for s in sets
    ]
    _emit(args, payload, (header, rows))
    return EXIT_OK


def _parse_bidding_spec(args):
    try:
        valuations = tuple(int(v) for v in args.l.split(","))
    except ValueError as exc:
        raise InputError(f"--l must be a comma-separated list of integers, got {args.l!r}") from exc
    return bidding.BiddingSpec(valuations, args.T, args.k)


def _cmd_bidding(args) -> int:
    spec = _parse_bidding_spec(args)
    payload = {"command": "bidding", "input": spec.to_json()}
    rows = None
    exit_code = EXIT_OK
    if args.verify:
        report = bidding.verify_claims(spec)
        payload["verification"] = report.to_json()
        if args.format == "text":
            payload["verification_table"] = report.to_text().splitlines()
        header = ["player", "mode", "source", "predicted_bid", "predicted_regret",
                  "oracle_minimax", "oracle_argmin", "match"]
        rows = (header, [
            [e["player"], e["mode"], e["source"],
             "" if e["predicted_bid"] is None else e["predicted_bid"],
             "" if e["predicted_regret"] is None else e["predicted_regret"],
             e["oracle_minimax"], ";".join(str(i) for i in e["oracle_argmin"]),
             e["match"]]
            for e in payload["verification"]["entries"]
        ])
        if args.strict and not report.all_match:
            exit_code = EXIT_DIVERGENCE
    else:
        game = bidding.make_bidding_game(spec)
        payload["reports"] = [
            r.to_json() for mode in _MODES[args.mode]
            for r in solver.all_player_reports(game, mode)
        ]
        predictions = []
        for player in range(spec.player_count):
            for fn in (bidding.closed_form_competitive, bidding.closed_form_rational):
                prediction = fn(spec, player)
                if prediction is not None:
                    predictions.append(prediction.to_json())
        payload["closed_forms"] = predictions
        header = ["player", "restriction", "minimax_regret", "argmin"]
        rows = (header, [
            [r["player"], r["restriction"], r["minimax_regret"],
             ";".join(str(i) for i in r["argmin"])]
            for r in payload["reports"]
        ])
    _emit(args, payload, rows)
    return exit_code


def _cmd_repeated(args) -> int:
    if (args.sequence is None) == (args.random is None):
        raise InputError("exactly one of --sequence or --random is required")
    if args.sequence is not None:
        subject = _load_sequence(args.sequence)
        subject_json = {"sequence": args.sequence, "stages": len(subject)}
    else:
        spec = _load_random_spec(args.random)
        subject = spec
        subject_json = {
            "random": args.random,
            "pool_size": len(spec.pool),
            "length": spec.length,
            "mode": spec.mode,
        }
        if spec.mode == "sampled":
            subject_json["seed"] = spec.seed
    report = repeated.verify_folk_theorem(
        subject, args.mode, dense_cap=args.dense_cap, realization_cap=args.realization_cap
    )
    payload = {
        "command": "repeated",
        "input": subject_json,
        "report": report.to_json(),
    }
    header = ["realization", "player", "passed"]
    rows = (header, [
        ["" if e.realization is None else ";".join(str(i) for i in e.realization),
         e.player, e.passed]
        for e in report.entries
    ])
    _emit(args, payload, rows)
    if args.strict and not report.all_pass:
        return EXIT_DIVERGENCE
    return EXIT_OK


def _cmd_trading(args) -> int:
    if args.sweep and not args.oracle:
        raise InputError("--sweep needs --oracle")
    # each of these picks the whole output, so a second one would be dropped
    actions = [flag for flag, given in (("--audit-single", args.audit_single),
                                        ("--simulate", args.simulate is not None),
                                        ("--oracle", args.oracle))
               if given]
    if len(actions) > 1:
        raise InputError(f"{' and '.join(actions)} cannot be combined")
    if args.audit_single:
        if args.m1 is None or args.M1 is None:
            raise InputError("--audit-single needs --m1 and --M1 (and optionally --t)")
        audit = trading.audit_single_agent(
            args.M1, args.m1, 3 if args.t is None else args.t, args.enum_cap
        )
        payload = {
            "command": "trading",
            "single_agent_audit": audit.to_json(),
            "note": "closed-form threshold reported verbatim next to the "
            "brute-force optimum; they may disagree",
        }
        _emit(args, payload)
        return EXIT_OK
    for name in ("m1", "M1", "m2", "M2", "t", "K"):
        if getattr(args, name) is None:
            raise InputError(f"--{name} is required for this trading command")
    spec = trading.TradingSpec((args.m1, args.m2), (args.M1, args.M2), args.t, args.K)
    modes = _MODES[args.mode]
    payload = {"command": "trading", "input": spec.to_json()}
    rows = None
    if args.simulate is not None:
        pairs = read_json(args.simulate)
        if not isinstance(pairs, list) or not all(isinstance(pair, list) for pair in pairs):
            raise InputError(f"{args.simulate}: announcements must be a list of pairs")
        announcements = [[parse_rational(v) for v in pair] for pair in pairs]
        mode = modes[0]
        strategies = [trading.reference_strategy(spec, player, mode) for player in (0, 1)]
        outcome, trace = trading.simulate(spec, strategies, announcements)
        payload["mode"] = mode
        payload["outcome"] = outcome.to_json()
        payload["trace"] = trace
        if args.format == "text":
            records = trace + [{"outcome": outcome.to_json()}]
            _write(args, "".join(json.dumps(row) + "\n" for row in records))
            return EXIT_OK
        header = ["iteration", "announcement_1", "announcement_2", "action_1", "action_2",
                  "payoff_1", "payoff_2"]
        rows = (header, [
            [row["iteration"], row["announcements"][0], row["announcements"][1],
             row["actions"][0], row["actions"][1],
             row["iteration_payoffs"][0], row["iteration_payoffs"][1]]
            for row in trace
        ])
    elif args.oracle:
        oracle_rows = []
        results = []
        for mode in modes:
            for player in (0, 1):
                entry = trading.trading_oracle_report(
                    spec, player, trading.reference_strategy(spec, player, mode), mode,
                    grid_step=args.grid_step, enum_cap=args.enum_cap,
                )
                if args.sweep:
                    sweep = trading.minimal_regret_sweep(
                        spec, player, mode, grid_step=args.grid_step, enum_cap=args.enum_cap
                    )
                    entry["sweep"] = sweep.to_json()
                results.append(entry)
                oracle_rows.append([
                    player, mode, entry["strategy"]["kind"], entry["worst_case_regret"],
                    entry.get("sweep", {}).get("reference_optimal", ""),
                ])
        payload["oracle"] = results
        rows = (["player", "mode", "strategy", "worst_case_regret", "optimal"], oracle_rows)
    else:
        payload["strategies"] = [
            trading.reference_strategy(spec, player, mode).describe()
            for mode in modes for player in (0, 1)
        ]
        payload["single_agent_thresholds"] = [
            str(trading.single_agent_threshold(spec.price_caps[i], spec.price_floors[i]))
            for i in (0, 1)
        ]
        payload["single_agent_threshold_note"] = (
            "stated closed form (cap - floor) / 2, reported verbatim; "
            "run --audit-single to compare it with the brute-force optimum"
        )
    _emit(args, payload, rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    manifest = read_json(args.manifest)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("specs"), list):
        raise InputError(f"{args.manifest}: manifest files need a 'specs' array")
    reports = []
    mismatch_count = 0
    for i, entry in enumerate(manifest["specs"]):
        if not isinstance(entry, dict) or not {"l", "T", "k"} <= set(entry):
            raise InputError(f"manifest spec {i} needs keys l, T, k")
        spec = bidding.BiddingSpec(entry["l"], entry["T"], entry["k"])
        report = bidding.verify_claims(spec)
        mismatch_count += len(report.mismatches())
        reports.append(report.to_json())
    payload = {
        "command": "verify",
        "input": {"manifest": args.manifest, "specs": len(reports)},
        "mismatch_count": mismatch_count,
        "reports": reports,
    }
    header = ["spec", "player", "mode", "source", "match"]
    rows = (header, [
        [json.dumps(r["spec"]), e["player"], e["mode"], e["source"], e["match"]]
        for r in reports
        for e in r["entries"]
    ])
    _emit(args, payload, rows)
    if args.strict and mismatch_count:
        return EXIT_DIVERGENCE
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


def _add_output_flags(parser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json",
                        help="output format (default: json)")
    parser.add_argument("--output", metavar="PATH", default=None,
                        help="write to a file instead of stdout")


_IGNORED_DENSE_CAP = (
    "ignored: bidding games are always built dense; the flag is accepted only "
    "until the benchmark's bid-lazy job stops passing it"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regretgames",
        description="Worst-case additive-regret analysis of finite games.",
    )
    parser.add_argument("--schema", action="store_true",
                        help="print the JSON schemas of all input formats and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve", help="solve a game file for minimax-regret strategies")
    p.add_argument("--game", required=True, metavar="FILE")
    p.add_argument("--player", type=int, default=None)
    p.add_argument("--mode", choices=_MODES, default="full")
    _add_output_flags(p)

    p = sub.add_parser("dominance", help="compute surviving (non-dominated) strategy sets")
    p.add_argument("--game", required=True, metavar="FILE")
    p.add_argument("--rounds", type=int, default=1,
                   help="elimination rounds; 1 (default) is the standard single round")
    _add_output_flags(p)

    p = sub.add_parser("bidding", help="build and analyze a k-th price bidding game")
    p.add_argument("--l", required=True, metavar="CSV", help="valuations, e.g. 8,6,3")
    p.add_argument("--T", required=True, type=int, help="bid grid size")
    p.add_argument("--k", required=True, type=int, help="price rank")
    p.add_argument("--mode", choices=_MODES, default="both")
    p.add_argument("--verify", action="store_true",
                   help="check the closed-form strategies against the solver")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when a verification entry diverges")
    p.add_argument("--dense-cap", type=_non_negative_int, default=DEFAULT_DENSE_CAP,
                   help=_IGNORED_DENSE_CAP)
    _add_output_flags(p)

    p = sub.add_parser("repeated", help="verify folk strategies on sequences or pools")
    p.add_argument("--sequence", metavar="FILE")
    p.add_argument("--random", metavar="FILE")
    p.add_argument("--mode", choices=("full", "rational"), default="rational")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--dense-cap", type=_non_negative_int, default=DEFAULT_DENSE_CAP,
                   help="largest expanded game (profiles) to build; above it, exit 3")
    p.add_argument("--realization-cap", type=_non_negative_int,
                   default=DEFAULT_REALIZATION_CAP)
    _add_output_flags(p)

    p = sub.add_parser("trading", help="two-agent take-or-pass trading analysis")
    p.add_argument("--m1", type=int)
    p.add_argument("--M1", type=int)
    p.add_argument("--m2", type=int)
    p.add_argument("--M2", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--K", type=int)
    p.add_argument("--mode", choices=_MODES, default="both")
    p.add_argument("--grid-step", type=_rational_arg, default=1)
    p.add_argument("--enum-cap", type=_non_negative_int, default=DEFAULT_ENUM_CAP)
    p.add_argument("--oracle", action="store_true",
                   help="compute worst-case regret of the closed-form strategies")
    p.add_argument("--sweep", action="store_true",
                   help="with --oracle: check optimality over all reduced rules")
    p.add_argument("--simulate", metavar="FILE",
                   help="play the strategies against an announcements file")
    p.add_argument("--audit-single", action="store_true",
                   help="brute-force the single-agent threshold (uses --m1/--M1/--t)")
    _add_output_flags(p)

    p = sub.add_parser("verify", help="batch claim verification over a manifest")
    p.add_argument("--manifest", required=True, metavar="FILE")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--dense-cap", type=_non_negative_int, default=DEFAULT_DENSE_CAP,
                   help=_IGNORED_DENSE_CAP)
    _add_output_flags(p)

    return parser


_HANDLERS = {
    "solve": _cmd_solve,
    "dominance": _cmd_dominance,
    "bidding": _cmd_bidding,
    "repeated": _cmd_repeated,
    "trading": _cmd_trading,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def run(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; keep its code
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    if args.schema:
        sys.stdout.write(json_text(SCHEMAS) + "\n")
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_INPUT
    try:
        return _HANDLERS[args.command](args)
    except SizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
