"""Worst-case additive-regret analysis of finite games.

Exact-rational solvers for competitive (minimax-regret) and rationally
competitive strategies, plus three built-in families: k-th price bidding
games, repeated/randomized game sequences, and two-agent one-way trading.

Importing the package runs none of its submodules. The kernel modules are
registered in ``sys.modules`` and as package attributes through
:class:`importlib.util.LazyLoader`, and a kernel's body runs when one of its
attributes is first read, so code that lists or patches the package's modules
sees every kernel from ``import regretgames`` on, as it did when the package
imported them eagerly. A public name below is read from its submodule on each
access.
"""

import importlib.util
import sys

#: The submodules registered lazily; ``errors``, ``rational``, ``game`` and
#: ``cli`` load on a plain import.
_KERNELS = ("solver", "dominance", "bidding", "repeated", "trading")

#: Public names, by the submodule that defines them.
_EXPORTS = {
    "errors": (
        "AssumptionError", "ContractError", "InputError", "RegretGamesError", "SizeError",
        "DEFAULT_DENSE_CAP",
    ),
    "game": (
        "Game", "Restriction", "game_from_json", "game_to_json", "load_game", "make_dense_game",
        "save_game",
    ),
    "solver": ("RegretReport", "all_player_reports", "minimax_regret"),
    "dominance": ("RationalSet", "iterated_rational_sets", "rational_restriction", "rational_set"),
    "bidding": (
        "BiddingSpec", "ClaimPrediction", "DivergenceReport", "bidding_utility",
        "closed_form_competitive", "closed_form_rational", "make_bidding_game",
        "verify_claims",
    ),
    "repeated": (
        "ExpandedGame", "FolkReport", "GameSequence", "RandomGameSpec", "SequenceAnalysis",
        "decision_points", "expand_sequence", "folk_strategy", "random_realizations",
        "verify_folk_theorem",
    ),
    "trading": (
        "PASS", "TAKE", "SingleAgentAudit", "SweepResult", "TradingOutcome", "TradingSpec",
        "TradingStrategy", "audit_single_agent", "competitive_trading_strategy",
        "minimal_regret_sweep", "rational_trading_strategy", "reference_strategy",
        "simulate", "single_agent_threshold", "trading_oracle", "trading_oracle_report",
        "trading_payoff",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)

__version__ = "0.1.0"


def _register(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _KERNELS:
    globals()[_name] = _register(_name)
del _name


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_SOURCE})
