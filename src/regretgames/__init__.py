"""Worst-case additive-regret analysis of finite games.

Exact-rational solvers for competitive (minimax-regret) and rationally
competitive strategies, plus three built-in families: k-th price bidding
games, repeated/randomized game sequences, and two-agent one-way trading.
"""

from .errors import (
    AssumptionError,
    ContractError,
    InputError,
    RegretGamesError,
    SizeError,
)
from .game import (
    DEFAULT_DENSE_CAP,
    Game,
    OpponentProfile,
    Restriction,
    game_from_json,
    game_to_json,
    load_game,
    make_dense_game,
    save_game,
)
from .solver import RegretReport, all_player_reports, minimax_regret, regret, worst_case_regret
from .dominance import (
    RationalSet,
    iterated_rational_sets,
    rational_restriction,
    rational_set,
    weakly_dominates,
)
from .bidding import (
    BiddingSpec,
    ClaimPrediction,
    DivergenceReport,
    bidding_utility,
    closed_form_competitive,
    closed_form_rational,
    make_bidding_game,
    verify_claims,
)
from .repeated import (
    ExpandedGame,
    FolkReport,
    GameSequence,
    HistoryStrategy,
    PayoffExtremes,
    RandomGameSpec,
    SequenceAnalysis,
    decision_points,
    expand_sequence,
    folk_condition_holds,
    folk_strategy,
    is_competitive_in_all_subgames,
    payoff_extremes,
    random_realizations,
    subgames,
    verify_folk_theorem,
)
from .trading import (
    PASS,
    TAKE,
    SingleAgentAudit,
    SweepResult,
    TradingOutcome,
    TradingSpec,
    TradingStrategy,
    audit_single_agent,
    competitive_trading_strategy,
    minimal_regret_sweep,
    rational_trading_strategy,
    reference_strategy,
    simulate,
    single_agent_threshold,
    trading_oracle,
    trading_oracle_report,
    trading_payoff,
)

__version__ = "0.1.0"
