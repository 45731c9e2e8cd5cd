"""The policy screen over a token suite, for the explorer's tests."""

from repro.gen.explorer import (
    EXPLORE_DURATION_S,
    ExplorationRecord,
    screen_policies,
)
from repro.gen.generator import app_from_token, parse_app_token


def screen_tokens(tokens: list[str],
                  policies: tuple[str, ...] = ("paper", "balanced"),
                  num_cores: int = 8,
                  duration_s: float = EXPLORE_DURATION_S
                  ) -> list[ExplorationRecord]:
    """:func:`screen_policies` over a token suite, app-major order.

    Raises:
        ValueError: unknown policy or malformed token.
    """
    records: list[ExplorationRecord] = []
    for token in tokens:
        family, _, _, _ = parse_app_token(token)
        records.extend(screen_policies(
            app_from_token(token), policies, num_cores=num_cores,
            duration_s=duration_s, token=token, family=family))
    return records
