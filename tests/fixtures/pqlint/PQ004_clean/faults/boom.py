"""PQ004 fixture: the typed taxonomy, as a typed package uses it."""

from repro.errors import ConfigError, StoreError


def validate(rate: float) -> None:
    if not 0 <= rate <= 1:
        raise ConfigError(f"rate out of range: {rate}")


def give_up(attempts: int) -> None:
    raise StoreError(f"failed after {attempts} attempts")
