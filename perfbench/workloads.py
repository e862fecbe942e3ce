"""The benchmark's workloads and how a run finds the program under test.

Every workload drives one built-in permitsim scenario through
``run_experiment``, the path ``permitsim run`` takes.  A run attempts
whole rounds of ``round_trials`` trials; trial ``j`` of a run started
with ``--seed n`` uses scenario seed ``SEED_STRIDE * n + j``, so the same
``--seed`` always gives the same trial inputs.

This module imports nothing from permitsim at import time: the set-up
probe times that import itself.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

SEED_STRIDE = 100_000

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no permitsim sources to measure."""


def load_permitsim():
    """Import permitsim from this checkout's ``src/`` and nowhere else."""
    package = SRC / "permitsim"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no permitsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import permitsim

    if Path(permitsim.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(
            f"permitsim was imported from {permitsim.__file__}, not from {package}")
    return permitsim


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    params: dict
    round_trials: int
    # layer boundaries (trace span names) the traced run must see called
    boundaries: tuple[str, ...]

    def trial_seed(self, run_seed: int, trial: int) -> int:
        return SEED_STRIDE * run_seed + trial


# boundaries every workload crosses
_COMMON = ("engine.run_execution", "experiment.run_experiment",
           "transcript.to_bytes", "transcript.from_lines")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # Timed lane at twice the scenario's default horizon: the leader-grant
    # scan in validate_broadcast, the full-ancestry tuples of BlockIndex
    # and the withholder's re-forks all grow faster than the horizon.
    Workload(
        name="stake-density-long",
        scenario="stake_density_certificates",
        params={"duration": 4000},
        round_trials=1,
        boundaries=_COMMON + (
            "engine.validate_broadcast", "permitter.covers",
            "messages.body_digest", "blocktree.index_add",
            "blocktree.view_add", "protocols.tracker", "adversary.strategy"),
    ),
    # Untimed lane with a wide roster: every processor mints a candidate
    # and asks for work every slot, and deliveries fan out to everyone.
    Workload(
        name="work-honest-wide",
        scenario="honest_work_liveness",
        params={"processors": 30, "duration": 1000},
        round_trials=1,
        boundaries=_COMMON + (
            "permitter.respond", "rng.substream_u64",
            "resource_pool.balance_of", "resource_pool.total",
            "messages.make_block", "blocktree.ancestor_at_height",
            "network.delivery_slot", "protocols.strategy",
            "analysis.verify_transcript_invariants",
            "analysis.check_security", "analysis.measure_liveness"),
    ),
    # The hidden-total attack: two coupled executions under an unsized pool
    # with a reference scale, and the attacker's private slot loop.
    Workload(
        name="work-simulation-release",
        scenario="simulation_release",
        params={"margin": 80, "maj_keys": 6},
        round_trials=2,
        boundaries=_COMMON + (
            "permitter.respond", "rng.substream_u64",
            "network.delivery_slot", "adversary.strategy"),
    ),
)}
